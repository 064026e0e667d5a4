(* Host-noise diagnostics: never gated, printed so a noisy run explains
   itself. Steal time comes from the kernel's aggregate "cpu" line in
   /proc/stat (absent off Linux, reported as -1); process CPU time from
   times(2). *)

type mark = { wall_ns : int; cpu_s : float; steal : int; total : int }

let read_cpu_line () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    Option.bind line (fun l ->
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | "cpu" :: fields -> (
          match List.map int_of_string_opt fields with
          | Some user :: Some nice :: Some system :: Some idle :: Some iowait
            :: Some irq :: Some softirq :: Some steal :: _ ->
            Some
              (steal, user + nice + system + idle + iowait + irq + softirq + steal)
          | _ -> None)
        | _ -> None)

let mark () =
  let t = Unix.times () in
  let steal, total =
    match read_cpu_line () with Some (s, t) -> (s, t) | None -> (-1, -1)
  in
  {
    wall_ns = Clock.now_ns ();
    cpu_s = t.Unix.tms_utime +. t.Unix.tms_stime;
    steal;
    total;
  }

(* Share of all CPU time the hypervisor stole between the marks. *)
let steal_share a b =
  if a.steal < 0 || b.total <= a.total then -1.
  else float_of_int (b.steal - a.steal) /. float_of_int (b.total - a.total)

(* Process CPU seconds per wall second between the marks. *)
let cpu_share a b =
  let wall = float_of_int (b.wall_ns - a.wall_ns) /. 1e9 in
  if wall <= 0. then 0. else (b.cpu_s -. a.cpu_s) /. wall
