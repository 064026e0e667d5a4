let fmax = Cc_types.fmax

(* Results of [scan] besides the per-path qualities. Float-only, so the
   stores stay unboxed. *)
type sums = {
  mutable best_w : float;  (* max_r w_r *)
  mutable best_q : float;  (* max_r ℓ_r/rtt_r² *)
  mutable denom : float;  (* Σ_r w_r/rtt_r *)
}

(* Per-subflow arrays, grown on first use so connections can add
   subflows after creation. [quality] and [sums] are scratch that
   [scan] overwrites, so an increase allocates nothing. *)
type state = {
  mutable ell1 : float array;
  mutable ell2 : float array;
  mutable quality : float array;
  sums : sums;
}

let fresh () =
  {
    ell1 = Array.make 4 0.;
    ell2 = Array.make 4 0.;
    quality = Array.make 4 0.;
    sums = { best_w = 0.; best_q = 0.; denom = 0. };
  }

let ensure st idx =
  if idx >= Array.length st.ell1 then begin
    let cap = Int.max (2 * (idx + 1)) 4 in
    let grow a = Array.init cap (fun i -> if i < Array.length a then a.(i) else 0.) in
    st.ell1 <- grow st.ell1;
    st.ell2 <- grow st.ell2;
    st.quality <- grow st.quality
  end

let[@inline] ell st r = fmax st.ell1.(r) st.ell2.(r)

(* One pass over the views: ℓ_r/rtt_r² into [quality], the two maxima
   and the Kelly denominator into [sums]. *)
let scan st (views : Cc_types.subflow_view array) =
  let s = st.sums in
  s.best_w <- neg_infinity;
  s.best_q <- neg_infinity;
  s.denom <- 0.;
  for r = 0 to Array.length views - 1 do
    let v = views.(r) in
    let rtt = fmax v.rtt 1e-9 in
    let q = ell st r /. (rtt ** 2.) in
    st.quality.(r) <- q;
    s.best_w <- fmax s.best_w v.cwnd;
    s.best_q <- fmax s.best_q q;
    s.denom <- s.denom +. (v.cwnd /. rtt)
  done

(* Membership in a maximal set; ties within 1e-9 relative are grouped. *)
let[@inline] in_max best x = best > 0. && x >= best *. (1. -. 1e-9)

(* Eq. 6 for path [idx], from the last [scan] of [views]. *)
let[@inline] alpha st (views : Cc_types.subflow_view array) idx =
  let s = st.sums in
  let nr = Array.length views in
  let n_m = ref 0 and n_bm = ref 0 in
  for r = 0 to nr - 1 do
    if in_max s.best_w views.(r).cwnd then incr n_m
    else if in_max s.best_q st.quality.(r) then incr n_bm
  done;
  let in_m = in_max s.best_w views.(idx).cwnd in
  let inv_ru = 1. /. float_of_int nr in
  if !n_bm = 0 then 0.
  else if (not in_m) && in_max s.best_q st.quality.(idx) then
    inv_ru /. float_of_int !n_bm
  else if in_m then -.inv_ru /. float_of_int !n_m
  else 0.

let alpha_values ~ell (views : Cc_types.subflow_view array) =
  let nr = Array.length views in
  let st = fresh () in
  ensure st (nr - 1);
  (* max(x, x) = x, so the scan reads [ell] back exactly *)
  Array.blit ell 0 st.ell1 0 nr;
  Array.blit ell 0 st.ell2 0 nr;
  scan st views;
  Array.init nr (alpha st views)

let make () =
  let st = fresh () in
  let last_views = ref [||] in
  let increase ~(views : Cc_types.subflow_view array) ~idx =
    ensure st (Array.length views - 1);
    (* a connection hands every call the same views array, so this
       store (a write barrier) is skipped after the first *)
    if !last_views != views then last_views := views;
    if Array.length views = 1 then
      (* Single path: OLIA degrades to regular TCP (Eq. 5 with one term
         equals 1/w and alpha = 0). *)
      1. /. fmax views.(0).cwnd 1e-9
    else begin
      scan st views;
      let v = views.(idx) in
      let rtt = fmax v.rtt 1e-9 in
      let denom = st.sums.denom in
      (v.cwnd /. (rtt *. rtt) /. fmax (denom *. denom) 1e-18)
      +. (alpha st views idx /. fmax v.cwnd 1e-9)
    end
  in
  let on_ack ~idx ~acked =
    ensure st idx;
    st.ell2.(idx) <- st.ell2.(idx) +. float_of_int acked
  in
  let on_loss ~idx =
    ensure st idx;
    st.ell1.(idx) <- st.ell2.(idx);
    st.ell2.(idx) <- 0.
  in
  let probe n =
    ensure st (n - 1);
    let ell = Array.init n (ell st) in
    let alpha =
      if Array.length !last_views = n then alpha_values ~ell !last_views
      else Array.make n 0.
    in
    (ell, alpha)
  in
  let cc =
    {
      Cc_types.name = "olia";
      multipath_initial_ssthresh = Some 1.;
      on_ack;
      on_loss;
      increase;
      loss_decrease = Cc_types.halve;
    }
  in
  (cc, probe)

let create () = fst (make ())

type probe = { ell : float array; alpha : float array }

let create_instrumented () =
  let cc, probe = make () in
  (cc, fun n -> let ell, alpha = probe n in { ell; alpha })
