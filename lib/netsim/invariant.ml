exception Violation of string

let armed_from_env =
  match Sys.getenv_opt "OLIA_DEBUG_INVARIANTS" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

(* lint: allow R2 -- written once at startup or single-domain test setup, read-only while sweep domains run *)
let armed = ref armed_from_env

let enabled () = !armed
let set_enabled v = armed := v
let require cond msg = if not cond then raise (Violation msg)
