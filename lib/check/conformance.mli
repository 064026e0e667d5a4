(** The conformance registry.

    Each {!case} runs one measurement — a packet simulation of a paper
    scenario, a fluid-model cross-validation, a fault-injection
    recovery scenario, or a float-vs-fixed-point differential of the
    kernel twins ({!Diff}) — and checks the resulting metrics against
    {!Band.t} tolerance bands, each citing the paper analysis or kernel
    source that justifies it. All runs use fixed seeds and
    deterministic counters, so {!run_all} produces byte-identical
    reports across invocations. *)

type case = {
  name : string;
      (** slug, e.g. ["a/lia"], ["fault/link-flap"] or ["diff/a-olia"] *)
  doc : string;  (** what is being cross-validated, with paper reference *)
  bands : Band.t list;
  run : unit -> (string * float) list;  (** metric name/value pairs *)
}

val cases : unit -> case list
(** The full registry: scenarios A/B/C under LIA, OLIA and uncoupled
    Reno vs their fluid predictions; closed-form vs general-solver
    cross-checks; the {!Faults} recovery scenarios; and the [diff/]
    cases, which run scenarios A/B/C and a per-ACK lockstep schedule
    under OLIA and BALIA and under their fixed-point twins, exporting
    [<m>.float], [<m>.fixed] and [<m>.rel_dev] (the lockstep cases
    also their joint [max_rel_divergence]) and bounding the deviations.
    Building the registry solves the uncoupled equilibria, so it takes
    a moment. *)

type case_report = {
  case : string;
  doc : string;
  metrics : (string * float) list;  (** everything the run measured *)
  results : Band.result list;
  pass : bool;
}

type report = {
  cases : case_report list;
  pass : bool;
  bands_total : int;
  bands_failed : int;
}

val run_case : case -> case_report

val selects : string option -> string -> bool
(** [selects only name]: [only] is [None] or a substring of [name] —
    the [--only] filter of [olia_sim check]. *)

val run_all : ?only:string -> unit -> report
(** Run every case {!selects} keeps (all by default). *)

val report_to_json : report -> Repro_stats.Json.t
(** Machine-readable conformance report: overall verdict, and per case
    its measured metrics and band results with expected/lo/hi/actual
    and the reference. *)
