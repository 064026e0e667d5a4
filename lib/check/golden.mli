(** Golden-trace regression tests.

    Four small canonical simulations — a Reno transfer through a tight
    droptail bottleneck, an OLIA transfer over two asymmetric paths,
    the same transfer on the [olia-fp] fixed-point kernel twin, and a
    finite transfer through a flapping link — have their full
    {!Repro_obs.Trace} event streams recorded as JSONL under
    [test/golden/]. A {!check} re-runs the scenario and diffs the
    semantic event sequence against the recorded one, zeroing all
    timestamps first: intentional behaviour changes require
    re-recording with [olia_sim check --update-golden]. *)

val names : string list
(** The canonical scenario names (also the golden file basenames). *)

val record : string -> Repro_obs.Trace.event list
(** Run a canonical scenario with the trace rings armed
    ([Trace.capture]) and return its decoded event stream. Raises
    [Invalid_argument] on an unknown name and [Trace.Overflow] if the
    run outgrows the rings. Arms and disarms the process-wide rings —
    not for use around concurrent traced runs. *)

val update : dir:string -> string -> unit
(** Re-record one scenario's golden file ([<dir>/<name>.jsonl]). *)

val update_all : dir:string -> unit

val check : dir:string -> string -> (unit, string) result
(** Re-run the scenario and compare against the golden file. The error
    carries a first-divergence diagnostic (event index, golden vs got,
    both with timestamps zeroed). *)

(** {2 Golden reports}

    A canonical flight-recorder document: a small fixed-seed Scenario B
    run analyzed with {!Repro_obs.Report} and pinned as JSON under
    [test/golden/]. Timestamps are kept — the report is a pure function
    of the seed — and the comparison is semantic: both sides are parsed
    and re-serialized, so only value changes register. *)

val report_names : string list
(** The canonical report names (also the golden file basenames,
    [<name>.json]). *)

val record_report : string -> Repro_stats.Json.t
(** Run the canonical scenario with the trace rings armed, feed the
    decoded stream to a report and return the document. Raises
    [Invalid_argument] on an unknown name; same ring caveats as
    {!record}. *)

val update_report : dir:string -> string -> unit
(** Re-record one golden report ([<dir>/<name>.json]). *)

val check_report : dir:string -> string -> (unit, string) result
(** Re-run and compare semantically against the golden report; the error
    pinpoints the first diverging byte of the canonical forms.
    [update_all] refreshes golden reports along with golden traces. *)
