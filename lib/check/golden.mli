(** Golden regression: small canonical runs pinned under [test/golden/],
    one registry of three kinds.

    - {b Traces} ([<name>.jsonl]): four hand-built rigs — a Reno
      transfer through a tight droptail bottleneck, an OLIA transfer
      over two asymmetric paths, the same transfer on the [olia-fp]
      fixed-point kernel twin, and a finite transfer through a flapping
      link — with their full {!Repro_obs.Trace} event streams. The
      comparison zeroes every timestamp and reports the first
      divergence (event index, golden vs got).
    - {b Reports} ([report-*.json]): the flight-recorder document
      ({!Repro_obs.Report}) of a small fixed-seed Scenario B run on
      each OLIA backend. Timestamps are kept — the report is a pure
      function of the seed — and the comparison is semantic: both sides
      are parsed and re-serialized, so only value changes register, and
      the error pinpoints the first diverging byte.
    - {b Outcomes} ([outcomes/<name>.json]): every registry scenario at
      small parameters — the six testbed scenarios, the three FatTrees
      ([fattree-sharded] at 1 and 2 shards), every {!Repro_cc.Registry}
      algorithm on scenario B, and a few variants. Each file is the
      document [olia_sim run <scenario> -p ... --out] writes: scenario,
      resolved parameters and {!Repro_exp.Outcome.to_json}. The
      outcomes compare with {!Repro_exp.Outcome.bitwise_diff}, and the
      error names every differing field with its count of differing
      values and its largest absolute difference. Both sides are
      compared as JSON holds them: a non-finite value reads as [null],
      which matches any non-finite value and no finite one. With no
      field differing, the documents must still be identical
      (parameters, field order).

    Intentional behaviour changes are re-recorded with
    [olia_sim check --update-golden]. Recording arms and disarms the
    process-wide trace rings — not for use around concurrent traced
    runs. *)

val names : string list
(** Every golden, as its file's path below the golden directory without
    the extension (["reno-droptail"], ["report-scen-b"],
    ["outcomes/scenario-a"], ...). The functions below raise
    [Invalid_argument] on any other name. *)

val record : string -> Repro_obs.Trace.event list
(** Run a trace rig with the trace rings armed ([Trace.capture]) and
    return its decoded event stream. Raises [Invalid_argument] on a
    name that is not a trace, and [Trace.Overflow] if the run outgrows
    the rings. *)

val update : dir:string -> string -> unit
(** Re-record one golden file under [dir], creating [dir/outcomes/] if
    needed. *)

val update_all : dir:string -> unit

val check : dir:string -> string -> (unit, string) result
(** Re-run and compare against the golden file; the error explains the
    first divergence (traces, reports) or every differing field
    (outcomes). *)
