(** Flight-recorder analysis: fold trace events into per-queue latency
    and drop statistics plus per-subflow RTT/cwnd/state summaries.

    Feed an accumulator the events a traced run decodes
    ([Trace.capture]) or replay a JSONL trace file; then render with
    {!to_json} — a deterministic document, byte-identical across runs
    for a fixed seed, because no wall-clock data ever enters a report —
    or {!to_text} for aligned tables with p50/p90/p99 latency
    percentiles.

    Reconstructed per queue: enqueue/forward/drop counts (drops split
    by cause), queue-residence spans from {!Trace.Pkt_forward.qdelay}
    (log-bucketed histogram plus exact n/mean/min/max), and drop
    bursts — maximal runs of consecutive drops uninterrupted by an
    enqueue or forward. Per (flow, subflow): RTT samples, the cwnd
    timeline, dwell time per TCP state (open intervals close at the
    subflow's removal or the last event), and RTO counts. *)

type t
(** Mutable accumulator; [to_json]/[to_text] may be called mid-stream
    and again later (they never mutate). *)

val create : unit -> t

val feed : t -> Trace.event -> unit
(** Fold one event in, in stream order. *)

val load_jsonl : path:string -> (t, string) result
(** Replay a JSONL trace file through a fresh accumulator. Blank lines
    are skipped; the first malformed line aborts with
    ["path:line: reason"]. *)

val to_json : t -> Repro_stats.Json.t
(** Deterministic report document: event counts by type, time span,
    queues (sorted by name), subflows (sorted by flow then id). *)

val to_text : t -> string
(** Aligned text tables (queue and subflow sections) with p50/p90/p99
    latency percentiles in milliseconds. *)
