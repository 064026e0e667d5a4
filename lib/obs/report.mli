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
    timeline, dwell time per TCP state, and RTO counts. A removed
    subflow dwells in no state: its open interval closes at the
    removal, and a new one opens when the subflow is added again; the
    interval still open when the stream ends closes at the last
    event. *)

type t
(** Mutable accumulator; [to_json]/[to_text] may be called mid-stream
    and again later (they never mutate). *)

val create : unit -> t

val feed : t -> Trace.event -> unit
(** Fold one event in, in stream order. A fixed, small amount of work
    per event: the per-type count is an array slot, the last queue's
    accumulator is reused when the next event names that queue by the
    same string (a decoded stream shares one string per queue; equal
    strings from a JSONL replay go through a table by value), and a
    subflow is found through int-keyed tables. Folding a decoded stream
    allocates about one word per event, the cwnd timelines' growth. *)

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
