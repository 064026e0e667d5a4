(** Periodic measurement probes: attach samplers to connections and
    queues and collect time series without hand-rolling schedule loops in
    every experiment. *)

type t

val create :
  sim:Sim.t -> period:float -> ?start:float -> ?stop:float -> unit -> t
(** A monitor sampling every [period] seconds from [start] (default 0);
    raises [Invalid_argument] unless [period] is finite and positive.
    Without [stop], sampling continues while other events remain queued —
    note that two such monitors keep each other alive forever under
    [Sim.run], so pass [stop] (or use [Sim.run_until]) when attaching
    several monitors. *)

val series : t -> string -> Repro_stats.Timeseries.t
(** The series recorded under a name (raises [Not_found] before the
    first sample of that name... the series is created on registration,
    so this is safe after the corresponding [watch_*] call). *)

val names : t -> string list

val watch : t -> string -> (unit -> float) -> unit
(** Record an arbitrary probe under a name. *)

val watch_cwnd : t -> string -> Tcp.conn -> int -> unit
(** Congestion window of one subflow. *)

val watch_goodput : t -> string -> Tcp.conn -> unit
(** Connection goodput in Mb/s over each sampling period (differences of
    delivered packets). *)

val watch_backlog : t -> string -> Queue.t -> unit

val watch_drops : t -> string -> Queue.t -> unit
(** Cumulative data-packet drops of a queue (since [reset_stats]). *)

val watch_loss : t -> string -> Queue.t -> unit
(** Cumulative loss probability of a queue. *)

val to_csv : t -> path:string -> unit
(** Export all series on a shared time grid, one column per name. *)
