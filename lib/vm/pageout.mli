(** The pageout daemon: the "basic two handed clock".

    "The first hand of the clock clears reference bits and the second
    hand frees the page if the reference bit is still clear.  The hands
    move, in unison, only when the amount of free memory drops below a
    low water mark."

    The daemon is a simulated process.  It sleeps until the allocator
    signals a shortage, then scans in ticks: per tick both hands advance
    by a batch sized from the current scan rate (interpolated between
    [slowscan] and [fastscan] by the severity of the shortage), charging
    CPU per page examined — which is precisely the overhead the paper's
    free-behind heuristic exists to avoid. *)

type config = {
  tick : Sim.Time.t;  (** scan granularity (default 20 ms) *)
  front_cost : Sim.Time.t;  (** CPU per front-hand examination *)
  back_cost : Sim.Time.t;  (** CPU per back-hand examination *)
  free_cost : Sim.Time.t;  (** CPU per page freed *)
}

val default_config : config

type stats = {
  mutable scans : int;  (** pages examined by the back hand *)
  mutable freed : int;
  mutable flushed : int;  (** dirty pages pushed *)
  mutable wakeups : int;
  mutable skipped_no_flusher : int;
}

type t

val start : ?config:config -> Pool.t -> Sim.Cpu.t -> t
(** Spawn the daemon. *)

val stats : t -> stats

val register_metrics : t -> Sim.Metrics.t -> instance:string -> unit
(** Register the daemon's scan/free/flush counters as a
    ["vm.pageout"] source. *)
