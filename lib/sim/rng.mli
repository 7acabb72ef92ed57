(** Deterministic pseudo-random numbers (SplitMix64).

    Every source of randomness in the simulator (workload offsets, ager
    decisions, think times) draws from an explicitly seeded [Rng.t] so
    that a given experiment configuration replays bit-for-bit. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] derives an independent stream; both [t] and the result
    advance deterministically from here on. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean (think times). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
