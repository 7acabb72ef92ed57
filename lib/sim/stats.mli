(** Streaming statistics and histograms for experiment reporting. *)

module Summary : sig
  (** Welford streaming mean/variance plus min/max. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit

  val add_int : t -> int -> unit
  (** [add_int t i] is [add t (float_of_int i)], without boxing a float
      at the call: for the many summaries of integer microseconds. *)

  val count : t -> int
  val mean : t -> float
  (** 0.0 when empty. *)

  val variance : t -> float
  (** Sample variance; 0.0 with fewer than two observations. *)

  val stddev : t -> float
  val min : t -> float
  (** 0.0 when empty, like [mean] — empty summaries must not leak nan
      into tables or the metrics JSON export. *)

  val max : t -> float
  (** 0.0 when empty. *)

  val total : t -> float

  val percentile_of : t -> float -> float
  (** [percentile_of t p] for [p] in [0,100], 0.0 when empty.  Exact
      while at most 4096 values have been observed; beyond that the
      summary keeps a deterministically decimated subsample (every
      2nd, 4th, … value), so long-run percentiles are approximate but
      reproducible.  Computed like {!percentile}, on one copy of the kept
      samples. *)
end

module Hist : sig
  (** Power-of-two bucketed histogram for latencies/sizes. *)

  type t

  val create : unit -> t
  val add : t -> int -> unit
  val count : t -> int

  val buckets : t -> (int * int * int) list
  (** [(lo, hi, n)] triples for non-empty buckets, ascending;
      values fall in [lo <= v <= hi].  Every value above [2^61] lands in
      the top bucket, whose [hi] is [max_int]. *)

  val pp : Format.formatter -> t -> unit
end

val percentile : float array -> float -> float
(** [percentile values p] for [p] in [0,100]; linear interpolation
    between closest ranks.  Sorts a copy — the caller's array is left
    untouched.  Raises [Invalid_argument] on an empty array. *)
