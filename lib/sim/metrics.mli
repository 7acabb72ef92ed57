(** Unified observability registry.

    Every layer of the stack (disk drives, volume manager, VM pool and
    pageout daemon, UFS, EFS) registers a {e source}: a closure that
    reads the layer's live counters, summaries and histograms on
    demand.  Sources are labeled [layer] (which subsystem) and
    [instance] (which machine/config — experiments often build several
    machines per table), so one registry can hold an entire bench
    section and export it as a machine-readable perf trajectory.

    The export is dependency-free JSON; the bench harness writes
    one [BENCH_<section>.json] per section, and [blktrace --metrics]
    dumps the same shape for ad-hoc runs.  Policy decisions that used to
    be invisible (prefetch waste, free-behind firing on random reads)
    are first-class quantities here. *)

type value =
  | Int of int
  | Float of float
  | Summary of Stats.Summary.t
      (** exported as count/mean/stddev/min/max/total/p50/p95/p99 *)
  | Hist of Stats.Hist.t  (** exported as [[lo, hi, n], ...] buckets *)

type t

val create : unit -> t

val register :
  t -> layer:string -> ?instance:string -> (unit -> (string * value) list) -> unit
(** Add a source.  The closure is invoked at each export/snapshot, so
    registration is cheap and values are always current.  A duplicate
    ([layer], [instance]) pair is kept and deterministically renamed
    ["instance#2"], ["instance#3"], … in registration order. *)

val snapshot : t -> (string * string * (string * value) list) list
(** [(layer, instance, metrics)] in registration order. *)

val get : t -> layer:string -> ?instance:string -> string -> value option
(** Look up one metric of one source (after instance disambiguation). *)

val to_json : ?meta:(string * string) list -> t -> string
(** The whole registry as a JSON document, printed by {!Json.to_string}:
    [{..meta.., "sources": [{"layer", "instance", "metrics": {..}}]}],
    one source per line.  Floats keep 6 significant digits; nan/infinite
    floats (which no metric should produce) render as [null] rather than
    corrupting the document. *)
