(** JSON, read and written.

    The one place that knows the format: every JSON file the simulator,
    the bench and benchdiff write ({!Metrics.to_json} snapshots,
    {!Span.to_chrome} traces, fio reports, benchdiff baselines) is a
    [t] printed by {!to_string}, and the regression gate and trace-shape
    tooling read them back with {!parse}.  The toolchain has no JSON
    dependency, and pulling one in would be heavier than this module.
    Numbers are doubles, read and written: an integer beyond 2^53 (the
    [max_int] top bound of a {!Stats.Hist}) reads and prints as the
    nearest double. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

val parse : string -> (t, string) result
(** Errors carry a character offset and a short description. *)

val member : string -> t -> t option
(** First member of that name of an [Obj]; [None] otherwise. *)

val to_list : t -> t list
(** Elements of a [List]; [[]] otherwise. *)

val num : t -> float option
val str : t -> string option

val to_string : t -> string
(** One fixed layout: each element of a non-empty array whose elements
    are all objects on its own line, everything else inline (so a
    snapshot has one source per line, a trace one event per line).  An
    integral [Num] prints without a fraction, any other as the shortest
    decimal that reads back to the same double.  Strings escape quote,
    backslash and control bytes; other bytes pass through.  No trailing
    newline.
    @raise Invalid_argument on a nan or infinite [Num]. *)
