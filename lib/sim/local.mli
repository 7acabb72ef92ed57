(** The per-process operation context: one record per simulated process.

    {!Engine.spawn} creates one {!t} per process and its handler answers
    {!Self} with it, so the record survives suspensions and is invisible
    to every other process.  Its fields are the process's current
    attribution clock ({!Attrib}), current span ({!Span}) and one integer
    slot whose meaning belongs to the user (the write-ahead log stores
    its operation id there).  One effect crossing reaches all three;
    nothing is swapped when the process resumes.

    The clock and span types are defined here, once, and re-exported by
    {!Attrib} and {!Span}; use those modules to read and build them. *)

type clock = { mutable entries : (string * Time.t) list }
(** See {!Attrib.clock}. *)

type attr = I of int | S of string | B of bool
(** See {!Span.attr}. *)

type span = {
  trace_id : int;
  span_id : int;
  parent_id : int;
  name : string;
  track : string;
  start_us : Time.t;
  mutable stop_us : Time.t;
  mutable attrs : (string * attr) list;
  mutable kids : span list;
}
(** See {!Span.t}. *)

type t = {
  mutable clock : clock option;
  mutable span : span option;
  mutable slot : int option;
}

type _ Effect.t += Self : t Effect.t
(** Handled by {!Engine.spawn}; not for direct use. *)

val create : unit -> t
(** An empty record: nothing installed. *)

val self : unit -> t option
(** The calling process's record; [None] outside a simulated process. *)

val slot : unit -> int option
(** The current process's slot; [None] outside a process or when unset. *)

val with_slot : int -> (unit -> 'a) -> 'a
(** Run with the slot set, restoring the previous value on exit (even by
    exception).  Outside a process it just runs the callback. *)
