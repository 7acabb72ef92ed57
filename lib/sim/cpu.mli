(** The simulated CPU.

    The paper's machine is a 20 MHz SPARCstation 1 (~12 MIPS).  Kernel
    code paths in the simulator do no real work; instead each path
    charges a calibrated number of microseconds (see {!Costs}) to the
    CPU.  The CPU is an exclusive resource: while one process is charged,
    others queue, which is how CPU contention shows up in multi-process
    workloads (MusBus) and how CPU cost steals time from the I/O pipeline
    in single-stream ones (the rotational-delay window).

    Charges are split into [Sys] and [User] so the Fig. 12 "system CPU
    seconds" comparison can be reported directly, and additionally keyed
    by a free-form label for per-path breakdowns. *)

type category = Sys | User

type t

val create : Engine.t -> t

val charge : t -> ?cat:category -> ?label:string -> Time.t -> unit
(** Occupy the CPU for the given duration of virtual time.  [cat]
    defaults to [Sys], [label] to ["other"].  Must be called from a
    process.  Labels are matched by address first and every label
    string seen is remembered, so pass string literals, not strings
    built per call. *)

val sys_time : t -> Time.t
(** Total virtual time charged as [Sys]. *)

val user_time : t -> Time.t

val by_label : t -> (string * Time.t) list
(** Per-label totals, descending by time; equal totals in ascending
    label order. *)

val reset : t -> unit
(** Zero all accounting (the resource itself is unaffected). *)
