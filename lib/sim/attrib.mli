(** Per-operation cost attribution: a process-local phase clock.

    A {!clock} accumulates simulated time per named phase
    (["disk.seek"], ["rpc.wait"], ["wire"], …).  The clock travels with
    the simulated process that owns the current operation: {!with_clock}
    installs it for the dynamic extent of the operation, and any layer
    the operation blocks in charges the {e current} clock via
    {!blocked} — the disk layer when the process waits on a request,
    the RPC layer when it waits on a reply, the NFS client when it
    waits on an in-flight page.  The same call records the wait as a
    span interval when tracing is on, so traces and attribution come
    from one place.

    "Current" is per-{e process} (fiber), not global: the clock is a
    field of the process's {!Local} record, so two concurrent benchmark
    jobs each see only their own waits.  Processes the operation never
    blocks in (biods, nfsds working on someone else's call) charge
    their own clocks or none at all.  Outside any simulated process
    there is no clock and charging is a no-op.

    Charging is pure bookkeeping — it never schedules events, sleeps or
    otherwise perturbs the simulation, so instrumented and
    uninstrumented runs are time-step identical. *)

type clock = Local.clock

val create : unit -> clock

val charge : clock -> string -> Time.t -> unit
(** Accumulate a duration against a phase name.  Non-positive
    durations are ignored. *)

val read : clock -> (string * Time.t) list
(** Accumulated [(phase, total)] pairs, sorted by phase name. *)

val find : clock -> string -> Time.t
(** One phase's total; 0 if never charged. *)

val total : clock -> Time.t
(** Sum over all phases. *)

val merge_into : dst:clock -> clock -> unit
(** Add every phase of the source clock into [dst]. *)

val with_clock : clock -> (unit -> 'a) -> 'a
(** Install a clock for the extent of the callback (restoring the
    previous one on exit, including on exceptions).  Must be called
    inside a simulated process for the installation to stick; outside
    one it just runs the callback. *)

val blocked :
  rest:string ->
  ?parts:(string * Time.t) list ->
  ?name:string ->
  ?attrs:(string * Span.attr) list ->
  start_us:Time.t ->
  stop_us:Time.t ->
  unit ->
  unit
(** One blocking boundary: the calling process waited from [start_us] to
    [stop_us].  Charges the wait to the current clock, if any: each of
    [parts] in order, each capped at what is left of the wait (negative
    parts count as zero), and the remainder to [rest], so the charges
    never sum past the wait.  When [name] is given and the process has a
    current span under a live recorder, also records the wait as one
    span interval carrying [attrs].  One effect crossing; a no-op for an
    empty wait or outside a process. *)
