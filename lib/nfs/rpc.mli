(** Client-side RPC: xid assignment, reply matching, and timeout-driven
    retransmission (an NFS hard mount: a call retries forever, so any
    loss rate below 1 eventually completes).

    One {!t} serves a whole client machine — the benchmark process and
    every biod daemon call through it concurrently; a single receiver
    process demultiplexes replies by xid.  A reply that arrives after
    its call already completed (the call was retransmitted and both
    copies were answered) is counted and dropped.  Reply-answered
    timeout timers are cancelled, not abandoned — an answered call
    leaves nothing behind in the engine heap.

    Two transports share that machinery:

    - {!Fixed} — the NFSv2 default: every call starts from the same
      configured timeout and doubles per retry.  Under overload every
      client times out at the same fixed interval and re-injects
      duplicates, which is exactly the congestion collapse the [nfscc]
      experiment reproduces.
    - {!Adaptive} — a per-server estimator in the TCP style.  The RTO
      tracks [srtt + 4*rttvar] from Jacobson's EWMAs, fed only by
      never-retransmitted calls (Karn's rule: an ambiguous sample could
      be the echo of either copy); a timed-out call backs its own timer
      off exponentially and publishes the backed-off value as the
      channel RTO until a clean sample retires it.  An AIMD congestion
      window bounds the client's outstanding RPCs: additive increase
      (+1/cwnd) per clean reply, halve on timeout — at most once per
      RTO, so one loss burst is one decrease — with callers over the
      window parked FIFO on a condition. *)

type transport = Fixed | Adaptive

type t

type cstate
(** The congestion/timer state of one {e server channel}: RTT estimator,
    RTO, AIMD window, in-flight count and the window wait queue.
    Several {!t}s (one per mount) share one [cstate] when they target
    the same server — the window then bounds the union of their
    outstanding calls and every mount feeds one estimator, per-server
    rather than per-mount, the way a real client keeps one transport
    handle per server. *)

val create :
  Sim.Engine.t ->
  cpu:Sim.Cpu.t ->
  ep:Proto.msg Net.endpoint ->
  client_id:int ->
  ?transport:transport ->
  ?timeout:Sim.Time.t ->
  ?max_timeout:Sim.Time.t ->
  ?min_rto:Sim.Time.t ->
  ?cwnd_limit:float ->
  ?cstate:cstate ->
  unit ->
  t
(** [transport] defaults to {!Fixed}.  [timeout] (default 1.1 s) is the
    initial retransmission timeout — for {!Adaptive} it seeds the RTO
    until the first valid sample; it doubles on every retry up to
    [max_timeout] (default 20 s).  [min_rto] (default 200 ms) floors
    the adaptive RTO; [cwnd_limit] (default 8) caps the congestion
    window.  [cstate] shares an existing server channel's congestion
    state instead of building a private one; the four timer parameters
    are then ignored (they live in the [cstate]). *)

val cstate_of : t -> cstate

val shares_cstate : t -> t -> bool
(** Physical identity: do the two channels share one congestion
    state? *)

val client_id : t -> int
val transport : t -> transport

val call : t -> Proto.call -> Proto.reply
(** Send the call, block until its reply arrives, retransmitting on
    timeout.  Must run inside a simulation process. *)

val call_resent : t -> Proto.call -> Proto.reply * bool
(** {!call}, and whether this call was sent more than once.  If it was,
    a copy may still be on the wire or queued at the server after the
    reply landed, reading whatever bytes its payload borrows. *)

type stats = {
  mutable calls : int;
  mutable retransmits : int;
  mutable late_replies : int;
}

val stats : t -> stats

val op_calls : t -> string -> int
(** Completed calls of one op ({!Proto.op_name}). *)

val rtt_of : t -> string -> Sim.Stats.Summary.t
(** Round-trip latency summary of one op, including retransmission
    waits. *)

val srtt_us : t -> float
(** Smoothed RTT estimate in microseconds; 0 until the first valid
    sample (always 0 for {!Fixed}). *)

val rto_us : t -> float
(** Current retransmission timeout.  For {!Fixed} this is the
    configured initial timeout. *)

val cwnd : t -> float
(** Current congestion window; 0 for {!Fixed} (unbounded). *)

val in_flight : t -> int
(** Outstanding window-counted RPCs right now. *)

val backoffs : t -> int
(** Timeout events that backed the RTO off (adaptive transport). *)

val window_wait_us : t -> Sim.Stats.Summary.t
(** Time callers spent parked waiting for congestion-window space. *)

val retransmits_since : t -> Sim.Time.t -> int
(** Retransmissions at or after the given instant — the steady-state
    retransmit count once the estimator has converged. *)
