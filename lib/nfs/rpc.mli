(** Client-side RPC: xid assignment, reply matching, and timeout-driven
    retransmission (an NFS hard mount: a call retries forever, so any
    loss rate below 1 eventually completes).

    One {!t} is a client machine's channel to one server — the
    benchmark process and every biod daemon of the mount call through
    it concurrently, and it alone owns the congestion state toward that
    server (no other channel reads or feeds it); a single receiver
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
    - {!Adaptive} — a per-channel estimator in the TCP style.  The RTO
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

val create :
  Sim.Engine.t ->
  cpu:Sim.Cpu.t ->
  ep:Proto.msg Net.endpoint ->
  client_id:int ->
  ?transport:transport ->
  ?timeout:Sim.Time.t ->
  unit ->
  t
(** One channel to one server: its own xid space, RTT estimator, RTO
    and congestion window.  [transport] defaults to {!Fixed}.
    [timeout] (default 1.1 s) is the initial retransmission timeout —
    for {!Adaptive} it seeds the RTO until the first valid sample; it
    doubles on every retry up to a fixed 20 s.  The adaptive RTO is
    floored at a fixed 200 ms and the congestion window capped at 8
    calls. *)

val client_id : t -> int
val transport : t -> transport

val call : t -> Proto.call -> Proto.reply
(** Send the call, block until its reply arrives, retransmitting on
    timeout.  Must run inside a simulation process. *)

type stats = {
  mutable calls : int;
  mutable retransmits : int;
  mutable late_replies : int;
}

val stats : t -> stats

val op_calls : t -> string -> int
(** Completed calls of one op (one of {!Proto.op_names}). *)

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
