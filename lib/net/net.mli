(** Simulated network: point-to-point links, a shared medium and a
    switch on the {!Sim} engine.

    An {!endpoint} is the transport-facing interface — send and
    blocking receive — and the RPC layers above are written against it
    alone, so the same client/server code runs over a private duplex
    link ({!create}), over one station of a shared-medium Ethernet
    ({!Medium}) or over one port of a switch ({!Switch}).

    The three fabrics share one core: the inbox a receiver parks on,
    the seeded fault draw, and — for a p2p direction and a switch
    uplink — the serial wire with its FIFO arrival floor.  A medium
    station and a switch port are both a {!host}: an id and one inbox
    per source.

    {b Point-to-point links.}  A link is a duplex pipe between two
    endpoints (conventionally a client machine and the server).  Each
    direction is modelled as a serial wire: a message occupies the wire
    for [size / bandwidth], then arrives [latency] later.  Delivery per
    direction is strictly FIFO — a delay spike injected on one message
    pushes every later message behind it, like a queue in a real
    switch.

    Sending charges a per-message plus per-KB serialization cost to the
    {e sender's} CPU (each endpoint is bound to its machine's
    {!Sim.Cpu.t} at link creation), so protocol overhead contends with
    the rest of that machine's work.

    Fault injection is seeded and deterministic: each message is
    dropped with probability [loss] (it still occupied the wire — the
    bits were transmitted, nobody heard them), and delayed by [spike]
    extra with probability [spike_prob].  Loss applies independently to
    each direction, so a request/reply protocol above this layer sees
    both lost calls and lost replies. *)

type config = {
  bandwidth : int;  (** wire rate, bytes of payload per second *)
  latency : Sim.Time.t;  (** propagation delay, per message *)
  loss : float;  (** per-message drop probability, [0, 1) *)
  spike_prob : float;  (** per-message delay-spike probability *)
  spike : Sim.Time.t;  (** extra delay when a spike fires *)
  per_msg_cpu : Sim.Time.t;  (** serialization cost per message *)
  per_kb_cpu : Sim.Time.t;  (** serialization cost per payload KB *)
}

val default_config : config
(** A fast-Ethernet-class link: 12.5 MB/s, 500 us latency, no loss,
    no spikes, 50 us + 10 us/KB serialization. *)

val lossy : config -> float -> config
(** [lossy c p] is [c] with drop probability [p]. *)

type 'a endpoint
(** One transport attachment carrying messages of type ['a]: an end of
    a point-to-point link, or a host's channel to one peer. *)

type 'a host
(** One machine's attachment to a shared fabric: a {!Medium} station or
    a {!Switch} port.  Ids are assigned in attach order, per fabric. *)

val host_id : 'a host -> int

val endpoint : 'a host -> peer:int -> 'a endpoint
(** This host's channel to host [peer]: sends address [peer], receives
    are demultiplexed by source, so one host can serve many peers
    through independent endpoints (the NFS server's view of its
    clients). *)

type 'a t
(** A duplex link. *)

val create :
  ?seed:int -> ?name:string ->
  Sim.Engine.t -> config -> a_cpu:Sim.Cpu.t -> b_cpu:Sim.Cpu.t -> 'a t
(** Build a link; [seed] (default 0) drives the fault injection,
    [name] appears in metrics and diagnostics. *)

val a_end : 'a t -> 'a endpoint
val b_end : 'a t -> 'a endpoint

val send : 'a endpoint -> size:int -> 'a -> unit
(** Transmit a message of [size] wire bytes toward the peer endpoint.
    Charges serialization to the sender's CPU (must run inside a
    simulation process), then occupies the wire and delivers — or
    drops — asynchronously.  Returns once the message is queued for the
    wire, not when it arrives. *)

val recv : 'a endpoint -> 'a
(** Block the calling process until a message arrives, then dequeue it
    (FIFO). *)

type stats = {
  mutable msgs_sent : int;
  mutable bytes_sent : int;
  mutable msgs_delivered : int;
  mutable drops : int;
  mutable spikes : int;
  wire_wait_us : Sim.Stats.Summary.t;
      (** time each message waited for the wire (link-queue wait) *)
  transit_us : Sim.Stats.Summary.t;
      (** send-to-delivery time of delivered messages *)
}

val stats : 'a t -> stats
(** Both directions combined. *)


val register_metrics : 'a t -> Sim.Metrics.t -> instance:string -> unit
(** Register the link's counters and wire-wait summaries as a ["net"]
    source — combined totals plus [a2b_*]/[b2a_*] per-direction
    counters. *)

(** A shared-medium (Ethernet-class) segment: N stations contending for
    one serial wire.

    Each station keeps a FIFO of outbound frames and runs a transmit
    pump: sense the wire; if free, seize it for [size / bandwidth]; if
    busy, defer with a seeded jittered backoff — binary-exponential in
    the station's consecutive-defer count, in units of [slot] — past
    the end of the transmission it collided with.  A station that wins
    the wire resets its backoff.  This is carrier-sense with
    collision-free deterministic arbitration: same-instant contenders
    are ordered by event sequence and losers back off through the
    medium's RNG, so a run is a pure function of the seed and the
    traffic.

    Frames are addressed (src station, dst station); delivery into the
    destination is FIFO per destination.  Loss and delay spikes are
    drawn per frame at wire-grant time from the same config as
    point-to-point links.  Per-frame serialization is charged to the
    {e sending station's} CPU.

    The medium exports what a shared wire makes scarce: utilization
    (busy time over elapsed time), contention/backoff events, and the
    station queue-wait distribution. *)
module Medium : sig
  type 'a t
  (** One shared wire. *)

  val create : ?seed:int -> ?name:string -> Sim.Engine.t -> config -> 'a t
  (** The backoff jitter is drawn in units of a fixed 51 us slot (the
      classic Ethernet slot time) and its binary-exponential window
      stops doubling at 2^10 slots.  [bandwidth] and [latency] come
      from the shared [config]; [loss]/[spike] fault injection applies
      per frame. *)

  val attach : 'a t -> cpu:Sim.Cpu.t -> 'a host
  (** Add a station (a machine's network interface). *)

  type m_stats = {
    mutable frames_sent : int;
    mutable m_bytes_sent : int;
    mutable frames_delivered : int;
    mutable m_drops : int;
    mutable m_spikes : int;
    mutable contentions : int;
        (** transmit attempts that found the wire busy and backed off *)
    mutable busy_us : int;  (** total wire occupancy *)
    m_queue_wait_us : Sim.Stats.Summary.t;
        (** frame enqueue -> wire grant, all stations *)
    m_transit_us : Sim.Stats.Summary.t;  (** frame enqueue -> delivery *)
  }

  val stats : 'a t -> m_stats

  val utilization : 'a t -> float
  (** Wire busy time over elapsed simulation time, [0, 1]. *)

  val register_metrics : 'a t -> Sim.Metrics.t -> instance:string -> unit
  (** Register the medium's counters, utilization and queue-wait
      summaries as a ["net"] source. *)
end

(** A store-and-forward switch: every host hangs off its own full-duplex
    port (a private uplink and a private downlink, each a serial wire at
    [bandwidth]), and the switch forwards frames between ports through
    finite per-output-port buffers.

    The path of a frame: the sender's CPU pays serialization, the frame
    occupies the sender's uplink for [size / bandwidth] and arrives at
    the switch [latency] later (store-and-forward: forwarding starts
    only once the whole frame is in).  If the destination port's output
    buffer is full the frame is tail-dropped — the congestion signal of
    a switched fabric, replacing the shared medium's collisions.
    Otherwise it waits FIFO in the output buffer, occupies the
    destination's downlink for [size / bandwidth], frees its buffer slot
    when the wire falls silent, and is delivered [latency] after that.
    Delivery is FIFO per output port (one serial downlink), whatever
    input ports the frames came from; there is no cut-through and no
    output-port fan-out contention beyond the buffer itself.

    Seeded fault injection ([loss], [spike]) applies on the uplink, with
    draws at send time in send order, so a run is a pure function of the
    switch seed and the traffic.  Unlike {!Medium} there is no carrier
    sense and no backoff: ports never contend for each other's wires,
    only for output buffers. *)
module Switch : sig
  type 'a t
  (** One switch. *)

  type 'a port
  (** The switch side of one host's attachment: its full-duplex link
      and output buffer. *)

  val create :
    ?seed:int -> ?name:string -> ?buffer:int ->
    Sim.Engine.t -> config -> 'a t
  (** [buffer] (default 64) is the output-buffer capacity per port, in
      frames; arrivals beyond it are tail-dropped. *)

  val attach : 'a t -> cpu:Sim.Cpu.t -> 'a host
  (** Add a port. *)

  val port : 'a t -> 'a host -> 'a port
  (** The port a host of this switch hangs off.  Raises
      [Invalid_argument] for a host of another fabric. *)

  type sw_stats = {
    mutable frames_sent : int;
    mutable sw_bytes_sent : int;
    mutable frames_delivered : int;
    mutable sw_drops : int;  (** seeded uplink loss *)
    mutable overflows : int;  (** tail drops at full output buffers *)
    mutable sw_spikes : int;
    mutable occ_hwm : int;  (** worst output-buffer occupancy, any port *)
    sw_queue_wait_us : Sim.Stats.Summary.t;
        (** switch arrival -> downlink grant, all output ports *)
    sw_transit_us : Sim.Stats.Summary.t;  (** send -> delivery *)
  }

  type p_stats = {
    mutable up_frames : int;
    mutable up_bytes : int;
    mutable up_busy_us : int;  (** host->switch link occupancy *)
    mutable down_frames : int;
    mutable down_bytes : int;
    mutable down_busy_us : int;  (** switch->host link occupancy *)
    mutable p_drops : int;  (** uplink loss on this port *)
    mutable p_overflows : int;  (** frames tail-dropped at this output *)
    mutable p_occ_hwm : int;
    p_queue_wait_us : Sim.Stats.Summary.t;
  }

  val stats : 'a t -> sw_stats
  val port_stats : 'a port -> p_stats

  val max_port_utilization : 'a t -> float
  (** The busiest port's busier direction: occupancy over elapsed time,
      [0, 1]. *)

  val register_metrics : 'a t -> Sim.Metrics.t -> instance:string -> unit
  (** Register switch-wide counters, the occupancy high-water mark and
      queue-wait summaries as a ["net"] source. *)

  val register_port_metrics :
    'a port -> Sim.Metrics.t -> instance:string -> unit
  (** Register one port's counters (typically only server ports: at
      1024 clients, per-client port sources would dwarf the snapshot). *)
end
