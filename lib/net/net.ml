type config = {
  bandwidth : int;
  latency : Sim.Time.t;
  loss : float;
  spike_prob : float;
  spike : Sim.Time.t;
  per_msg_cpu : Sim.Time.t;
  per_kb_cpu : Sim.Time.t;
}

let default_config =
  {
    bandwidth = 12_500_000;
    latency = Sim.Time.us 500;
    loss = 0.;
    spike_prob = 0.;
    spike = Sim.Time.ms 20;
    per_msg_cpu = Sim.Time.us 50;
    per_kb_cpu = Sim.Time.us 10;
  }

let lossy c p = { c with loss = p }

let validate ~who cfg =
  if cfg.bandwidth <= 0 then invalid_arg (who ^ ": bandwidth must be > 0");
  if cfg.loss < 0. || cfg.loss >= 1. then
    invalid_arg (who ^ ": loss must be in [0, 1)")

type stats = {
  mutable msgs_sent : int;
  mutable bytes_sent : int;
  mutable msgs_delivered : int;
  mutable drops : int;
  mutable spikes : int;
  wire_wait_us : Sim.Stats.Summary.t;
  transit_us : Sim.Stats.Summary.t;
}

let mk_stats () =
  {
    msgs_sent = 0;
    bytes_sent = 0;
    msgs_delivered = 0;
    drops = 0;
    spikes = 0;
    wire_wait_us = Sim.Stats.Summary.create ();
    transit_us = Sim.Stats.Summary.create ();
  }

let xmit_time cfg ~size =
  (* ceil(size / bandwidth) in integer microseconds *)
  ((size * 1_000_000) + cfg.bandwidth - 1) / cfg.bandwidth

let serialization_cpu cfg ~size =
  cfg.per_msg_cpu + (cfg.per_kb_cpu * ((size + 1023) / 1024))

(* ---------- the transport core, shared by all three fabrics ---------- *)

(* A receive queue and the condition its reader parks on. *)
type 'a inbox = { q : 'a Queue.t; cond : Sim.Condition.t }

let mk_inbox engine name =
  { q = Queue.create (); cond = Sim.Condition.create engine name }

let put ib msg =
  Queue.push msg ib.q;
  Sim.Condition.signal ib.cond

let rec take ib =
  if Queue.is_empty ib.q then begin
    Sim.Condition.wait ib.cond;
    take ib
  end
  else Queue.pop ib.q

(* Seeded fault injection: per message, one loss draw then one spike
   draw from the fabric's RNG.  The fate is a constant constructor, not
   a pair, so the per-message path allocates nothing. *)
type fate = Clean | Spiked | Lost | Lost_spiked

let draw cfg rng =
  let lost = cfg.loss > 0. && Sim.Rng.float rng 1.0 < cfg.loss in
  let spiked = cfg.spike_prob > 0. && Sim.Rng.float rng 1.0 < cfg.spike_prob in
  if lost then if spiked then Lost_spiked else Lost
  else if spiked then Spiked
  else Clean

let spiked = function Spiked | Lost_spiked -> true | Clean | Lost -> false
let lost = function Lost | Lost_spiked -> true | Clean | Spiked -> false

(* propagation delay of a delivered message, spike included *)
let delay cfg fate =
  cfg.latency + if spiked fate then cfg.spike else Sim.Time.zero

(* A private serial wire (one p2p direction, one switch uplink): a
   message occupies it for its transmit time, then arrives no earlier
   than the one before it — a spike holds every later message behind
   it. *)
type wire = { mutable free_at : Sim.Time.t; mutable last_arrival : Sim.Time.t }

let mk_wire () = { free_at = Sim.Time.zero; last_arrival = Sim.Time.zero }

(* Occupy the wire for [xmit] from the first free instant; returns the
   wait. *)
let seize w ~now ~xmit =
  let start = max now w.free_at in
  w.free_at <- start + xmit;
  start - now

(* Arrival of the message that last seized the wire, [after] its last
   bit, behind every earlier arrival. *)
let arrive w ~after =
  let at = max (w.free_at + after) w.last_arrival in
  w.last_arrival <- at;
  at

(* One machine's attachment to a shared fabric (a medium station or a
   switch port): an id, a transmit function into the fabric, and one
   inbox per source, so a server demultiplexes its clients. *)
type 'a host = {
  h_engine : Sim.Engine.t;
  id : int;
  label : string;  (** names the inbox conditions *)
  transmit : dst:int -> size:int -> 'a -> unit;
  inboxes : (int, 'a inbox) Hashtbl.t;  (** keyed by source id *)
}

let host_id h = h.id

let inbox_of h ~src =
  match Hashtbl.find_opt h.inboxes src with
  | Some ib -> ib
  | None ->
      let ib = mk_inbox h.h_engine (Printf.sprintf "%s<-%d" h.label src) in
      Hashtbl.replace h.inboxes src ib;
      ib

(* An endpoint is an interface, not a wire: the same RPC machinery runs
   over a private point-to-point link or over a host of a shared fabric
   without knowing which. *)
type 'a endpoint = {
  ep_transmit : dst:int -> size:int -> 'a -> unit;
  peer : int;
  ep_inbox : 'a inbox;
}

let endpoint h ~peer =
  { ep_transmit = h.transmit; peer; ep_inbox = inbox_of h ~src:peer }

let send ep ~size msg = ep.ep_transmit ~dst:ep.peer ~size msg
let recv ep = take ep.ep_inbox

(* ---------- point-to-point duplex links ---------- *)

(* One direction of the link: its own serial wire, the receiving
   endpoint's inbox and stats; fault-injection RNG and the combined stats
   record are shared with the reverse direction. *)
type 'a dir = {
  wire : wire;
  inbox : 'a inbox;
  dst : stats;  (** this direction only *)
}

type 'a pep = {
  engine : Sim.Engine.t;
  cfg : config;
  cpu : Sim.Cpu.t;  (** sender's CPU: serialization is charged here *)
  out : 'a dir;  (** direction this endpoint transmits into *)
  rng : Sim.Rng.t;
  st : stats;  (** both directions combined *)
  dropped : 'a -> unit;
}

type 'a t = {
  a_ep : 'a endpoint;
  b_ep : 'a endpoint;
  st : stats;  (** both directions combined *)
  a2b : stats;
  b2a : stats;
}

let mk_dir engine name =
  { wire = mk_wire (); inbox = mk_inbox engine name; dst = mk_stats () }

let p2p_send ep ~dst:_ ~size msg =
  let cfg = ep.cfg in
  Sim.Cpu.charge ep.cpu ~label:"net" (serialization_cpu cfg ~size);
  let now = Sim.Engine.now ep.engine in
  let dir = ep.out in
  let wire_wait = seize dir.wire ~now ~xmit:(xmit_time cfg ~size) in
  ep.st.msgs_sent <- ep.st.msgs_sent + 1;
  ep.st.bytes_sent <- ep.st.bytes_sent + size;
  dir.dst.msgs_sent <- dir.dst.msgs_sent + 1;
  dir.dst.bytes_sent <- dir.dst.bytes_sent + size;
  Sim.Stats.Summary.add_int ep.st.wire_wait_us wire_wait;
  Sim.Stats.Summary.add_int dir.dst.wire_wait_us wire_wait;
  (* the draws happen at send time, in send order, so a run is a pure
     function of the link seed and the traffic *)
  let fate = draw cfg ep.rng in
  if spiked fate then begin
    ep.st.spikes <- ep.st.spikes + 1;
    dir.dst.spikes <- dir.dst.spikes + 1
  end;
  if lost fate then begin
    ep.st.drops <- ep.st.drops + 1;
    dir.dst.drops <- dir.dst.drops + 1;
    ep.dropped msg
  end
  else begin
    let arrival = arrive dir.wire ~after:(delay cfg fate) in
    Sim.Engine.schedule ep.engine ~delay:(arrival - now) (fun () ->
        put dir.inbox msg;
        ep.st.msgs_delivered <- ep.st.msgs_delivered + 1;
        dir.dst.msgs_delivered <- dir.dst.msgs_delivered + 1;
        Sim.Stats.Summary.add_int ep.st.transit_us (arrival - now);
        Sim.Stats.Summary.add_int dir.dst.transit_us (arrival - now))
  end

let create ?(seed = 0) ?(name = "link") ?(on_drop = ignore) engine cfg
    ~a_cpu ~b_cpu =
  validate ~who:"Net.create" cfg;
  let ab = mk_dir engine (name ^ ".ab") in
  let ba = mk_dir engine (name ^ ".ba") in
  let rng = Sim.Rng.create ~seed in
  let st = mk_stats () in
  let ep cpu out inc =
    let p = { engine; cfg; cpu; out; rng; st; dropped = on_drop } in
    { ep_transmit = p2p_send p; peer = 0; ep_inbox = inc.inbox }
  in
  { a_ep = ep a_cpu ab ba; b_ep = ep b_cpu ba ab; st; a2b = ab.dst;
    b2a = ba.dst }

let a_end t = t.a_ep
let b_end t = t.b_ep

let stats t = t.st

let register_metrics t reg ~instance =
  let s = t.st and ab = t.a2b and ba = t.b2a in
  Sim.Metrics.register reg ~layer:"net" ~instance (fun () ->
      [
        ("msgs_sent", Sim.Metrics.Int s.msgs_sent);
        ("bytes_sent", Sim.Metrics.Int s.bytes_sent);
        ("msgs_delivered", Sim.Metrics.Int s.msgs_delivered);
        ("drops", Sim.Metrics.Int s.drops);
        ("delay_spikes", Sim.Metrics.Int s.spikes);
        ("wire_wait_us", Sim.Metrics.Summary s.wire_wait_us);
        ("transit_us", Sim.Metrics.Summary s.transit_us);
        (* per direction: asymmetric loss and reply-side queuing show
           up here, invisible in the combined numbers *)
        ("a2b_msgs", Sim.Metrics.Int ab.msgs_sent);
        ("a2b_bytes", Sim.Metrics.Int ab.bytes_sent);
        ("a2b_drops", Sim.Metrics.Int ab.drops);
        ("a2b_wire_wait_us", Sim.Metrics.Summary ab.wire_wait_us);
        ("b2a_msgs", Sim.Metrics.Int ba.msgs_sent);
        ("b2a_bytes", Sim.Metrics.Int ba.bytes_sent);
        ("b2a_drops", Sim.Metrics.Int ba.drops);
        ("b2a_wire_wait_us", Sim.Metrics.Summary ba.wire_wait_us);
      ])

(* ---------- shared medium ---------- *)

module Medium = struct
  type m_stats = {
    mutable frames_sent : int;
    mutable m_bytes_sent : int;
    mutable frames_delivered : int;
    mutable m_drops : int;
    mutable m_spikes : int;
    mutable contentions : int;
    mutable busy_us : int;
    m_queue_wait_us : Sim.Stats.Summary.t;
    m_transit_us : Sim.Stats.Summary.t;
  }

  type 'a frame = {
    src : int;
    f_dst : int;
    fsize : int;
    payload : 'a;
    enq_at : Sim.Time.t;
  }

  type 'a t = {
    m_engine : Sim.Engine.t;
    m_cfg : config;
    m_name : string;
    m_rng : Sim.Rng.t;
    mutable wire_free_at : Sim.Time.t;
    stations : (int, 'a host) Hashtbl.t;  (** by id, in attach order *)
    last_arrival : (int, Sim.Time.t) Hashtbl.t;  (** per-dst FIFO floor *)
    m_st : m_stats;
    m_dropped : 'a -> unit;
  }

  (* the transmit side of a station; its receive side is the host *)
  type 'a station = {
    med : 'a t;
    sid : int;
    s_cpu : Sim.Cpu.t;
    outq : 'a frame Queue.t;
    mutable pumping : bool;
    mutable backoff_exp : int;
  }

  (* the classic Ethernet slot time scales the backoff jitter; the
     binary-exponential window stops doubling at 2^max_backoff_exp *)
  let slot = Sim.Time.us 51
  let max_backoff_exp = 10

  let create ?(seed = 0) ?(name = "ether") ?(on_drop = ignore) engine cfg =
    validate ~who:"Net.Medium.create" cfg;
    {
      m_engine = engine;
      m_cfg = cfg;
      m_name = name;
      m_rng = Sim.Rng.create ~seed;
      wire_free_at = Sim.Time.zero;
      stations = Hashtbl.create 16;
      last_arrival = Hashtbl.create 16;
      m_st =
        {
          frames_sent = 0;
          m_bytes_sent = 0;
          frames_delivered = 0;
          m_drops = 0;
          m_spikes = 0;
          contentions = 0;
          busy_us = 0;
          m_queue_wait_us = Sim.Stats.Summary.create ();
          m_transit_us = Sim.Stats.Summary.create ();
        };
      m_dropped = on_drop;
    }

  (* The station's transmit pump.  One event chain per backlogged
     station: sense the wire; if busy, defer a seeded jittered backoff
     past the end of the current transmission (binary-exponential in
     the station's consecutive-defer count); if free, seize it for the
     head-of-queue frame.  Contention resolution is deterministic:
     same-instant attempts are ordered by event sequence, losers back
     off through the shared RNG. *)
  let rec try_transmit s () =
    let m = s.med in
    let now = Sim.Engine.now m.m_engine in
    if Queue.is_empty s.outq then s.pumping <- false
    else if now < m.wire_free_at then begin
      m.m_st.contentions <- m.m_st.contentions + 1;
      let window = 1 lsl min s.backoff_exp max_backoff_exp in
      s.backoff_exp <- s.backoff_exp + 1;
      let jitter = slot * (1 + Sim.Rng.int m.m_rng window) in
      Sim.Engine.schedule m.m_engine
        ~delay:(m.wire_free_at - now + jitter)
        (try_transmit s)
    end
    else begin
      let fr = Queue.pop s.outq in
      Sim.Stats.Summary.add_int m.m_st.m_queue_wait_us (now - fr.enq_at);
      s.backoff_exp <- 0;
      let xmit = xmit_time m.m_cfg ~size:fr.fsize in
      m.wire_free_at <- now + xmit;
      m.m_st.busy_us <- m.m_st.busy_us + xmit;
      m.m_st.frames_sent <- m.m_st.frames_sent + 1;
      m.m_st.m_bytes_sent <- m.m_st.m_bytes_sent + fr.fsize;
      let fate = draw m.m_cfg m.m_rng in
      if spiked fate then m.m_st.m_spikes <- m.m_st.m_spikes + 1;
      if lost fate then begin
        m.m_st.m_drops <- m.m_st.m_drops + 1;
        m.m_dropped fr.payload
      end
      else begin
        (* one serial wire: everything bound for a station arrives in
           transmission order, spikes push later frames behind them *)
        let floor =
          Option.value
            (Hashtbl.find_opt m.last_arrival fr.f_dst)
            ~default:Sim.Time.zero
        in
        let arrival = max (m.wire_free_at + delay m.m_cfg fate) floor in
        Hashtbl.replace m.last_arrival fr.f_dst arrival;
        Sim.Engine.schedule m.m_engine ~delay:(arrival - now) (fun () ->
            match Hashtbl.find_opt m.stations fr.f_dst with
            | None ->
                (* no such station: the bits fall on the floor *)
                m.m_dropped fr.payload
            | Some dst ->
                put (inbox_of dst ~src:fr.src) fr.payload;
                m.m_st.frames_delivered <- m.m_st.frames_delivered + 1;
                Sim.Stats.Summary.add_int m.m_st.m_transit_us
                  (arrival - fr.enq_at))
      end;
      if Queue.is_empty s.outq then s.pumping <- false
      else Sim.Engine.schedule m.m_engine ~delay:xmit (try_transmit s)
    end

  let send_to s ~dst ~size payload =
    let m = s.med in
    Sim.Cpu.charge s.s_cpu ~label:"net" (serialization_cpu m.m_cfg ~size);
    Queue.push
      {
        src = s.sid;
        f_dst = dst;
        fsize = size;
        payload;
        enq_at = Sim.Engine.now m.m_engine;
      }
      s.outq;
    if not s.pumping then begin
      s.pumping <- true;
      try_transmit s ()
    end

  let attach t ~cpu =
    let sid = Hashtbl.length t.stations in
    let s =
      { med = t; sid; s_cpu = cpu; outq = Queue.create (); pumping = false;
        backoff_exp = 0 }
    in
    let h =
      {
        h_engine = t.m_engine;
        id = sid;
        label = Printf.sprintf "%s.s%d" t.m_name sid;
        transmit = send_to s;
        inboxes = Hashtbl.create 4;
      }
    in
    Hashtbl.replace t.stations sid h;
    h

  let stats t = t.m_st

  let utilization t =
    let now = Sim.Engine.now t.m_engine in
    if now = 0 then 0. else float_of_int t.m_st.busy_us /. float_of_int now

  let register_metrics t reg ~instance =
    let s = t.m_st in
    Sim.Metrics.register reg ~layer:"net" ~instance (fun () ->
        [
          ("stations", Sim.Metrics.Int (Hashtbl.length t.stations));
          ("frames_sent", Sim.Metrics.Int s.frames_sent);
          ("bytes_sent", Sim.Metrics.Int s.m_bytes_sent);
          ("frames_delivered", Sim.Metrics.Int s.frames_delivered);
          ("drops", Sim.Metrics.Int s.m_drops);
          ("delay_spikes", Sim.Metrics.Int s.m_spikes);
          ("contentions", Sim.Metrics.Int s.contentions);
          ("wire_busy_us", Sim.Metrics.Int s.busy_us);
          ("utilization", Sim.Metrics.Float (utilization t));
          ("queue_wait_us", Sim.Metrics.Summary s.m_queue_wait_us);
          ("transit_us", Sim.Metrics.Summary s.m_transit_us);
        ])
end

(* ---------- store-and-forward switch ---------- *)

module Switch = struct
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

  type 'a frame = {
    src : int;
    f_dst : int;
    fsize : int;
    payload : 'a;
    enq_at : Sim.Time.t;  (** handed to the uplink *)
    mutable sw_at : Sim.Time.t;  (** accepted into the output buffer *)
  }

  type 'a t = {
    sw_engine : Sim.Engine.t;
    sw_cfg : config;
    buffer : int;  (** frames per output port *)
    sw_name : string;
    sw_rng : Sim.Rng.t;
    ports : (int, 'a port) Hashtbl.t;  (** by host id, in attach order *)
    sw_st : sw_stats;
    sw_dropped : 'a -> unit;
  }

  and 'a port = {
    sw : 'a t;
    p_cpu : Sim.Cpu.t;
    (* uplink (host -> switch): a private serial wire, like one
       direction of a p2p link *)
    uplink : wire;
    (* output buffer + downlink (switch -> host) *)
    eq : 'a frame Queue.t;
    mutable occupancy : int;
    mutable down_busy : bool;
    pst : p_stats;
    host : 'a host;  (** the receive side *)
  }

  let create ?(seed = 0) ?(name = "switch") ?(buffer = 64) ?(on_drop = ignore)
      engine cfg =
    validate ~who:"Net.Switch.create" cfg;
    if buffer <= 0 then invalid_arg "Net.Switch.create: buffer must be > 0";
    {
      sw_engine = engine;
      sw_cfg = cfg;
      buffer;
      sw_name = name;
      sw_rng = Sim.Rng.create ~seed;
      ports = Hashtbl.create 16;
      sw_st =
        {
          frames_sent = 0;
          sw_bytes_sent = 0;
          frames_delivered = 0;
          sw_drops = 0;
          overflows = 0;
          sw_spikes = 0;
          occ_hwm = 0;
          sw_queue_wait_us = Sim.Stats.Summary.create ();
          sw_transit_us = Sim.Stats.Summary.create ();
        };
      sw_dropped = on_drop;
    }

  (* The output-port pump: transmit the head frame over the private
     downlink, release the buffer slot when the wire falls silent, and
     deliver [latency] after that.  One serial downlink per port keeps
     delivery FIFO per output port regardless of which inputs the frames
     came from. *)
  let rec pump p () =
    let m = p.sw in
    match Queue.take_opt p.eq with
    | None -> p.down_busy <- false
    | Some fr ->
        let now = Sim.Engine.now m.sw_engine in
        let wait = now - fr.sw_at in
        Sim.Stats.Summary.add_int m.sw_st.sw_queue_wait_us wait;
        Sim.Stats.Summary.add_int p.pst.p_queue_wait_us wait;
        let xmit = xmit_time m.sw_cfg ~size:fr.fsize in
        p.pst.down_frames <- p.pst.down_frames + 1;
        p.pst.down_bytes <- p.pst.down_bytes + fr.fsize;
        p.pst.down_busy_us <- p.pst.down_busy_us + xmit;
        Sim.Engine.schedule m.sw_engine ~delay:xmit (fun () ->
            p.occupancy <- p.occupancy - 1;
            Sim.Engine.schedule m.sw_engine ~delay:m.sw_cfg.latency (fun () ->
                put (inbox_of p.host ~src:fr.src) fr.payload;
                m.sw_st.frames_delivered <- m.sw_st.frames_delivered + 1;
                Sim.Stats.Summary.add_int m.sw_st.sw_transit_us
                  (Sim.Engine.now m.sw_engine - fr.enq_at));
            pump p ())

  (* A frame has fully arrived over its uplink: store (or tail-drop) and
     forward.  Store-and-forward, no cut-through: the downlink can't
     start until the whole frame is in the buffer, which this callback's
     timing already guarantees. *)
  let accept t fr =
    match Hashtbl.find_opt t.ports fr.f_dst with
    | None ->
        (* no such port: the bits fall on the floor *)
        t.sw_dropped fr.payload
    | Some dst ->
        if dst.occupancy >= t.buffer then begin
          t.sw_st.overflows <- t.sw_st.overflows + 1;
          dst.pst.p_overflows <- dst.pst.p_overflows + 1;
          t.sw_dropped fr.payload
        end
        else begin
          dst.occupancy <- dst.occupancy + 1;
          if dst.occupancy > dst.pst.p_occ_hwm then
            dst.pst.p_occ_hwm <- dst.occupancy;
          if dst.occupancy > t.sw_st.occ_hwm then
            t.sw_st.occ_hwm <- dst.occupancy;
          fr.sw_at <- Sim.Engine.now t.sw_engine;
          Queue.push fr dst.eq;
          if not dst.down_busy then begin
            dst.down_busy <- true;
            pump dst ()
          end
        end

  let send_to p ~dst ~size payload =
    let m = p.sw in
    let cfg = m.sw_cfg in
    Sim.Cpu.charge p.p_cpu ~label:"net" (serialization_cpu cfg ~size);
    let now = Sim.Engine.now m.sw_engine in
    (* the port's private uplink: never contended by other hosts (full
       duplex: independent of the downlink) *)
    let xmit = xmit_time cfg ~size in
    ignore (seize p.uplink ~now ~xmit : int);
    p.pst.up_frames <- p.pst.up_frames + 1;
    p.pst.up_bytes <- p.pst.up_bytes + size;
    p.pst.up_busy_us <- p.pst.up_busy_us + xmit;
    m.sw_st.frames_sent <- m.sw_st.frames_sent + 1;
    m.sw_st.sw_bytes_sent <- m.sw_st.sw_bytes_sent + size;
    (* the draws happen at send time, in send order: a run is a pure
       function of the switch seed and the traffic *)
    let fate = draw cfg m.sw_rng in
    if spiked fate then m.sw_st.sw_spikes <- m.sw_st.sw_spikes + 1;
    if lost fate then begin
      m.sw_st.sw_drops <- m.sw_st.sw_drops + 1;
      p.pst.p_drops <- p.pst.p_drops + 1;
      m.sw_dropped payload
    end
    else begin
      let arrival = arrive p.uplink ~after:(delay cfg fate) in
      let fr =
        { src = p.host.id; f_dst = dst; fsize = size; payload; enq_at = now;
          sw_at = Sim.Time.zero }
      in
      Sim.Engine.schedule m.sw_engine ~delay:(arrival - now) (fun () ->
          accept m fr)
    end

  let attach t ~cpu =
    let pid = Hashtbl.length t.ports in
    let label = Printf.sprintf "%s.p%d" t.sw_name pid in
    let pst =
      {
        up_frames = 0;
        up_bytes = 0;
        up_busy_us = 0;
        down_frames = 0;
        down_bytes = 0;
        down_busy_us = 0;
        p_drops = 0;
        p_overflows = 0;
        p_occ_hwm = 0;
        p_queue_wait_us = Sim.Stats.Summary.create ();
      }
    in
    let rec p =
      { sw = t; p_cpu = cpu; uplink = mk_wire (); eq = Queue.create ();
        occupancy = 0; down_busy = false; pst; host }
    and host =
      {
        h_engine = t.sw_engine;
        id = pid;
        label;
        transmit = (fun ~dst ~size payload -> send_to p ~dst ~size payload);
        inboxes = Hashtbl.create 4;
      }
    in
    Hashtbl.replace t.ports pid p;
    host

  let port t h =
    match Hashtbl.find_opt t.ports h.id with
    | Some p when p.host == h -> p
    | _ -> invalid_arg "Net.Switch.port: not a port of this switch"

  let stats t = t.sw_st
  let port_stats p = p.pst

  let port_utilization p =
    let now = Sim.Engine.now p.sw.sw_engine in
    if now = 0 then 0.
    else
      float_of_int (max p.pst.up_busy_us p.pst.down_busy_us)
      /. float_of_int now

  let max_port_utilization t =
    Hashtbl.fold (fun _ p acc -> max acc (port_utilization p)) t.ports 0.

  let register_metrics t reg ~instance =
    let s = t.sw_st in
    Sim.Metrics.register reg ~layer:"net" ~instance (fun () ->
        [
          ("ports", Sim.Metrics.Int (Hashtbl.length t.ports));
          ("buffer_frames", Sim.Metrics.Int t.buffer);
          ("frames_sent", Sim.Metrics.Int s.frames_sent);
          ("bytes_sent", Sim.Metrics.Int s.sw_bytes_sent);
          ("frames_delivered", Sim.Metrics.Int s.frames_delivered);
          ("drops", Sim.Metrics.Int s.sw_drops);
          ("overflow_drops", Sim.Metrics.Int s.overflows);
          ("delay_spikes", Sim.Metrics.Int s.sw_spikes);
          ("occupancy_hwm", Sim.Metrics.Int s.occ_hwm);
          ("max_port_utilization", Sim.Metrics.Float (max_port_utilization t));
          ("queue_wait_us", Sim.Metrics.Summary s.sw_queue_wait_us);
          ("transit_us", Sim.Metrics.Summary s.sw_transit_us);
        ])

  let register_port_metrics p reg ~instance =
    let s = p.pst in
    Sim.Metrics.register reg ~layer:"net" ~instance (fun () ->
        [
          ("up_frames", Sim.Metrics.Int s.up_frames);
          ("up_bytes", Sim.Metrics.Int s.up_bytes);
          ("up_busy_us", Sim.Metrics.Int s.up_busy_us);
          ("down_frames", Sim.Metrics.Int s.down_frames);
          ("down_bytes", Sim.Metrics.Int s.down_bytes);
          ("down_busy_us", Sim.Metrics.Int s.down_busy_us);
          ("drops", Sim.Metrics.Int s.p_drops);
          ("overflow_drops", Sim.Metrics.Int s.p_overflows);
          ("occupancy_hwm", Sim.Metrics.Int s.p_occ_hwm);
          ("utilization", Sim.Metrics.Float (port_utilization p));
          ("queue_wait_us", Sim.Metrics.Summary s.p_queue_wait_us);
        ])
end
