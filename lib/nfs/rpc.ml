type transport = Fixed | Adaptive

type stats = {
  mutable calls : int;
  mutable retransmits : int;
  mutable late_replies : int;
}

type pending = {
  mutable got : (Proto.reply * Proto.meta) option;
  mutable wake : (unit -> unit) option;
}

(* One channel per client machine and server: its xid space, reply
   matching, and the congestion/timer state (RTT estimator, RTO, AIMD
   window, in-flight count and the window wait queue). *)
type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  ep : Proto.msg Net.endpoint;
  id : int;
  transport : transport;
  timeout : Sim.Time.t;  (** the configured initial timeout *)
  mutable srtt : float;  (** us; negative until the first valid sample *)
  mutable rttvar : float;
  mutable rto : Sim.Time.t;  (** current RTO, Karn backoff included *)
  mutable cwnd : float;
  mutable in_flight : int;
  mutable next_decrease_at : Sim.Time.t;
  mutable backoffs : int;
  window_wait_us : Sim.Stats.Summary.t;
  win_cond : Sim.Condition.t;
  mutable next_xid : int;
  pending : (int, pending) Hashtbl.t;
  st : stats;
  op_calls : int array;  (** by {!Proto.op_index} *)
  op_rtt : Sim.Stats.Summary.t array;
  mutable retrans_log : Sim.Time.t list;  (** newest first *)
}

(* retry timers back off up to this; the adaptive RTO is floored at
   [min_rto] and the congestion window capped at [cwnd_limit] *)
let max_timeout = Sim.Time.sec 20
let min_rto = Sim.Time.ms 200
let cwnd_limit = 8.

let create engine ~cpu ~ep ~client_id ?(transport = Fixed)
    ?(timeout = Sim.Time.of_ms_float 1100.) () =
  let t =
    {
      engine;
      cpu;
      ep;
      id = client_id;
      transport;
      timeout;
      srtt = -1.;
      rttvar = 0.;
      rto = timeout;
      cwnd = 2.;
      in_flight = 0;
      next_decrease_at = Sim.Time.zero;
      backoffs = 0;
      window_wait_us = Sim.Stats.Summary.create ();
      win_cond =
        Sim.Condition.create engine (Printf.sprintf "rpc.win.%d" client_id);
      next_xid = 1;
      pending = Hashtbl.create 32;
      st = { calls = 0; retransmits = 0; late_replies = 0 };
      op_calls = Array.make Proto.nops 0;
      op_rtt = Array.init Proto.nops (fun _ -> Sim.Stats.Summary.create ());
      retrans_log = [];
    }
  in
  Sim.Engine.spawn engine ~name:(Printf.sprintf "rpc.recv.%d" client_id)
    (fun () ->
      while true do
        match Net.recv t.ep with
        | Proto.Reply { xid; reply; meta; _ } -> (
            match Hashtbl.find_opt t.pending xid with
            | Some p ->
                Hashtbl.remove t.pending xid;
                p.got <- Some (reply, meta);
                (match p.wake with Some w -> w () | None -> ())
            | None ->
                (* nobody takes this copy's frames *)
                t.st.late_replies <- t.st.late_replies + 1;
                Sim.Iov.release (Sim.Engine.frames engine)
                  (Proto.reply_frames reply))
        | Proto.Call _ -> assert false
      done);
  t

let client_id t = t.id
let transport t = t.transport

(* Park the caller until the reply lands or [timeout] passes, whichever
   first; both wakers funnel through a fire-once guard because resuming
   a parked process twice is an engine error.  The reply may already
   have landed while [Net.send]'s CPU charge yielded — with no waker
   registered yet the receiver couldn't wake us, so suspending then
   would sleep the whole timeout on top of an answered call.  When the
   reply wins the race the timeout timer is cancelled, releasing its
   closure — otherwise every answered call would pin a dead event in
   the engine heap for the full retransmission interval. *)
let wait_reply_or_timeout t (p : pending) ~timeout =
  if Option.is_none p.got then begin
    let timer = ref None in
    Sim.Engine.suspend t.engine ~register:(fun resume ->
        let fired = ref false in
        let once () =
          if not !fired then begin
            fired := true;
            resume ()
          end
        in
        p.wake <- Some once;
        timer := Some (Sim.Engine.schedule_cancellable t.engine ~delay:timeout once));
    p.wake <- None;
    if Option.is_some p.got then Option.iter Sim.Engine.cancel !timer
  end

let finish_call t (call : Proto.call) ~t0 r =
  (* reply deserialization + wakeup dispatch on the client CPU *)
  Sim.Cpu.charge t.cpu ~label:"rpc" (Sim.Time.us 30);
  let op = Proto.op_index call in
  t.op_calls.(op) <- t.op_calls.(op) + 1;
  Sim.Stats.Summary.add_int t.op_rtt.(op) (Sim.Engine.now t.engine - t0);
  r

(* Reply-side bookkeeping, once per answered call.  The caller's
   attribution clock (if any) is charged with the call's life: the
   congestion-window wait, the server's phase breakdown from the reply,
   the inbound wire leg from the server's transmit stamp, and whatever
   is left of the blocked interval (timeout slack, retransmit waits,
   send CPU) as generic RPC wait — each capped at what is left, so the
   phases can never sum past what the caller actually waited.  Traced,
   the server's span subtree (parented under this call's RPC span by
   construction) is grafted into the caller's tree and the inbound wire
   leg gets its own interval.  Pure bookkeeping: nothing here advances
   simulated time. *)
let account t ~entry ~window_wait ~attempts (m : Proto.meta) =
  let now = Sim.Engine.now t.engine in
  if Sim.Span.enabled () then begin
    Option.iter Sim.Span.graft m.spans;
    Sim.Span.interval ~name:"wire.reply" ~track:"net/wire" ~start_us:m.sent_at
      ~stop_us:now ();
    if attempts > 1 then Sim.Span.add_attr "attempts" (Sim.Span.I attempts)
  end;
  Sim.Attrib.blocked ~rest:"rpc.wait"
    ~parts:((("rpc.wait", window_wait) :: m.cost) @ [ ("wire", now - m.sent_at) ])
    ~start_us:entry ~stop_us:now ()

(* ---------- adaptive state (Jacobson/Karn + AIMD window) ---------- *)

let window t = max 1 (int_of_float t.cwnd)

let clamp_rto v = max min_rto (min v max_timeout)

(* Valid (un-retransmitted, Karn) samples drive the standard
   srtt/rttvar estimator: srtt += err/8, rttvar += (|err|-rttvar)/4,
   rto = srtt + 4*rttvar — and recomputing rto here is also what
   retires a Karn backoff once a clean exchange proves the network. *)
let sample_rtt t rtt =
  let sample = float_of_int rtt in
  if t.srtt < 0. then begin
    t.srtt <- sample;
    t.rttvar <- sample /. 2.
  end
  else begin
    let err = sample -. t.srtt in
    t.srtt <- t.srtt +. (err /. 8.);
    t.rttvar <- t.rttvar +. ((Float.abs err -. t.rttvar) /. 4.)
  end;
  t.rto <- clamp_rto (int_of_float (t.srtt +. (4. *. t.rttvar)))

(* ---------- the retransmit loop, both transports ---------- *)

(* Fixed (the NFSv2 default) starts every call from the configured
   timeout and doubles it per retry; nothing else.  Adaptive first waits
   for congestion-window space (bounding the channel's outstanding
   RPCs), starts from the channel RTO, and on a timeout publishes the
   backed-off value as the channel RTO (Karn: it holds until a clean
   sample) and halves the window at most once per RTO, so one loss
   burst doesn't zero the window.  A clean reply feeds the estimator
   and grows the window. *)
let call_body t (call : Proto.call) =
  let adaptive = t.transport = Adaptive in
  let entry = Sim.Engine.now t.engine in
  if adaptive then begin
    while t.in_flight >= window t do
      Sim.Condition.wait t.win_cond
    done;
    t.in_flight <- t.in_flight + 1
  end;
  let waited = Sim.Engine.now t.engine - entry in
  if waited > 0 then begin
    Sim.Stats.Summary.add_int t.window_wait_us waited;
    Sim.Span.interval ~name:"rpc.window" ~start_us:entry
      ~stop_us:(Sim.Engine.now t.engine)
      ()
  end;
  let xid = t.next_xid in
  t.next_xid <- t.next_xid + 1;
  t.st.calls <- t.st.calls + 1;
  Sim.Span.add_attr "xid" (Sim.Span.I xid);
  let size = Proto.call_size call in
  (* the call kept for retransmission holds its payload's frames until
     the reply, and so does each copy sent: the server drops a copy's
     holds once it has used it *)
  let payload = Proto.call_frames call in
  Sim.Iov.hold payload;
  let p = { got = None; wake = None } in
  Hashtbl.replace t.pending xid p;
  let t0 = Sim.Engine.now t.engine in
  let cur = ref (if adaptive then t.rto else t.timeout) in
  let attempts = ref 0 in
  (* a loop, not a recursive closure: the retry state stays in locals
     and a call allocates no environment for it *)
  while Option.is_none p.got do
    if !attempts > 0 then begin
      t.st.retransmits <- t.st.retransmits + 1;
      t.retrans_log <- Sim.Engine.now t.engine :: t.retrans_log
    end;
    incr attempts;
    let send_at = Sim.Engine.now t.engine in
    Sim.Iov.hold payload;
    Net.send t.ep ~size
      (Proto.Call
         { xid; client = t.id; call; sent = send_at; span = Sim.Span.ctx () });
    wait_reply_or_timeout t p ~timeout:!cur;
    if Option.is_none p.got then begin
      Sim.Span.interval ~name:"rpc.rto"
        ~attrs:[ ("attempt", Sim.Span.I !attempts) ]
        ~start_us:send_at
        ~stop_us:(Sim.Engine.now t.engine)
        ();
      cur := min (!cur * 2) max_timeout;
      if adaptive then begin
        t.backoffs <- t.backoffs + 1;
        t.rto <- max t.rto !cur;
        let now = Sim.Engine.now t.engine in
        if now >= t.next_decrease_at then begin
          t.cwnd <- Float.max 1. (t.cwnd /. 2.);
          t.next_decrease_at <- now + !cur
        end
      end
    end
  done;
  Sim.Iov.release (Sim.Engine.frames t.engine) payload;
  let r, meta = Option.get p.got in
  if adaptive then begin
    if !attempts = 1 then begin
      sample_rtt t (Sim.Engine.now t.engine - t0);
      (* additive increase on clean replies only *)
      t.cwnd <- Float.min cwnd_limit (t.cwnd +. (1. /. t.cwnd))
    end;
    t.in_flight <- t.in_flight - 1;
    Sim.Condition.signal t.win_cond
  end;
  account t ~entry ~window_wait:waited ~attempts:!attempts meta;
  finish_call t call ~t0 r

let span_names = Proto.per_op "rpc."

let call t (call : Proto.call) =
  if not (Sim.Span.enabled ()) then call_body t call
  else
    Sim.Span.span ~name:span_names.(Proto.op_index call) (fun () -> call_body t call)

(* ---------- observability ---------- *)

let stats t = t.st
let op_calls t op =
  match Proto.index_of_name op with Some i -> t.op_calls.(i) | None -> 0

let rtt_of t op =
  match Proto.index_of_name op with
  | Some i -> t.op_rtt.(i)
  | None -> Sim.Stats.Summary.create ()

let srtt_us t = if t.srtt < 0. then 0. else t.srtt
let rto_us t = float_of_int t.rto
let cwnd t = match t.transport with Fixed -> 0. | Adaptive -> t.cwnd
let in_flight t = t.in_flight
let backoffs t = t.backoffs
let window_wait_us t = t.window_wait_us

let retransmits_since t since =
  List.length (List.filter (fun at -> at >= since) t.retrans_log)
