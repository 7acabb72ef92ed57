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

(* The congestion/timer state of one {e server channel}: RTT estimator,
   RTO, AIMD window, in-flight count and the window wait queue.  It is a
   separate heap object so several [t]s — one per mount — can share it
   when they target the same server: the window then bounds the union of
   their outstanding calls and every mount feeds (and benefits from) one
   estimator, the way a real client shares one transport handle per
   server rather than per mount. *)
type cstate = {
  cs_timeout : Sim.Time.t;
  cs_max_timeout : Sim.Time.t;
  cs_min_rto : Sim.Time.t;
  cs_cwnd_limit : float;
  mutable srtt : float;  (** us; negative until the first valid sample *)
  mutable rttvar : float;
  mutable rto : Sim.Time.t;  (** current RTO, Karn backoff included *)
  mutable cwnd : float;
  mutable in_flight : int;
  mutable next_decrease_at : Sim.Time.t;
  mutable backoffs : int;
  window_wait_us : Sim.Stats.Summary.t;
  win_cond : Sim.Condition.t;
}

type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  ep : Proto.msg Net.endpoint;
  id : int;
  transport : transport;
  cs : cstate;  (** shared with other mounts to the same server, or private *)
  mutable next_xid : int;
  pending : (int, pending) Hashtbl.t;
  st : stats;
  op_calls : int array;  (** by {!Proto.op_index} *)
  op_rtt : Sim.Stats.Summary.t array;
  mutable retrans_log : Sim.Time.t list;  (** newest first *)
}

let create engine ~cpu ~ep ~client_id ?(transport = Fixed)
    ?(timeout = Sim.Time.of_ms_float 1100.) ?(max_timeout = Sim.Time.sec 20)
    ?(min_rto = Sim.Time.ms 200) ?(cwnd_limit = 8.) ?cstate () =
  let cs =
    match cstate with
    | Some cs -> cs
    | None ->
        {
          cs_timeout = timeout;
          cs_max_timeout = max_timeout;
          cs_min_rto = min_rto;
          cs_cwnd_limit = cwnd_limit;
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
        }
  in
  let t =
    {
      engine;
      cpu;
      ep;
      id = client_id;
      transport;
      cs;
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
            | None -> t.st.late_replies <- t.st.late_replies + 1)
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
  Sim.Stats.Summary.add t.op_rtt.(op)
    (float_of_int (Sim.Engine.now t.engine - t0));
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

let window cs = max 1 (int_of_float cs.cwnd)

let clamp_rto cs v = max cs.cs_min_rto (min v cs.cs_max_timeout)

(* Valid (un-retransmitted, Karn) samples drive the standard
   srtt/rttvar estimator: srtt += err/8, rttvar += (|err|-rttvar)/4,
   rto = srtt + 4*rttvar — and recomputing rto here is also what
   retires a Karn backoff once a clean exchange proves the network. *)
let sample_rtt cs rtt =
  let sample = float_of_int rtt in
  if cs.srtt < 0. then begin
    cs.srtt <- sample;
    cs.rttvar <- sample /. 2.
  end
  else begin
    let err = sample -. cs.srtt in
    cs.srtt <- cs.srtt +. (err /. 8.);
    cs.rttvar <- cs.rttvar +. ((Float.abs err -. cs.rttvar) /. 4.)
  end;
  cs.rto <- clamp_rto cs (int_of_float (cs.srtt +. (4. *. cs.rttvar)))

(* ---------- the retransmit loop, both transports ---------- *)

(* Fixed (the NFSv2 default) starts every call from the configured
   timeout and doubles it per retry; nothing else.  Adaptive first waits
   for congestion-window space (bounding the channel's outstanding RPCs
   across every mount sharing this cstate), starts from the channel RTO,
   and on a timeout publishes the backed-off value as the channel RTO
   (Karn: it holds until a clean sample) and halves the window at most
   once per RTO, so one loss burst doesn't zero the window.  A clean
   reply feeds the estimator and grows the window. *)
let call_body t (call : Proto.call) =
  let cs = t.cs in
  let adaptive = t.transport = Adaptive in
  let entry = Sim.Engine.now t.engine in
  if adaptive then begin
    while cs.in_flight >= window cs do
      Sim.Condition.wait cs.win_cond
    done;
    cs.in_flight <- cs.in_flight + 1
  end;
  let waited = Sim.Engine.now t.engine - entry in
  if waited > 0 then begin
    Sim.Stats.Summary.add cs.window_wait_us (float_of_int waited);
    Sim.Span.interval ~name:"rpc.window" ~start_us:entry
      ~stop_us:(Sim.Engine.now t.engine)
      ()
  end;
  let xid = t.next_xid in
  t.next_xid <- t.next_xid + 1;
  t.st.calls <- t.st.calls + 1;
  Sim.Span.add_attr "xid" (Sim.Span.I xid);
  let size = Proto.call_size call in
  let p = { got = None; wake = None } in
  Hashtbl.replace t.pending xid p;
  let t0 = Sim.Engine.now t.engine in
  let cur = ref (if adaptive then cs.rto else cs.cs_timeout) in
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
      cur := min (!cur * 2) cs.cs_max_timeout;
      if adaptive then begin
        cs.backoffs <- cs.backoffs + 1;
        cs.rto <- max cs.rto !cur;
        let now = Sim.Engine.now t.engine in
        if now >= cs.next_decrease_at then begin
          cs.cwnd <- Float.max 1. (cs.cwnd /. 2.);
          cs.next_decrease_at <- now + !cur
        end
      end
    end
  done;
  let r, meta = Option.get p.got and resent = !attempts > 1 in
  if adaptive then begin
    if not resent then begin
      sample_rtt cs (Sim.Engine.now t.engine - t0);
      (* additive increase on clean replies only *)
      cs.cwnd <- Float.min cs.cs_cwnd_limit (cs.cwnd +. (1. /. cs.cwnd))
    end;
    cs.in_flight <- cs.in_flight - 1;
    Sim.Condition.signal cs.win_cond
  end;
  account t ~entry ~window_wait:waited ~attempts:!attempts meta;
  (finish_call t call ~t0 r, resent)

let span_names = Proto.per_op "rpc."

let call_resent t (call : Proto.call) =
  if not (Sim.Span.enabled ()) then call_body t call
  else
    Sim.Span.span ~name:span_names.(Proto.op_index call) (fun () -> call_body t call)

let call t c = fst (call_resent t c)

(* ---------- observability ---------- *)

let stats t = t.st
let op_calls t op =
  match Proto.index_of_name op with Some i -> t.op_calls.(i) | None -> 0

let rtt_of t op =
  match Proto.index_of_name op with
  | Some i -> t.op_rtt.(i)
  | None -> Sim.Stats.Summary.create ()

let srtt_us t = if t.cs.srtt < 0. then 0. else t.cs.srtt
let rto_us t = float_of_int t.cs.rto
let cwnd t = match t.transport with Fixed -> 0. | Adaptive -> t.cs.cwnd
let in_flight t = t.cs.in_flight
let backoffs t = t.cs.backoffs
let window_wait_us t = t.cs.window_wait_us
let cstate_of t = t.cs
let shares_cstate a b = a.cs == b.cs

let retransmits_since t since =
  List.length (List.filter (fun at -> at >= since) t.retrans_log)
