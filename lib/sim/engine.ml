open Effect
open Effect.Deep

(* Specialized event heap.  A generic heap keyed by boxed [(time, seq)]
   tuples and compared through a closure spends the dispatch loop on
   tuple allocations and indirect compares at fleet scale (millions of
   events for a 1024-client sweep).  Here the keys live in two parallel
   unboxed [int array]s (no per-event allocation) and the comparison is
   inlined int arithmetic: strictly by time, ties broken by the
   monotone sequence number, so same-instant events stay FIFO. *)
type events = {
  mutable times : int array;
  mutable seqs : int array;
  mutable cbs : (unit -> unit) array;
  mutable len : int;
}

let nop () = ()

let ev_create () =
  { times = Array.make 256 0; seqs = Array.make 256 0; cbs = Array.make 256 nop; len = 0 }

let ev_grow e =
  let cap = Array.length e.times in
  let cap' = cap * 2 in
  let times = Array.make cap' 0 and seqs = Array.make cap' 0 and cbs = Array.make cap' nop in
  Array.blit e.times 0 times 0 cap;
  Array.blit e.seqs 0 seqs 0 cap;
  Array.blit e.cbs 0 cbs 0 cap;
  e.times <- times;
  e.seqs <- seqs;
  e.cbs <- cbs

(* [before] is the heap order: (t1,s1) < (t2,s2) lexicographically. *)
let[@inline] before e i j =
  let ti = Array.unsafe_get e.times i and tj = Array.unsafe_get e.times j in
  ti < tj || (ti = tj && Array.unsafe_get e.seqs i < Array.unsafe_get e.seqs j)

let[@inline] ev_swap e i j =
  let t = Array.unsafe_get e.times i in
  Array.unsafe_set e.times i (Array.unsafe_get e.times j);
  Array.unsafe_set e.times j t;
  let s = Array.unsafe_get e.seqs i in
  Array.unsafe_set e.seqs i (Array.unsafe_get e.seqs j);
  Array.unsafe_set e.seqs j s;
  let c = Array.unsafe_get e.cbs i in
  Array.unsafe_set e.cbs i (Array.unsafe_get e.cbs j);
  Array.unsafe_set e.cbs j c

let ev_push e ~time ~seq cb =
  if e.len = Array.length e.times then ev_grow e;
  let i = ref e.len in
  e.times.(!i) <- time;
  e.seqs.(!i) <- seq;
  e.cbs.(!i) <- cb;
  e.len <- e.len + 1;
  (* sift up *)
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before e !i parent then begin
      ev_swap e !i parent;
      i := parent
    end
    else continue_ := false
  done

(* Remove the root (callers read [times.(0)]/[cbs.(0)] first).  Clears
   the vacated closure slot so it isn't pinned until the next grow. *)
let ev_drop_root e =
  let last = e.len - 1 in
  e.len <- last;
  e.times.(0) <- e.times.(last);
  e.seqs.(0) <- e.seqs.(last);
  e.cbs.(0) <- e.cbs.(last);
  e.cbs.(last) <- nop;
  (* sift down *)
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 in
    if l >= last then continue_ := false
    else begin
      let r = l + 1 in
      let m = if r < last && before e r l then r else l in
      if before e m !i then begin
        ev_swap e !i m;
        i := m
      end
      else continue_ := false
    end
  done

(* Ready ring: a FIFO of callbacks due at the current instant.  Every
   [resume] and condition wake-up is a delay-0 schedule, and sifting
   those through the heap costs O(log n) each for an entry that is
   always the next to run.  The ring holds them in push order, and
   popped slots are cleared so a run callback is not pinned. *)
type ready = {
  mutable rcbs : (unit -> unit) array;  (* length is a power of two *)
  mutable rhead : int;
  mutable rlen : int;
}

let ready_create () = { rcbs = Array.make 256 nop; rhead = 0; rlen = 0 }

let ready_push r cb =
  let cap = Array.length r.rcbs in
  if r.rlen = cap then begin
    let rcbs = Array.make (cap * 2) nop in
    let first = cap - r.rhead in
    Array.blit r.rcbs r.rhead rcbs 0 first;
    Array.blit r.rcbs 0 rcbs first r.rhead;
    r.rcbs <- rcbs;
    r.rhead <- 0
  end;
  let mask = Array.length r.rcbs - 1 in
  Array.unsafe_set r.rcbs ((r.rhead + r.rlen) land mask) cb;
  r.rlen <- r.rlen + 1

let ready_pop r =
  let f = Array.unsafe_get r.rcbs r.rhead in
  Array.unsafe_set r.rcbs r.rhead nop;
  r.rhead <- (r.rhead + 1) land (Array.length r.rcbs - 1);
  r.rlen <- r.rlen - 1;
  f

type t = {
  mutable now : Time.t;
  mutable seq : int;
  events : events;  (* delayed events *)
  ready : ready;  (* delay-0 events, all due at [now] *)
  mutable blocked : int; (* processes currently suspended *)
  (* self-observability: fleet-scale runs stress the engine itself, so
     the hot paths keep cheap counters a metrics source can read *)
  mutable dispatched : int;
  mutable heap_max : int;
  mutable cancellations : int;
  mutable spawned : int;
  (* per-effect dispatch counters: how often each effect crosses the
     handler — the effect-handler half of the hot path *)
  mutable eff_suspends : int;
  mutable eff_local : int;
  mutable sleeps_elided : int;
  (* lookahead sleeps: the last instant the dispatching [run]/[run_for]
     may reach ([min_int] outside any run), and whether a process body
     is on the stack (a plain callback must not sleep) *)
  mutable horizon : Time.t;
  mutable in_process : bool;
  frames : Frames.t;
  (* a sleep that must really suspend performs this one effect value,
     whose registrar reads the delay from [nap]: set just before the
     perform, read by the handler before anything else runs *)
  mutable nap : Time.t;
  mutable nap_effect : unit Effect.t;
}

exception Deadlock of string

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* the VM page and UFS block size: every NFS page and READ frame *)
let page_bytes = 8192

let now t = t.now
let frames t = t.frames

let pending t = t.events.len + t.ready.rlen

(* [delay >= 0]; [schedule] without the optional argument's box *)
let schedule_in t delay f =
  if delay = 0 then ready_push t.ready f
  else begin
    t.seq <- t.seq + 1;
    ev_push t.events ~time:(t.now + delay) ~seq:t.seq f
  end;
  let n = pending t in
  if n > t.heap_max then t.heap_max <- n

let schedule t ?(delay = 0) f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_in t delay f

let create () =
  let t =
    {
      now = 0;
      seq = 0;
      events = ev_create ();
      ready = ready_create ();
      blocked = 0;
      dispatched = 0;
      heap_max = 0;
      cancellations = 0;
      spawned = 0;
      eff_suspends = 0;
      eff_local = 0;
      sleeps_elided = 0;
      horizon = min_int;
      in_process = false;
      frames = Frames.create ~size:page_bytes;
      nap = 0;
      nap_effect = Suspend ignore;
    }
  in
  t.nap_effect <- Suspend (fun resume -> schedule_in t t.nap resume);
  t

(* A cancellable event is a heap entry indirected through a mutable
   cell.  Cancelling empties the cell: the heap slot itself stays (the
   heap has no removal), but it fires as a no-op and — the point — the
   cancelled closure and everything it captures are released
   immediately instead of being pinned until the deadline. *)
type timer = { mutable cb : (unit -> unit) option; owner : t }

let schedule_cancellable t ?delay f =
  let h = { cb = Some f; owner = t } in
  schedule t ?delay (fun () ->
      match h.cb with
      | Some f ->
          h.cb <- None;
          f ()
      | None -> ());
  h

let cancel h =
  if h.cb <> None then begin
    h.owner.cancellations <- h.owner.cancellations + 1;
    h.cb <- None
  end

let cancelled h = h.cb = None

(* A parked process: its one continuation cell, reused by every
   suspension, the number of the current suspension, and the one thunk
   that re-enters it.  A resume handle remembers the suspension it was
   made for, so a handle kept from an earlier suspension is refused
   even while the process is parked again. *)
type proc = {
  eng : t;
  mutable k : (unit, unit) continuation;
  mutable parks : int;
  mutable parked : bool;
  run : unit -> unit;
}

let resume p park =
  if not (p.parked && p.parks = park) then
    invalid_arg "Engine: process resumed twice";
  p.parked <- false;
  p.eng.blocked <- p.eng.blocked - 1;
  schedule_in p.eng 0 p.run

(* Run [f] as a process: effects performed by [f] are interpreted here.
   A [Suspend register] effect parks the continuation in the process's
   [proc] cell and hands [register] a resume handle; resuming schedules
   the process's one [run] thunk, which re-enters the handler.  The cell
   and the thunk are made at the first suspension and reused by every
   later one, and the handler's two answers are made once per process,
   so a suspension allocates only its handle.
   Each process also owns one [Local] record (its attribution clock,
   current span and user slot), answered by the [Local.Self] effect:
   the handler closure holds it, so it survives suspensions and is
   invisible to every other process, and resuming swaps nothing.
   [in_process] is set each time the process body starts or resumes and
   cleared on each way out of it — return, exception, suspend — so a
   plain callback never sees it set. *)
let spawn t ?name f =
  let name = Option.value name ~default:"process" in
  t.spawned <- t.spawned + 1;
  let local = Local.create () in
  let cell = ref None and register = ref ignore in
  let park k =
    match !cell with
    | Some p ->
        p.k <- k;
        p.parks <- p.parks + 1;
        p.parked <- true;
        p
    | None ->
        let rec p =
          {
            eng = t;
            k;
            parks = 0;
            parked = true;
            run =
              (fun () ->
                t.in_process <- true;
                continue p.k ());
          }
        in
        cell := Some p;
        p
  in
  let on_suspend =
    Some
      (fun (k : (unit, unit) continuation) ->
        t.in_process <- false;
        t.eff_suspends <- t.eff_suspends + 1;
        t.blocked <- t.blocked + 1;
        let p = park k in
        let park = p.parks in
        !register (fun () -> resume p park))
  and on_self =
    Some
      (fun (k : (Local.t, unit) continuation) ->
        t.eff_local <- t.eff_local + 1;
        continue k local)
  in
  let body () =
    t.in_process <- true;
    match_with f ()
      {
        retc = (fun () -> t.in_process <- false);
        exnc =
          (fun e ->
            t.in_process <- false;
            raise
              (Failure
                 (Printf.sprintf "process %s died: %s" name (Printexc.to_string e))));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend r ->
                register := r;
                (on_suspend : ((a, unit) continuation -> unit) option)
            | Local.Self -> on_self
            | _ -> None);
      }
  in
  schedule t body

let suspend _t ~register = perform (Suspend register)

(* Lookahead: when the ready ring is empty and nothing in the heap is
   due by [wake], the suspend path would push the wake-up, pop it as the
   very next event, and resume the process straight from the ring —
   no other event runs in between.  So advance the clock in place, and
   keep the counters that round trip would have left: one seq, one
   suspend, two dispatches, and a pending high-water mark of one more
   than the heap.  [wake] must also lie within the dispatching run's
   horizon, or a [run_for] slice would end mid-sleep. *)
let sleep t d =
  if d < 0 then invalid_arg "Engine.sleep: negative duration";
  if d > 0 then begin
    let wake = t.now + d and e = t.events in
    if
      t.in_process && t.ready.rlen = 0 && wake <= t.horizon
      && (e.len = 0 || Array.unsafe_get e.times 0 > wake)
    then begin
      t.seq <- t.seq + 1;
      t.eff_suspends <- t.eff_suspends + 1;
      t.sleeps_elided <- t.sleeps_elided + 1;
      t.dispatched <- t.dispatched + 2;
      if e.len + 1 > t.heap_max then t.heap_max <- e.len + 1;
      t.now <- wake
    end
    else begin
      t.nap <- d;
      perform t.nap_effect
    end
  end

(* Dispatch order is (time, seq), exactly as if every event went
   through the heap.  Ring entries were all pushed at [now], and the
   clock only advances once the ring is empty.  A heap entry due at
   [now] was pushed with a positive delay at an earlier instant, so it
   precedes every ring entry: drain the heap's [now] entries first, then
   the ring, then advance time.  The dispatch loop reads the heap root in
   place and drops it — no option, no tuple, no allocation per event. *)
let[@inline] dispatch t f =
  t.dispatched <- t.dispatched + 1;
  f ()

let[@inline] dispatch_root t =
  let e = t.events in
  let at = Array.unsafe_get e.times 0 in
  let f = Array.unsafe_get e.cbs 0 in
  ev_drop_root e;
  assert (at >= t.now);
  t.now <- at;
  dispatch t f

(* Each run publishes how far it may dispatch (the [sleep] horizon)
   and gives the caller's back when it returns. *)
let run t =
  let e = t.events and r = t.ready in
  let saved = t.horizon in
  t.horizon <- max_int;
  while e.len > 0 || r.rlen > 0 do
    if e.len > 0 && (r.rlen = 0 || Array.unsafe_get e.times 0 <= t.now) then
      dispatch_root t
    else dispatch t (ready_pop r)
  done;
  t.horizon <- saved

let run_for t d =
  let stop = t.now + d in
  let e = t.events and r = t.ready in
  let saved = t.horizon in
  t.horizon <- stop;
  let continue_ = ref true in
  while !continue_ do
    if e.len > 0 && Array.unsafe_get e.times 0 <= t.now then dispatch_root t
    else if r.rlen > 0 then dispatch t (ready_pop r)
    else if e.len > 0 && Array.unsafe_get e.times 0 <= stop then dispatch_root t
    else begin
      t.now <- stop;
      continue_ := false
    end
  done;
  t.horizon <- saved

let live_processes t = t.blocked

let check_quiescent t =
  if t.blocked > 0 then
    raise
      (Deadlock
         (Printf.sprintf "%d process(es) still suspended at %s" t.blocked
            (Time.to_string t.now)))

let events_dispatched t = t.dispatched
let heap_max_depth t = t.heap_max
let cancellations t = t.cancellations
let processes_spawned t = t.spawned
let effect_suspends t = t.eff_suspends
let effect_local_ops t = t.eff_local
let sleeps_elided t = t.sleeps_elided

let register_metrics t reg ~instance =
  Metrics.register reg ~layer:"sim.engine" ~instance (fun () ->
      [
        ("events_dispatched", Metrics.Int t.dispatched);
        ("heap_max_depth", Metrics.Int t.heap_max);
        ("heap_len", Metrics.Int (pending t));
        ("cancellations", Metrics.Int t.cancellations);
        ("processes_spawned", Metrics.Int t.spawned);
        ("eff_suspends", Metrics.Int t.eff_suspends);
        ("eff_local_ops", Metrics.Int t.eff_local);
        ("eff_sleeps_elided", Metrics.Int t.sleeps_elided);
        ("now_us", Metrics.Int t.now);
      ])
