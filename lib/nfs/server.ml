type stats = {
  mutable received : int;
  mutable dup_hits : int;
  mutable dup_busy_drops : int;
  mutable dup_evictions : int;
  queue_wait_us : Sim.Stats.Summary.t;
}

type dup_entry = In_progress | Done of Proto.reply

type item = {
  ep : Proto.msg Net.endpoint;
  xid : int;
  client : int;
  call : Proto.call;
  sent : Sim.Time.t;  (* client transmit stamp, for cost attribution *)
  arrived : Sim.Time.t;
  span : Sim.Span.ctx option;  (* caller's tracing context, if traced *)
}

type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  mutable fs : Ufs.Types.fs;  (* replaced by restart after a crash *)
  mutable down : bool;
  mutable restarts : int;
  nfsd : int;
  queue : item Queue.t;
  work : Sim.Condition.t;
  dup : (int * int, dup_entry) Hashtbl.t;
  dup_order : (int * int) Queue.t;  (* completed non-idempotent keys, oldest first *)
  dup_cache_size : int;
  fh_inode : (int, Ufs.Types.inode) Hashtbl.t;
  fh_path : (int, string) Hashtbl.t;  (* for path-based create *)
  st : stats;
  op_applied : int array;  (** by {!Proto.op_index} *)
  op_service : Sim.Stats.Summary.t array;
}

let root_fh = Ufs.Types.rootino

(* hard server-side cap on entries per READDIR reply, whatever the
   client asked for — the reply must fit a datagram-sized message *)
let readdir_max_entries = 64

let nonidempotent = function
  | Proto.Create _ | Proto.Write _ -> true
  | Proto.Lookup _ | Proto.Getattr _ | Proto.Read _ | Proto.Readdir _ -> false

(* ---------- op execution ---------- *)

let attr_of (ip : Ufs.Types.inode) =
  { Proto.size = ip.Ufs.Types.size; is_dir = ip.Ufs.Types.kind = Ufs.Dinode.Dir }

(* The server holds one long-lived reference per handed-out handle, so
   a handle stays valid however long a client caches it. *)
let inode_of t fh =
  match Hashtbl.find_opt t.fh_inode fh with
  | Some ip -> ip
  | None ->
      let ip = Ufs.Iops.iget t.fs fh in
      Hashtbl.replace t.fh_inode fh ip;
      ip

let path_of t fh =
  match Hashtbl.find_opt t.fh_path fh with
  | Some p -> p
  | None -> if fh = root_fh then "/" else Vfs.Errno.raise_err Vfs.Errno.ENOENT "nfs fh"

let join dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

let execute t (call : Proto.call) : Proto.reply =
  match call with
  | Proto.Lookup { dir; name } -> (
      let dip = inode_of t dir in
      match Ufs.Dir.lookup t.fs dip name with
      | None -> Proto.R_err "ENOENT"
      | Some inum ->
          let ip = inode_of t inum in
          Hashtbl.replace t.fh_path inum (join (path_of t dir) name);
          Proto.R_fh { fh = inum; attr = attr_of ip })
  | Proto.Create { dir; name } ->
      let path = join (path_of t dir) name in
      let ip = Ufs.Fs.creat t.fs path in
      let fh = ip.Ufs.Types.inum in
      (* keep exactly one pinned reference per handle *)
      if Hashtbl.mem t.fh_inode fh then Ufs.Iops.iput t.fs ip
      else Hashtbl.replace t.fh_inode fh ip;
      Hashtbl.replace t.fh_path fh path;
      Proto.R_fh { fh; attr = attr_of (inode_of t fh) }
  | Proto.Getattr { fh } -> Proto.R_attr (attr_of (inode_of t fh))
  | Proto.Read { fh; off; len } ->
      let ip = inode_of t fh in
      let data = Ufs.Fs.readv t.fs ip ~off ~len in
      Proto.R_read
        { data; eof = off + Sim.Iov.length data >= ip.Ufs.Types.size }
  | Proto.Write { fh; off; data } ->
      let ip = inode_of t fh in
      Ufs.Fs.writev t.fs ip ~off data;
      Proto.R_attr (attr_of ip)
  | Proto.Readdir { fh; cookie; count } ->
      (* One bounded page per call: [Dir.iter] enumerates in stable
         slot order, so an entry index is a stable resume cookie for an
         unchanged directory (NFSv2's actual guarantee — no stronger). *)
      let dip = inode_of t fh in
      let all = ref [] in
      Ufs.Dir.iter t.fs dip (fun name _ -> all := name :: !all);
      let all = List.rev !all in
      let total = List.length all in
      let cookie = max 0 cookie in
      let count =
        if count <= 0 then readdir_max_entries
        else min count readdir_max_entries
      in
      let page =
        List.filteri (fun i _ -> i >= cookie && i < cookie + count) all
      in
      let next = min total (cookie + count) in
      Proto.R_names { names = page; cookie = next; eof = next >= total }

let execute t call =
  try execute t call with
  | Vfs.Errno.Error (code, _) -> Proto.R_err (Vfs.Errno.to_string code)

(* This copy of a call has been used: drop its holds on the frames it
   carries (a page that adopted one holds it itself). *)
let drop_copy t call =
  Sim.Iov.release (Sim.Engine.frames t.engine) (Proto.call_frames call)

(* ---------- dup cache ---------- *)

let dup_store t key reply =
  Hashtbl.replace t.dup key (Done reply);
  Queue.push key t.dup_order;
  while Queue.length t.dup_order > t.dup_cache_size do
    let victim = Queue.pop t.dup_order in
    Hashtbl.remove t.dup victim;
    t.st.dup_evictions <- t.st.dup_evictions + 1
  done

let send_reply t (it : item) ~cost ~spans reply =
  let meta = { Proto.sent_at = Sim.Engine.now t.engine; cost; spans } in
  let msg = Proto.Reply { xid = it.xid; client = it.client; reply; meta } in
  Net.send it.ep ~size:(Proto.msg_size msg) msg

(* The server side of a traced call runs under a detached span parented
   on the client's wire context, backdated to the client's transmit
   stamp so the inbound wire leg and the nfsd queue wait nest inside
   it; the finished subtree rides back in the reply.  Untraced calls
   ([span = None]) skip all of this. *)
let traced (it : item) ~dq ~name f =
  match it.span with
  | None -> (f (), None)
  | Some c ->
      Sim.Span.subtree c ~name ~track:"server/nfsd" ~start_us:it.sent
        (fun () ->
          Sim.Span.interval ~name:"wire.call" ~track:"net/wire"
            ~start_us:it.sent ~stop_us:it.arrived ();
          Sim.Span.interval ~name:"nfsd.queue" ~start_us:it.arrived
            ~stop_us:dq ();
          f ())

(* ---------- processes ---------- *)

let svc_overhead = Sim.Time.us 60
let span_names = Proto.per_op "srv."
let dup_span_names = Proto.per_op "srv.dup."

let worker t () =
  while true do
    while Queue.is_empty t.queue do
      Sim.Condition.wait t.work
    done;
    let it = Queue.pop t.queue in
    (* queue drained at crash; drop stragglers *)
    if t.down then drop_copy t it.call
    else
    let dq = Sim.Engine.now t.engine in
    Sim.Stats.Summary.add_int t.st.queue_wait_us (dq - it.arrived);
    Sim.Cpu.charge t.cpu ~label:"nfsd" svc_overhead;
    (* phase breakdown shipped back in the reply: outbound wire+medium
       time from the client's transmit stamp, time queued for an nfsd,
       then whatever [execute] spends (disk waits land on the clock,
       the rest of the wall time is nfsd CPU) *)
    let base_cost =
      [
        ("wire", max 0 (it.arrived - it.sent));
        ("nfsd.queue", max 0 (dq - it.arrived));
      ]
    in
    let key = (it.client, it.xid) in
    let ni = nonidempotent it.call in
    match if ni then Hashtbl.find_opt t.dup key else None with
    | Some (Done reply) ->
        drop_copy t it.call;
        t.st.dup_hits <- t.st.dup_hits + 1;
        let reply, spans =
          traced it ~dq ~name:dup_span_names.(Proto.op_index it.call) (fun () -> reply)
        in
        send_reply t it
          ~cost:
            (base_cost @ [ ("nfsd.cpu", Sim.Engine.now t.engine - dq) ])
          ~spans reply
    | Some In_progress ->
        drop_copy t it.call;
        t.st.dup_busy_drops <- t.st.dup_busy_drops + 1
    | None ->
        if ni then Hashtbl.replace t.dup key In_progress;
        let op = Proto.op_index it.call in
        t.op_applied.(op) <- t.op_applied.(op) + 1;
        let t0 = Sim.Engine.now t.engine in
        let clk = Sim.Attrib.create () in
        let reply, spans =
          traced it ~dq ~name:span_names.(op) (fun () ->
              Sim.Attrib.with_clock clk (fun () -> execute t it.call))
        in
        drop_copy t it.call;
        Sim.Stats.Summary.add_int t.op_service.(op)
          (Sim.Engine.now t.engine - t0);
        (* the server may have died while this nfsd slept on disk: the
           op's effects (if its writes beat the power cut) are on the
           platter, but the reply — and, after reboot, the dup-cache
           entry that would have suppressed the retransmit — are lost.
           This is exactly NFSv2's non-idempotent replay window. *)
        if t.down then ()
        else begin
          if ni then dup_store t key reply;
          let disk = Sim.Attrib.read clk in
          let cpu =
            max 0 (Sim.Engine.now t.engine - dq - Sim.Attrib.total clk)
          in
          send_reply t it
            ~cost:(base_cost @ disk @ [ ("nfsd.cpu", cpu) ])
            ~spans reply
        end
  done

let dispatcher t ep () =
  while true do
    match Net.recv ep with
    | Proto.Call { call; _ } when t.down ->
        (* dead server: the datagram vanishes; the client's RPC layer
           times out and retransmits until the reboot answers *)
        drop_copy t call
    | Proto.Call { xid; client; call; sent; span } ->
        t.st.received <- t.st.received + 1;
        Queue.push
          { ep; xid; client; call; sent; span;
            arrived = Sim.Engine.now t.engine }
          t.queue;
        Sim.Condition.signal t.work
    | Proto.Reply _ -> assert false
  done

let create engine ~cpu ~fs ?(nfsd = 4) ?dup_cache_size ~endpoints () =
  (* the cache is shared across clients, so a fixed size gets easier to
     evict out of as clients multiply — and an evicted entry is exactly
     a delayed retransmit re-applying a CREATE/WRITE.  Scale the
     default with the client count (one endpoint per client). *)
  let dup_cache_size =
    match dup_cache_size with
    | Some n -> n
    | None -> 256 * max 1 (List.length endpoints)
  in
  let t =
    {
      engine;
      cpu;
      fs;
      down = false;
      restarts = 0;
      nfsd;
      queue = Queue.create ();
      work = Sim.Condition.create engine "nfsd.work";
      dup = Hashtbl.create 512;
      dup_order = Queue.create ();
      dup_cache_size;
      fh_inode = Hashtbl.create 64;
      fh_path = Hashtbl.create 64;
      st =
        {
          received = 0;
          dup_hits = 0;
          dup_busy_drops = 0;
          dup_evictions = 0;
          queue_wait_us = Sim.Stats.Summary.create ();
        };
      op_applied = Array.make Proto.nops 0;
      op_service = Array.init Proto.nops (fun _ -> Sim.Stats.Summary.create ());
    }
  in
  List.iteri
    (fun i ep ->
      Sim.Engine.spawn engine ~name:(Printf.sprintf "nfs.dispatch.%d" i)
        (dispatcher t ep))
    endpoints;
  for i = 1 to nfsd do
    Sim.Engine.spawn engine ~name:(Printf.sprintf "nfsd.%d" i) (worker t)
  done;
  t

(* ---------- crash / restart ---------- *)

let crash t =
  t.down <- true;
  (* volatile server state dies with the power: queued calls, the
     handle table (its inode references belong to the dead fs instance)
     — and, critically, nothing here touches the dup cache yet: it dies
     at restart, modelling that the REBOOTED server has no memory of
     what it applied before the crash *)
  Queue.clear t.queue;
  Hashtbl.reset t.fh_inode;
  Hashtbl.reset t.fh_path

let restart t ~fs =
  if not t.down then invalid_arg "Nfs.Server.restart: server is not down";
  t.fs <- fs;
  Hashtbl.reset t.dup;
  Queue.clear t.dup_order;
  t.restarts <- t.restarts + 1;
  t.down <- false

let is_down t = t.down
let restarts t = t.restarts

let applied t op =
  match Proto.index_of_name op with Some i -> t.op_applied.(i) | None -> 0

let stats t = t.st

let service_us t op =
  match Proto.index_of_name op with
  | Some i -> t.op_service.(i)
  | None -> Sim.Stats.Summary.create ()

let register_metrics t reg ~instance =
  Sim.Metrics.register reg ~layer:"nfs" ~instance (fun () ->
      let per_op =
        List.concat_map
          (fun op ->
            [
              (op ^ "_applied", Sim.Metrics.Int (applied t op));
              (op ^ "_service_us", Sim.Metrics.Summary (service_us t op));
            ])
          Proto.op_names
      in
      [
        ("received", Sim.Metrics.Int t.st.received);
        ("nfsd", Sim.Metrics.Int t.nfsd);
        ("restarts", Sim.Metrics.Int t.restarts);
        ("dup_cache_hits", Sim.Metrics.Int t.st.dup_hits);
        ("dup_busy_drops", Sim.Metrics.Int t.st.dup_busy_drops);
        ("dup_evictions", Sim.Metrics.Int t.st.dup_evictions);
        ("queue_wait_us", Sim.Metrics.Summary t.st.queue_wait_us);
      ]
      @ per_op)
