type config = {
  geom : Geom.t;
  seek : Seek.t;
  track_buffer : bool;
  bus_bytes_per_sec : int;
  cmd_overhead : Sim.Time.t;
  head_switch : Sim.Time.t;
  policy : Disksort.policy;
  driver_clustering : bool;
}

let default_config =
  {
    geom = Geom.sun0400;
    seek = Seek.default;
    track_buffer = true;
    bus_bytes_per_sec = 4_000_000;
    cmd_overhead = Sim.Time.ms 1;
    head_switch = Sim.Time.ms 1;
    policy = Disksort.Elevator;
    driver_clustering = false;
  }

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable busy : Sim.Time.t;
  mutable seek_time : Sim.Time.t;
  mutable rot_wait : Sim.Time.t;
  mutable transfer_time : Sim.Time.t;
  mutable coalesced : int;
  mutable crash_dropped_reqs : int;
  mutable crash_dropped_bytes : int;
  read_latency : Sim.Stats.Summary.t;
  write_latency : Sim.Stats.Summary.t;
  queue_depth : Sim.Stats.Summary.t;
  queue_wait : Sim.Stats.Summary.t;
  service : Sim.Stats.Summary.t;
  seek_per_io : Sim.Stats.Summary.t;
  rot_per_io : Sim.Stats.Summary.t;
  xfer_per_io : Sim.Stats.Summary.t;
}

type event = {
  at : Sim.Time.t;
  kind : Request.kind;
  sector : int;
  count : int;
  buffered_hit : bool;
}

type t = {
  engine : Sim.Engine.t;
  cfg : config;
  st : Store.t;
  queue : Disksort.t;
  work : Sim.Condition.t;
  idle : Sim.Condition.t;
  tbuf : Track_buffer.t;
  mutable cur_cyl : int;
  mutable cur_head : int;
  mutable head_sector : int;  (* logical sector just past the last transfer *)
  mutable last_read_end : int;  (* for sequential-streaming detection *)
  mutable last_read_end_time : Sim.Time.t;
  mutable servicing : bool;
  mutable inflight : Request.t list;  (* popped from the queue, not yet done *)
  mutable write_cutoff : int option;
      (* crash-point latch: number of further write completions allowed
         to reach the store; once it hits zero, write data is silently
         discarded — the platter state as of the k-th write boundary *)
  stats : stats;
  mutable observer : (event -> unit) option;
}

let mk_stats () =
  {
    reads = 0;
    writes = 0;
    sectors_read = 0;
    sectors_written = 0;
    busy = 0;
    seek_time = 0;
    rot_wait = 0;
    transfer_time = 0;
    coalesced = 0;
    crash_dropped_reqs = 0;
    crash_dropped_bytes = 0;
    read_latency = Sim.Stats.Summary.create ();
    write_latency = Sim.Stats.Summary.create ();
    queue_depth = Sim.Stats.Summary.create ();
    queue_wait = Sim.Stats.Summary.create ();
    service = Sim.Stats.Summary.create ();
    seek_per_io = Sim.Stats.Summary.create ();
    rot_per_io = Sim.Stats.Summary.create ();
    xfer_per_io = Sim.Stats.Summary.create ();
  }

(* Sequential-streaming fast path: drives with a read-ahead buffer keep
   reading past the end of a request, so a read that continues exactly
   where the previous one ended is served partly from the buffer (at
   bus speed) and partly by staying in the data stream (at media rate),
   with no rotational re-alignment — the behaviour that lets the
   clustered file system run the disk at its full bandwidth.  Returns
   the duration, or None when the pattern does not apply (non-
   sequential, buffer wrapped, or track buffering disabled). *)
let try_stream_read d ~t0 ~kind ~sector ~count =
  if
    (not d.cfg.track_buffer)
    || kind <> Request.Read
    || sector <> d.last_read_end
  then None
  else begin
    let geom = d.cfg.geom in
    let chs = Geom.to_chs geom sector in
    let sector_time = Geom.sector_time geom ~spt:chs.Geom.spt in
    let start = t0 + d.cfg.cmd_overhead in
    let elapsed = start - d.last_read_end_time in
    let elapsed_sectors = elapsed / sector_time in
    if elapsed_sectors >= chs.Geom.spt then None (* read-ahead buffer wrapped *)
    else begin
      let buffered = min count elapsed_sectors in
      let rest = count - buffered in
      let bus =
        buffered * geom.Geom.sector_bytes * 1_000_000 / d.cfg.bus_bytes_per_sec
      in
      let xfer = rest * sector_time in
      Some (d.cfg.cmd_overhead + bus + xfer, bus + xfer)
    end
  end

(* Virtual-time cost of servicing a [kind] transfer of [count] sectors
   at [sector], starting at time [t0].  Also updates head position and
   track buffer.  Returns (duration, fully_buffered, seek_us, rot_us,
   xfer_us). *)
let service_cost d ~t0 ~kind ~sector ~count =
  let geom = d.cfg.geom in
  let is_read = kind = Request.Read in
  let t = ref (t0 + d.cfg.cmd_overhead) in
  let seek_us = ref 0 and rot_us = ref 0 and xfer_us = ref 0 in
  let all_buffered = ref true in
  (* one per-track segment at a time *)
  let s = ref sector and left = ref count in
  while !left > 0 do
    let chs = Geom.to_chs geom !s in
    let n = Int.min !left (Geom.sectors_in_track_after geom chs) in
    let hit =
      d.cfg.track_buffer && is_read
      && Track_buffer.holds d.tbuf ~cyl:chs.cyl ~head:chs.head
    in
    if hit then begin
      Track_buffer.record_hit d.tbuf;
      let bytes = n * geom.Geom.sector_bytes in
      let bus = bytes * 1_000_000 / d.cfg.bus_bytes_per_sec in
      t := !t + bus;
      xfer_us := !xfer_us + bus
    end
    else begin
      all_buffered := false;
      if d.cfg.track_buffer && is_read then Track_buffer.record_miss d.tbuf;
      (* mechanical: seek / head switch, rotational latency, transfer *)
      if chs.cyl <> d.cur_cyl then begin
        let sk = Seek.time d.cfg.seek ~from_cyl:d.cur_cyl ~to_cyl:chs.cyl in
        t := !t + sk;
        seek_us := !seek_us + sk;
        d.cur_cyl <- chs.cyl;
        d.cur_head <- chs.head
      end
      else if chs.head <> d.cur_head then begin
        t := !t + d.cfg.head_switch;
        d.cur_head <- chs.head
      end;
      let rot = Geom.rotation_time geom in
      let target = Geom.sector_angle geom chs in
      let cur = Geom.angle_at geom !t in
      let frac = target -. cur in
      let frac = if frac < 0. then frac +. 1. else frac in
      let wait = int_of_float (frac *. float_of_int rot) in
      t := !t + wait;
      rot_us := !rot_us + wait;
      let xfer = n * Geom.sector_time geom ~spt:chs.spt in
      t := !t + xfer;
      xfer_us := !xfer_us + xfer;
      if d.cfg.track_buffer then
        if is_read then Track_buffer.fill d.tbuf ~cyl:chs.cyl ~head:chs.head
        else Track_buffer.invalidate_if d.tbuf ~cyl:chs.cyl ~head:chs.head
    end;
    s := !s + n;
    left := !left - n
  done;
  (!t - t0, !all_buffered, !seek_us, !rot_us, !xfer_us)

(* Move the data for a completed request between its segments and the
   store.  A write past the crash-point latch completes normally from
   the caller's point of view but its bytes never reach the platter —
   the image is frozen at the k-th write boundary. *)
let do_data d (r : Request.t) =
  let sb = d.cfg.geom.Geom.sector_bytes in
  let off = r.Request.store_sector * sb and len = r.Request.count * sb in
  match r.Request.kind with
  | Request.Read -> Store.readv ~lend:r.Request.lend d.st ~off r.Request.iov
  | Request.Write -> (
      match d.write_cutoff with
      | Some n when n <= 0 ->
          d.stats.crash_dropped_reqs <- d.stats.crash_dropped_reqs + 1;
          d.stats.crash_dropped_bytes <- d.stats.crash_dropped_bytes + len
      | cutoff ->
          (match cutoff with
          | Some n -> d.write_cutoff <- Some (n - 1)
          | None -> ());
          let lend =
            if r.Request.lend then Some (Sim.Engine.frames d.engine) else None
          in
          Store.writev ?lend d.st ~off r.Request.iov)

let finish d r =
  do_data d r;
  let now = Sim.Engine.now d.engine in
  Sim.Stats.Summary.add_int d.stats.queue_wait
    (r.Request.start_at - r.Request.enq_at);
  Sim.Stats.Summary.add_int d.stats.service (now - r.Request.start_at);
  (* latency is measured as now - enq_at, not Request.latency: finish_at
     is only stamped by Request.complete below, so the accessor would
     read an unset field here *)
  (match r.Request.kind with
  | Request.Read ->
      d.stats.reads <- d.stats.reads + 1;
      d.stats.sectors_read <- d.stats.sectors_read + r.Request.count;
      Sim.Stats.Summary.add_int d.stats.read_latency (now - r.Request.enq_at)
  | Request.Write ->
      d.stats.writes <- d.stats.writes + 1;
      d.stats.sectors_written <- d.stats.sectors_written + r.Request.count;
      Sim.Stats.Summary.add_int d.stats.write_latency (now - r.Request.enq_at));
  Request.complete r ~now

(* Post-service head/stream bookkeeping shared by both service paths. *)
let note_transfer_end d ~kind ~endsec ~finish =
  let chs = Geom.to_chs d.cfg.geom (endsec - 1) in
  d.cur_cyl <- chs.Geom.cyl;
  d.cur_head <- chs.Geom.head;
  d.head_sector <- endsec;
  match kind with
  | Request.Read ->
      d.last_read_end <- endsec;
      d.last_read_end_time <- finish;
      if d.cfg.track_buffer then
        Track_buffer.fill d.tbuf ~cyl:chs.Geom.cyl ~head:chs.Geom.head
  | Request.Write ->
      (* the head moved for a write; the read-ahead stream is broken *)
      d.last_read_end <- -1

let rec service_loop d () =
  match Disksort.next d.queue ~head_sector:d.head_sector with
  | None ->
      d.servicing <- false;
      Sim.Condition.broadcast d.idle;
      Sim.Condition.wait d.work;
      d.servicing <- true;
      service_loop d ()
  | Some r ->
      let absorbed =
        if d.cfg.driver_clustering then Disksort.absorb_contiguous d.queue r
        else []
      in
      d.stats.coalesced <- d.stats.coalesced + List.length absorbed;
      let group = List.sort (fun (a : Request.t) b -> compare a.sector b.sector)
          (r :: absorbed)
      in
      let first = List.hd group in
      let total_count =
        List.fold_left (fun acc (x : Request.t) -> acc + x.count) 0 group
      in
      let t0 = Sim.Engine.now d.engine in
      List.iter (fun x -> Request.set_start_at x t0) group;
      (* cost the whole contiguous group as one transfer *)
      let kind = r.Request.kind and sector = first.Request.sector in
      let dur, hit, sk, rw, xf =
        match try_stream_read d ~t0 ~kind ~sector ~count:total_count with
        | Some (dur, xfer) -> (dur, true, 0, 0, xfer)
        | None -> service_cost d ~t0 ~kind ~sector ~count:total_count
      in
      note_transfer_end d ~kind ~endsec:(sector + total_count)
        ~finish:(t0 + dur);
      List.iter
        (fun (x : Request.t) ->
          let part v = v * x.Request.count / total_count in
          Request.set_split x ~seek:(part sk) ~rot:(part rw) ~xfer:(part xf))
        group;
      d.stats.busy <- d.stats.busy + dur;
      d.stats.seek_time <- d.stats.seek_time + sk;
      d.stats.rot_wait <- d.stats.rot_wait + rw;
      d.stats.transfer_time <- d.stats.transfer_time + xf;
      Sim.Stats.Summary.add_int d.stats.seek_per_io sk;
      Sim.Stats.Summary.add_int d.stats.rot_per_io rw;
      Sim.Stats.Summary.add_int d.stats.xfer_per_io xf;
      (match d.observer with
      | None -> ()
      | Some f ->
          f { at = t0; kind; sector; count = total_count; buffered_hit = hit });
      d.inflight <- group;
      Sim.Engine.sleep d.engine dur;
      List.iter (finish d) group;
      d.inflight <- [];
      service_loop d ()

let create ?store engine cfg =
  let st =
    match store with
    | None -> Store.create ~size:(Geom.capacity_bytes cfg.geom)
    | Some st -> st
  in
  let d =
    {
      engine;
      cfg;
      st;
      queue = Disksort.create cfg.policy;
      work = Sim.Condition.create engine "disk-work";
      idle = Sim.Condition.create engine "disk-idle";
      tbuf = Track_buffer.create ();
      cur_cyl = 0;
      cur_head = 0;
      head_sector = 0;
      last_read_end = -1;
      last_read_end_time = 0;
      servicing = false;
      inflight = [];
      write_cutoff = None;
      stats = mk_stats ();
      observer = None;
    }
  in
  Sim.Engine.spawn engine ~name:"disk" (service_loop d);
  d

let config d = d.cfg
let store d = d.st
let engine d = d.engine
let sector_bytes d = d.cfg.geom.Geom.sector_bytes
let capacity_bytes d = Geom.capacity_bytes d.cfg.geom

let submit d r =
  let sb = sector_bytes d in
  if (r.Request.sector + r.Request.count) * sb > capacity_bytes d then
    invalid_arg "Device.submit: request past end of disk";
  Request.set_enq_at r (Sim.Engine.now d.engine);
  Sim.Stats.Summary.add_int d.stats.queue_depth (Disksort.length d.queue);
  Disksort.enqueue d.queue r;
  Sim.Condition.signal d.work

let read_sync d ~sector ~count ~buf ~buf_off =
  let r = Request.make ~kind:Request.Read ~sector ~count ~buf ~buf_off () in
  submit d r;
  Request.wait d.engine r

let write_sync d ~sector ~count ~buf ~buf_off =
  let r = Request.make ~kind:Request.Write ~sector ~count ~buf ~buf_off () in
  submit d r;
  Request.wait d.engine r

let queue_length d = Disksort.length d.queue
let busy d = d.servicing || not (Disksort.is_empty d.queue)

let quiesce d =
  while busy d do
    Sim.Condition.wait d.idle
  done

let stats d = d.stats
let set_write_cutoff d n = d.write_cutoff <- n
let completed_writes d = d.stats.writes

let iter_queued d f =
  Disksort.iter d.queue f;
  List.iter f d.inflight

let crash_cut d =
  let sb = sector_bytes d in
  iter_queued d (fun (r : Request.t) ->
      d.stats.crash_dropped_reqs <- d.stats.crash_dropped_reqs + 1;
      d.stats.crash_dropped_bytes <-
        d.stats.crash_dropped_bytes + (r.Request.count * sb));
  d.write_cutoff <- Some 0

let crash_dropped d = (d.stats.crash_dropped_reqs, d.stats.crash_dropped_bytes)
let observe d f = d.observer <- f
let track_buffer_stats d = (Track_buffer.hits d.tbuf, Track_buffer.misses d.tbuf)

let register_metrics d reg ~instance =
  Sim.Metrics.register reg ~layer:"disk" ~instance (fun () ->
      let s = d.stats in
      let tb_hits, tb_misses = track_buffer_stats d in
      Sim.Metrics.
        [
          ("reads", Int s.reads);
          ("writes", Int s.writes);
          ("sectors_read", Int s.sectors_read);
          ("sectors_written", Int s.sectors_written);
          ("busy_us", Int s.busy);
          ("seek_us", Int s.seek_time);
          ("rot_wait_us", Int s.rot_wait);
          ("transfer_us", Int s.transfer_time);
          ("coalesced", Int s.coalesced);
          ("crash_dropped_reqs", Int s.crash_dropped_reqs);
          ("crash_dropped_bytes", Int s.crash_dropped_bytes);
          ("queue_wait_us", Summary s.queue_wait);
          ("service_us", Summary s.service);
          ("seek_per_io_us", Summary s.seek_per_io);
          ("rot_per_io_us", Summary s.rot_per_io);
          ("xfer_per_io_us", Summary s.xfer_per_io);
          ("read_latency_us", Summary s.read_latency);
          ("write_latency_us", Summary s.write_latency);
          ("queue_depth", Summary s.queue_depth);
          ("track_buffer_hits", Int tb_hits);
          ("track_buffer_misses", Int tb_misses);
        ])
