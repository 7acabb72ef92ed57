open Types

let ident (ip : inode) off : Vm.Page.ident = { Vm.Page.vid = ip.inum; off }

(* Bytes of the [blocks] logical blocks at byte [off], accounting for a
   fragment-allocated tail. *)
let extent_bytes (ip : inode) ~off ~blocks =
  let last = (off / Layout.bsize) + blocks - 1 in
  (((blocks - 1) * Layout.fpb) + Bmap.block_frags ~lbn:last ~size:ip.size)
  * Layout.fsize

let charge_io (pg : pager) =
  Sim.Cpu.charge pg.cpu ~label:"driver"
    (pg.costs.Costs.driver_submit + pg.costs.Costs.intr)

(* First access to a read-ahead page: the prefetch paid off.  Clearing
   the flag here is what keeps the pool's free-time "wasted" count
   honest. *)
let consume_prefetch (st : stats) (p : Vm.Page.t) =
  if p.Vm.Page.prefetched then begin
    st.ra_used_blocks <- st.ra_used_blocks + 1;
    Vm.Page.set_prefetched p false
  end

(* Bytes of block [k] within an extent of [bytes] bytes. *)
let block_len ~bytes k = min Layout.bsize (bytes - (k * Layout.bsize))

let page_in (pg : pager) ~vid ~off ~sector ~bytes ~sync ~read_ahead =
  assert (off mod Layout.bsize = 0);
  let blocks = (bytes + Layout.bsize - 1) / Layout.bsize in
  (* claim the missing pages *)
  let mine = ref [] in
  for k = 0 to blocks - 1 do
    let id = { Vm.Page.vid; off = off + (k * Layout.bsize) } in
    match Vm.Pool.lookup pg.pool id with
    | Some _ -> ()
    | None -> (
        match Vm.Pool.alloc pg.pool id with
        | `Fresh p ->
            Sim.Cpu.charge pg.cpu ~label:"getpage" pg.costs.Costs.page_setup;
            mine := (p, k) :: !mine
        | `Existing _ -> ())
  done;
  match !mine with
  | [] -> ()
  | mine ->
      (* scatter straight into the claimed pages, which stay busy until
         the transfer lands.  The store may point a whole block's
         segment at its own chunk instead of filling it: the page then
         borrows the chunk as its frame *)
      let segs =
        Array.init blocks (fun k -> (pg.scratch, 0, block_len ~bytes k))
      in
      List.iter
        (fun ((p : Vm.Page.t), k) ->
          segs.(k) <- (p.Vm.Page.frame, 0, block_len ~bytes k))
        mine;
      let iov = Sim.Iov.of_frames (Array.to_list segs) in
      let req =
        Disk.Request.of_iov ~lend:true ~kind:Disk.Request.Read ~sector
          ~count:(bytes / Layout.sector_bytes) iov ()
      in
      let frames = Sim.Engine.frames pg.engine in
      Disk.Request.on_complete req (fun () ->
          List.iter
            (fun ((p : Vm.Page.t), k) ->
              let n = block_len ~bytes k in
              if n < Layout.bsize then
                Bytes.fill p.Vm.Page.data n (Layout.bsize - n) '\000'
              else begin
                let chunk = Sim.Iov.frame iov ~off:(k * Layout.bsize) in
                if chunk != p.Vm.Page.frame then Vm.Page.borrow frames p chunk
              end;
              Vm.Page.set_valid p true;
              Vm.Page.unbusy p)
            mine);
      charge_io pg;
      let st = pg.stats in
      Sim.Stats.Hist.add st.read_io_blocks blocks;
      if read_ahead then begin
        st.ra_ios <- st.ra_ios + 1;
        st.ra_blocks <- st.ra_blocks + blocks;
        List.iter (fun ((p : Vm.Page.t), _) -> Vm.Page.set_prefetched p true) mine
      end
      else begin
        st.pgin_ios <- st.pgin_ios + 1;
        st.pgin_blocks <- st.pgin_blocks + blocks
      end;
      Disk.Blkdev.submit pg.dev req;
      if sync then begin
        let t0 = Sim.Engine.now pg.engine in
        Disk.Request.wait pg.engine req;
        Sim.Stats.Summary.add_int st.pgin_wait_us
          (Sim.Engine.now pg.engine - t0)
      end

let rec grab_page (pg : pager) ~vid ~off =
  let id = { Vm.Page.vid; off } in
  match Vm.Pool.lookup pg.pool id with
  | Some p when p.Vm.Page.busy ->
      Vm.Page.wait_unbusy pg.engine p;
      grab_page pg ~vid ~off
  | Some p when p.Vm.Page.valid ->
      consume_prefetch pg.stats p;
      p
  | Some _ | None -> (
      match Vm.Pool.alloc pg.pool id with
      | `Fresh p ->
          Sim.Cpu.charge pg.cpu ~label:"getpage" pg.costs.Costs.page_setup;
          Bytes.fill p.Vm.Page.data 0 Layout.bsize '\000';
          Vm.Page.set_valid p true;
          Vm.Page.unbusy p;
          p
      | `Existing _ -> grab_page pg ~vid ~off)

let zero_fill fs (ip : inode) ~off ~blocks =
  for k = 0 to blocks - 1 do
    let id = ident ip (off + (k * Layout.bsize)) in
    match Vm.Pool.lookup fs.pool id with
    | Some _ -> ()
    | None -> (
        match Vm.Pool.alloc fs.pool id with
        | `Fresh p ->
            charge fs ~label:"getpage" fs.costs.Costs.page_setup;
            Bytes.fill p.Vm.Page.data 0 Layout.bsize '\000';
            Vm.Page.set_valid p true;
            Vm.Page.unbusy p
        | `Existing _ -> ())
  done

(* An ordered push's private copy of [n] bytes of a page, in a pool
   frame that the request holds when it is a whole block. *)
let snapshot frames (p : Vm.Page.t) n =
  if n = Layout.bsize then begin
    let f = Sim.Frames.frame frames in
    Bytes.blit p.Vm.Page.data 0 f.Sim.Frames.bytes 0 n;
    f
  end
  else Sim.Frames.plain (Bytes.sub p.Vm.Page.data 0 n)

let push_pages (pg : pager) (w : writes) pages ~sector ~bytes ~sync
    ~free_after ~throttle ~locked ?(ordered = false) () =
  assert (pages <> []);
  let blocks = List.length pages in
  if not locked then
    List.iter
      (fun p ->
        let ok = Vm.Page.try_lock p in
        if not ok then invalid_arg "Io.push_pages: page busy")
      pages;
  (* Plain writes gather straight from the pages, which stay busy until
     the I/O lands (writers must not mutate data in flight).  Ordered
     writes release their pages at submit, so they carry a snapshot.
     The request holds each frame it carries until it completes (a
     busy page may still move off its frame), and the store takes a
     hold of its own on each whole block's frame. *)
  let frames = Sim.Engine.frames pg.engine in
  let iov =
    Sim.Iov.of_frames
      (List.mapi
         (fun k (p : Vm.Page.t) ->
           let n = block_len ~bytes k in
           ((if ordered then snapshot frames p n else p.Vm.Page.frame), 0, n))
         pages)
  in
  if not ordered then Sim.Iov.hold iov;
  let throttled =
    match (throttle, w.wlimit) with
    | true, Some (sem, limit) ->
        let n = min bytes limit in
        if not (Sim.Semaphore.try_acquire sem ~n ()) then begin
          pg.stats.wlimit_sleeps <- pg.stats.wlimit_sleeps + 1;
          Sim.Semaphore.acquire sem ~n ()
        end;
        Some (sem, n)
    | _ -> None
  in
  w.pending <- w.pending + bytes;
  let req =
    Disk.Request.of_iov ~ordered ~lend:true ~kind:Disk.Request.Write ~sector
      ~count:(bytes / Layout.sector_bytes) iov ()
  in
  (* An ordered write's pages can be released right away: a re-dirtied
     page just issues another ordered write that the queue keeps behind
     this one. *)
  if ordered then
    List.iter
      (fun (p : Vm.Page.t) ->
        Vm.Page.set_dirty p false;
        if free_after then Vm.Pool.free_page pg.pool p else Vm.Page.unbusy p)
      pages;
  Disk.Request.on_complete req (fun () ->
      (match throttled with
      | Some (sem, n) -> Sim.Semaphore.release sem ~n ()
      | None -> ());
      w.pending <- w.pending - bytes;
      (* The page counts as lent only from here on, so bytes that
         reached it while busy went to the platter with it.  A page that
         a write moved off its lent frame meanwhile (copy-on-write) has
         bytes the platter lacks: it stays dirty *)
      if not ordered then
        List.iteri
          (fun k (p : Vm.Page.t) ->
            let whole = block_len ~bytes k = Layout.bsize in
            let gathered = Sim.Iov.frame iov ~off:(k * Layout.bsize) in
            if whole && gathered != p.Vm.Page.frame then Vm.Page.unbusy p
            else begin
              if whole then Vm.Page.lend p;
              Vm.Page.set_dirty p false;
              if free_after then Vm.Pool.free_page pg.pool p
              else Vm.Page.unbusy p
            end)
          pages;
      Sim.Iov.release frames iov;
      Sim.Condition.broadcast w.iodone);
  charge_io pg;
  let st = pg.stats in
  Sim.Stats.Hist.add st.push_io_blocks blocks;
  st.push_ios <- st.push_ios + 1;
  st.push_blocks <- st.push_blocks + blocks;
  if blocks > 1 then st.flush_runs <- st.flush_runs + 1;
  Disk.Blkdev.submit pg.dev req;
  if sync then Disk.Request.wait pg.engine req

let wait_writes (pg : pager) (w : writes) =
  let before = Sim.Engine.now pg.engine in
  while w.pending > 0 do
    Sim.Condition.wait w.iodone
  done;
  Sim.Attrib.blocked ~rest:"disk.wait" ~name:"vm.wait_writes" ~start_us:before
    ~stop_us:(Sim.Engine.now pg.engine) ()
