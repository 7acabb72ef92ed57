open Types

let small_file_limit = 2048

(* "at a large enough offset": past the first couple of clusters, so
   the start of the file keeps its cache warmth *)
let free_behind_threshold fs = 2 * max (cluster_bytes fs) Layout.bsize

(* "free memory is close to the low water mark that turns on the pager" *)
let memory_pressure fs =
  Vm.Pool.freecnt fs.pool
  <= 2 * (Vm.Pool.param fs.pool).Vm.Param.lotsfree

(* [seq] is the stream's sequentiality as observed BEFORE getpage ran
   for this access: getpage's after_access unconditionally sets
   [nextr <- po + bsize], so testing nextr here would be vacuously true
   for every access — including random ones, which is exactly the bug
   that made free-behind evict a random reader's cache under memory
   pressure. *)
let maybe_free_behind fs (ip : inode) ~po ~seq =
  if
    fs.feat.free_behind
    && po >= free_behind_threshold fs
    && memory_pressure fs
  then
    if seq then begin
      fs.stats.freebehind_pages <- fs.stats.freebehind_pages + 1;
      charge fs ~label:"freebehind" fs.costs.Costs.freebehind;
      Putpage.putpage fs ip ~off:po ~len:Layout.bsize ~flags:[ Vfs.Vnode.P_FREE ]
    end
    else
      fs.stats.freebehind_suppressed <- fs.stats.freebehind_suppressed + 1

(* ---------- small-file fast path ---------- *)

let load_idata fs (ip : inode) =
  match ip.idata with
  | Some d -> d
  | None ->
      let d = Bytes.make small_file_limit '\000' in
      if ip.size > 0 then begin
        let frag_opt, _ = Bmap.read fs ip ~lbn:0 in
        match frag_opt with
        | Some frag ->
            charge fs ~label:"driver"
              (fs.costs.Costs.driver_submit + fs.costs.Costs.intr);
            let nfrags = Layout.frags_of_bytes ip.size in
            let buf = Bytes.create (nfrags * Layout.fsize) in
            Disk.Blkdev.read_sync fs.dev
              ~sector:(Layout.frag_to_sector frag)
              ~count:(nfrags * Layout.sectors_per_frag)
              ~buf ~buf_off:0;
            Bytes.blit buf 0 d 0 (min ip.size (Bytes.length buf))
        | None -> ()
      end;
      ip.idata <- Some d;
      d

let read_from_inode fs (ip : inode) (uio : Vfs.Uio.t) =
  let d = load_idata fs ip in
  fs.stats.idata_reads <- fs.stats.idata_reads + 1;
  let n = min uio.Vfs.Uio.resid (max 0 (ip.size - uio.Vfs.Uio.off)) in
  if n > 0 then begin
    charge fs ~label:"copy" (Costs.copy_cost fs.costs ~bytes:n);
    let data_off = uio.Vfs.Uio.off in
    Vfs.Uio.move uio ~src_or_dst:d ~data_off ~n
  end

(* ---------- read ---------- *)

let do_read fs (ip : inode) (uio : Vfs.Uio.t) =
  let hint = if fs.feat.getpage_hint then uio.Vfs.Uio.resid else 0 in
  if
    fs.feat.small_in_inode && ip.kind = Dinode.Reg
    && ip.size <= small_file_limit
    && ip.size > 0
    (* coherence: dirty/cached pages are newer than the disk copy the
       inode cache would load — fall back to the page path then *)
    && Vm.Pool.pages_of_vnode fs.pool ip.inum = []
  then read_from_inode fs ip uio
  else begin
    let continue = ref true in
    while !continue && uio.Vfs.Uio.resid > 0 && uio.Vfs.Uio.off < ip.size do
      let off = uio.Vfs.Uio.off in
      let po = off - Layout.blk_off off in
      let n =
        min uio.Vfs.Uio.resid
          (min (Layout.bsize - (off - po)) (ip.size - off))
      in
      if n <= 0 then continue := false
      else begin
        (* sequential read mode, judged before getpage moves the stream
           windows: the access either starts a block some window
           predicted, or continues inside a block whose start matched *)
        let seq = Rstream.find ip.rs ~po ~off <> None in
        charge fs ~label:"rdwr" fs.costs.Costs.map_block;
        (match Getpage.getpage fs ip ~off:po ~len:Layout.bsize ~hint with
        | [ p ] ->
            charge fs ~label:"rdwr" fs.costs.Costs.fault;
            charge fs ~label:"copy" (Costs.copy_cost fs.costs ~bytes:n);
            (* a READ reply carries a whole page's own frame; the charges
               may have slept, so only a page still valid *)
            if uio.Vfs.Uio.frames && n = Layout.bsize && p.Vm.Page.valid
            then Vfs.Uio.give uio (Vm.Page.export p)
            else
              Vfs.Uio.move uio ~src_or_dst:p.Vm.Page.data ~data_off:(off - po)
                ~n;
            Vm.Page.set_referenced p true
        | _ -> assert false);
        (* unmap: free-behind fires once we leave the page *)
        if off + n >= po + Layout.bsize || uio.Vfs.Uio.off >= ip.size then
          maybe_free_behind fs ip ~po ~seq
      end
    done
  end

(* ---------- write ---------- *)

(* Every in-place write of a cached page below first takes a private
   frame if the page's frame is lent: to the store, or to another host
   (DESIGN.md, "Buffer ownership").  A fresh page's frame is always
   private.  A whole-page segment of an NFS WRITE becomes the page's
   frame instead of being copied, unless a push is reading the page. *)
let do_write fs (ip : inode) (uio : Vfs.Uio.t) =
  ip.idata <- None;
  let frames = Sim.Engine.frames fs.engine in
  while uio.Vfs.Uio.resid > 0 do
    let off = uio.Vfs.Uio.off in
    let po = off - Layout.blk_off off in
    let n = min uio.Vfs.Uio.resid (Layout.bsize - (off - po)) in
    let new_size = max ip.size (off + n) in
    let old_size = ip.size in
    let lbn = po / Layout.bsize in
    (* whether this block was allocated BEFORE this write decides the
       page-in: a fresh block (including one filling a hole) must start
       as zeros — its fragments may hold another file's freed data *)
    let existed =
      match Bmap.read fs ip ~lbn with
      | Some _, _ -> true
      | None, _ -> false
    in
    (* when extending, an old fragment-allocated tail must grow first —
       unless this write lands on that very block, in which case the
       Bmap.ensure below performs the growth itself.  The page is paged
       in BEFORE the growth (so only the old, valid fragments are read),
       then zero-extended and dirtied: the fragments the block gains may
       hold another file's freed data on disk, and the page cache must
       shadow them until the full block is written back *)
    (if new_size > old_size && old_size > 0 then
       let old_tail_lbn = (old_size - 1) / Layout.bsize in
       if
         lbn <> old_tail_lbn
         && Bmap.block_frags ~lbn:old_tail_lbn ~size:old_size < Layout.fpb
       then begin
         let tpo = old_tail_lbn * Layout.bsize in
         let tpage =
           match Getpage.getpage fs ip ~off:tpo ~len:Layout.bsize ~hint:0 with
           | [ p ] -> p
           | _ -> assert false
         in
         Bmap.grow_old_tail fs ip ~new_size;
         let cut = old_size - tpo in
         Vm.Page.own frames tpage;
         Bytes.fill tpage.Vm.Page.data cut (Layout.bsize - cut) '\000';
         Vm.Page.set_dirty tpage true
       end);
    ignore (Bmap.ensure fs ip ~lbn ~new_size);
    let full_overwrite = off = po && n = Layout.bsize in
    let page =
      if
        existed && (not full_overwrite)
        && Vm.Pool.lookup fs.pool (Io.ident ip po) = None
      then begin
        match Getpage.getpage fs ip ~off:po ~len:Layout.bsize ~hint:0 with
        | [ p ] -> p
        | _ -> assert false
      end
      else Io.grab_page fs.pager ~vid:ip.inum ~off:po
    in
    (* if the old EOF fell inside this block, the bytes past it are
       logically zero but the paged-in fragments may carry stale data *)
    (if old_size > po && old_size < po + Layout.bsize then
       let cut = old_size - po in
       Vm.Page.own frames page;
       Bytes.fill page.Vm.Page.data cut (Layout.bsize - cut) '\000');
    charge fs ~label:"rdwr" fs.costs.Costs.map_block;
    charge fs ~label:"rdwr" fs.costs.Costs.fault;
    charge fs ~label:"copy" (Costs.copy_cost fs.costs ~bytes:n);
    (* the charges above may sleep, and a push may lend the page meanwhile:
       take the private frame right before the copy *)
    (match
       if full_overwrite && not page.Vm.Page.busy then Vfs.Uio.take uio n
       else None
     with
    | Some frame -> Vm.Page.adopt frames page frame
    | None ->
        if full_overwrite then Vm.Page.own_blank frames page
        else Vm.Page.own frames page;
        Vfs.Uio.move uio ~src_or_dst:page.Vm.Page.data ~data_off:(off - po)
          ~n);
    Vm.Page.set_dirty page true;
    Vm.Page.set_referenced page true;
    if new_size > ip.size then begin
      ip.size <- new_size;
      ip.meta_dirty <- true
    end;
    Putpage.putpage fs ip ~off:po ~len:Layout.bsize ~flags:[ Vfs.Vnode.P_DELAY ]
  done

let rdwr_body fs (ip : inode) (uio : Vfs.Uio.t) =
  charge fs ~label:"syscall" fs.costs.Costs.syscall;
  let t0 = Sim.Engine.now fs.engine in
  Sim.Mutex.with_lock ip.ilock (fun () ->
      match uio.Vfs.Uio.rw with
      | Vfs.Uio.Read -> do_read fs ip uio
      | Vfs.Uio.Write -> do_write fs ip uio);
  let dt = Sim.Engine.now fs.engine - t0 in
  match uio.Vfs.Uio.rw with
  | Vfs.Uio.Read -> Sim.Stats.Summary.add_int fs.stats.read_call_us dt
  | Vfs.Uio.Write -> Sim.Stats.Summary.add_int fs.stats.write_call_us dt

let rdwr fs (ip : inode) (uio : Vfs.Uio.t) =
  if not (Sim.Span.enabled ()) then rdwr_body fs ip uio
  else
    let name =
      match uio.Vfs.Uio.rw with
      | Vfs.Uio.Read -> "ufs.read"
      | Vfs.Uio.Write -> "ufs.write"
    in
    Sim.Span.span ~name
      ~attrs:
        [
          ("ino", Sim.Span.I ip.inum);
          ("off", Sim.Span.I uio.Vfs.Uio.off);
          ("len", Sim.Span.I uio.Vfs.Uio.resid);
        ]
      (fun () -> rdwr_body fs ip uio)
