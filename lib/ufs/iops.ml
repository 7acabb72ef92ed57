open Types

let inode_block_frag fs inum =
  let frag, _ = Cg.dinode_loc fs.sb inum in
  frag - (frag mod Layout.fpb)

(* offset of the dinode within its containing logical block *)
let dinode_offset fs inum =
  let frag, byte = Cg.dinode_loc fs.sb inum in
  ((frag mod Layout.fpb) * Layout.fsize) + byte

let read_dinode fs inum =
  let blk = Metabuf.read fs.metabuf ~frag:(inode_block_frag fs inum) in
  Dinode.decode blk (dinode_offset fs inum)

let iupdat fs (ip : inode) ~sync =
  let frag = inode_block_frag fs ip.inum in
  let blk = Metabuf.read fs.metabuf ~frag in
  Dinode.encode (to_dinode ip) blk (dinode_offset fs ip.inum);
  Metabuf.mark_dirty fs.metabuf ~frag;
  ip.meta_dirty <- false;
  if Wal.journaled fs then begin
    (* journalled: the dinode stays dirty in the cache and the *log*
       carries the durability; a synchronous update becomes a log commit
       (op ends commit for themselves) *)
    Wal.note fs ip;
    Wal.mark_meta fs ~frag;
    if sync && not (Wal.in_op fs) then Wal.commit fs
  end
  else if sync then
    if fs.feat.ordered_metadata then Metabuf.flush_block_ordered fs.metabuf ~frag
    else Metabuf.flush_block fs.metabuf ~frag

let itrunc fs (ip : inode) =
  Wal.with_op fs ~commit:false (fun () ->
      Wal.note fs ip;
      (* drop the delayed-write run, then wait for in-flight writes *)
      Wrun.reset ip.run;
      Io.wait_writes fs.pager ip.writes;
      Vm.Pool.invalidate_vnode fs.pool ip.inum;
      let chunks = ref [] in
      Bmap.iter_allocated fs ip (fun c -> chunks := c :: !chunks);
      List.iter
        (fun chunk ->
          match chunk with
          | Bmap.Data { frag; nfrags; _ } ->
              if nfrags = Layout.fpb then Alloc.free_block fs (Some ip) frag
              else Alloc.free_frags fs (Some ip) ~frag ~nfrags
          | Bmap.Indirect { frag } ->
              (* drop the cached (possibly dirty) pointer block: its
                 storage is going back to the allocator, and a later
                 write-back would corrupt whoever reuses it *)
              Metabuf.invalidate fs.metabuf ~frag;
              Alloc.free_block fs (Some ip) frag)
        !chunks;
      Array.fill ip.db 0 Layout.ndaddr 0;
      ip.ib.(0) <- 0;
      ip.ib.(1) <- 0;
      ip.size <- 0;
      ip.idata <- None;
      ip.bmap_cache <- None;
      reset_rstreams ip;
      Hashtbl.remove fs.resv ip.inum;
      assert (ip.blocks = 0);
      ip.meta_dirty <- true)

let fsync_inode fs (ip : inode) =
  Putpage.push_delayed fs ip ~sync:false ();
  Putpage.putpage fs ip ~off:0 ~len:0 ~flags:[ Vfs.Vnode.P_SYNC ];
  Io.wait_writes fs.pager ip.writes;
  iupdat fs ip ~sync:true

(* ---------- vnode glue ---------- *)

let rec vnode_of fs (ip : inode) =
  match ip.vnode with
  | Some vn -> vn
  | None ->
      let ops =
        {
          Vfs.Vnode.rdwr = (fun _vn uio -> Rdwr.rdwr fs ip uio);
          getpage =
            (fun _vn ~off ~len ~hint -> Getpage.getpage fs ip ~off ~len ~hint);
          putpage = (fun _vn ~off ~len ~flags -> Putpage.putpage fs ip ~off ~len ~flags);
          fsync = (fun _vn -> fsync_inode fs ip);
          inactive = (fun _vn -> iput fs ip);
          getsize = (fun _vn -> ip.size);
          setsize =
            (fun _vn n ->
              ip.size <- n;
              ip.meta_dirty <- true);
        }
      in
      let vn =
        Vfs.Vnode.make ~vid:ip.inum ~kind:(Dinode.kind_to_vnode ip.kind) ~ops
      in
      ip.vnode <- Some vn;
      vn

and iget fs inum =
  match Hashtbl.find_opt fs.icache inum with
  | Some ip ->
      ip.refcnt <- ip.refcnt + 1;
      ip
  | None ->
      (* the dinode read sleeps; serialise misses so two processes never
         instantiate the same inode twice *)
      Sim.Mutex.with_lock fs.iget_lock (fun () ->
          match Hashtbl.find_opt fs.icache inum with
          | Some ip ->
              ip.refcnt <- ip.refcnt + 1;
              ip
          | None ->
              let d = read_dinode fs inum in
              if d.Dinode.kind = Dinode.Free then
                Vfs.Errno.raise_err Vfs.Errno.ENOENT
                  (Printf.sprintf "iget: inode %d is free" inum);
              let ip = mk_inode fs ~inum d in
              ip.refcnt <- 1;
              Hashtbl.replace fs.icache inum ip;
              Vm.Pool.register_flusher fs.pool inum (Putpage.flusher fs ip);
              ignore (vnode_of fs ip);
              ip)

and iput fs (ip : inode) =
  if ip.refcnt <= 0 then invalid_arg "iput: no references";
  ip.refcnt <- ip.refcnt - 1;
  if ip.refcnt = 0 then
    if ip.nlink = 0 && ip.kind <> Dinode.Free then
      (* one journalled op: the crash window between the unlink commit
         (nlink 0) and this free commit is the orphan window recovery's
         reap pass closes *)
      Wal.with_op fs (fun () ->
          itrunc fs ip;
          ip.kind <- Dinode.Free;
          iupdat fs ip ~sync:false;
          Alloc.free_inode fs ip.inum;
          Vm.Pool.unregister_flusher fs.pool ip.inum;
          Hashtbl.remove fs.icache ip.inum)
    else begin
      Putpage.push_delayed fs ip ~sync:false ();
      if ip.meta_dirty then iupdat fs ip ~sync:false;
      (* nobody holds the file open: release its advisory run *)
      Hashtbl.remove fs.resv ip.inum
    end

let iget_new fs ~dir_hint ~kind =
  let inum = Alloc.alloc_inode fs ~dir_hint ~kind in
  (match Hashtbl.find_opt fs.icache inum with
  | Some _ -> invalid_arg "iget_new: allocated inode already cached"
  | None -> ());
  let d = Dinode.empty () in
  d.Dinode.kind <- kind;
  let ip = mk_inode fs ~inum d in
  ip.refcnt <- 1;
  ip.gen <- ip.gen + 1;
  ip.meta_dirty <- true;
  Hashtbl.replace fs.icache inum ip;
  Vm.Pool.register_flusher fs.pool inum (Putpage.flusher fs ip);
  ignore (vnode_of fs ip);
  ip
