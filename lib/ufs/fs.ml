open Types

type mkfs_options = {
  rotdelay_ms : int;
  maxcontig : int;
  maxbpg : int;
  minfree_pct : int;
  fpg : int;
  ipg : int;
  journal_frags : int;
}

let mkfs_defaults =
  {
    rotdelay_ms = 4;
    maxcontig = 1;
    maxbpg = 256;
    minfree_pct = 10;
    fpg = 16384;
    ipg = 2048;
    journal_frags = 0;
  }

let journal_frags_default = 1024 (* 1 MB *)

(* ---------- mkfs ---------- *)

let store_write_block st ~frag b =
  Disk.Store.write st ~off:(Layout.frag_to_byte frag) ~len:(Bytes.length b) b 0

let mkfs dev ?(opts = mkfs_defaults) () =
  let st = Disk.Blkdev.store dev in
  let nfrags = Disk.Blkdev.capacity_bytes dev / Layout.fsize in
  let min_cg_frags =
    Layout.fpb + (opts.ipg / Layout.inodes_per_block * Layout.fpb) + (8 * Layout.fpb)
  in
  (* drop a trailing group too small to be useful *)
  let nfrags =
    if nfrags mod opts.fpg <> 0 && nfrags mod opts.fpg < min_cg_frags then
      nfrags - (nfrags mod opts.fpg)
    else nfrags
  in
  let ncg = (nfrags + opts.fpg - 1) / opts.fpg in
  let sb =
    Superblock.create ~nfrags ~ncg ~fpg:opts.fpg ~ipg:opts.ipg
      ~minfree_pct:opts.minfree_pct ~rotdelay_ms:opts.rotdelay_ms
      ~maxcontig:opts.maxcontig ~maxbpg:opts.maxbpg ()
  in
  let cgs = Array.init ncg (fun c -> Cg.create_empty sb c) in
  (* free the data areas *)
  Array.iter
    (fun (cg : Cg.t) ->
      let c = cg.Cg.cgx in
      Cg.set_frags cg sb ~lo:(Cg.data_begin sb c) ~hi:(Cg.cg_end sb c) ~free:true)
    cgs;
  (* intent-journal region: carved from the tail of the last group's
     data area and marked allocated, so no file ever lands there *)
  if opts.journal_frags > 0 then begin
    let last = ncg - 1 in
    let jend = Cg.cg_end sb last in
    let jstart = jend - opts.journal_frags in
    if jstart < Cg.data_begin sb last then
      invalid_arg "mkfs: journal larger than the last group's data area";
    Cg.set_frags cgs.(last) sb ~lo:jstart ~hi:jend ~free:false;
    sb.Superblock.jstart <- jstart;
    sb.Superblock.jfrags <- opts.journal_frags;
    Jrnl.format st
      ~off_bytes:(Layout.frag_to_byte jstart)
      ~len_bytes:(opts.journal_frags * Layout.fsize)
  end;
  (* root directory: one fragment of data at the head of cg0 *)
  let root_frag = Cg.data_begin sb 0 in
  Cg.set_frag cgs.(0) sb root_frag ~free:false;
  (* inodes: all free except 0, 1 (reserved) and 2 (root) *)
  Array.iter
    (fun (cg : Cg.t) -> Cg.set_inodes cg ~lo:0 ~hi:sb.Superblock.ipg ~free:true)
    cgs;
  List.iter (fun i -> Cg.set_inode cgs.(0) i ~free:false) [ 0; 1; rootino ];
  (* summary counts *)
  Array.iter
    (fun (cg : Cg.t) ->
      let nb, nf, ni = Cg.recount cg sb in
      cg.Cg.nbfree <- nb;
      cg.Cg.nffree <- nf;
      cg.Cg.nifree <- ni;
      sb.Superblock.nbfree <- sb.Superblock.nbfree + nb;
      sb.Superblock.nffree <- sb.Superblock.nffree + nf;
      sb.Superblock.nifree <- sb.Superblock.nifree + ni)
    cgs;
  cgs.(0).Cg.ndirs <- 1;
  sb.Superblock.ndir <- 1;
  (* root directory data: "." and ".." *)
  let dirdata = Bytes.make Layout.fsize '\000' in
  let put_entry off inum name =
    Codec.put_u32 dirdata off inum;
    Codec.put_u8 dirdata (off + 4) (String.length name);
    Bytes.blit_string name 0 dirdata (off + 5) (String.length name)
  in
  put_entry 0 rootino ".";
  put_entry Dir.entry_size rootino "..";
  Disk.Store.write st ~off:(Layout.frag_to_byte root_frag) ~len:Layout.fsize
    dirdata 0;
  (* root dinode *)
  let rootd = Dinode.empty () in
  rootd.Dinode.kind <- Dinode.Dir;
  rootd.Dinode.nlink <- 2;
  rootd.Dinode.size <- 2 * Dir.entry_size;
  rootd.Dinode.blocks <- 1;
  rootd.Dinode.db.(0) <- root_frag;
  let iblock = Bytes.make Layout.bsize '\000' in
  Dinode.encode rootd iblock (rootino * Layout.dinode_bytes);
  store_write_block st ~frag:(Cg.inode_area_frag sb 0) iblock;
  (* metadata *)
  Array.iter
    (fun (cg : Cg.t) ->
      cg.Cg.dirty <- false;
      store_write_block st ~frag:(Cg.header_frag sb cg.Cg.cgx) (Cg.encode cg sb))
    cgs;
  store_write_block st ~frag:Layout.sb_frag (Superblock.encode sb)

(* ---------- mount / unmount ---------- *)

let read_store_block st ~frag =
  let b = Bytes.create Layout.bsize in
  Disk.Store.read st ~off:(Layout.frag_to_byte frag) ~len:Layout.bsize b 0;
  b

let register_metrics (fs : fs) reg ~instance =
  Sim.Metrics.register reg ~layer:"ufs" ~instance (fun () ->
      let s = fs.stats in
      Sim.Metrics.
        [
          ("getpage_calls", Int s.getpage_calls);
          ("getpage_hits", Int s.getpage_hits);
          ("pgin_ios", Int s.pgin_ios);
          ("pgin_blocks", Int s.pgin_blocks);
          ("ra_ios", Int s.ra_ios);
          ("ra_blocks", Int s.ra_blocks);
          ("ra_used_blocks", Int s.ra_used_blocks);
          ("ra_streams", Int s.ra_streams);
          ("ra_stream_hits", Int s.ra_stream_hits);
          ("ra_shrinks", Int s.ra_shrinks);
          ("flush_runs", Int s.flush_runs);
          ("putpage_calls", Int s.putpage_calls);
          ("delayed_pages", Int s.delayed_pages);
          ("push_ios", Int s.push_ios);
          ("push_blocks", Int s.push_blocks);
          ("freebehind_pages", Int s.freebehind_pages);
          ("freebehind_suppressed", Int s.freebehind_suppressed);
          ("bmap_calls", Int s.bmap_calls);
          ("bmap_cache_hits", Int s.bmap_cache_hits);
          ("block_allocs", Int s.block_allocs);
          ("frag_allocs", Int s.frag_allocs);
          ("cg_switches", Int s.cg_switches);
          ("wlimit_sleeps", Int s.wlimit_sleeps);
          ("idata_reads", Int s.idata_reads);
          ("read_call_us", Summary s.read_call_us);
          ("write_call_us", Summary s.write_call_us);
          ("pgin_wait_us", Summary s.pgin_wait_us);
          ("read_io_blocks", Hist s.read_io_blocks);
          ("push_io_blocks", Hist s.push_io_blocks);
        ]);
  Wal.register_metrics fs reg ~instance

let tunefs (fs : fs) ?rotdelay_ms ?maxcontig ?maxbpg () =
  Option.iter (fun v -> fs.sb.Superblock.rotdelay_ms <- v) rotdelay_ms;
  Option.iter (fun v -> fs.sb.Superblock.maxcontig <- v) maxcontig;
  Option.iter (fun v -> fs.sb.Superblock.maxbpg <- v) maxbpg

let flush_groups_and_sb ~timed (fs : fs) =
  let write_block ~frag b =
    if timed then begin
      charge fs ~label:"meta-io"
        (fs.costs.Costs.driver_submit + fs.costs.Costs.intr);
      Disk.Blkdev.write_sync fs.dev
        ~sector:(Layout.frag_to_sector frag)
        ~count:(Layout.bsize / Layout.sector_bytes)
        ~buf:b ~buf_off:0
    end
    else store_write_block (Disk.Blkdev.store fs.dev) ~frag b
  in
  Array.iter
    (fun (cg : Cg.t) ->
      if cg.Cg.dirty then begin
        cg.Cg.dirty <- false;
        write_block ~frag:(Cg.header_frag fs.sb cg.Cg.cgx) (Cg.encode cg fs.sb)
      end)
    fs.cgs;
  write_block ~frag:Layout.sb_frag (Superblock.encode fs.sb)

let sync_inodes (fs : fs) =
  let ips = Hashtbl.fold (fun _ ip acc -> ip :: acc) fs.icache [] in
  List.iter
    (fun ip ->
      Putpage.push_delayed fs ip ~sync:false ();
      Putpage.putpage fs ip ~off:0 ~len:0 ~flags:[ Vfs.Vnode.P_ASYNC ])
    ips;
  List.iter
    (fun ip ->
      Io.wait_writes fs.pager ip.writes;
      if ip.meta_dirty then Iops.iupdat fs ip ~sync:false)
    ips

let sync (fs : fs) =
  if Wal.journaled fs then
    (* checkpoint: quiesce ops, flush every cache, then commit the
       residual transaction, write the summaries and advance the log
       head (invariant W2) *)
    Wal.checkpoint fs
      ~flush:(fun () ->
        sync_inodes fs;
        Metabuf.sync fs.metabuf)
      ~write_meta:(fun () -> flush_groups_and_sb ~timed:true fs)
  else begin
    sync_inodes fs;
    Metabuf.sync fs.metabuf;
    flush_groups_and_sb ~timed:true fs
  end

let unmount (fs : fs) =
  if Wal.journaled fs then
    Wal.checkpoint fs
      ~flush:(fun () ->
        sync_inodes fs;
        Metabuf.sync fs.metabuf)
      ~write_meta:(fun () ->
        Hashtbl.reset fs.resv;
        fs.sb.Superblock.clean <- true;
        flush_groups_and_sb ~timed:true fs)
  else begin
    sync_inodes fs;
    Metabuf.sync fs.metabuf;
    Hashtbl.reset fs.resv;
    fs.sb.Superblock.clean <- true;
    flush_groups_and_sb ~timed:true fs
  end

(* ---------- mount ---------- *)

let mount engine cpu pool dev ~features ?(costs = Costs.default) () =
  let st = Disk.Blkdev.store dev in
  let sb = Superblock.decode (read_store_block st ~frag:Layout.sb_frag) in
  if not sb.Superblock.clean then
    Vfs.Errno.raise_err Vfs.Errno.EINVAL "mount: file system not clean";
  (* mark the on-disk superblock unclean for the duration of the mount,
     as the real UFS does: only a successful unmount clears it, so a
     crash leaves the evidence behind for fsck (or, with a journal, for
     replay) *)
  sb.Superblock.clean <- false;
  store_write_block st ~frag:Layout.sb_frag (Superblock.encode sb);
  let cgs =
    Array.init sb.Superblock.ncg (fun c ->
        Cg.decode (read_store_block st ~frag:(Cg.header_frag sb c)) sb c)
  in
  let wal =
    if sb.Superblock.jfrags > 0 then
      let j =
        Jrnl.attach dev
          ~off_bytes:(Layout.frag_to_byte sb.Superblock.jstart)
          ~len_bytes:(sb.Superblock.jfrags * Layout.fsize)
      in
      Some (Wal.mk engine j)
    else None
  in
  let stats = mk_stats () in
  let fs =
    {
      engine;
      cpu;
      dev;
      pool;
      sb;
      cgs;
      feat = features;
      costs;
      metabuf = Metabuf.create engine cpu dev costs;
      icache = Hashtbl.create 512;
      alloc_lock = Sim.Mutex.create engine "ufs-alloc";
      iget_lock = Sim.Mutex.create engine "ufs-iget";
      resv = Hashtbl.create 16;
      stats;
      wal;
      pager = mk_pager ~engine ~cpu ~costs ~pool ~dev ~stats;
    }
  in
  (match fs.wal with
  | None -> ()
  | Some w ->
      Metabuf.set_write_gate fs.metabuf (Some (Wal.write_gate fs));
      w.w_push <-
        (fun ip off ->
          Putpage.push_range fs ip ~off ~len:Layout.bsize ~free_after:false
            ~throttle:false ());
      (* low log space: checkpoint asynchronously — the committing
         process may hold locks the checkpoint's flush phase needs *)
      let kicking = ref false in
      w.w_kick <-
        (fun () ->
          if not !kicking then begin
            kicking := true;
            Sim.Engine.spawn engine ~name:"wal-checkpoint" (fun () ->
                Fun.protect
                  ~finally:(fun () -> kicking := false)
                  (fun () -> sync fs))
          end));
  fs

(* ---------- namespace ---------- *)

let split_path path =
  if path = "" || path.[0] <> '/' then
    Vfs.Errno.raise_err Vfs.Errno.EINVAL ("path must be absolute: " ^ path);
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

(* Walk [parts] from the root; returns a referenced inode. *)
let rec walk fs (ip : inode) parts =
  match parts with
  | [] -> ip
  | name :: rest -> (
      if ip.kind <> Dinode.Dir then begin
        Iops.iput fs ip;
        Vfs.Errno.raise_err Vfs.Errno.ENOTDIR name
      end;
      match Dir.lookup fs ip name with
      | None ->
          Iops.iput fs ip;
          Vfs.Errno.raise_err Vfs.Errno.ENOENT name
      | Some inum ->
          let next = Iops.iget fs inum in
          Iops.iput fs ip;
          walk fs next rest)

let namei fs path = walk fs (Iops.iget fs rootino) (split_path path)

(* Name-space updates in a directory must be atomic with respect to the
   slot scan inside Dir.enter: concurrent creates in one directory would
   otherwise pick the same free slot while one of them sleeps on disk
   I/O.  Composite operations therefore hold the parent's dlock. *)
let with_dir_locked (dir : inode) f = Sim.Mutex.with_lock dir.dlock f

let with_two_dirs_locked (a : inode) (b : inode) f =
  if a.inum = b.inum then with_dir_locked a f
  else
    let first, second = if a.inum < b.inum then (a, b) else (b, a) in
    Sim.Mutex.with_lock first.dlock (fun () ->
        Sim.Mutex.with_lock second.dlock f)

(* Parent directory (referenced) and final component. *)
let lookup_parent fs path =
  match List.rev (split_path path) with
  | [] -> Vfs.Errno.raise_err Vfs.Errno.EINVAL "path is the root"
  | name :: rev_parents ->
      let dir = walk fs (Iops.iget fs rootino) (List.rev rev_parents) in
      if dir.kind <> Dinode.Dir then begin
        Iops.iput fs dir;
        Vfs.Errno.raise_err Vfs.Errno.ENOTDIR path
      end;
      (dir, name)

let creat fs path =
  let dir, name = lookup_parent fs path in
  with_dir_locked dir (fun () ->
  match Dir.lookup fs dir name with
  | Some inum ->
      Iops.iput fs dir;
      let ip = Iops.iget fs inum in
      if ip.kind = Dinode.Dir then begin
        Iops.iput fs ip;
        Vfs.Errno.raise_err Vfs.Errno.EISDIR path
      end;
      Wal.with_op fs (fun () -> Iops.itrunc fs ip);
      ip
  | None ->
      Wal.with_op fs (fun () ->
          let ip = Iops.iget_new fs ~dir_hint:dir.inum ~kind:Dinode.Reg in
          ip.nlink <- 1;
          Dir.enter fs dir ~name ~inum:ip.inum;
          Iops.iupdat fs ip ~sync:true;
          Iops.iput fs dir;
          ip))

let mkdir fs path =
  let dir, name = lookup_parent fs path in
  with_dir_locked dir (fun () ->
  (match Dir.lookup fs dir name with
  | Some _ ->
      Iops.iput fs dir;
      Vfs.Errno.raise_err Vfs.Errno.EEXIST path
  | None -> ());
  Wal.with_op fs (fun () ->
      let ip = Iops.iget_new fs ~dir_hint:dir.inum ~kind:Dinode.Dir in
      ip.nlink <- 2;
      Dir.enter fs ip ~name:"." ~inum:ip.inum;
      Dir.enter fs ip ~name:".." ~inum:dir.inum;
      Dir.enter fs dir ~name ~inum:ip.inum;
      dir.nlink <- dir.nlink + 1;
      Iops.iupdat fs dir ~sync:true;
      Iops.iupdat fs ip ~sync:true;
      Iops.iput fs ip;
      Iops.iput fs dir))

let unlink fs path =
  let dir, name = lookup_parent fs path in
  with_dir_locked dir (fun () ->
  (match Dir.lookup fs dir name with
  | None ->
      Iops.iput fs dir;
      Vfs.Errno.raise_err Vfs.Errno.ENOENT path
  | Some inum ->
      let ip = Iops.iget fs inum in
      if ip.kind = Dinode.Dir then begin
        Iops.iput fs ip;
        Iops.iput fs dir;
        Vfs.Errno.raise_err Vfs.Errno.EISDIR path
      end;
      Wal.with_op fs (fun () ->
          ignore (Dir.remove fs dir name);
          ip.nlink <- ip.nlink - 1;
          Iops.iupdat fs ip ~sync:true;
          Iops.iput fs ip));
  Iops.iput fs dir)

let rmdir fs path =
  let dir, name = lookup_parent fs path in
  with_dir_locked dir (fun () ->
  match Dir.lookup fs dir name with
  | None ->
      Iops.iput fs dir;
      Vfs.Errno.raise_err Vfs.Errno.ENOENT path
  | Some inum ->
      let ip = Iops.iget fs inum in
      if ip.kind <> Dinode.Dir then begin
        Iops.iput fs ip;
        Iops.iput fs dir;
        Vfs.Errno.raise_err Vfs.Errno.ENOTDIR path
      end;
      if not (Dir.is_empty fs ip) then begin
        Iops.iput fs ip;
        Iops.iput fs dir;
        Vfs.Errno.raise_err Vfs.Errno.ENOTEMPTY path
      end;
      Wal.with_op fs (fun () ->
          ignore (Dir.remove fs dir name);
          dir.nlink <- dir.nlink - 1;
          Iops.iupdat fs dir ~sync:true;
          ip.nlink <- 0;
          let c = Superblock.cg_of_inum fs.sb ip.inum in
          fs.cgs.(c).Cg.ndirs <- fs.cgs.(c).Cg.ndirs - 1;
          fs.sb.Superblock.ndir <- fs.sb.Superblock.ndir - 1;
          if Wal.journaled fs then begin
            (* recovery recounts touched groups but preserves ndirs, so
               the decrement needs its own record (inode-free records
               say nothing about directory-ness) *)
            fs.cgs.(c).Cg.dirty <- true;
            Wal.log_cg_ndirs fs ~cgx:c ~value:fs.cgs.(c).Cg.ndirs
          end;
          Iops.iput fs ip;
          Iops.iput fs dir))

let link fs existing new_path =
  let ip = namei fs existing in
  if ip.kind = Dinode.Dir then begin
    Iops.iput fs ip;
    Vfs.Errno.raise_err Vfs.Errno.EISDIR existing
  end;
  let dir, name = lookup_parent fs new_path in
  with_dir_locked dir (fun () ->
      (match Dir.lookup fs dir name with
      | Some _ ->
          Iops.iput fs dir;
          Iops.iput fs ip;
          Vfs.Errno.raise_err Vfs.Errno.EEXIST new_path
      | None -> ());
      Wal.with_op fs (fun () ->
          Dir.enter fs dir ~name ~inum:ip.inum;
          ip.nlink <- ip.nlink + 1;
          Iops.iupdat fs ip ~sync:true;
          Iops.iput fs dir;
          Iops.iput fs ip))

let rename fs src dst =
  let sdir, sname = lookup_parent fs src in
  let inum =
    match Dir.lookup fs sdir sname with
    | Some i -> i
    | None ->
        Iops.iput fs sdir;
        Vfs.Errno.raise_err Vfs.Errno.ENOENT src
  in
  let ip = Iops.iget fs inum in
  let ddir, dname = lookup_parent fs dst in
  with_two_dirs_locked sdir ddir (fun () ->
  Wal.with_op fs @@ fun () ->
  (* replace an existing target *)
  (match Dir.lookup fs ddir dname with
  | Some tgt_inum when tgt_inum <> inum ->
      let tgt = Iops.iget fs tgt_inum in
      if tgt.kind = Dinode.Dir then begin
        if not (Dir.is_empty fs tgt) then begin
          Iops.iput fs tgt;
          Iops.iput fs ddir;
          Iops.iput fs sdir;
          Iops.iput fs ip;
          Vfs.Errno.raise_err Vfs.Errno.ENOTEMPTY dst
        end;
        ddir.nlink <- ddir.nlink - 1;
        tgt.nlink <- 0
      end
      else tgt.nlink <- tgt.nlink - 1;
      ignore (Dir.remove fs ddir dname);
      Iops.iupdat fs tgt ~sync:true;
      Iops.iput fs tgt
  | Some _ | None -> ());
  ignore (Dir.remove fs sdir sname);
  (match Dir.lookup fs ddir dname with
  | Some _ -> Dir.rewrite fs ddir ~name:dname ~inum
  | None -> Dir.enter fs ddir ~name:dname ~inum);
  if ip.kind = Dinode.Dir && sdir.inum <> ddir.inum then begin
    Dir.rewrite fs ip ~name:".." ~inum:ddir.inum;
    sdir.nlink <- sdir.nlink - 1;
    ddir.nlink <- ddir.nlink + 1;
    Iops.iupdat fs sdir ~sync:true;
    Iops.iupdat fs ddir ~sync:true
  end;
  Iops.iput fs ddir;
  Iops.iput fs sdir;
  Iops.iput fs ip)

let symlink fs ~target ~path =
  let dir, name = lookup_parent fs path in
  with_dir_locked dir (fun () ->
  (match Dir.lookup fs dir name with
  | Some _ ->
      Iops.iput fs dir;
      Vfs.Errno.raise_err Vfs.Errno.EEXIST path
  | None -> ());
  Wal.with_op fs @@ fun () ->
  let ip = Iops.iget_new fs ~dir_hint:dir.inum ~kind:Dinode.Lnk in
  ip.nlink <- 1;
  if String.length target <= Dinode.immediate_capacity then begin
    (* fast symlink: the target lives in the inode itself *)
    ip.immediate <- target;
    ip.size <- String.length target
  end
  else begin
    let buf = Bytes.of_string target in
    let uio =
      Vfs.Uio.make ~rw:Vfs.Uio.Write ~off:0 ~len:(Bytes.length buf) ~buf
        ~buf_off:0
    in
    Rdwr.rdwr fs ip uio
  end;
  Dir.enter fs dir ~name ~inum:ip.inum;
  Iops.iupdat fs ip ~sync:true;
  Iops.iput fs ip;
  Iops.iput fs dir)

let readlink fs path =
  let ip = namei fs path in
  if ip.kind <> Dinode.Lnk then begin
    Iops.iput fs ip;
    Vfs.Errno.raise_err Vfs.Errno.EINVAL (path ^ ": not a symlink")
  end;
  let r =
    if ip.immediate <> "" then ip.immediate
    else begin
      let buf = Bytes.create ip.size in
      let uio =
        Vfs.Uio.make ~rw:Vfs.Uio.Read ~off:0 ~len:ip.size ~buf ~buf_off:0
      in
      Rdwr.rdwr fs ip uio;
      Bytes.to_string buf
    end
  in
  Iops.iput fs ip;
  r

type stat = {
  st_ino : int;
  st_kind : Dinode.kind;
  st_size : int;
  st_blocks : int;
  st_nlink : int;
}

let stat fs path =
  let ip = namei fs path in
  let r =
    {
      st_ino = ip.inum;
      st_kind = ip.kind;
      st_size = ip.size;
      st_blocks = ip.blocks;
      st_nlink = ip.nlink;
    }
  in
  Iops.iput fs ip;
  r

type statfs = {
  f_frags : int;
  f_bfree : int;
  f_ffree : int;
  f_ifree : int;
  f_reserved : int;
}

let statfs (fs : fs) =
  {
    f_frags = Superblock.data_frags fs.sb;
    f_bfree = fs.sb.Superblock.nbfree;
    f_ffree = fs.sb.Superblock.nffree;
    f_ifree = fs.sb.Superblock.nifree;
    f_reserved = Superblock.minfree_frags fs.sb;
  }

(* ---------- file I/O ---------- *)

let read fs ip ~off ~buf ~len =
  let uio = Vfs.Uio.make ~rw:Vfs.Uio.Read ~off ~len ~buf ~buf_off:0 in
  Rdwr.rdwr fs ip uio;
  len - uio.Vfs.Uio.resid

let write fs ip ~off ~buf ~len =
  let uio = Vfs.Uio.make ~rw:Vfs.Uio.Write ~off ~len ~buf ~buf_off:0 in
  Rdwr.rdwr fs ip uio

let readv fs ip ~off ~len =
  let uio = Vfs.Uio.reply ~off ~len in
  Rdwr.rdwr fs ip uio;
  Vfs.Uio.replied uio

let writev fs ip ~off iov =
  Rdwr.rdwr fs ip (Vfs.Uio.of_iov ~frames:true ~rw:Vfs.Uio.Write ~off iov)

let fsync fs ip = Iops.fsync_inode fs ip

let extent_map fs path =
  let ip = namei fs path in
  let m = Bmap.extent_map fs ip in
  Iops.iput fs ip;
  m
