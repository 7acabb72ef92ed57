open Types

type report = {
  scan : Jrnl.report;
  frag_runs : int;
  inode_bits : int;
  images : int;
  ind_sets : int;
  dir_patches : int;
  dir_skipped : int;
  orphans : int;
  orphan_frags : int;
  cgs_written : int;
}

let pp ppf r =
  Format.fprintf ppf
    "recover: %d entries, %d records (%d B) replayed; %d log blocks read%s@.  \
     %d frag runs, %d inode bits, %d images, %d indirect sets, %d dir slots \
     patched (%d skipped)@.  %d orphans reaped (%d frags), %d groups rewritten"
    r.scan.Jrnl.entries r.scan.Jrnl.records r.scan.Jrnl.payload_bytes
    r.scan.Jrnl.blocks_read
    (if r.scan.Jrnl.torn then " (torn tail discarded)" else "")
    r.frag_runs r.inode_bits r.images r.ind_sets r.dir_patches r.dir_skipped
    r.orphans r.orphan_frags r.cgs_written

(* All I/O during replay goes through this pair so the same algorithm
   runs untimed (straight off the store, for tests and offline recovery)
   or timed (through the device, for the recovery-time bench). *)
type io = {
  read : frag:int -> len:int -> bytes;
  write : frag:int -> bytes -> unit;
}

let store_io st =
  {
    read =
      (fun ~frag ~len ->
        let b = Bytes.create len in
        Disk.Store.read st ~off:(Layout.frag_to_byte frag) ~len b 0;
        b);
    write =
      (fun ~frag b ->
        Disk.Store.write st ~off:(Layout.frag_to_byte frag)
          ~len:(Bytes.length b) b 0);
  }

let blkdev_io dev =
  {
    read =
      (fun ~frag ~len ->
        let b = Bytes.create len in
        Disk.Blkdev.read_sync dev
          ~sector:(Layout.frag_to_sector frag)
          ~count:(len / Layout.sector_bytes)
          ~buf:b ~buf_off:0;
        b);
    write =
      (fun ~frag b ->
        Disk.Blkdev.write_sync dev
          ~sector:(Layout.frag_to_sector frag)
          ~count:(Bytes.length b / Layout.sector_bytes)
          ~buf:b ~buf_off:0);
  }

let replay io scan =
  let sb = Superblock.decode (io.read ~frag:Layout.sb_frag ~len:Layout.bsize) in
  if sb.Superblock.jfrags = 0 then
    invalid_arg "Recover: file system has no journal";
  let cgs =
    Array.init sb.Superblock.ncg (fun c ->
        Cg.decode (io.read ~frag:(Cg.header_frag sb c) ~len:Layout.bsize) sb c)
  in
  let touched_cgs = Hashtbl.create 8 in
  let touch_cg c = Hashtbl.replace touched_cgs c () in
  (* cache of metadata blocks (inode-area and indirect), block-aligned *)
  let blocks : (int, bytes) Hashtbl.t = Hashtbl.create 64 in
  let dirty : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let get_block frag =
    match Hashtbl.find_opt blocks frag with
    | Some b -> b
    | None ->
        let b = io.read ~frag ~len:Layout.bsize in
        Hashtbl.replace blocks frag b;
        b
  in
  let images : (int, bytes) Hashtbl.t = Hashtbl.create 32 in
  let touched_inums = Hashtbl.create 32 in
  let dirents = ref [] in
  let frag_runs = ref 0
  and inode_bits = ref 0
  and ind_sets = ref 0
  and dir_patches = ref 0
  and dir_skipped = ref 0
  and orphans = ref 0
  and orphan_frags = ref 0 in
  let set_run frag n ~free =
    incr frag_runs;
    let cg = cgs.(Superblock.cg_of_frag sb frag) in
    Cg.set_frags cg sb ~lo:frag ~hi:(frag + n) ~free;
    touch_cg cg.Cg.cgx
  in
  let set_ibit inum ~free =
    incr inode_bits;
    Hashtbl.replace touched_inums inum ();
    let c = Superblock.cg_of_inum sb inum in
    Cg.set_inode cgs.(c) (inum mod sb.Superblock.ipg) ~free;
    touch_cg c
  in
  (* pass 1: apply records in log order.  Everything is absolute, so
     re-running a prefix that already reached the disk is harmless. *)
  let apply r =
    match Wal.decode_record r with
    | Wal.Frag_alloc { frag; n } -> set_run frag n ~free:false
    | Wal.Frag_free { frag; n } -> set_run frag n ~free:true
    | Wal.Inode_alloc { inum; dir = _ } -> set_ibit inum ~free:false
    | Wal.Inode_free { inum } -> set_ibit inum ~free:true
    | Wal.Inode_update { inum; image } ->
        Hashtbl.replace touched_inums inum ();
        Hashtbl.replace images inum image
    | Wal.Ind_set { frag; index; value } ->
        incr ind_sets;
        Codec.put_u32 (get_block frag) (4 * index) value;
        Hashtbl.replace dirty frag ()
    | Wal.Ind_zero { frag } ->
        incr ind_sets;
        Hashtbl.replace blocks frag (Bytes.make Layout.bsize '\000');
        Hashtbl.replace dirty frag ()
    | Wal.Dir_entry { dinum; off; slot } ->
        (* deferred: needs the dinum's final block mapping *)
        dirents := (dinum, off, slot) :: !dirents
    | Wal.Cg_ndirs { cgx; value } ->
        cgs.(cgx).Cg.ndirs <- value;
        touch_cg cgx
  in
  let scan_report = scan ~on_record:apply in
  let dirents = List.rev !dirents in
  (* pass 2: the final image of every logged inode wins *)
  let dinode_patch inum img =
    let frag, byte = Cg.dinode_loc sb inum in
    let bfrag = frag - (frag mod Layout.fpb) in
    let b = get_block bfrag in
    Bytes.blit img 0 b
      (((frag mod Layout.fpb) * Layout.fsize) + byte)
      Layout.dinode_bytes;
    Hashtbl.replace dirty bfrag ()
  in
  Hashtbl.iter dinode_patch images;
  let read_dinode inum =
    match Hashtbl.find_opt images inum with
    | Some img -> Dinode.decode img 0
    | None ->
        let frag, byte = Cg.dinode_loc sb inum in
        let bfrag = frag - (frag mod Layout.fpb) in
        Dinode.decode (get_block bfrag)
          (((frag mod Layout.fpb) * Layout.fsize) + byte)
  in
  (* pass 3: directory slots.  The slot record carries the 64 B entry
     and its file offset; the final inode image resolves the offset to a
     fragment (dir data need not be block-aligned, so the patch is a
     fragment read-modify-write, not a block one). *)
  let map_frag (d : Dinode.t) off =
    let lbn = off / Layout.bsize in
    let ptr =
      if lbn < Layout.ndaddr then d.Dinode.db.(lbn)
      else
        let l = lbn - Layout.ndaddr in
        if l < Layout.nindir then
          if d.Dinode.ib.(0) = 0 then 0
          else Codec.get_u32 (get_block d.Dinode.ib.(0)) (4 * l)
        else
          let l = l - Layout.nindir in
          if d.Dinode.ib.(1) = 0 then 0
          else
            let p =
              Codec.get_u32 (get_block d.Dinode.ib.(1)) (4 * (l / Layout.nindir))
            in
            if p = 0 then 0
            else Codec.get_u32 (get_block p) (4 * (l mod Layout.nindir))
    in
    if ptr = 0 then None
    else
      let byte = off mod Layout.bsize in
      Some (ptr + (byte / Layout.fsize), byte mod Layout.fsize)
  in
  List.iter
    (fun (dinum, off, slot) ->
      match map_frag (read_dinode dinum) off with
      | None ->
          (* mapping never committed: the entry write belongs to the
             torn tail's operation and is correctly lost *)
          incr dir_skipped
      | Some (frag, foff) ->
          let fb = io.read ~frag ~len:Layout.fsize in
          Bytes.blit slot 0 fb foff Wal.dir_entry_size;
          io.write ~frag fb;
          incr dir_patches)
    dirents;
  (* pass 4: orphans.  An unlink commits nlink 0 while the (still open)
     file keeps its storage; the freeing op only commits at last close.
     A crash inside that window leaves an allocated, unreferenced inode:
     reap it exactly as the close would have. *)
  let reap inum (d : Dinode.t) =
    incr orphans;
    let free_run frag n =
      let cg = cgs.(Superblock.cg_of_frag sb frag) in
      Cg.set_frags cg sb ~lo:frag ~hi:(frag + n) ~free:true;
      touch_cg cg.Cg.cgx;
      orphan_frags := !orphan_frags + n
    in
    let data lbn frag =
      if frag <> 0 then
        free_run frag (Bmap.block_frags ~lbn ~size:d.Dinode.size)
    in
    for i = 0 to Layout.ndaddr - 1 do
      data i d.Dinode.db.(i)
    done;
    if d.Dinode.ib.(0) <> 0 then begin
      let b = get_block d.Dinode.ib.(0) in
      for i = 0 to Layout.nindir - 1 do
        data (Layout.ndaddr + i) (Codec.get_u32 b (4 * i))
      done;
      free_run d.Dinode.ib.(0) Layout.fpb
    end;
    if d.Dinode.ib.(1) <> 0 then begin
      let b = get_block d.Dinode.ib.(1) in
      for i = 0 to Layout.nindir - 1 do
        let p = Codec.get_u32 b (4 * i) in
        if p <> 0 then begin
          let bb = get_block p in
          for j = 0 to Layout.nindir - 1 do
            data
              (Layout.ndaddr + Layout.nindir + (i * Layout.nindir) + j)
              (Codec.get_u32 bb (4 * j))
          done;
          free_run p Layout.fpb
        end
      done;
      free_run d.Dinode.ib.(1) Layout.fpb
    end;
    set_ibit inum ~free:true;
    (* directory orphans keep their Cg_ndirs accounting: the rmdir that
       zeroed nlink logged the decrement itself *)
    let img = Bytes.make Layout.dinode_bytes '\000' in
    Dinode.encode (Dinode.empty ()) img 0;
    Hashtbl.replace images inum img;
    dinode_patch inum img
  in
  Hashtbl.iter
    (fun inum () ->
      if inum > rootino then begin
        let d = read_dinode inum in
        if d.Dinode.kind <> Dinode.Free && d.Dinode.nlink = 0 then reap inum d
      end)
    (Hashtbl.copy touched_inums);
  (* pass 5: summaries.  Touched groups get their counts rebuilt from
     the bitmaps (recount leaves ndirs alone — the Cg_ndirs records own
     it); the superblock totals come from all groups. *)
  Hashtbl.iter
    (fun c () ->
      let cg = cgs.(c) in
      let nb, nf, ni = Cg.recount cg sb in
      cg.Cg.nbfree <- nb;
      cg.Cg.nffree <- nf;
      cg.Cg.nifree <- ni)
    touched_cgs;
  let tot f = Array.fold_left (fun a cg -> a + f cg) 0 cgs in
  sb.Superblock.nbfree <- tot (fun cg -> cg.Cg.nbfree);
  sb.Superblock.nffree <- tot (fun cg -> cg.Cg.nffree);
  sb.Superblock.nifree <- tot (fun cg -> cg.Cg.nifree);
  sb.Superblock.ndir <- tot (fun cg -> cg.Cg.ndirs);
  sb.Superblock.clean <- true;
  (* write-back: dirty metadata blocks, touched group headers, then the
     superblock (clean) last *)
  Hashtbl.iter (fun frag () -> io.write ~frag (Hashtbl.find blocks frag)) dirty;
  Hashtbl.iter
    (fun c () ->
      cgs.(c).Cg.dirty <- false;
      io.write ~frag:(Cg.header_frag sb c) (Cg.encode cgs.(c) sb))
    touched_cgs;
  io.write ~frag:Layout.sb_frag (Superblock.encode sb);
  ( sb,
    {
      scan = scan_report;
      frag_runs = !frag_runs;
      inode_bits = !inode_bits;
      images = Hashtbl.length images;
      ind_sets = !ind_sets;
      dir_patches = !dir_patches;
      dir_skipped = !dir_skipped;
      orphans = !orphans;
      orphan_frags = !orphan_frags;
      cgs_written = Hashtbl.length touched_cgs;
    } )

let run_store dev =
  let st = Disk.Blkdev.store dev in
  let sb, r =
    replay (store_io st) (fun ~on_record ->
        let sb =
          Superblock.decode
            ((store_io st).read ~frag:Layout.sb_frag ~len:Layout.bsize)
        in
        Jrnl.scan_store st
          ~off_bytes:(Layout.frag_to_byte sb.Superblock.jstart)
          ~len_bytes:(sb.Superblock.jfrags * Layout.fsize)
          ~on_record)
  in
  Jrnl.format st
    ~off_bytes:(Layout.frag_to_byte sb.Superblock.jstart)
    ~len_bytes:(sb.Superblock.jfrags * Layout.fsize);
  r

let run dev =
  let sb_region =
    let st = Disk.Blkdev.store dev in
    let sb =
      Superblock.decode ((store_io st).read ~frag:Layout.sb_frag ~len:Layout.bsize)
    in
    ( Layout.frag_to_byte sb.Superblock.jstart,
      sb.Superblock.jfrags * Layout.fsize )
  in
  let off_bytes, len_bytes = sb_region in
  let sb, r =
    replay (blkdev_io dev) (fun ~on_record ->
        Jrnl.scan_blkdev dev ~off_bytes ~len_bytes ~on_record)
  in
  ignore sb;
  Jrnl.reset_blkdev dev ~off_bytes ~len_bytes;
  r
