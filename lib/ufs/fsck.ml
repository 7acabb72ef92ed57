type report = {
  problems : string list;
  nfiles : int;
  ndirs : int;
  nsymlinks : int;
  used_frags : int;
}

let ok r = r.problems = []

let pp ppf r =
  Format.fprintf ppf "fsck: %d files, %d dirs, %d symlinks, %d frags used"
    r.nfiles r.ndirs r.nsymlinks r.used_frags;
  List.iter (fun p -> Format.fprintf ppf "@.  PROBLEM: %s" p) r.problems

type state = {
  st : Disk.Store.t;
  sb : Superblock.t;
  cgs : Cg.t array;
  usage : int array;  (** claims per fragment *)
  problems : string Queue.t;
  mutable nfiles : int;
  mutable ndirs : int;
  mutable nsymlinks : int;
}

let problem s fmt = Format.kasprintf (fun m -> Queue.push m s.problems) fmt

let read_block st ~frag =
  let b = Bytes.create Layout.bsize in
  Disk.Store.read st ~off:(Layout.frag_to_byte frag) ~len:Layout.bsize b 0;
  b

let in_data_area s frag n =
  frag > 0
  && frag + n <= s.sb.Superblock.nfrags
  &&
  let c = Superblock.cg_of_frag s.sb frag in
  c < s.sb.Superblock.ncg
  && frag >= Cg.data_begin s.sb c
  && frag + n <= Cg.cg_end s.sb c

let claim s inum frag n =
  if not (in_data_area s frag n) then
    problem s "inode %d: pointer %d (+%d frags) outside data area" inum frag n
  else
    for i = frag to frag + n - 1 do
      s.usage.(i) <- s.usage.(i) + 1;
      if s.usage.(i) = 2 then problem s "fragment %d multiply claimed" i
    done

(* Every dinode, in inode order.  Consecutive inodes share an inode
   block, so each block is read from the store once, into one buffer,
   and all its dinodes are decoded from there. *)
let read_dinodes s ninodes =
  let blk = Bytes.create Layout.bsize and held = ref (-1) in
  Array.init ninodes (fun inum ->
      let frag, byte = Cg.dinode_loc s.sb inum in
      let bfrag = frag - (frag mod Layout.fpb) in
      if bfrag <> !held then begin
        Disk.Store.read s.st ~off:(Layout.frag_to_byte bfrag) ~len:Layout.bsize blk 0;
        held := bfrag
      end;
      Dinode.decode blk (((frag mod Layout.fpb) * Layout.fsize) + byte))

(* frags a data block at [lbn] should occupy: Bmap.block_frags's rule,
   restated so that the checker does not trust the code it checks *)
let expected_frags ~lbn ~size =
  if
    size <= Layout.ndaddr * Layout.bsize
    && size > 0
    && lbn = (size - 1) / Layout.bsize
    && size mod Layout.bsize <> 0
  then Layout.frags_of_bytes (size mod Layout.bsize)
  else Layout.fpb

(* Walk one inode's pointers; returns claimed fragment count. *)
let walk_inode s inum (d : Dinode.t) =
  let claimed = ref 0 in
  let data lbn frag =
    if frag <> 0 then begin
      let n = expected_frags ~lbn ~size:d.Dinode.size in
      claim s inum frag n;
      claimed := !claimed + n
    end
  in
  let max_lbn = Layout.blocks_of_size d.Dinode.size in
  for i = 0 to Layout.ndaddr - 1 do
    if d.Dinode.db.(i) <> 0 && i >= max_lbn then
      problem s "inode %d: direct pointer %d beyond size" inum i;
    data i d.Dinode.db.(i)
  done;
  let walk_indirect frag f =
    claim s inum frag Layout.fpb;
    claimed := !claimed + Layout.fpb;
    let b = read_block s.st ~frag in
    for i = 0 to Layout.nindir - 1 do
      f i (Codec.get_u32 b (4 * i))
    done
  in
  if d.Dinode.ib.(0) <> 0 then
    walk_indirect d.Dinode.ib.(0) (fun i p -> data (Layout.ndaddr + i) p);
  if d.Dinode.ib.(1) <> 0 then
    walk_indirect d.Dinode.ib.(1) (fun i p ->
        if p <> 0 then
          walk_indirect p (fun j q ->
              data (Layout.ndaddr + Layout.nindir + (i * Layout.nindir) + j) q));
  if !claimed <> d.Dinode.blocks then
    problem s "inode %d: di_blocks %d but %d fragments claimed" inum
      d.Dinode.blocks !claimed

(* ---------- directory walking ---------- *)

(* read [len] bytes at file offset [off] using the dinode's mapping *)
let file_read s (d : Dinode.t) ~off buf =
  let len = Bytes.length buf in
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let lbn = o / Layout.bsize in
    let ptr =
      if lbn < Layout.ndaddr then d.Dinode.db.(lbn)
      else if lbn < Layout.ndaddr + Layout.nindir then
        if d.Dinode.ib.(0) = 0 then 0
        else
          Codec.get_u32
            (read_block s.st ~frag:d.Dinode.ib.(0))
            (4 * (lbn - Layout.ndaddr))
      else 0
    in
    let n = min (len - !pos) (Layout.bsize - (o mod Layout.bsize)) in
    if ptr = 0 then Bytes.fill buf !pos n '\000'
    else
      Disk.Store.read s.st
        ~off:(Layout.frag_to_byte ptr + (o mod Layout.bsize))
        ~len:n buf !pos;
    pos := !pos + n
  done

let dir_entries s (d : Dinode.t) =
  let buf = Bytes.create d.Dinode.size in
  file_read s d ~off:0 buf;
  let entries = ref [] in
  let n = d.Dinode.size / Dir.entry_size in
  for i = 0 to n - 1 do
    let off = i * Dir.entry_size in
    let inum = Codec.get_u32 buf off in
    if inum <> 0 then begin
      let nl = Codec.get_u8 buf (off + 4) in
      let name = Bytes.sub_string buf (off + 5) nl in
      entries := (name, inum) :: !entries
    end
  done;
  List.rev !entries

let check dev =
  let st = Disk.Blkdev.store dev in
  let sb = Superblock.decode (read_block st ~frag:Layout.sb_frag) in
  let cgs =
    Array.init sb.Superblock.ncg (fun c ->
        Cg.decode (read_block st ~frag:(Cg.header_frag sb c)) sb c)
  in
  let s =
    {
      st;
      sb;
      cgs;
      usage = Array.make sb.Superblock.nfrags 0;
      problems = Queue.create ();
      nfiles = 0;
      ndirs = 0;
      nsymlinks = 0;
    }
  in
  if not sb.Superblock.clean then
    problem s "file system was not unmounted cleanly";
  (* the intent-journal region is carved out of the last group's data
     area and permanently allocated: claim it so phase 4 does not see
     "allocated but unclaimed" fragments *)
  if sb.Superblock.jfrags > 0 then
    for f = sb.Superblock.jstart to sb.Superblock.jstart + sb.Superblock.jfrags - 1
    do
      s.usage.(f) <- s.usage.(f) + 1
    done;
  let ninodes = sb.Superblock.ncg * sb.Superblock.ipg in
  (* phase 1: inodes and block pointers *)
  let dinodes = read_dinodes s ninodes in
  Array.iteri
    (fun inum (d : Dinode.t) ->
      match d.Dinode.kind with
      | Dinode.Free -> ()
      | Dinode.Reg | Dinode.Dir | Dinode.Lnk ->
          (match d.Dinode.kind with
          | Dinode.Reg -> s.nfiles <- s.nfiles + 1
          | Dinode.Dir -> s.ndirs <- s.ndirs + 1
          | Dinode.Lnk -> s.nsymlinks <- s.nsymlinks + 1
          | Dinode.Free -> ());
          if inum < Types.rootino && inum <> 0 && inum <> 1 then
            problem s "inode %d: reserved inode in use" inum;
          walk_inode s inum d)
    dinodes;
  (* phase 2 + 3: connectivity and link counts *)
  let links = Array.make ninodes 0 in
  let visited = Array.make ninodes false in
  (if dinodes.(Types.rootino).Dinode.kind <> Dinode.Dir then
     problem s "root inode is not a directory"
   else
     let rec walk_dir inum parent =
       if not visited.(inum) then begin
         visited.(inum) <- true;
         let d = dinodes.(inum) in
         if d.Dinode.size mod Dir.entry_size <> 0 then
           problem s "dir %d: size %d not a multiple of entry size" inum
             d.Dinode.size;
         let entries = dir_entries s d in
         let saw_dot = ref false and saw_dotdot = ref false in
         List.iter
           (fun (name, target) ->
             if target >= ninodes then
               problem s "dir %d: entry %s -> bad inode %d" inum name target
             else if dinodes.(target).Dinode.kind = Dinode.Free then
               problem s "dir %d: entry %s -> free inode %d" inum name target
             else begin
               links.(target) <- links.(target) + 1;
               match name with
               | "." ->
                   saw_dot := true;
                   if target <> inum then problem s "dir %d: bad ." inum
               | ".." ->
                   saw_dotdot := true;
                   if target <> parent then problem s "dir %d: bad .." inum
               | _ ->
                   if dinodes.(target).Dinode.kind = Dinode.Dir then
                     walk_dir target inum
             end)
           entries;
         if not !saw_dot then problem s "dir %d: missing ." inum;
         if not !saw_dotdot then problem s "dir %d: missing .." inum
       end
     in
     walk_dir Types.rootino Types.rootino);
  Array.iteri
    (fun inum (d : Dinode.t) ->
      if d.Dinode.kind <> Dinode.Free then begin
        if d.Dinode.kind = Dinode.Dir && not visited.(inum) then
          problem s "dir %d: unreachable from root" inum;
        if links.(inum) = 0 && inum > Types.rootino then
          problem s "inode %d: allocated but not referenced" inum
        else if links.(inum) <> d.Dinode.nlink && inum >= Types.rootino then
          problem s "inode %d: nlink %d but %d references" inum d.Dinode.nlink
            links.(inum)
      end)
    dinodes;
  (* phase 4: fragment bitmaps and counts.  A whole block is checked by
     comparing its bitmap byte with the byte [usage] implies; only a
     mismatching block, and the ragged tail of a short group, are
     examined fragment by fragment. *)
  let check_frags cg lo hi =
    for f = lo to hi - 1 do
      let free = Cg.frag_free cg sb f in
      let used = s.usage.(f) > 0 in
      if used && free then problem s "fragment %d: in use but marked free" f
      else if (not used) && not free then
        problem s "fragment %d: marked allocated but unclaimed" f
    done
  in
  let expected_bits base =
    let bits = ref 0 in
    for i = 0 to Layout.fpb - 1 do
      if s.usage.(base + i) = 0 then bits := !bits lor (1 lsl i)
    done;
    !bits
  in
  Array.iter
    (fun (cg : Cg.t) ->
      let c = cg.Cg.cgx in
      let lo = Cg.data_begin sb c and hi = Cg.cg_end sb c in
      let tail = max lo (hi - ((hi - Cg.cg_begin sb c) mod Layout.fpb)) in
      let rec blocks base =
        if base < tail then begin
          if Cg.block_bits cg sb base <> expected_bits base then
            check_frags cg base (base + Layout.fpb);
          blocks (base + Layout.fpb)
        end
      in
      blocks lo;
      check_frags cg tail hi;
      let nb, nf, ni = Cg.recount cg sb in
      if (nb, nf, ni) <> (cg.Cg.nbfree, cg.Cg.nffree, cg.Cg.nifree) then
        problem s "cg %d: summary counts (%d,%d,%d) != bitmap (%d,%d,%d)" c
          cg.Cg.nbfree cg.Cg.nffree cg.Cg.nifree nb nf ni)
    cgs;
  let tot (f : Cg.t -> int) = Array.fold_left (fun a cg -> a + f cg) 0 cgs in
  if tot (fun cg -> cg.Cg.nbfree) <> sb.Superblock.nbfree then
    problem s "superblock nbfree mismatch";
  if tot (fun cg -> cg.Cg.nffree) <> sb.Superblock.nffree then
    problem s "superblock nffree mismatch";
  if tot (fun cg -> cg.Cg.nifree) <> sb.Superblock.nifree then
    problem s "superblock nifree mismatch";
  (* phase 5: inode bitmaps *)
  Array.iteri
    (fun inum (d : Dinode.t) ->
      let c = Superblock.cg_of_inum sb inum in
      let idx = inum mod sb.Superblock.ipg in
      let bitmap_free = Cg.inode_free cgs.(c) idx in
      let actually_free = d.Dinode.kind = Dinode.Free in
      if bitmap_free && not actually_free then
        problem s "inode %d: in use but bitmap says free" inum
      else if (not bitmap_free) && actually_free && inum > Types.rootino then
        problem s "inode %d: bitmap says allocated but dinode is free" inum)
    dinodes;
  {
    problems = List.of_seq (Queue.to_seq s.problems);
    nfiles = s.nfiles;
    ndirs = s.ndirs;
    nsymlinks = s.nsymlinks;
    used_frags =
      Array.fold_left (fun a u -> if u > 0 then a + 1 else a) 0 s.usage;
  }
