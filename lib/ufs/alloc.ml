open Types

let total_free_frags (fs : fs) =
  (fs.sb.Superblock.nbfree * Layout.fpb) + fs.sb.Superblock.nffree

let block_pass_us (fs : fs) =
  let geom = Disk.Blkdev.geom fs.dev in
  let spt =
    match geom.Disk.Geom.zones with
    | z :: _ -> z.Disk.Geom.spt
    | [] -> assert false
  in
  let sectors = Layout.bsize / Layout.sector_bytes in
  sectors * Disk.Geom.sector_time geom ~spt

let rotdelay_gap_blocks (fs : fs) =
  let rd = fs.sb.Superblock.rotdelay_ms in
  if rd = 0 then 0
  else
    let pass = block_pass_us fs in
    max 1 (((rd * 1000) + pass - 1) / pass)

(* ---------- count-preserving bitmap mutation ---------- *)

(* Mutate bits of fragments inside one block while keeping the group and
   superblock summary counts consistent. *)
let with_block_counts (fs : fs) (cg : Cg.t) block_base f =
  let sb = fs.sb in
  let before = Cg.free_frags_in_block cg sb block_base in
  f ();
  let after = Cg.free_frags_in_block cg sb block_base in
  let sub n = if n = Layout.fpb then (1, 0) else (0, n) in
  let b_blk, b_frag = sub before and a_blk, a_frag = sub after in
  cg.Cg.nbfree <- cg.Cg.nbfree - b_blk + a_blk;
  cg.Cg.nffree <- cg.Cg.nffree - b_frag + a_frag;
  sb.Superblock.nbfree <- sb.Superblock.nbfree - b_blk + a_blk;
  sb.Superblock.nffree <- sb.Superblock.nffree - b_frag + a_frag;
  cg.Cg.dirty <- true

let block_base_of frag = frag - (frag mod Layout.fpb)

let take_frags fs cg ~frag ~n =
  with_block_counts fs cg (block_base_of frag) (fun () ->
      for i = 0 to n - 1 do
        assert (Cg.frag_free cg fs.sb (frag + i));
        Cg.set_frag cg fs.sb (frag + i) ~free:false
      done);
  Wal.log_frag_alloc fs ~frag ~n

let release_frags fs cg ~frag ~n =
  with_block_counts fs cg (block_base_of frag) (fun () ->
      for i = 0 to n - 1 do
        assert (not (Cg.frag_free cg fs.sb (frag + i)));
        Cg.set_frag cg fs.sb (frag + i) ~free:true
      done);
  (* also pins the fragments until the free record commits *)
  Wal.log_frag_free fs ~frag ~n

(* ---------- placement policy ---------- *)

(* Average free blocks per group; groups above average are attractive
   targets for a fresh run. *)
let avg_bfree (fs : fs) = fs.sb.Superblock.nbfree / fs.sb.Superblock.ncg

let find_spacious_cg (fs : fs) ~start =
  let ncg = fs.sb.Superblock.ncg in
  let avg = avg_bfree fs in
  let rec loop i =
    if i = ncg then None
    else
      let c = (start + i) mod ncg in
      if fs.cgs.(c).Cg.nbfree >= max 1 avg then Some c else loop (i + 1)
  in
  loop 0

let blkpref (fs : fs) (ip : inode) ~lbn ~prev_frag =
  let sb = fs.sb in
  if lbn = 0 || prev_frag = 0 || (sb.Superblock.maxbpg > 0 && lbn mod sb.Superblock.maxbpg = 0)
  then begin
    (* start of a run: choose a cylinder group *)
    let home = Superblock.cg_of_inum sb ip.inum in
    let c =
      if lbn = 0 then home
      else begin
        fs.stats.cg_switches <- fs.stats.cg_switches + 1;
        match
          find_spacious_cg fs
            ~start:((home + (lbn / max 1 sb.Superblock.maxbpg)) mod sb.Superblock.ncg)
        with
        | Some c -> c
        | None -> home
      end
    in
    Cg.data_begin sb c + fs.cgs.(c).Cg.rotor
  end
  else begin
    let gap = rotdelay_gap_blocks fs in
    let mc = max 1 sb.Superblock.maxcontig in
    if gap > 0 && lbn mod mc = 0 then
      prev_frag + ((1 + gap) * Layout.fpb)
    else prev_frag + Layout.fpb
  end

(* ---------- allocation ---------- *)

let reserve_ok fs ~nfrags =
  total_free_frags fs - nfrags >= Superblock.minfree_frags fs.sb

let data_range_ok (fs : fs) cg frag n =
  frag >= Cg.data_begin fs.sb cg.Cg.cgx && frag + n <= Cg.cg_end fs.sb cg.Cg.cgx

(* ---------- advisory per-file run reservations ---------- *)

(* How far past a file's write frontier its advisory run extends: one
   cluster's worth of blocks, at least 8.  The run is not taken from the
   free counts — other files merely avoid it while easier space exists,
   so interleaved writers lay down contiguous extents instead of
   shredding each other's runs block by block. *)
let resv_frags (fs : fs) =
  max 8 (max 1 fs.sb.Superblock.maxcontig) * Layout.fpb

(* (Re)point the file's advisory run at the blocks just past [frag],
   clamped to the group (runs never span groups).  Every successful
   block allocation slides the window forward. *)
let arm_resv (fs : fs) (ip : inode) ~frag =
  let c = Superblock.cg_of_frag fs.sb frag in
  let next = frag + Layout.fpb in
  let limit = min (next + resv_frags fs) (Cg.cg_end fs.sb c) in
  if next < limit then Hashtbl.replace fs.resv ip.inum (next, limit)
  else Hashtbl.remove fs.resv ip.inum

(* Stops at the first hit; [Hashtbl.iter] allocates nothing per entry,
   unlike a walk over [Hashtbl.to_seq]. *)
let reserved_by_other (fs : fs) inum frag =
  match
    Hashtbl.iter
      (fun i (next, limit) ->
        if i <> inum && frag >= next && frag < limit then raise_notrace Exit)
      fs.resv
  with
  | () -> false
  | exception Exit -> true

(* Walk the file's own advisory run for a free block: the path that
   keeps an interleaved writer extending its current extent after other
   writers have dragged the group rotor elsewhere. *)
let scan_own_resv (fs : fs) (ip : inode) =
  match Hashtbl.find_opt fs.resv ip.inum with
  | None -> None
  | Some (next, limit) ->
      let sb = fs.sb in
      let cg = fs.cgs.(Superblock.cg_of_frag sb next) in
      let rec loop f =
        if f + Layout.fpb > limit then None
        else if
          data_range_ok fs cg f Layout.fpb
          && Cg.block_free cg sb f
          && not (Wal.span_pinned fs ~frag:f ~n:Layout.fpb)
        then Some (cg, f)
        else loop (f + Layout.fpb)
      in
      loop next

(* Scan group [cg] for a free whole block, starting near its rotor. *)
let scan_cg_for_block (fs : fs) (cg : Cg.t) ~avoid =
  if cg.Cg.nbfree = 0 then None
  else begin
    let sb = fs.sb in
    let lo = Cg.data_begin sb cg.Cg.cgx and hi = Cg.cg_end sb cg.Cg.cgx in
    let nblocks = (hi - lo) / Layout.fpb in
    (* the rotor is a group-relative fragment offset; convert it to a
       data-area block index for the scan start *)
    let rotor_abs = Cg.cg_begin sb cg.Cg.cgx + cg.Cg.rotor in
    let start_blk =
      if rotor_abs <= lo || nblocks = 0 then 0
      else (rotor_abs - lo) / Layout.fpb mod nblocks
    in
    let rec loop i =
      if i = nblocks then None
      else
        let b = lo + (((start_blk + i) mod nblocks) * Layout.fpb) in
        if
          Cg.block_free cg sb b
          && (not (avoid b))
          && not (Wal.span_pinned fs ~frag:b ~n:Layout.fpb)
        then Some b
        else loop (i + 1)
    in
    loop 0
  end

let do_take_block (fs : fs) (cg : Cg.t) (ip : inode) frag =
  take_frags fs cg ~frag ~n:Layout.fpb;
  cg.Cg.rotor <- frag + Layout.fpb - Cg.cg_begin fs.sb cg.Cg.cgx;
  if cg.Cg.rotor >= Cg.cg_end fs.sb cg.Cg.cgx - Cg.cg_begin fs.sb cg.Cg.cgx then
    cg.Cg.rotor <- Cg.data_begin fs.sb cg.Cg.cgx - Cg.cg_begin fs.sb cg.Cg.cgx;
  ip.blocks <- ip.blocks + Layout.fpb;
  fs.stats.block_allocs <- fs.stats.block_allocs + 1;
  frag

let alloc_block (fs : fs) (ip : inode) ~pref =
  Sim.Span.span ~name:"ufs.alloc" ~attrs:[ ("pref", Sim.Span.I pref) ]
  @@ fun () ->
  Sim.Mutex.with_lock fs.alloc_lock (fun () ->
      charge fs ~label:"alloc" fs.costs.Costs.alloc_block;
      if not (reserve_ok fs ~nfrags:Layout.fpb) then
        Vfs.Errno.raise_err Vfs.Errno.ENOSPC "alloc_block: below minfree";
      let sb = fs.sb in
      let try_exact () =
        if pref = 0 then None
        else
          let base = block_base_of pref in
          let c = Superblock.cg_of_frag sb base in
          if c >= sb.Superblock.ncg then None
          else
            let cg = fs.cgs.(c) in
            if
              data_range_ok fs cg base Layout.fpb
              && Cg.block_free cg sb base
              && not (Wal.span_pinned fs ~frag:base ~n:Layout.fpb)
            then Some (cg, base)
            else None
      in
      let search () =
        match try_exact () with
        | Some r -> Some r
        | None -> (
            (* the preferred block is gone (typically to another writer):
               before falling back to the rotor, try to keep extending
               this file's own advisory run *)
            match scan_own_resv fs ip with
            | Some r -> Some r
            | None ->
                let start_cg =
                  if pref <> 0 then
                    Superblock.cg_of_frag sb (block_base_of pref)
                  else Superblock.cg_of_inum sb ip.inum
                in
                let ncg = sb.Superblock.ncg in
                let scan ~respect =
                  let avoid b = respect && reserved_by_other fs ip.inum b in
                  let rec loop i =
                    if i = ncg then None
                    else
                      let c = (start_cg + i) mod ncg in
                      match scan_cg_for_block fs fs.cgs.(c) ~avoid with
                      | Some b -> Some (fs.cgs.(c), b)
                      | None -> loop (i + 1)
                  in
                  loop 0
                in
                (* pass 1 steers around other files' advisory runs; pass
                   2 is the unmodified rotor scan, so a nearly-full file
                   system still finds every last block (reservations are
                   advisory — ENOSPC behaviour is unchanged) *)
                (match scan ~respect:true with
                | Some r -> Some r
                | None -> scan ~respect:false))
      in
      let found =
        match search () with
        | Some r -> Some r
        | None ->
            (* every candidate may be pinned behind an uncommitted free
               record: commit to release the pins, then rescan once *)
            if Wal.unpin_commit fs then search () else None
      in
      match found with
      | Some (cg, frag) ->
          let frag = do_take_block fs cg ip frag in
          arm_resv fs ip ~frag;
          frag
      | None -> Vfs.Errno.raise_err Vfs.Errno.ENOSPC "alloc_block: no free block")

(* Find [n] free fragments inside one (preferably already broken) block
   of group [cg]. *)
let scan_cg_for_frags (fs : fs) (cg : Cg.t) ~n ~want_partial =
  let sb = fs.sb in
  let lo = Cg.data_begin sb cg.Cg.cgx and hi = Cg.cg_end sb cg.Cg.cgx in
  let nblocks = (hi - lo) / Layout.fpb in
  let rec loop b =
    if b = nblocks then None
    else begin
      let base = lo + (b * Layout.fpb) in
      let nfree = Cg.free_frags_in_block cg sb base in
      let partial = nfree < Layout.fpb in
      if nfree >= n && partial = want_partial then begin
        (* longest-fit within the block: find a run of >= n free bits *)
        let rec find i run start =
          if i = Layout.fpb then if run >= n then Some (base + start) else None
          else if Cg.frag_free cg sb (base + i) && not (Wal.pinned fs (base + i))
          then
            let start = if run = 0 then i else start in
            let run = run + 1 in
            if run >= n then Some (base + start) else find (i + 1) run start
          else find (i + 1) 0 0
        in
        match find 0 0 0 with Some f -> Some f | None -> loop (b + 1)
      end
      else loop (b + 1)
    end
  in
  loop 0

let alloc_frags (fs : fs) (ip : inode) ~pref ~nfrags =
  if nfrags <= 0 || nfrags >= Layout.fpb then
    invalid_arg "Alloc.alloc_frags: nfrags must be in 1..fpb-1";
  Sim.Span.span ~name:"ufs.alloc_frags"
    ~attrs:[ ("pref", Sim.Span.I pref); ("nfrags", Sim.Span.I nfrags) ]
  @@ fun () ->
  Sim.Mutex.with_lock fs.alloc_lock (fun () ->
      charge fs ~label:"alloc" fs.costs.Costs.alloc_block;
      if not (reserve_ok fs ~nfrags) then
        Vfs.Errno.raise_err Vfs.Errno.ENOSPC "alloc_frags: below minfree";
      let sb = fs.sb in
      let start_cg =
        if pref <> 0 then Superblock.cg_of_frag sb (block_base_of pref)
        else Superblock.cg_of_inum sb ip.inum
      in
      let ncg = sb.Superblock.ncg in
      let rec loop i want_partial =
        if i = ncg then if want_partial then loop 0 false else None
        else
          let c = (start_cg + i) mod ncg in
          match scan_cg_for_frags fs fs.cgs.(c) ~n:nfrags ~want_partial with
          | Some f -> Some (fs.cgs.(c), f)
          | None -> loop (i + 1) want_partial
      in
      let cg, frag =
        match loop 0 true with
        | Some r -> r
        | None -> (
            (* candidates may be pinned behind uncommitted free records *)
            match if Wal.unpin_commit fs then loop 0 true else None with
            | Some r -> r
            | None ->
                Vfs.Errno.raise_err Vfs.Errno.ENOSPC "alloc_frags: no space")
      in
      take_frags fs cg ~frag ~n:nfrags;
      ip.blocks <- ip.blocks + nfrags;
      fs.stats.frag_allocs <- fs.stats.frag_allocs + 1;
      frag)

let extend_frags (fs : fs) (ip : inode) ~frag ~old_n ~new_n =
  if new_n <= old_n || new_n > Layout.fpb then
    invalid_arg "Alloc.extend_frags: bad sizes";
  if (frag mod Layout.fpb) + new_n > Layout.fpb then false
  else
    Sim.Mutex.with_lock fs.alloc_lock (fun () ->
        charge fs ~label:"alloc" fs.costs.Costs.alloc_block;
        let grow = new_n - old_n in
        if not (reserve_ok fs ~nfrags:grow) then false
        else begin
          let cg = fs.cgs.(Superblock.cg_of_frag fs.sb frag) in
          let rec all_free i =
            i = new_n
            || Cg.frag_free cg fs.sb (frag + i)
               && (not (Wal.pinned fs (frag + i)))
               && all_free (i + 1)
          in
          if all_free old_n then begin
            take_frags fs cg ~frag:(frag + old_n) ~n:grow;
            ip.blocks <- ip.blocks + grow;
            true
          end
          else false
        end)

let free_frags (fs : fs) ip ~frag ~nfrags =
  if nfrags <= 0 || nfrags > Layout.fpb then
    invalid_arg "Alloc.free_frags: bad count";
  Sim.Mutex.with_lock fs.alloc_lock (fun () ->
      let cg = fs.cgs.(Superblock.cg_of_frag fs.sb frag) in
      release_frags fs cg ~frag ~n:nfrags;
      match ip with
      | Some ip -> ip.blocks <- ip.blocks - nfrags
      | None -> ())

let free_block fs ip frag =
  if frag mod Layout.fpb <> 0 then
    invalid_arg "Alloc.free_block: not block-aligned";
  free_frags fs ip ~frag ~nfrags:Layout.fpb

(* ---------- inodes ---------- *)

let alloc_inode (fs : fs) ~dir_hint ~kind =
  Sim.Mutex.with_lock fs.alloc_lock (fun () ->
      charge fs ~label:"alloc" fs.costs.Costs.alloc_block;
      let sb = fs.sb in
      let ncg = sb.Superblock.ncg in
      let start =
        match kind with
        | Dinode.Dir ->
            (* spread directories: group with above-average free inodes
               and fewest directories *)
            let avg_ifree = sb.Superblock.nifree / ncg in
            let best = ref None in
            for c = 0 to ncg - 1 do
              let g = fs.cgs.(c) in
              if g.Cg.nifree >= avg_ifree then
                match !best with
                | None -> best := Some c
                | Some b ->
                    if g.Cg.ndirs < fs.cgs.(b).Cg.ndirs then best := Some c
            done;
            Option.value !best ~default:0
        | Dinode.Reg | Dinode.Lnk | Dinode.Free ->
            Superblock.cg_of_inum sb dir_hint
      in
      let rec find_cg i =
        if i = ncg then
          Vfs.Errno.raise_err Vfs.Errno.ENOSPC "alloc_inode: no free inodes"
        else
          let c = (start + i) mod ncg in
          if fs.cgs.(c).Cg.nifree > 0 then c else find_cg (i + 1)
      in
      let c = find_cg 0 in
      let cg = fs.cgs.(c) in
      let rec find_idx idx =
        if idx = sb.Superblock.ipg then assert false
        else if Cg.inode_free cg idx then idx
        else find_idx (idx + 1)
      in
      let idx = find_idx 0 in
      Cg.set_inode cg idx ~free:false;
      cg.Cg.nifree <- cg.Cg.nifree - 1;
      sb.Superblock.nifree <- sb.Superblock.nifree - 1;
      if kind = Dinode.Dir then begin
        cg.Cg.ndirs <- cg.Cg.ndirs + 1;
        sb.Superblock.ndir <- sb.Superblock.ndir + 1
      end;
      let inum = (c * sb.Superblock.ipg) + idx in
      Wal.log_inode_alloc fs ~inum ~dir:(kind = Dinode.Dir);
      if kind = Dinode.Dir then Wal.log_cg_ndirs fs ~cgx:c ~value:cg.Cg.ndirs;
      inum)

let free_inode (fs : fs) inum =
  Sim.Mutex.with_lock fs.alloc_lock (fun () ->
      let sb = fs.sb in
      let c = Superblock.cg_of_inum sb inum in
      let idx = inum mod sb.Superblock.ipg in
      let cg = fs.cgs.(c) in
      if Cg.inode_free cg idx then
        invalid_arg "Alloc.free_inode: already free";
      Cg.set_inode cg idx ~free:true;
      cg.Cg.nifree <- cg.Cg.nifree + 1;
      sb.Superblock.nifree <- sb.Superblock.nifree + 1;
      Wal.log_inode_free fs ~inum)

let check_counts (fs : fs) =
  let problems = ref [] in
  let note what expected actual =
    if expected <> actual then problems := (what, expected, actual) :: !problems
  in
  let tb = ref 0 and tf = ref 0 and ti = ref 0 in
  Array.iter
    (fun (cg : Cg.t) ->
      let nb, nf, ni = Cg.recount cg fs.sb in
      note (Printf.sprintf "cg%d.nbfree" cg.Cg.cgx) nb cg.Cg.nbfree;
      note (Printf.sprintf "cg%d.nffree" cg.Cg.cgx) nf cg.Cg.nffree;
      note (Printf.sprintf "cg%d.nifree" cg.Cg.cgx) ni cg.Cg.nifree;
      tb := !tb + nb;
      tf := !tf + nf;
      ti := !ti + ni)
    fs.cgs;
  note "sb.nbfree" !tb fs.sb.Superblock.nbfree;
  note "sb.nffree" !tf fs.sb.Superblock.nffree;
  note "sb.nifree" !ti fs.sb.Superblock.nifree;
  List.rev !problems
