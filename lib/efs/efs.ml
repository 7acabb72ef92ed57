let bsize = Ufs.Layout.bsize
let sectors_per_block = bsize / 512

type extent = { lbn : int; sector : int; blocks : int }

type file = {
  vid : int;
  mutable fname : string;
  mutable fsize : int;
  mutable extents : extent list; (* ascending lbn *)
  mutable nextr : int; (* sequential-read predictor, bytes *)
  mutable nextrio : int; (* start of the last prefetched extent, bytes *)
  mutable dirty_from : int; (* delayed-write accumulator, bytes *)
  mutable dirty_len : int;
  mutable outstanding : int;
  iodone : Sim.Condition.t;
}

type stats = {
  mutable read_calls : int;
  mutable write_calls : int;
  mutable extent_ins : int;  (** extent-sized read requests issued *)
  mutable extent_in_blocks : int;
  mutable ra_extents : int;  (** of which asynchronous read-ahead *)
  mutable ra_used_blocks : int;
  mutable push_ios : int;
  mutable push_blocks : int;
  mutable extent_allocs : int;
}

type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  pool : Vm.Pool.t;
  dev : Disk.Blkdev.t;
  extent_blocks : int;
  costs : Ufs.Costs.t;
  files : (string, file) Hashtbl.t;
  mutable next_vid : int;
  (* first-fit free list of (sector, sectors), ascending *)
  mutable free : (int * int) list;
  stats : stats;
}

let charge t ~label d = Sim.Cpu.charge t.cpu ~label d

let create engine cpu pool dev ~extent_kb ?(costs = Ufs.Costs.default) () =
  if extent_kb <= 0 || extent_kb * 1024 mod bsize <> 0 then
    invalid_arg "Efs.create: extent size must be a positive multiple of 8KB";
  let total_sectors = Disk.Blkdev.capacity_bytes dev / 512 in
  {
    engine;
    cpu;
    pool;
    dev;
    extent_blocks = extent_kb * 1024 / bsize;
    costs;
    files = Hashtbl.create 64;
    next_vid = 1_000_000 (* clear of any UFS inode numbers on the pool *);
    free = [ (0, total_sectors) ];
    stats =
      {
        read_calls = 0;
        write_calls = 0;
        extent_ins = 0;
        extent_in_blocks = 0;
        ra_extents = 0;
        ra_used_blocks = 0;
        push_ios = 0;
        push_blocks = 0;
        extent_allocs = 0;
      };
  }

let stats t = t.stats

let register_metrics t reg ~instance =
  Sim.Metrics.register reg ~layer:"efs" ~instance (fun () ->
      let s = t.stats in
      Sim.Metrics.
        [
          ("read_calls", Int s.read_calls);
          ("write_calls", Int s.write_calls);
          ("extent_ins", Int s.extent_ins);
          ("extent_in_blocks", Int s.extent_in_blocks);
          ("ra_extents", Int s.ra_extents);
          ("ra_used_blocks", Int s.ra_used_blocks);
          ("push_ios", Int s.push_ios);
          ("push_blocks", Int s.push_blocks);
          ("extent_allocs", Int s.extent_allocs);
          ("files", Int (Hashtbl.length t.files));
          ("free_segments", Int (List.length t.free));
        ])

(* ---------- extent allocation (first fit) ---------- *)

let alloc_sectors t n =
  charge t ~label:"alloc" t.costs.Ufs.Costs.alloc_block;
  t.stats.extent_allocs <- t.stats.extent_allocs + 1;
  let rec take acc = function
    | [] -> Vfs.Errno.raise_err Vfs.Errno.ENOSPC "efs: no free extent"
    | (s, len) :: rest when len >= n ->
        let remainder = if len = n then [] else [ (s + n, len - n) ] in
        t.free <- List.rev_append acc (remainder @ rest);
        s
    | seg :: rest -> take (seg :: acc) rest
  in
  take [] t.free

let free_sectors t sector n =
  (* insert and coalesce *)
  let rec insert = function
    | [] -> [ (sector, n) ]
    | (s, len) :: rest when sector < s -> (sector, n) :: (s, len) :: rest
    | seg :: rest -> seg :: insert rest
  in
  let rec coalesce = function
    | (a, la) :: (b, lb) :: rest when a + la = b -> coalesce ((a, la + lb) :: rest)
    | seg :: rest -> seg :: coalesce rest
    | [] -> []
  in
  t.free <- coalesce (insert t.free)

(* ---------- mapping ---------- *)

(* O(#extents) walk: the cost structure the paper notes for extent maps *)
let map_lookup t f lbn =
  charge t ~label:"emap" (Sim.Time.us (10 + (2 * List.length f.extents)));
  List.find_opt
    (fun e -> lbn >= e.lbn && lbn < e.lbn + e.blocks)
    f.extents

(* the extent containing lbn, allocating it (and nothing else: holes are
   legal) when missing *)
let map_ensure t f lbn =
  match map_lookup t f lbn with
  | Some e -> e
  | None ->
      let base = lbn - (lbn mod t.extent_blocks) in
      let sector = alloc_sectors t (t.extent_blocks * sectors_per_block) in
      let e = { lbn = base; sector; blocks = t.extent_blocks } in
      f.extents <-
        List.sort (fun a b -> compare a.lbn b.lbn) (e :: f.extents);
      e

(* ---------- page I/O in extent units ---------- *)

let ident f off : Vm.Page.ident = { Vm.Page.vid = f.vid; off }

let charge_io t =
  charge t ~label:"driver" (t.costs.Ufs.Costs.driver_submit + t.costs.Ufs.Costs.intr)

(* Read target for the blocks of an extent that are already cached;
   never read. *)
let discard = Bytes.create bsize

(* read the whole extent [e] into the cache with one request *)
let extent_in t f (e : extent) ~sync =
  let mine = ref [] in
  for k = 0 to e.blocks - 1 do
    let off = (e.lbn + k) * bsize in
    match Vm.Pool.lookup t.pool (ident f off) with
    | Some _ -> ()
    | None -> (
        match Vm.Pool.alloc t.pool (ident f off) with
        | `Fresh p ->
            charge t ~label:"getpage" t.costs.Ufs.Costs.page_setup;
            mine := (p, k) :: !mine
        | `Existing _ -> ())
  done;
  match !mine with
  | [] -> ()
  | mine ->
      (* scatter into the claimed (busy) pages; cached blocks' bytes are
         read into the shared discard page *)
      let segs = Array.make e.blocks (discard, 0, bsize) in
      List.iter
        (fun ((p : Vm.Page.t), k) -> segs.(k) <- (p.Vm.Page.data, 0, bsize))
        mine;
      let req =
        Disk.Request.of_iov ~kind:Disk.Request.Read ~sector:e.sector
          ~count:(e.blocks * sectors_per_block)
          (Sim.Iov.of_list (Array.to_list segs))
          ()
      in
      Disk.Request.on_complete req (fun () ->
          List.iter
            (fun ((p : Vm.Page.t), _) ->
              Vm.Page.set_valid p true;
              Vm.Page.unbusy p)
            mine);
      charge_io t;
      t.stats.extent_ins <- t.stats.extent_ins + 1;
      t.stats.extent_in_blocks <- t.stats.extent_in_blocks + e.blocks;
      if not sync then begin
        t.stats.ra_extents <- t.stats.ra_extents + 1;
        List.iter (fun ((p : Vm.Page.t), _) -> Vm.Page.set_prefetched p true) mine
      end;
      Disk.Blkdev.submit t.dev req;
      if sync then Disk.Request.wait t.engine req

(* write back the dirty byte range with one request per covered extent *)
let push_range t f ~from ~len =
  let rec per_extent off =
    if off < from + len then begin
      match map_lookup t f (off / bsize) with
      | None -> per_extent (off + bsize)
      | Some e ->
          (* collect consecutive dirty pages of this extent *)
          let first_blk = off / bsize in
          let last_blk = min ((from + len - 1) / bsize) (e.lbn + e.blocks - 1) in
          let pages = ref [] in
          for b = first_blk to last_blk do
            match Vm.Pool.lookup t.pool (ident f (b * bsize)) with
            | Some p
              when p.Vm.Page.valid && p.Vm.Page.dirty && not p.Vm.Page.busy ->
                pages := (p, b) :: !pages
            | Some _ | None -> ()
          done;
          (match List.rev !pages with
          | [] -> ()
          | pages ->
              let nblocks = List.length pages in
              (* gather straight from the pages: they stay locked (busy)
                 until the write lands, so their bytes cannot change *)
              List.iter
                (fun ((p : Vm.Page.t), _) -> assert (Vm.Page.try_lock p))
                pages;
              let iov =
                Sim.Iov.of_list
                  (List.map
                     (fun ((p : Vm.Page.t), _) -> (p.Vm.Page.data, 0, bsize))
                     pages)
              in
              let _, blk0 = List.hd pages in
              let sector = e.sector + ((blk0 - e.lbn) * sectors_per_block) in
              let req =
                Disk.Request.of_iov ~kind:Disk.Request.Write ~sector
                  ~count:(nblocks * sectors_per_block) iov ()
              in
              f.outstanding <- f.outstanding + nblocks;
              t.stats.push_ios <- t.stats.push_ios + 1;
              t.stats.push_blocks <- t.stats.push_blocks + nblocks;
              Disk.Request.on_complete req (fun () ->
                  f.outstanding <- f.outstanding - nblocks;
                  List.iter
                    (fun ((p : Vm.Page.t), _) ->
                      Vm.Page.set_dirty p false;
                      Vm.Page.unbusy p)
                    pages;
                  Sim.Condition.broadcast f.iodone);
              charge_io t;
              Disk.Blkdev.submit t.dev req);
          per_extent ((last_blk + 1) * bsize)
    end
  in
  per_extent (from - (from mod bsize))

let flush_delayed t f =
  if f.dirty_len > 0 then begin
    let from = f.dirty_from and len = f.dirty_len in
    f.dirty_from <- 0;
    f.dirty_len <- 0;
    push_range t f ~from ~len
  end

(* ---------- public API ---------- *)

let mk_file t name =
  t.next_vid <- t.next_vid + 1;
  {
    vid = t.next_vid;
    fname = name;
    fsize = 0;
    extents = [];
    nextr = 0;
    nextrio = 0;
    dirty_from = 0;
    dirty_len = 0;
    outstanding = 0;
    iodone = Sim.Condition.create t.engine ("efs-" ^ name);
  }

let wait_writes f =
  while f.outstanding > 0 do
    Sim.Condition.wait f.iodone
  done

let release_file t f =
  wait_writes f;
  Vm.Pool.invalidate_vnode t.pool f.vid;
  List.iter
    (fun e -> free_sectors t e.sector (e.blocks * sectors_per_block))
    f.extents;
  f.extents <- [];
  f.fsize <- 0

let creat t name =
  charge t ~label:"syscall" t.costs.Ufs.Costs.syscall;
  match Hashtbl.find_opt t.files name with
  | Some f ->
      release_file t f;
      f
  | None ->
      let f = mk_file t name in
      Hashtbl.replace t.files name f;
      f

let lookup t name =
  match Hashtbl.find_opt t.files name with
  | Some f -> f
  | None -> Vfs.Errno.raise_err Vfs.Errno.ENOENT name

let size f = f.fsize

let delete t name =
  let f = lookup t name in
  flush_delayed t f;
  release_file t f;
  Hashtbl.remove t.files name

let fsync t f =
  flush_delayed t f;
  wait_writes f

let reset_readahead t f =
  fsync t f;
  Vm.Pool.invalidate_vnode t.pool f.vid;
  f.nextr <- 0;
  f.nextrio <- 0

(* find-or-create the cache page at [off]; zero-fill fresh pages *)
let consume_prefetch t (p : Vm.Page.t) =
  if p.Vm.Page.prefetched then begin
    t.stats.ra_used_blocks <- t.stats.ra_used_blocks + 1;
    Vm.Page.set_prefetched p false
  end

let rec grab_page t f off =
  match Vm.Pool.lookup t.pool (ident f off) with
  | Some p when p.Vm.Page.busy ->
      Vm.Page.wait_unbusy t.engine p;
      grab_page t f off
  | Some p when p.Vm.Page.valid ->
      consume_prefetch t p;
      p
  | Some _ | None -> (
      match Vm.Pool.alloc t.pool (ident f off) with
      | `Fresh p ->
          charge t ~label:"getpage" t.costs.Ufs.Costs.page_setup;
          Bytes.fill p.Vm.Page.data 0 bsize '\000';
          Vm.Page.set_valid p true;
          Vm.Page.unbusy p;
          p
      | `Existing _ -> grab_page t f off)

let write t f ~off ~buf ~len =
  charge t ~label:"syscall" t.costs.Ufs.Costs.syscall;
  t.stats.write_calls <- t.stats.write_calls + 1;
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let po = o - (o mod bsize) in
    let n = min (len - !pos) (bsize - (o - po)) in
    ignore (map_ensure t f (po / bsize));
    let page = grab_page t f po in
    charge t ~label:"rdwr" (t.costs.Ufs.Costs.map_block + t.costs.Ufs.Costs.fault);
    charge t ~label:"copy" (Ufs.Costs.copy_cost t.costs ~bytes:n);
    Bytes.blit buf !pos page.Vm.Page.data (o - po) n;
    Vm.Page.set_dirty page true;
    f.fsize <- max f.fsize (o + n);
    (* delayed writes flush one extent at a time *)
    if f.dirty_len = 0 then begin
      f.dirty_from <- po;
      f.dirty_len <- bsize
    end
    else if po = f.dirty_from + f.dirty_len then f.dirty_len <- f.dirty_len + bsize
    else if po >= f.dirty_from && po < f.dirty_from + f.dirty_len then ()
    else begin
      flush_delayed t f;
      f.dirty_from <- po;
      f.dirty_len <- bsize
    end;
    if f.dirty_len >= t.extent_blocks * bsize then flush_delayed t f;
    pos := !pos + n
  done

let rec wait_valid t f po =
  match Vm.Pool.lookup t.pool (ident f po) with
  | Some p when p.Vm.Page.busy ->
      Vm.Page.wait_unbusy t.engine p;
      wait_valid t f po
  | Some p when p.Vm.Page.valid ->
      consume_prefetch t p;
      Some p
  | Some _ | None -> None

let read t f ~off ~buf ~len =
  charge t ~label:"syscall" t.costs.Ufs.Costs.syscall;
  t.stats.read_calls <- t.stats.read_calls + 1;
  let len = max 0 (min len (f.fsize - off)) in
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let po = o - (o mod bsize) in
    let n = min (len - !pos) (bsize - (o - po)) in
    charge t ~label:"rdwr" (t.costs.Ufs.Costs.map_block + t.costs.Ufs.Costs.fault);
    (match wait_valid t f po with
    | Some p ->
        charge t ~label:"copy" (Ufs.Costs.copy_cost t.costs ~bytes:n);
        Bytes.blit p.Vm.Page.data (o - po) buf !pos n;
        Vm.Page.set_referenced p true
    | None -> (
        (* miss: bring in the whole extent *)
        match map_lookup t f (po / bsize) with
        | None ->
            (* hole *)
            Bytes.fill buf !pos n '\000'
        | Some e ->
            extent_in t f e ~sync:true;
            (match wait_valid t f po with
            | Some p ->
                charge t ~label:"copy" (Ufs.Costs.copy_cost t.costs ~bytes:n);
                Bytes.blit p.Vm.Page.data (o - po) buf !pos n;
                Vm.Page.set_referenced p true
            | None -> Vfs.Errno.raise_err Vfs.Errno.EIO "efs: lost page")));
    (* extent read-ahead, with the same boundary trigger the paper gave
       UFS: when the access reaches the last prefetched extent, fetch
       the one after it *)
    (if po = f.nextrio then
       match map_lookup t f (po / bsize) with
       | Some e -> (
           let next_lbn = e.lbn + e.blocks in
           match map_lookup t f next_lbn with
           | Some nxt ->
               extent_in t f nxt ~sync:false;
               f.nextrio <- next_lbn * bsize
           | None -> ())
       | None -> ());
    f.nextr <- po + bsize;
    pos := !pos + n
  done;
  len


let extent_count f = List.length f.extents
