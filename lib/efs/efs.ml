let bsize = Ufs.Layout.bsize
let sectors_per_block = bsize / 512

type extent = { lbn : int; sector : int; blocks : int }

type file = {
  vid : int;
  mutable fname : string;
  mutable fsize : int;
  mutable extents : extent list; (* ascending lbn *)
  mutable nextrio : int; (* start of the last prefetched extent, bytes *)
  run : Ufs.Wrun.t; (* delayed writes, pushed an extent at a time *)
  writes : Ufs.Types.writes;
}

type t = {
  pg : Ufs.Types.pager;
      (* page cache, device and CPU; its stats count the extent reads,
         read-ahead and pushes *)
  extent_blocks : int;
  files : (string, file) Hashtbl.t;
  mutable next_vid : int;
  (* first-fit free list of (sector, sectors), ascending *)
  mutable free : (int * int) list;
  mutable read_calls : int;
  mutable write_calls : int;
  mutable extent_allocs : int;
}

let charge t ~label d = Sim.Cpu.charge t.pg.cpu ~label d

let create engine cpu pool dev ~extent_kb ?(costs = Ufs.Costs.default) () =
  if extent_kb <= 0 || extent_kb * 1024 mod bsize <> 0 then
    invalid_arg "Efs.create: extent size must be a positive multiple of 8KB";
  let total_sectors = Disk.Blkdev.capacity_bytes dev / 512 in
  {
    pg =
      Ufs.Types.mk_pager ~engine ~cpu ~costs ~pool ~dev
        ~stats:(Ufs.Types.mk_stats ());
    extent_blocks = extent_kb * 1024 / bsize;
    files = Hashtbl.create 64;
    next_vid = 1_000_000 (* clear of any UFS inode numbers on the pool *);
    free = [ (0, total_sectors) ];
    read_calls = 0;
    write_calls = 0;
    extent_allocs = 0;
  }

let register_metrics t reg ~instance =
  Sim.Metrics.register reg ~layer:"efs" ~instance (fun () ->
      let s = t.pg.stats in
      Sim.Metrics.
        [
          ("read_calls", Int t.read_calls);
          ("write_calls", Int t.write_calls);
          ("extent_ins", Int (s.pgin_ios + s.ra_ios));
          ("extent_in_blocks", Int (s.pgin_blocks + s.ra_blocks));
          ("ra_extents", Int s.ra_ios);
          ("ra_used_blocks", Int s.ra_used_blocks);
          ("push_ios", Int s.push_ios);
          ("push_blocks", Int s.push_blocks);
          ("extent_allocs", Int t.extent_allocs);
          ("files", Int (Hashtbl.length t.files));
          ("free_segments", Int (List.length t.free));
        ])

(* ---------- extent allocation (first fit) ---------- *)

let alloc_sectors t n =
  charge t ~label:"alloc" t.pg.costs.alloc_block;
  t.extent_allocs <- t.extent_allocs + 1;
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

(* read the whole extent [e] into the cache with one request *)
let extent_in t f (e : extent) ~sync =
  Ufs.Io.page_in t.pg ~vid:f.vid ~off:(e.lbn * bsize) ~sector:e.sector
    ~bytes:(e.blocks * bsize) ~sync ~read_ahead:(not sync)

let pushable t f b =
  match Vm.Pool.lookup t.pg.pool (ident f (b * bsize)) with
  | Some p when p.Vm.Page.valid && p.Vm.Page.dirty && not p.Vm.Page.busy ->
      Some p
  | Some _ | None -> None

(* write back the dirty byte range: one request per run of consecutive
   dirty pages inside an extent *)
let push_range t f ~off ~len =
  let last = (off + len - 1) / bsize in
  let rec per_extent b =
    if b <= last then
      match map_lookup t f b with
      | None -> per_extent (b + 1)
      | Some e ->
          let stop = min last (e.lbn + e.blocks - 1) in
          let rec collect b acc =
            match if b <= stop then pushable t f b else None with
            | Some p -> collect (b + 1) (p :: acc)
            | None -> (b, List.rev acc)
          in
          (* block [next] ends the run: past [stop], or not pushable *)
          let rec runs b =
            if b <= stop then begin
              let next, pages = collect b [] in
              if pages <> [] then
                Ufs.Io.push_pages t.pg f.writes pages
                  ~sector:(e.sector + ((b - e.lbn) * sectors_per_block))
                  ~bytes:((next - b) * bsize) ~sync:false ~free_after:false
                  ~throttle:false ~locked:false ();
              runs (next + 1)
            end
          in
          runs b;
          per_extent (stop + 1)
  in
  per_extent (off / bsize)

let flush_delayed t f = Ufs.Wrun.flush f.run push_range t f

(* ---------- public API ---------- *)

let mk_file t name =
  t.next_vid <- t.next_vid + 1;
  {
    vid = t.next_vid;
    fname = name;
    fsize = 0;
    extents = [];
    nextrio = 0;
    run = Ufs.Wrun.create ();
    writes =
      Ufs.Types.mk_writes t.pg.engine ~name:("efs-" ^ name) ~limit:None;
  }

let release_file t f =
  Ufs.Io.wait_writes t.pg f.writes;
  Vm.Pool.invalidate_vnode t.pg.pool f.vid;
  List.iter
    (fun e -> free_sectors t e.sector (e.blocks * sectors_per_block))
    f.extents;
  f.extents <- [];
  f.fsize <- 0

let creat t name =
  charge t ~label:"syscall" t.pg.costs.syscall;
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
  Ufs.Io.wait_writes t.pg f.writes

let reset_readahead t f =
  fsync t f;
  Vm.Pool.invalidate_vnode t.pg.pool f.vid;
  f.nextrio <- 0

let write t f ~off ~buf ~len =
  charge t ~label:"syscall" t.pg.costs.syscall;
  t.write_calls <- t.write_calls + 1;
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let po = o - (o mod bsize) in
    let n = min (len - !pos) (bsize - (o - po)) in
    ignore (map_ensure t f (po / bsize));
    let page = Ufs.Io.grab_page t.pg ~vid:f.vid ~off:po in
    charge t ~label:"rdwr" (t.pg.costs.map_block + t.pg.costs.fault);
    charge t ~label:"copy" (Ufs.Costs.copy_cost t.pg.costs ~bytes:n);
    (* a pushed or paged-in block shares its frame with the store *)
    Vm.Page.own (Sim.Engine.frames t.pg.engine) page;
    Bytes.blit buf !pos page.Vm.Page.data (o - po) n;
    Vm.Page.set_dirty page true;
    f.fsize <- max f.fsize (o + n);
    (* delayed writes flush one extent at a time *)
    Ufs.Wrun.add f.run ~off:po ~cap:(t.extent_blocks * bsize) push_range t f;
    pos := !pos + n
  done

let rec wait_valid t f po =
  match Vm.Pool.lookup t.pg.pool (ident f po) with
  | Some p when p.Vm.Page.busy ->
      Vm.Page.wait_unbusy t.pg.engine p;
      wait_valid t f po
  | Some p when p.Vm.Page.valid ->
      Ufs.Io.consume_prefetch t.pg.stats p;
      Some p
  | Some _ | None -> None

let read t f ~off ~buf ~len =
  charge t ~label:"syscall" t.pg.costs.syscall;
  t.read_calls <- t.read_calls + 1;
  let len = max 0 (min len (f.fsize - off)) in
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let po = o - (o mod bsize) in
    let n = min (len - !pos) (bsize - (o - po)) in
    charge t ~label:"rdwr" (t.pg.costs.map_block + t.pg.costs.fault);
    (match wait_valid t f po with
    | Some p ->
        charge t ~label:"copy" (Ufs.Costs.copy_cost t.pg.costs ~bytes:n);
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
                charge t ~label:"copy" (Ufs.Costs.copy_cost t.pg.costs ~bytes:n);
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
    pos := !pos + n
  done;
  len


let extent_count f = List.length f.extents
