type features = {
  clustering : bool;
  free_behind : bool;
  write_limit : int option;
  bmap_cache : bool;
  small_in_inode : bool;
  getpage_hint : bool;
  skip_bmap_if_no_holes : bool;
  ordered_metadata : bool;
}

let write_limit_default = 240 * 1024

let features_sunos41 =
  {
    clustering = false;
    free_behind = false;
    write_limit = None;
    bmap_cache = false;
    small_in_inode = false;
    getpage_hint = false;
    skip_bmap_if_no_holes = false;
    ordered_metadata = false;
  }

let features_clustered =
  {
    clustering = true;
    free_behind = true;
    write_limit = Some write_limit_default;
    bmap_cache = false;
    small_in_inode = false;
    getpage_hint = false;
    skip_bmap_if_no_holes = false;
    ordered_metadata = false;
  }

type stats = {
  mutable getpage_calls : int;
  mutable getpage_hits : int;
  mutable pgin_ios : int;
  mutable pgin_blocks : int;
  mutable ra_ios : int;
  mutable ra_blocks : int;
  mutable ra_streams : int;
  mutable ra_stream_hits : int;
  mutable ra_shrinks : int;
  mutable flush_runs : int;
  mutable putpage_calls : int;
  mutable delayed_pages : int;
  mutable push_ios : int;
  mutable push_blocks : int;
  mutable freebehind_pages : int;
  mutable freebehind_suppressed : int;
  mutable ra_used_blocks : int;
  mutable bmap_calls : int;
  mutable bmap_cache_hits : int;
  mutable block_allocs : int;
  mutable frag_allocs : int;
  mutable cg_switches : int;
  mutable wlimit_sleeps : int;
  mutable idata_reads : int;
  read_call_us : Sim.Stats.Summary.t;
  write_call_us : Sim.Stats.Summary.t;
  pgin_wait_us : Sim.Stats.Summary.t;
  read_io_blocks : Sim.Stats.Hist.t;
  push_io_blocks : Sim.Stats.Hist.t;
}

let mk_stats () =
  {
    getpage_calls = 0;
    getpage_hits = 0;
    pgin_ios = 0;
    pgin_blocks = 0;
    ra_ios = 0;
    ra_blocks = 0;
    ra_streams = 0;
    ra_stream_hits = 0;
    ra_shrinks = 0;
    flush_runs = 0;
    putpage_calls = 0;
    delayed_pages = 0;
    push_ios = 0;
    push_blocks = 0;
    freebehind_pages = 0;
    freebehind_suppressed = 0;
    ra_used_blocks = 0;
    bmap_calls = 0;
    bmap_cache_hits = 0;
    block_allocs = 0;
    frag_allocs = 0;
    cg_switches = 0;
    wlimit_sleeps = 0;
    idata_reads = 0;
    read_call_us = Sim.Stats.Summary.create ();
    write_call_us = Sim.Stats.Summary.create ();
    pgin_wait_us = Sim.Stats.Summary.create ();
    read_io_blocks = Sim.Stats.Hist.create ();
    push_io_blocks = Sim.Stats.Hist.create ();
  }

(* The page cache over one block device, as Io's page-ins and pushes
   see a file system: a UFS mount keeps one in [fs.pager], an EFS volume
   its own. *)
type pager = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  costs : Costs.t;
  pool : Vm.Pool.t;
  dev : Disk.Blkdev.t;
  stats : stats;
  scratch : Sim.Frames.frame;
}

let mk_pager ~engine ~cpu ~costs ~pool ~dev ~stats =
  let scratch = Sim.Frames.plain (Bytes.create Layout.bsize) in
  { engine; cpu; costs; pool; dev; stats; scratch }

(* A file's writes in flight: the bytes fsync waits out, the condition
   their completions signal, and the paper's write-limit semaphore with
   its per-push cap. *)
type writes = {
  mutable pending : int;
  iodone : Sim.Condition.t;
  wlimit : (Sim.Semaphore.t * int) option;
}

let mk_writes engine ~name ~limit =
  {
    pending = 0;
    iodone = Sim.Condition.create engine ("iodone-" ^ name);
    wlimit =
      Option.map
        (fun n -> (Sim.Semaphore.create engine ("wlimit-" ^ name) n, n))
        limit;
  }

type inode = {
  inum : int;
  mutable kind : Dinode.kind;
  mutable nlink : int;
  mutable size : int;
  mutable blocks : int;
  mutable gen : int;
  db : int array;
  ib : int array;
  mutable immediate : string;
  rs : Rstream.t;
  run : Wrun.t;
  writes : writes;
  mutable bmap_cache : (int * int * int) option;
  mutable idata : bytes option;
  ilock : Sim.Mutex.t;
  dlock : Sim.Mutex.t;
  mutable vnode : Vfs.Vnode.t option;
  mutable meta_dirty : bool;
  mutable refcnt : int;
}

(* Write-ahead intent-journal state; data only — the operations live in
   the Wal module (above, since it needs inode images).

   The unit of consistency is the *operation* (one namespace update,
   one block allocation, one truncate): records accumulate in an
   op-local buffer and enter the shared open transaction atomically at
   op end, together with the images of every inode the op touched.  The
   engine only context-switches at sleep points, so that hand-off is
   indivisible — no commit can ever capture half an operation. *)
type wal_op = {
  op_id : int;
  mutable op_recs : bytes list;  (* this op's records, newest first *)
  mutable op_inodes : (int * inode) list;  (* touched inodes, deduped *)
  mutable op_pins : int list;  (* frags freed by this op *)
  mutable op_meta : int list;  (* metabuf frags this op made unstable *)
  mutable op_pushes : (inode * int) list;
      (* directory pages dirtied by this op, pushed only after the
         op's transaction commits (write-ahead for the page cache) *)
}

type wal = {
  wj : Jrnl.t;
  w_lock : Sim.Mutex.t;
      (* serialises log commits: a later entry must not become durable
         while an earlier one is still in flight, or a crash would
         discard both at the sequence break after the later entry's
         caller was already told it was durable *)
  w_ckpt_lock : Sim.Mutex.t;  (* one checkpoint at a time *)
  w_ops : (int, wal_op) Hashtbl.t;  (* open operations by id *)
  mutable w_next_op : int;
  w_pinned : (int, int) Hashtbl.t;
      (* frag -> pin count: fragments freed by a not-yet-committed
         free record, barred from reallocation — data writes are
         unlogged and land in place immediately, so reuse before the
         free commits would let a crash resurrect old committed
         metadata pointing at overwritten bytes *)
  mutable w_txn_pins : int list;  (* pins released when the txn commits *)
  w_unstable : (int, int) Hashtbl.t;
      (* metabuf frag -> open-op refs: blocks whose cached content
         includes an unfinished op's mutations; the metabuf pre-write
         hook refuses to write them in place (invariant W1) *)
  w_active : (int, int) Hashtbl.t;
      (* inum -> open-op refs: pageout and putpage skip these inodes'
         pages so a dirty directory page cannot reach the disk before
         its operation's records do *)
  w_idle : Sim.Condition.t;  (* signalled when w_ops drains empty *)
  mutable w_stalled : bool;  (* checkpoint quiesce: new ops wait *)
  w_resume : Sim.Condition.t;
  mutable w_kick : unit -> unit;
      (* set by mount: schedule an asynchronous sync/checkpoint when
         the log runs low (cannot run inline — the committer may hold
         locks the checkpoint needs) *)
  mutable w_push : inode -> int -> unit;
      (* set by mount: asynchronous page push, for op_pushes *)
  mutable w_txns : int;  (* transactions committed *)
  mutable w_barrier_commits : int;  (* forced by in-place meta writes *)
  mutable w_pin_commits : int;  (* forced to unpin frags under ENOSPC *)
  mutable w_ckpt_waits : int;  (* ops delayed by a checkpoint quiesce *)
  mutable w_stall_commits : int;  (* commits delayed by a quiesce *)
}

type fs = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  dev : Disk.Blkdev.t;
  pool : Vm.Pool.t;
  sb : Superblock.t;
  cgs : Cg.t array;
  feat : features;
  costs : Costs.t;
  metabuf : Metabuf.t;
  icache : (int, inode) Hashtbl.t;
  alloc_lock : Sim.Mutex.t;
  iget_lock : Sim.Mutex.t;
  resv : (int, int * int) Hashtbl.t;
  stats : stats;
  mutable wal : wal option;  (** intent journal, when the volume has one *)
  pager : pager;  (** the fields above, as page I/O takes them *)
}

let reset_rstreams (ip : inode) = Rstream.reset ip.rs

let mk_inode fs ~inum (d : Dinode.t) =
  {
    inum;
    kind = d.Dinode.kind;
    nlink = d.Dinode.nlink;
    size = d.Dinode.size;
    blocks = d.Dinode.blocks;
    gen = d.Dinode.gen;
    db = Array.copy d.Dinode.db;
    ib = Array.copy d.Dinode.ib;
    immediate = d.Dinode.immediate;
    rs = Rstream.create ();
    run = Wrun.create ();
    writes =
      mk_writes fs.engine ~name:(string_of_int inum)
        ~limit:fs.feat.write_limit;
    bmap_cache = None;
    idata = None;
    ilock = Sim.Mutex.create fs.engine (Printf.sprintf "inode-%d" inum);
    dlock = Sim.Mutex.create fs.engine (Printf.sprintf "dir-%d" inum);
    vnode = None;
    meta_dirty = false;
    refcnt = 0;
  }

let to_dinode (ip : inode) =
  let d = Dinode.empty () in
  d.Dinode.kind <- ip.kind;
  d.Dinode.nlink <- ip.nlink;
  d.Dinode.size <- ip.size;
  d.Dinode.blocks <- ip.blocks;
  d.Dinode.gen <- ip.gen;
  Array.blit ip.db 0 d.Dinode.db 0 Layout.ndaddr;
  Array.blit ip.ib 0 d.Dinode.ib 0 2;
  d.Dinode.immediate <- ip.immediate;
  d

let cluster_bytes fs = fs.sb.Superblock.maxcontig * Layout.bsize
let charge fs ~label d = Sim.Cpu.charge fs.cpu ~label d

let rootino = 2
