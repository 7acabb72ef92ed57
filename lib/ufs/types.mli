(** Central mutable state of a mounted UFS: the file system record, the
    in-memory inode, kernel-behaviour feature switches and statistics.
    The operation modules (Alloc, Bmap, Getpage, Putpage, Rdwr, Dir, Fs)
    are all functions over these records. *)

(** Kernel-side behaviour switches — everything the paper adds is here,
    so every experiment config is a value of this type.  On-disk tuning
    (rotdelay, maxcontig) lives in {!Superblock.t} instead, because
    that is where FFS keeps it. *)
type features = {
  clustering : bool;
      (** transfer sequential I/O in bmap-sized clusters (the paper's
          core change); off = one-block-at-a-time SunOS 4.1 behaviour *)
  free_behind : bool;  (** the page-thrashing compromise *)
  write_limit : int option;  (** per-file in-flight write bytes cap *)
  bmap_cache : bool;  (** future work: last-translation cache *)
  small_in_inode : bool;
      (** future work: serve files <= 2 KB from the in-memory inode *)
  getpage_hint : bool;
      (** future work: "random clustering" — cluster big random reads *)
  skip_bmap_if_no_holes : bool;
      (** future work: "UFS_HOLE" — skip the bmap call when the
          requested page is cached and the file has no holes *)
  ordered_metadata : bool;
      (** future work: "B_ORDER" — directory updates issue asynchronous
          {e ordered} writes instead of synchronous ones; the disk queue
          preserves their order, keeping crash consistency without
          stalling the process *)
}

val features_sunos41 : features
(** Plain SunOS 4.1: everything off (config "D"). *)

val features_clustered : features
(** The paper's shipping configuration: clustering + free-behind +
    240 KB write limit; future-work items off (config "A"). *)

val write_limit_default : int
(** 240 KB, "currently 240KB". *)

type stats = {
  mutable getpage_calls : int;
  mutable getpage_hits : int;  (** requested page already cached *)
  mutable pgin_ios : int;
  mutable pgin_blocks : int;
  mutable ra_ios : int;
  mutable ra_blocks : int;
  mutable ra_streams : int;
      (** stream windows created beyond a file's initial one: how often
          a second (third, ...) concurrent sequential reader appeared *)
  mutable ra_stream_hits : int;
      (** accesses that matched some stream window's prediction *)
  mutable ra_shrinks : int;
      (** adaptive cluster-size halvings driven by the pool's
          wasted-prefetch counter *)
  mutable flush_runs : int;
      (** multi-block (>= 2) write I/Os issued: the write-gathering
          effectiveness counter *)
  mutable putpage_calls : int;
  mutable delayed_pages : int;
  mutable push_ios : int;
  mutable push_blocks : int;
  mutable freebehind_pages : int;
  mutable freebehind_suppressed : int;
      (** reads under memory pressure past the offset threshold where
          free-behind did {e not} fire because the stream was not
          sequential — the counter that makes the FRR bug visible *)
  mutable ra_used_blocks : int;
      (** prefetched pages consumed by a later access (see
          {!Vm.Page.t.prefetched}; the wasted side is counted by the
          pool at free time) *)
  mutable bmap_calls : int;
  mutable bmap_cache_hits : int;
  mutable block_allocs : int;
  mutable frag_allocs : int;
  mutable cg_switches : int;
  mutable wlimit_sleeps : int;
  mutable idata_reads : int;  (** small-file reads served from inode *)
  read_call_us : Sim.Stats.Summary.t;  (** per-read(2) wall time *)
  write_call_us : Sim.Stats.Summary.t;  (** per-write(2) wall time *)
  pgin_wait_us : Sim.Stats.Summary.t;
      (** time a reader slept on a synchronous page-in *)
  read_io_blocks : Sim.Stats.Hist.t;
      (** issued read-I/O sizes (sync + read-ahead), in blocks: the
          clustering histogram *)
  push_io_blocks : Sim.Stats.Hist.t;  (** issued write-I/O sizes *)
}

val mk_stats : unit -> stats

(** The page cache over one block device, as {!Io.page_in} and
    {!Io.push_pages} see a file system.  A UFS mount keeps one in
    [fs.pager]; an EFS volume builds its own. *)
type pager = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;  (** charged page setup and driver costs *)
  costs : Costs.t;
  pool : Vm.Pool.t;
  dev : Disk.Blkdev.t;
  stats : stats;  (** page-in, read-ahead and push counters *)
  scratch : Sim.Frames.frame;
      (** one block that page-ins read the cached blocks of a cluster
          into: the disk transfers them anyway, and their bytes are
          never read *)
}

val mk_pager :
  engine:Sim.Engine.t -> cpu:Sim.Cpu.t -> costs:Costs.t -> pool:Vm.Pool.t ->
  dev:Disk.Blkdev.t -> stats:stats -> pager
(** A pager with a scratch block of its own. *)

(** A file's writes in flight. *)
type writes = {
  mutable pending : int;  (** in-flight write bytes *)
  iodone : Sim.Condition.t;  (** signalled as writes complete *)
  wlimit : (Sim.Semaphore.t * int) option;
      (** the paper's write-limit semaphore and its capacity, the most
          one push may hold *)
}

val mk_writes : Sim.Engine.t -> name:string -> limit:int option -> writes
(** No writes in flight; a write-limit semaphore of [limit] bytes when
    given.  [name] names the condition and the semaphore. *)

type inode = {
  inum : int;
  mutable kind : Dinode.kind;
  mutable nlink : int;
  mutable size : int;
  mutable blocks : int;  (** fragments allocated, incl. indirect blocks *)
  mutable gen : int;
  db : int array;
  ib : int array;
  mutable immediate : string;
  (* --- read clustering state (paper: nextr/nextrio, per stream) --- *)
  rs : Rstream.t;
  (* --- write clustering state (paper: delayoff, delaylen) --- *)
  run : Wrun.t;
  (* --- write limit + fsync bookkeeping --- *)
  writes : writes;
  (* --- caches --- *)
  mutable bmap_cache : (int * int * int) option;  (** lbn, frag, frags *)
  mutable idata : bytes option;  (** small-file data, when cached *)
  (* --- plumbing --- *)
  ilock : Sim.Mutex.t;
  dlock : Sim.Mutex.t;
      (** serialises name-space updates within this directory *)
  mutable vnode : Vfs.Vnode.t option;
  mutable meta_dirty : bool;  (** dinode needs writing back *)
  mutable refcnt : int;
}

(** One open journalled operation: a namespace update, a block
    allocation or a truncate.  Records accumulate here and enter the
    shared open transaction atomically at operation end (together with
    the images of every touched inode), so a commit can never capture
    half an operation. *)
type wal_op = {
  op_id : int;
  mutable op_recs : bytes list;  (** this op's records, newest first *)
  mutable op_inodes : (int * inode) list;  (** touched inodes, deduped *)
  mutable op_pins : int list;  (** frags freed by this op *)
  mutable op_meta : int list;  (** metabuf frags this op made unstable *)
  mutable op_pushes : (inode * int) list;
      (** directory pages dirtied by this op, pushed only after the
          op's transaction commits *)
}

(** Write-ahead intent-journal state (see {!Wal} for the operations).
    Lives here, data-only, so every operation module can consult it
    without a dependency cycle. *)
type wal = {
  wj : Jrnl.t;  (** the on-disk circular log *)
  w_lock : Sim.Mutex.t;  (** serialises log commits *)
  w_ckpt_lock : Sim.Mutex.t;  (** one checkpoint at a time *)
  w_ops : (int, wal_op) Hashtbl.t;  (** open operations by id *)
  mutable w_next_op : int;
  w_pinned : (int, int) Hashtbl.t;
      (** fragments freed by a not-yet-committed free record, barred
          from reallocation until the free commits: data writes are
          unlogged, so reuse before commit could overwrite bytes that
          committed metadata still references *)
  mutable w_txn_pins : int list;
      (** pins released when the open transaction commits *)
  w_unstable : (int, int) Hashtbl.t;
      (** metabuf frag -> open-op refs; the metabuf pre-write hook
          refuses to write these in place (invariant W1) *)
  w_active : (int, int) Hashtbl.t;
      (** inum -> open-op refs; putpage/pageout skip these inodes *)
  w_idle : Sim.Condition.t;  (** signalled when [w_ops] drains empty *)
  mutable w_stalled : bool;  (** checkpoint quiesce: new ops wait *)
  w_resume : Sim.Condition.t;
  mutable w_kick : unit -> unit;
      (** schedule an asynchronous checkpoint when the log runs low *)
  mutable w_push : inode -> int -> unit;
      (** asynchronous page push, for [op_pushes] *)
  mutable w_txns : int;  (** transactions committed *)
  mutable w_barrier_commits : int;
      (** commits forced by an in-place metadata write (invariant W1) *)
  mutable w_pin_commits : int;
      (** commits forced to release pinned fragments under allocation
          pressure *)
  mutable w_ckpt_waits : int;  (** ops delayed by a checkpoint quiesce *)
  mutable w_stall_commits : int;  (** commits delayed by a quiesce *)
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
      (** serialises inode-cache misses: the dinode read sleeps, and two
          processes faulting the same inode must not both instantiate it *)
  resv : (int, int * int) Hashtbl.t;
      (** advisory per-file allocation runs, inum -> (next fragment,
          limit fragment): the block allocator extends a file's current
          run preferentially and steers other files around it, so
          interleaved writers stop shredding each other's extents *)
  stats : stats;
  mutable wal : wal option;  (** intent journal, when the volume has one *)
  pager : pager;  (** [engine] to [stats] above, as page I/O takes them *)
}

val reset_rstreams : inode -> unit
(** {!Rstream.reset} of the inode's window table. *)

val mk_inode : fs -> inum:int -> Dinode.t -> inode
(** Wrap a decoded dinode, initialising clustering state ("when the
    inode is initialized, nextr is set to zero, predicting that the
    first read will be the first block of the file") and the write-limit
    semaphore when the feature is on. *)

val to_dinode : inode -> Dinode.t
(** Snapshot for writing back. *)

val cluster_bytes : fs -> int
(** [sb.maxcontig * bsize]: the desired cluster size in bytes. *)

val charge : fs -> label:string -> Sim.Time.t -> unit
(** Charge system CPU. *)

val rootino : int
(** Inode number of the root directory (2, as in FFS). *)
