(** The NFS server: a pool of [nfsd] worker processes serving a mounted
    UFS to several client links.

    One dispatcher process per link receives calls and appends them to
    a single FIFO request queue; [nfsd] workers pop and execute them
    against the file system, so the pool size bounds how many disk
    operations the server overlaps — exactly the knob the [nfsscale]
    bench sweeps.

    Retransmitted requests are filtered by a {e duplicate-request
    cache} keyed by (client, xid).  Non-idempotent ops (CREATE, WRITE)
    are cached: a duplicate of a completed one replays the saved reply
    without re-applying, and a duplicate of one still executing is
    dropped (the client will retry).  Idempotent ops are simply
    re-executed, as real nfsds do.

    File handles are inode numbers; the server pins each handed-out
    inode with one reference for its lifetime. *)

type t

val create :
  Sim.Engine.t ->
  cpu:Sim.Cpu.t ->
  fs:Ufs.Types.fs ->
  ?nfsd:int ->
  ?dup_cache_size:int ->
  endpoints:Proto.msg Net.endpoint list ->
  unit ->
  t
(** Start dispatchers and workers.  [nfsd] defaults to 4 workers,
    [dup_cache_size] to 256 retained non-idempotent replies {e per
    client link} — the cache is shared, and an entry evicted before the
    last retransmit of its call arrives is a duplicate apply waiting to
    happen, so the default scales with the endpoint count. *)

val root_fh : Proto.fh
(** The exported root directory. *)

val crash : t -> unit
(** Power-fail the server {e process}: incoming calls are dropped on
    the floor (clients see a dead wire and retransmit), the request
    queue and the file-handle table vanish.  Replies for calls already
    executing are suppressed — their effects may be on disk, but the
    client never hears so.  The dup cache is volatile too: it is reset
    by {!restart}, which is what opens NFSv2's non-idempotent replay
    window across a reboot.  Pair with a disk-level crash
    ({!Disk.Blkdev.crash_cut}) for a whole-machine power cut. *)

val restart : t -> fs:Ufs.Types.fs -> unit
(** Bring the server back up over a freshly recovered and remounted
    file system, with an {e empty} dup cache.  Raises [Invalid_argument]
    unless {!crash} came first. *)

val is_down : t -> bool

val restarts : t -> int
(** Completed crash/restart cycles. *)

val applied : t -> string -> int
(** How many times an op (one of {!Proto.op_names}) was actually
    {e executed} against the file system — the duplicate-apply
    detector: with the dup cache working, [applied t "write"] equals the
    number of distinct WRITE xids the clients issued, however lossy the
    links. *)

type stats = {
  mutable received : int;  (** calls arriving off the links *)
  mutable dup_hits : int;  (** duplicates answered from the cache *)
  mutable dup_busy_drops : int;  (** duplicates of in-progress ops *)
  mutable dup_evictions : int;
  queue_wait_us : Sim.Stats.Summary.t;  (** arrival -> worker pickup *)
}

val stats : t -> stats

val service_us : t -> string -> Sim.Stats.Summary.t
(** Per-op execution-time summary (dup-cache replays excluded). *)

val register_metrics : t -> Sim.Metrics.t -> instance:string -> unit
(** Register per-op applied counts and service summaries, queue wait
    and dup-cache counters as an ["nfs"] source. *)
