(** The client side of the mount: a vnode-ish file layer with the
    paper's clustering machinery transplanted across the wire.

    Once a network separates the reader from the disk, sequential
    detection has to move to the client: the server sees whatever
    request stream the client emits.  So the client keeps per-file
    [nextr]/[nextrio] analogues and a pool of [biod] daemons:

    - {b read-ahead}: a sequential read that misses fetches a whole
      cluster in one READ RPC and keeps [ra_depth] further clusters in
      flight through the biods, so the app copies cluster [k] while the
      wire and the server disk work on [k+1] — the client-side
      [nextrio];
    - {b write-behind gathering}: dirty pages accumulate in the file's
      delayed-write run ({!Ufs.Wrun}, the client-side
      [delayoff]/[delaylen]) and are pushed as one cluster-sized WRITE
      RPC by a biod;
    - {b dirty cap}: a write-limit-style bound on dirty + in-flight
      write bytes per mount, so one writer cannot fill the client cache
      with unpushed data;
    - {b attribute cache}: GETATTR answers are reused for 3 s.

    Overlapping WRITE pushes of one file are serialized (a retransmitted
    older write must never land after a newer one); non-overlapping
    pushes ride different biods concurrently.

    Random (non-sequential) misses fetch a single block — clustering
    must not punish random I/O, on the wire as on the disk. *)

type t

val mount :
  Sim.Engine.t ->
  cpu:Sim.Cpu.t ->
  rpc:Rpc.t ->
  ?biods:int ->
  ?ra_depth:int ->
  ?dirty_limit:int ->
  ?cache_pages:int ->
  ?costs:Ufs.Costs.t ->
  unit ->
  t
(** Defaults: 4 biods, 2 clusters of read-ahead, 240 KB dirty cap,
    1024 cached pages (8 MB).  Fixed for every mount: 120 KB clusters
    (the read-ahead and write-gather unit), a 3 s attribute TTL and 32
    directory entries requested per READDIR page. *)

val engine : t -> Sim.Engine.t

val iter_pages : t -> (string -> int -> bytes -> unit) -> unit
(** [iter_pages t f] calls [f name off frame] on every valid cached
    page: its file's name, block offset and frame (for tests). *)

val cpu : t -> Sim.Cpu.t
(** The client machine's CPU, charged for this mount's system time. *)

type file

val create : t -> string -> file
(** CREATE in the root directory (creat semantics: truncates).  Names
    are entries in the exported root; a leading ["/"] is accepted and
    stripped. *)

val lookup : t -> string -> file option

val readdir : t -> string list
(** The whole root directory, paged through the READDIR resume cookie
    32 entries at a time. *)

val size : file -> int
(** The client's view: local writes extend it immediately. *)

val getattr : file -> Proto.attr
(** Served from the attribute cache when fresh. *)

val read : file -> off:int -> buf:bytes -> len:int -> int
val write : file -> off:int -> buf:bytes -> len:int -> unit

val fsync : file -> unit
(** Push the current gather run and wait for every outstanding WRITE
    of this file to be acknowledged. *)

val invalidate : file -> unit
(** Drop the file's cached pages, predictor state and attribute cache
    entry (benchmarks use this to start phases cold).  The file must
    have no dirty pages ({!fsync} first). *)

type stats = {
  mutable read_calls : int;
  mutable write_calls : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable ra_issued : int;  (** read-ahead clusters handed to biods *)
  mutable ra_used : int;  (** prefetched pages later consumed *)
  mutable ra_streams : int;  (** read-ahead windows created beyond the first *)
  mutable ra_wasted : int;  (** prefetched pages dropped before any use *)
  mutable write_gathers : int;  (** WRITE RPCs pushed *)
  mutable dirty_sleeps : int;  (** blocked on the dirty cap *)
  mutable attr_hits : int;
  mutable attr_misses : int;
  mutable evictions : int;
  gather_bytes : Sim.Stats.Hist.t;  (** WRITE payload sizes *)
}

val stats : t -> stats

val register_metrics : t -> Sim.Metrics.t -> instance:string -> unit
(** Register cache/biod counters, gather-size histogram and the RPC
    layer's per-op counts and round-trip summaries as an ["nfs"]
    source. *)
