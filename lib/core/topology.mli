(** A multi-machine setup: [servers] machines (default 1) exporting
    their UFS file systems over NFS to [n] client nodes.

    Everything shares one {!Sim.Engine} (the first server machine's), so
    a topology is still a single deterministic simulation.  Each server
    is a full {!Machine} — its disk, page pool and pageout daemon behave
    exactly as in local experiments, with an {!Nfs.Server} worker pool
    on top.  Clients are light nodes: a CPU, one RPC channel {e per
    server} and an {!Nfs.Client} mount per server, but no local disk or
    UFS (their cache lives in the mounts).

    Three wirings ({!kind}):

    - {!Point_to_point} (default): each client gets a private duplex
      {!Net} link to every server — contention only at server CPUs and
      disks;
    - {!Shared_medium}: every machine is a station on one {!Net.Medium}
      Ethernet segment (server [s] = station [s], client [i] = station
      [servers + i]), so clients also contend for the wire itself;
    - {!Switched}: every machine hangs off its own full-duplex port of
      one {!Net.Switch} (same numbering as the shared medium) — the
      modern fabric, where the congestion signal is finite output-port
      buffers, not collisions.

    {b Sharding.}  With several servers the namespace is spread by a
    hash of the path ({!server_of_path}); {!shard} picks the mount a
    client should use for a file.  Which server owns a path is a pure
    function of the name, so every client agrees without coordination.

    {b Per-server congestion state.}  A client keeps exactly one
    {!Nfs.Rpc.t} per server, and that channel owns the congestion state
    toward its server (RTT estimator, RTO, AIMD window): mounts to
    different servers never share a window or an estimator.

    When a metrics sink is installed ({!Machine.with_metrics_sink}),
    the server machines, NFS services, the network and (by default)
    every client mount register themselves; instances are named
    [<config>.server] / [<config>.s<j>.server], [<config>.c<i>.link]
    (per-client links; [.link.s<j>] with several servers),
    [<config>.net] (shared medium) or [<config>.switch] plus
    [<config>(.s<j>).port] (server switch ports), and [<config>.c<i>]
    ([.c<i>.s<j>] with several servers).  Pass
    [~register_clients:false] to skip the per-client sources — at 1024
    clients they would dwarf the snapshot. *)

type kind = Point_to_point | Shared_medium | Switched

type attach =
  | Links of Nfs.Proto.msg Net.t array
      (** private duplex links, one per server *)
  | Host of Nfs.Proto.msg Net.host
      (** this client's station on the shared segment, or its switch
          port *)

type mountpoint = {
  m_server : int;  (** which server this mount points at *)
  m_rpc : Nfs.Rpc.t;
  m_mount : Nfs.Client.t;
}

type client = {
  id : int;  (** 0-based; also the RPC client id *)
  cpu : Sim.Cpu.t;
  attach : attach;
  rpc : Nfs.Rpc.t;  (** = [mounts.(0).m_rpc] *)
  mount : Nfs.Client.t;  (** = [mounts.(0).m_mount] *)
  mounts : mountpoint array;  (** one per server *)
}

type t = {
  server : Machine.t;  (** = [servers.(0)] — the 1-server API *)
  service : Nfs.Server.t;  (** = [services.(0)] *)
  servers : Machine.t array;
  services : Nfs.Server.t array;
  clients : client array;
  medium : Nfs.Proto.msg Net.Medium.t option;
      (** the shared segment, when [kind] was {!Shared_medium} *)
  switch : Nfs.Proto.msg Net.Switch.t option;
      (** the fabric, when [kind] was {!Switched} *)
  srv_ports : Nfs.Proto.msg Net.Switch.port array option;
      (** the servers' switch ports, when [kind] was {!Switched} *)
  crashed : Disk.Store.t option array;
      (** platter images latched by {!crash_server}, consumed by
          {!reboot_server}; indexed by server *)
}

val client_link : client -> Nfs.Proto.msg Net.t option
(** The client's private link to server 0 ([None] on a shared medium or
    switch). *)

val client_drops : t -> client -> int
(** Drops on the client's private links (all servers, both directions)
    or its switch uplink; 0 on a shared medium (drops there are
    per-segment — see {!medium}). *)

val medium : t -> Nfs.Proto.msg Net.Medium.t option
val switch : t -> Nfs.Proto.msg Net.Switch.t option

val create :
  ?net:Net.config ->
  ?seed:int ->
  ?topology:kind ->
  ?transport:Nfs.Rpc.transport ->
  ?nfsd:int ->
  ?biods:int ->
  ?ra_depth:int ->
  ?dirty_limit:int ->
  ?cache_pages:int ->
  ?dup_cache_size:int ->
  ?rpc_timeout:Sim.Time.t ->
  ?servers:int ->
  ?ports_buffer:int ->
  ?register_clients:bool ->
  clients:int ->
  Config.t ->
  t
(** Build [servers] (default 1) server machines from [Config.t] (mkfs +
    mount as {!Machine.create}; extra servers are named
    [<name>.s<j>] and share the first machine's engine) and attach
    [clients] nodes, each with one RPC channel and mount per server.
    [seed] (default 0) derives the fault-injection streams
    ([seed + client*servers + server] per p2p link, [seed] for a shared
    medium or switch).  [topology] picks the wiring (default
    {!Point_to_point}); [transport] the RPC retransmission strategy
    (default {!Nfs.Rpc.Fixed}).  [nfsd] sizes each server's worker pool
    (default 4) and [dup_cache_size] its duplicate-request cache (see
    {!Nfs.Server.create}); [biods], [ra_depth], [dirty_limit] and
    [cache_pages] configure each client mount (see {!Nfs.Client.mount});
    [rpc_timeout] is the initial retransmission timeout.  [ports_buffer]
    sizes the switch's per-output-port buffer in frames (default 64;
    {!Switched} only).
    [register_clients] (default true) controls per-client metrics
    registration. *)

val engine : t -> Sim.Engine.t

val nservers : t -> int

val server_of_path : t -> string -> int
(** Which server owns a path: FNV-1a hash mod server count (always 0
    with one server). *)

val shard : t -> client -> string -> Nfs.Client.t
(** The mount this client should use for this path. *)

val mount_of : client -> server:int -> Nfs.Client.t

val run_clients : t -> (client -> unit) -> unit
(** Run [f] concurrently on every client node (one simulated process
    per client), drive the engine until everything completes.  An
    exception in any client is re-raised; a client blocked forever
    raises {!Sim.Engine.Deadlock}. *)

val run : t -> (t -> 'a) -> 'a
(** Run a single driver process against the topology (the analogue of
    {!Machine.run} — use {!run_clients} for symmetric load). *)

val crash_server : ?server:int -> t -> Disk.Store.t
(** Power-fail one server machine (default 0) mid-simulation: the NFS
    service goes {e down} (incoming calls dropped, in-progress replies
    suppressed, handle table lost), the drives power-cut
    ({!Disk.Blkdev.crash_cut} — queued and in-flight writes are lost and
    tallied), and the platter image as of this instant is latched for
    {!reboot_server}.  Clients keep running: hard-mount RPCs back off
    and retransmit until the reboot.  Returns the latched image (callers
    may fsck a copy). *)

val reboot_server : ?server:int -> t -> Ufs.Recover.report
(** Bring a crashed server back: restore the latched image, replay the
    intent journal (timed — recovery time lands on the simulation clock
    like any other I/O), mount, and restart the NFS service over the new
    file system with an empty dup cache.  Requires a journaled config
    ({!Config.with_journal}).  Must run inside a simulation process
    (e.g. under {!run}). *)
