type file = Workload.Iobench.file = {
  read : off:int -> buf:bytes -> len:int -> int;
  write : off:int -> buf:bytes -> len:int -> unit;
  fsync : unit -> unit;
  cold : unit -> unit;
  close : unit -> unit;
}

type t = { engine : Sim.Engine.t; prepare : job:int -> Spec.t -> file }

(* A shared file is one file every job opens; private files carry the
   job number in their name. *)
let job_name (s : Spec.t) ~job =
  if s.Spec.share then s.Spec.file
  else Printf.sprintf "%s.%d" s.Spec.file job

(* Write [bytes] of deterministic contents in cluster-sized chunks —
   setup, not measurement, but still simulated I/O (the file must be
   laid out on the disk like any other). *)
let prewrite (s : Spec.t) ~job ~bytes (file : file) =
  let chunk = 64 * 1024 in
  let buf = Bytes.create chunk in
  let off = ref 0 in
  while !off < bytes do
    let n = min chunk (bytes - !off) in
    Stream.fill s ~job ~off:!off buf ~len:n;
    file.write ~off:!off ~buf ~len:n;
    off := !off + n
  done;
  file.fsync ()

(* Every job of a private-file spec creates and lays out its own file;
   with [share] job 0 prewrites the whole span once (jobs are prepared
   in order) and the rest just open it — they must not truncate what
   job 0 built.  A prewritten file starts cold on the caches the target
   controls: on a remote target that is the client cache, while the
   server's page cache stays warm — it is the mount's second-level
   cache, part of what NFS runs measure. *)
let open_job (io : Workload.Iobench.target) (s : Spec.t) ~job =
  let first = (not s.Spec.share) || job = 0 in
  let file = io.open_file ~create:first ("/" ^ job_name s ~job) in
  if first && Stream.needs_data s then begin
    prewrite s ~job ~bytes:(Spec.span s) file;
    file.cold ()
  end;
  file

let local (m : Clusterfs.Machine.t) =
  let io = Workload.Iobench.local m.Clusterfs.Machine.fs in
  { engine = io.engine; prepare = (fun ~job s -> open_job io s ~job) }

let remote (topo : Clusterfs.Topology.t) =
  let clients = topo.Clusterfs.Topology.clients in
  let n = Array.length clients in
  let nsrv = Clusterfs.Topology.nservers topo in
  let prepare ~job (s : Spec.t) =
    (* a shared file lives behind one mount: all its jobs go through
       the same client cache, like processes sharing a kernel — and on
       one server, the one the namespace hash assigns the path.
       Private files round-robin over servers as well as clients, so a
       numjobs=8 spec on a 2-server fleet loads both machines *)
    let c = clients.((if s.Spec.share then 0 else job) mod n) in
    let mount =
      if s.Spec.share then Clusterfs.Topology.shard topo c (job_name s ~job)
      else Clusterfs.Topology.mount_of c ~server:(job mod nsrv)
    in
    open_job (Workload.Iobench.remote mount) s ~job
  in
  { engine = Clusterfs.Topology.engine topo; prepare }
