(** IObench: the paper's transfer-rate benchmark (Figures 9-11).

    Five I/O types, named as in the paper: first letter F(ile system),
    second S(equential)/R(andom), third R(ead)/W(rite)/U(pdate) — "the
    difference between write and update is that in the update case the
    file's blocks have already been allocated".

    Sequential phases stream the whole file in 8 KB requests; random
    phases issue a fixed number of 8 KB requests at uniformly random
    block-aligned offsets.  Writes and updates are timed through a final
    fsync so the asynchronous queue drains inside the measured window
    (and so config "D"'s deep elevator-sorted queue shows its FRU
    advantage, as in the paper).

    Between phases the file's cached pages are invalidated and its
    read-ahead state reset, so each phase starts cold, like a separate
    benchmark run.

    The phases are written once, over a {!file} handle, and run against
    any {!target}: a local UFS mount ({!local}) or an NFS client mount
    ({!remote}).  The request stream is the same on both — same 8 KB
    requests, same seeded random offsets — so a remote/local pair of
    runs isolates exactly the cost of the network hop and what the
    client-side clustering machinery wins back.

    All functions must run inside a simulation process. *)

type kind = FSR | FSU | FSW | FRR | FRU

val kind_to_string : kind -> string

val kind_of_string : string -> (kind, string) result
(** Case-insensitive inverse of {!kind_to_string}. *)

val all_kinds : kind list
(** FSW, FSU, FSR, FRR, FRU: the order that lets each phase reuse the
    allocation state the paper assumes. *)

type config = {
  path : string;
  file_mb : int;  (** 16 MB against 8 MB of RAM in the paper's setup *)
  request_bytes : int;  (** 8192 *)
  random_ops : int;  (** requests per random phase *)
  seed : int;
}

val default_config : config

type result = {
  kind : kind;
  bytes_moved : int;
  elapsed : Sim.Time.t;
  kb_per_sec : float;
  sys_cpu : Sim.Time.t;  (** system CPU charged during the phase *)
}

type file = {
  read : off:int -> buf:bytes -> len:int -> int;
  write : off:int -> buf:bytes -> len:int -> unit;
  fsync : unit -> unit;
  cold : unit -> unit;
      (** Drop the caches the target controls, so the next phase
          starts cold.  The file must have no dirty data on a remote
          target ({!fsync} first). *)
  close : unit -> unit;
}

type target = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;  (** charged for the phase's system CPU *)
  open_file : create:bool -> string -> file;
      (** [create] truncates or makes the file; otherwise it must
          exist. *)
}

val local : Ufs.Types.fs -> target
(** Files of a mounted UFS: [creat]/[namei], {!reset_file_state} to
    start cold, [iput] on close. *)

val remote : Nfs.Client.t -> target
(** Files behind an NFS mount: CREATE/LOOKUP, {!Nfs.Client.invalidate}
    to start cold.  Elapsed time and system CPU are measured on the
    client machine.  Only the client cache goes cold; the server's page
    cache is left as it is. *)

val reset_file_state : Ufs.Types.fs -> Ufs.Types.inode -> unit
(** Push the file's delayed writes, drop its cached pages and reset its
    read-ahead state — the between-phases cold start.  Exported so the
    NFS experiments can cool the {e server's} cache between remote
    phases the way local phases cool theirs. *)

val run_phase : target -> config -> kind -> result
(** Run one phase.  FSU/FSR/FRR/FRU require the file to exist (run FSW
    first, or call {!prepare}). *)

val prepare : target -> config -> unit
(** Create and fully write the benchmark file (untimed, fsynced), and
    leave it cold, for running a single non-FSW phase in isolation. *)

val run_all : Ufs.Types.fs -> config -> result list
(** Every phase of {!all_kinds}, in order, on a local file system. *)
