(** The wire protocol: an NFSv2-shaped stateless file service.

    File handles are server inode numbers.  READ replies and WRITE
    calls carry real bytes — the data a client reads back through the
    network is the data that lives in the server's UFS image, so
    content checks (the duplicate-apply property tests) are real.
    Payloads are iovs: a WRITE borrows the client's cache pages and a
    READ reply is cut into page-sized buffers the client adopts.  Each
    copy of a message in the network holds the frames it carries, and
    its receiver drops those holds once it has used it (see DESIGN.md,
    "Buffer ownership").

    [call_size]/[reply_size] give the wire size of each message: a
    fixed RPC header plus the payload, which is what the {!Net} layer
    charges to the wire and to the sender's CPU. *)

type fh = int
(** Server inode number. *)

val root_fh : fh
(** The exported root directory (the server pins this mapping). *)

type attr = { size : int; is_dir : bool }

type call =
  | Lookup of { dir : fh; name : string }
  | Create of { dir : fh; name : string }
      (** creates or truncates, like creat(2) — deliberately
          non-idempotent so the duplicate-request cache is load-bearing *)
  | Getattr of { fh : fh }
  | Read of { fh : fh; off : int; len : int }
  | Write of { fh : fh; off : int; data : Sim.Iov.t }
  | Readdir of { fh : fh; cookie : int; count : int }
      (** one page of directory entries: up to [count] names starting
          at opaque position [cookie] (0 = from the top) *)

type reply =
  | R_fh of { fh : fh; attr : attr }  (** lookup / create *)
  | R_attr of attr  (** getattr / write *)
  | R_read of { data : Sim.Iov.t; eof : bool }
  | R_names of { names : string list; cookie : int; eof : bool }
      (** readdir page; resume from [cookie] unless [eof] *)
  | R_err of string  (** errno name *)

type meta = {
  sent_at : Sim.Time.t;  (** the server's transmit stamp *)
  cost : (string * Sim.Time.t) list;
  spans : Sim.Span.t option;
}
(** A reply's attribution metadata.  [cost] is the server's per-phase
    breakdown of the call's life: ["wire"] (the outbound leg, from the
    client's transmit stamp), ["nfsd.queue"], ["disk.*"], ["nfsd.cpu"];
    the client adds the inbound leg from [sent_at].  [spans] is the
    server-side span subtree of a traced call, grafted back into the
    caller's trace on receipt. *)

type msg =
  | Call of {
      xid : int;
      client : int;
      call : call;
      sent : Sim.Time.t;
      span : Sim.Span.ctx option;
    }
      (** [sent] is the transmit timestamp — legal out-of-band metadata
          in a simulation sharing one clock; the server uses it to
          compute outbound wire+queue time for cost attribution.
          [span] is the caller's tracing context ([None] when the call
          is untraced): the server parents its span subtree under it.
          Neither counts in {!msg_size}. *)
  | Reply of {
      xid : int;
      client : int;
      reply : reply;
      meta : meta;
    }
      (** [meta] is attribution metadata only — excluded from
          {!msg_size}, so wire timing is unchanged. *)

val header_bytes : int
(** Fixed per-message RPC/XDR framing overhead. *)

val call_size : call -> int
val reply_size : reply -> int
val msg_size : msg -> int

val call_frames : call -> Sim.Iov.t
(** The page frames a call carries: a WRITE's data, empty otherwise.
    Each copy of the call in the network holds them once. *)

val reply_frames : reply -> Sim.Iov.t
(** The page frames a reply carries: a READ's data, empty otherwise. *)

val msg_frames : msg -> Sim.Iov.t
(** {!call_frames} or {!reply_frames}: what one copy of the message
    holds, and what a copy the network drops lets go of. *)

val op_names : string list
(** All op names, in a fixed order (metrics export). *)

val nops : int
(** [List.length op_names]. *)

val op_index : call -> int
(** The position of the call's op in {!op_names}: the index of per-op
    counter arrays. *)

val index_of_name : string -> int option
(** The position of an op name in {!op_names}. *)

val per_op : string -> string array
(** [per_op prefix] is [prefix ^ name] for every op, indexed like
    {!op_index}: per-op span names made once. *)
