type fh = int

let root_fh = Ufs.Types.rootino

type attr = { size : int; is_dir : bool }

type call =
  | Lookup of { dir : fh; name : string }
  | Create of { dir : fh; name : string }
  | Getattr of { fh : fh }
  | Read of { fh : fh; off : int; len : int }
  | Write of { fh : fh; off : int; data : Sim.Iov.t }
  | Readdir of { fh : fh; cookie : int; count : int }

type reply =
  | R_fh of { fh : fh; attr : attr }
  | R_attr of attr
  | R_read of { data : Sim.Iov.t; eof : bool }
  | R_names of { names : string list; cookie : int; eof : bool }
  | R_err of string

type meta = {
  sent_at : Sim.Time.t;
  cost : (string * Sim.Time.t) list;
  spans : Sim.Span.t option;
}

type msg =
  | Call of {
      xid : int;
      client : int;
      call : call;
      sent : Sim.Time.t;
      span : Sim.Span.ctx option;
    }
  | Reply of {
      xid : int;
      client : int;
      reply : reply;
      meta : meta;
    }

(* RPC + XDR framing: credentials, verifier, program/proc numbers.
   Small against an 8 KB block, noticeable against a GETATTR. *)
let header_bytes = 128

let call_size = function
  | Lookup { name; _ } | Create { name; _ } ->
      header_bytes + 8 + String.length name
  | Getattr _ -> header_bytes + 8
  | Read _ -> header_bytes + 24
  | Write { data; _ } -> header_bytes + 24 + Sim.Iov.length data
  | Readdir _ -> header_bytes + 24

let attr_bytes = 32

let reply_size = function
  | R_fh _ -> header_bytes + 8 + attr_bytes
  | R_attr _ -> header_bytes + attr_bytes
  | R_read { data; _ } -> header_bytes + 8 + attr_bytes + Sim.Iov.length data
  | R_names { names; _ } ->
      List.fold_left
        (fun acc n -> acc + 8 + String.length n)
        (header_bytes + 12) names
  | R_err _ -> header_bytes + 4

let msg_size = function
  | Call { call; _ } -> call_size call
  | Reply { reply; _ } -> reply_size reply

let no_frames = Sim.Iov.of_frames []
let call_frames = function Write { data; _ } -> data | _ -> no_frames
let reply_frames = function R_read { data; _ } -> data | _ -> no_frames

let msg_frames = function
  | Call { call; _ } -> call_frames call
  | Reply { reply; _ } -> reply_frames reply

let op_index = function
  | Lookup _ -> 0
  | Create _ -> 1
  | Getattr _ -> 2
  | Read _ -> 3
  | Write _ -> 4
  | Readdir _ -> 5

let op_names = [ "lookup"; "create"; "getattr"; "read"; "write"; "readdir" ]
let nops = List.length op_names
let names = Array.of_list op_names

let index_of_name name =
  let rec find i = function
    | [] -> None
    | n :: rest -> if String.equal n name then Some i else find (i + 1) rest
  in
  find 0 op_names

let per_op prefix = Array.map (fun op -> prefix ^ op) names
