(* One file's delayed-write run: the paper's delayoff/delaylen pair,
   with the cluster push of figures 7/8.  UFS, EFS and the NFS client
   each keep one per file and push it their own way. *)

let bsize = Layout.bsize

type t = { mutable off : int; mutable len : int }

let create () = { off = 0; len = 0 }
let off t = t.off
let len t = t.len
let is_empty t = t.len = 0

let reset t =
  t.off <- 0;
  t.len <- 0

let flush t push a b =
  if t.len > 0 then begin
    let off = t.off and len = t.len in
    reset t;
    push a b ~off ~len
  end

let start t off =
  t.off <- off;
  t.len <- bsize

let add t ~off ~cap push a b =
  if t.len = 0 then start t off
  else if off = t.off + t.len && t.len < cap then t.len <- t.len + bsize
  else if off >= t.off && off < t.off + t.len then ()
  else begin
    (* sequentiality assumption wrong: write out the old pages, start
       over with the current page *)
    flush t push a b;
    start t off
  end;
  if t.len >= cap then flush t push a b
