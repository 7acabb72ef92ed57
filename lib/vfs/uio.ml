type rw = Read | Write

type t = {
  rw : rw;
  mutable off : int;
  mutable resid : int;
  iov : Sim.Iov.t;
  mutable iov_off : int;
  frames : bool;
  mutable segs : (Sim.Frames.frame * int * int) list;
}

let of_iov ?(frames = false) ~rw ~off iov =
  if off < 0 then invalid_arg "Uio.make: negative off/len";
  {
    rw;
    off;
    resid = Sim.Iov.length iov;
    iov;
    iov_off = 0;
    frames;
    segs = [];
  }

let make ~rw ~off ~len ~buf ~buf_off =
  if off < 0 || len < 0 then invalid_arg "Uio.make: negative off/len";
  if buf_off < 0 || buf_off + len > Bytes.length buf then
    invalid_arg "Uio.make: buffer window out of range";
  of_iov ~rw ~off (Sim.Iov.of_bytes ~off:buf_off ~len buf)

let reply ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Uio.reply: negative off/len";
  let empty = Sim.Iov.of_frames [] in
  { (of_iov ~frames:true ~rw:Read ~off empty) with resid = len }

let done_ t = t.resid = 0

let advance t n =
  t.off <- t.off + n;
  t.iov_off <- t.iov_off + n;
  t.resid <- t.resid - n

let move t ~src_or_dst ~data_off ~n =
  if n < 0 || n > t.resid then invalid_arg "Uio.move: bad length";
  (match t.rw with
  | Read when t.frames ->
      let copy = Sim.Frames.plain (Bytes.sub src_or_dst data_off n) in
      t.segs <- (copy, 0, n) :: t.segs
  | Read -> Sim.Iov.blit_from_bytes src_or_dst data_off t.iov t.iov_off n
  | Write -> Sim.Iov.blit_to_bytes t.iov t.iov_off src_or_dst data_off n);
  advance t n

let give t (f : Sim.Frames.frame) =
  let n = Bytes.length f.bytes in
  if not (t.frames && t.rw = Read) || n > t.resid then
    invalid_arg "Uio.give: not a reply, or too long";
  t.segs <- (f, 0, n) :: t.segs;
  advance t n

let take t n =
  if not (t.frames && t.rw = Write) || n > t.resid then None
  else
    match Sim.Iov.whole_frame t.iov ~off:t.iov_off ~len:n with
    | Some f ->
        advance t n;
        Some f
    | None -> None

let replied t = Sim.Iov.of_frames (List.rev t.segs)
