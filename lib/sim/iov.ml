type seg = { mutable frame : Frames.frame; off : int; len : int }
type t = { segs : seg array; length : int }

let empty = { segs = [||]; length = 0 }

let check_window name b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg (name ^ ": window out of range")

let of_bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  check_window "Iov.of_bytes" b off len;
  if len = 0 then empty
  else { segs = [| { frame = Frames.plain b; off; len } |]; length = len }

let of_frames l =
  let segs =
    List.filter_map
      (fun ((frame : Frames.frame), off, len) ->
        check_window "Iov.of_frames" frame.bytes off len;
        if len = 0 then None else Some { frame; off; len })
      l
    |> Array.of_list
  in
  { segs; length = Array.fold_left (fun acc s -> acc + s.len) 0 segs }

let of_list l =
  of_frames (List.map (fun (b, off, len) -> (Frames.plain b, off, len)) l)

let length t = t.length

let check_range name t off len =
  if off < 0 || len < 0 || off + len > t.length then
    invalid_arg (name ^ ": range out of bounds")

(* Index of the segment holding logical offset [off], and [off]'s
   position inside it. *)
let locate t off =
  let i = ref 0 and skip = ref off in
  while !i < Array.length t.segs && !skip >= t.segs.(!i).len do
    skip := !skip - t.segs.(!i).len;
    incr i
  done;
  (!i, !skip)

(* Call [f frame frame_off n pos] on each piece of the logical window
   [off, off+len), where [pos] is the piece's offset in the window. *)
let walk t ~off ~len f =
  let i, skip = locate t off in
  let i = ref i and skip = ref skip and pos = ref 0 in
  while !pos < len do
    let s = t.segs.(!i) in
    let n = min (len - !pos) (s.len - !skip) in
    f s.frame (s.off + !skip) n !pos;
    pos := !pos + n;
    skip := 0;
    incr i
  done

let sub t ~off ~len =
  check_range "Iov.sub" t off len;
  if off = 0 && len = t.length then t
  else begin
    let acc = ref [] in
    walk t ~off ~len (fun frame off len _ ->
        acc := { frame; off; len } :: !acc);
    { segs = Array.of_list (List.rev !acc); length = len }
  end

let blit_to_bytes src src_off dst dst_off len =
  check_range "Iov.blit_to_bytes" src src_off len;
  check_window "Iov.blit_to_bytes" dst dst_off len;
  walk src ~off:src_off ~len (fun fr boff n pos ->
      Bytes.blit fr.Frames.bytes boff dst (dst_off + pos) n)

let blit_from_bytes src src_off dst dst_off len =
  check_window "Iov.blit_from_bytes" src src_off len;
  check_range "Iov.blit_from_bytes" dst dst_off len;
  walk dst ~off:dst_off ~len (fun fr boff n pos ->
      Bytes.blit src (src_off + pos) fr.Frames.bytes boff n)

let iter f t = Array.iter (fun s -> f s.frame.Frames.bytes s.off s.len) t.segs
let iter_frames f t = Array.iter (fun s -> f s.frame s.off s.len) t.segs

let hold t =
  for i = 0 to Array.length t.segs - 1 do
    Frames.hold t.segs.(i).frame
  done

let release frames t =
  for i = 0 to Array.length t.segs - 1 do
    Frames.release frames t.segs.(i).frame
  done

(* The index of the segment that is exactly the logical window
   [off, off+len) and all of its frame, or -1. *)
let whole_index t ~off ~len =
  if off < 0 || len <= 0 || off + len > t.length then -1
  else
    let i, skip = locate t off in
    let s = t.segs.(i) in
    if skip = 0 && s.off = 0 && s.len = len
       && Bytes.length s.frame.Frames.bytes = len
    then i
    else -1

let whole_frame t ~off ~len =
  let i = whole_index t ~off ~len in
  if i < 0 then None else Some t.segs.(i).frame

let whole t ~off ~len =
  let i = whole_index t ~off ~len in
  if i < 0 then None else Some t.segs.(i).frame.Frames.bytes

let frame t ~off =
  check_range "Iov.frame" t off 1;
  let i = ref 0 and skip = ref off in
  while !skip >= t.segs.(!i).len do
    skip := !skip - t.segs.(!i).len;
    incr i
  done;
  t.segs.(!i).frame

let swap t ~off (fr : Frames.frame) =
  let i = whole_index t ~off ~len:(Bytes.length fr.bytes) in
  if i < 0 then invalid_arg "Iov.swap: not a whole segment";
  t.segs.(i).frame <- fr

let to_bytes t =
  let b = Bytes.create t.length in
  blit_to_bytes t 0 b 0 t.length;
  b
