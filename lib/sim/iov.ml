type seg = { mutable base : bytes; off : int; len : int }
type t = { segs : seg array; length : int }

let empty = { segs = [||]; length = 0 }

let check_window name b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg (name ^ ": window out of range")

let of_bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  check_window "Iov.of_bytes" b off len;
  if len = 0 then empty else { segs = [| { base = b; off; len } |]; length = len }

let of_list l =
  let segs =
    List.filter_map
      (fun (base, off, len) ->
        check_window "Iov.of_list" base off len;
        if len = 0 then None else Some { base; off; len })
      l
    |> Array.of_list
  in
  { segs; length = Array.fold_left (fun acc s -> acc + s.len) 0 segs }

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

(* Call [f base base_off n pos] on each piece of the logical window
   [off, off+len), where [pos] is the piece's offset in the window. *)
let walk t ~off ~len f =
  let i, skip = locate t off in
  let i = ref i and skip = ref skip and pos = ref 0 in
  while !pos < len do
    let s = t.segs.(!i) in
    let n = min (len - !pos) (s.len - !skip) in
    f s.base (s.off + !skip) n !pos;
    pos := !pos + n;
    skip := 0;
    incr i
  done

let sub t ~off ~len =
  check_range "Iov.sub" t off len;
  if off = 0 && len = t.length then t
  else begin
    let acc = ref [] in
    walk t ~off ~len (fun base off len _ -> acc := { base; off; len } :: !acc);
    { segs = Array.of_list (List.rev !acc); length = len }
  end

let blit_to_bytes src src_off dst dst_off len =
  check_range "Iov.blit_to_bytes" src src_off len;
  check_window "Iov.blit_to_bytes" dst dst_off len;
  walk src ~off:src_off ~len (fun base boff n pos ->
      Bytes.blit base boff dst (dst_off + pos) n)

let blit_from_bytes src src_off dst dst_off len =
  check_window "Iov.blit_from_bytes" src src_off len;
  check_range "Iov.blit_from_bytes" dst dst_off len;
  walk dst ~off:dst_off ~len (fun base boff n pos ->
      Bytes.blit src (src_off + pos) base boff n)

let iter f t = Array.iter (fun s -> f s.base s.off s.len) t.segs

let whole t ~off ~len =
  if off < 0 || len <= 0 || off + len > t.length then None
  else
    let i, skip = locate t off in
    let s = t.segs.(i) in
    if skip = 0 && s.off = 0 && s.len = len && Bytes.length s.base = len then
      Some s.base
    else None

let base t ~off =
  check_range "Iov.base" t off 1;
  let i = ref 0 and skip = ref off in
  while !skip >= t.segs.(!i).len do
    skip := !skip - t.segs.(!i).len;
    incr i
  done;
  t.segs.(!i).base

let swap t ~off b =
  let len = Bytes.length b in
  if off < 0 || len <= 0 || off + len > t.length then
    invalid_arg "Iov.swap: range out of bounds";
  let i, skip = locate t off in
  let s = t.segs.(i) in
  if skip = 0 && s.off = 0 && s.len = len && Bytes.length s.base = len then
    s.base <- b
  else invalid_arg "Iov.swap: not a whole segment"

let to_bytes t =
  let b = Bytes.create t.length in
  blit_to_bytes t 0 b 0 t.length;
  b
