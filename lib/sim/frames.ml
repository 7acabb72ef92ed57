type t = {
  size : int;
  mutable free : bytes list;
  mutable taken : int;
  mutable reused : int;
}

let create ~size = { size; free = []; taken = 0; reused = 0 }
let size t = t.size

let take t =
  t.taken <- t.taken + 1;
  match t.free with
  | b :: rest ->
      t.free <- rest;
      t.reused <- t.reused + 1;
      b
  | [] -> Bytes.create t.size

let give t b = if Bytes.length b = t.size then t.free <- b :: t.free
let free_list t = t.free
let taken t = t.taken
let reused t = t.reused

type frame = { bytes : bytes; mutable holders : int }

let wrap b = { bytes = b; holders = 1 }
let frame t = wrap (take t)
let plain b = { bytes = b; holders = -1 }
let empty = plain Bytes.empty

let hold f =
  if f.holders > 0 then f.holders <- f.holders + 1
  else if f.holders = 0 then invalid_arg "Frames.hold: frame given back"

let release t f =
  if f.holders > 1 then f.holders <- f.holders - 1
  else if f.holders = 1 then begin
    f.holders <- 0;
    give t f.bytes
  end
  else if f.holders = 0 then invalid_arg "Frames.release: frame given back"

let shared f = f.holders <> 1
