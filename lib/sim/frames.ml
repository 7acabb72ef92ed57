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
