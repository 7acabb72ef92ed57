let chunk_bytes = 8192

(* Chunks by index.  Indices are dense from 0, so the index itself is
   a collision-free hash; nothing depends on the table's order ([save]
   sorts). *)
module Chunks = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash ci = ci
end)

(* Each chunk is a frame the store holds once.  A chunk with other
   holders (a page that borrowed or lent it, a message that carries it)
   is never written in place (DESIGN.md, "Buffer ownership"). *)
type t = {
  size : int;
  chunks : Sim.Frames.frame Chunks.t;
  mutable adopted : int;
  mutable recycled : int;
}

let create ~size =
  if size <= 0 then invalid_arg "Store.create: size must be positive";
  { size; chunks = Chunks.create 1024; adopted = 0; recycled = 0 }

let size t = t.size

let check t off len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Store: access [%d,%d) outside [0,%d)" off (off + len)
         t.size)

let read t ~off ~len dst dst_off =
  check t off len;
  let pos = ref off and remaining = ref len and d = ref dst_off in
  while !remaining > 0 do
    let ci = !pos / chunk_bytes in
    let coff = !pos mod chunk_bytes in
    let n = min !remaining (chunk_bytes - coff) in
    (match Chunks.find_opt t.chunks ci with
    | Some c -> Bytes.blit c.Sim.Frames.bytes coff dst !d n
    | None -> Bytes.fill dst !d n '\000');
    pos := !pos + n;
    d := !d + n;
    remaining := !remaining - n
  done

(* A copy of a shared chunk comes from [frames] when there is one; the
   flat path (mkfs, the journal, recovery, a request not tagged [lend])
   has none, and copies into a fresh frame. *)
let write_in frames t ~off ~len src src_off =
  check t off len;
  let pos = ref off and remaining = ref len and s = ref src_off in
  while !remaining > 0 do
    let ci = !pos / chunk_bytes in
    let coff = !pos mod chunk_bytes in
    let n = min !remaining (chunk_bytes - coff) in
    (match Chunks.find_opt t.chunks ci with
    | Some c when Sim.Frames.shared c ->
        (* someone else may read [c]: write a copy of it instead *)
        let c' =
          match frames with
          | Some fr -> Sim.Frames.frame fr
          | None -> Sim.Frames.wrap (Bytes.create chunk_bytes)
        in
        Bytes.blit c.Sim.Frames.bytes 0 c'.Sim.Frames.bytes 0 chunk_bytes;
        Bytes.blit src !s c'.Sim.Frames.bytes coff n;
        Chunks.replace t.chunks ci c';
        Option.iter (fun fr -> Sim.Frames.release fr c) frames
    | Some c -> Bytes.blit src !s c.Sim.Frames.bytes coff n
    | None ->
        (* a write over the whole chunk leaves no byte to zero *)
        let c =
          if n = chunk_bytes then Bytes.create chunk_bytes
          else Bytes.make chunk_bytes '\000'
        in
        Bytes.blit src !s c coff n;
        Chunks.add t.chunks ci (Sim.Frames.wrap c));
    pos := !pos + n;
    s := !s + n;
    remaining := !remaining - n
  done

let write t = write_in None t

(* The index of the chunk that a whole, chunk-aligned 8 KB segment
   [(b, boff, n)] at store byte [pos] coincides with, or -1. *)
let whole_chunk pos b boff n =
  if n = chunk_bytes && boff = 0 && Bytes.length b = chunk_bytes
     && pos mod chunk_bytes = 0
  then pos / chunk_bytes
  else -1

let readv ?(lend = false) t ~off iov =
  check t off (Sim.Iov.length iov);
  let pos = ref off in
  Sim.Iov.iter
    (fun b boff n ->
      let ci = if lend then whole_chunk !pos b boff n else -1 in
      (match if ci < 0 then None else Chunks.find_opt t.chunks ci with
      | Some c -> Sim.Iov.swap iov ~off:(!pos - off) c
      | None -> read t ~off:!pos ~len:n b boff);
      pos := !pos + n)
    iov

(* Hold [f] as chunk [ci], then drop the chunk it displaces: its last
   holder gives it back to the frame pool. *)
let adopt t frames ci (f : Sim.Frames.frame) =
  match Chunks.find_opt t.chunks ci with
  | Some old when old == f -> t.adopted <- t.adopted + 1
  | old ->
      Sim.Frames.hold f;
      Chunks.replace t.chunks ci f;
      t.adopted <- t.adopted + 1;
      Option.iter
        (fun old ->
          Sim.Frames.release frames old;
          if old.Sim.Frames.holders = 0 then t.recycled <- t.recycled + 1)
        old

let writev ?lend t ~off iov =
  check t off (Sim.Iov.length iov);
  let pos = ref off in
  Sim.Iov.iter_frames
    (fun f boff n ->
      let b = f.Sim.Frames.bytes in
      (match lend with
      | Some frames when whole_chunk !pos b boff n >= 0 ->
          adopt t frames (!pos / chunk_bytes) f
      | _ -> write_in lend t ~off:!pos ~len:n b boff);
      pos := !pos + n)
    iov

let chunks_allocated t = Chunks.length t.chunks
let chunks_adopted t = t.adopted
let chunks_recycled t = t.recycled
let iter_chunks g t =
  Chunks.iter (fun ci c -> g (ci * chunk_bytes) c.Sim.Frames.bytes) t.chunks

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Chunks.fold (fun k v acc -> (k, v) :: acc) t.chunks []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (ci, (c : Sim.Frames.frame)) ->
             seek_out oc (ci * chunk_bytes);
             output_bytes oc c.bytes);
      (* pin the file length to the full device size *)
      if pos_out oc < t.size then begin
        seek_out oc (t.size - 1);
        output_char oc '\000'
      end)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fsize = in_channel_length ic in
      let t = create ~size:fsize in
      let buf = Bytes.create chunk_bytes in
      let nchunks = (fsize + chunk_bytes - 1) / chunk_bytes in
      for ci = 0 to nchunks - 1 do
        let n = min chunk_bytes (fsize - (ci * chunk_bytes)) in
        really_input ic buf 0 n;
        if n < chunk_bytes then Bytes.fill buf n (chunk_bytes - n) '\000';
        if not (Bytes.for_all (fun c -> c = '\000') buf) then
          Chunks.replace t.chunks ci
            (Sim.Frames.wrap (Bytes.sub buf 0 chunk_bytes))
      done;
      t)

let copy_into src dst =
  if src.size <> dst.size then invalid_arg "Store.copy_into: size mismatch";
  (* [dst]'s chunks are dropped uncounted: a holder elsewhere keeps its
     frame, and the GC collects the rest *)
  Chunks.reset dst.chunks;
  Chunks.iter
    (fun k (c : Sim.Frames.frame) ->
      Chunks.replace dst.chunks k (Sim.Frames.wrap (Bytes.copy c.bytes)))
    src.chunks
