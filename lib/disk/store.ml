let chunk_bytes = 8192

(* Chunks by index.  Indices are dense from 0, so the index itself is
   a collision-free hash; nothing depends on the table's order ([save]
   sorts). *)
module Chunks = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash ci = ci
end)

(* [pinned] holds the index of every chunk whose frame another host
   may hold (DESIGN.md, "Buffer ownership"): such a chunk is never
   written in place and never given back to the frame pool. *)
type flat = {
  fsize : int;
  chunks : bytes Chunks.t;
  pinned : unit Chunks.t;
  mutable adopted : int;
  mutable recycled : int;
}

(* A [View] is a remapped window onto another store: the volume manager
   hands each member drive a view whose [map] sends member-physical
   offsets to logical-volume offsets, so member I/O moves real bytes in
   the one logical image that mkfs/fsck/crash all see. *)
type t =
  | Flat of flat
  | View of { vsize : int; base : t; map : int -> int * int }

let create ~size =
  if size <= 0 then invalid_arg "Store.create: size must be positive";
  Flat
    {
      fsize = size;
      chunks = Chunks.create 1024;
      pinned = Chunks.create 16;
      adopted = 0;
      recycled = 0;
    }

let size = function Flat f -> f.fsize | View v -> v.vsize

let view ~base ~size ~map =
  if size <= 0 then invalid_arg "Store.view: size must be positive";
  View { vsize = size; base; map }

let check t off len =
  if off < 0 || len < 0 || off + len > size t then
    invalid_arg
      (Printf.sprintf "Store: access [%d,%d) outside [0,%d)" off (off + len)
         (size t))

let flat_read f ~off ~len dst dst_off =
  let pos = ref off and remaining = ref len and d = ref dst_off in
  while !remaining > 0 do
    let ci = !pos / chunk_bytes in
    let coff = !pos mod chunk_bytes in
    let n = min !remaining (chunk_bytes - coff) in
    (match Chunks.find_opt f.chunks ci with
    | Some c -> Bytes.blit c coff dst !d n
    | None -> Bytes.fill dst !d n '\000');
    pos := !pos + n;
    d := !d + n;
    remaining := !remaining - n
  done

let flat_write f ~off ~len src src_off =
  let pos = ref off and remaining = ref len and s = ref src_off in
  while !remaining > 0 do
    let ci = !pos / chunk_bytes in
    let coff = !pos mod chunk_bytes in
    let n = min !remaining (chunk_bytes - coff) in
    (match Chunks.find_opt f.chunks ci with
    | Some c when Chunks.mem f.pinned ci ->
        (* another host may hold [c]: write a copy of it instead *)
        let c' = Bytes.copy c in
        Bytes.blit src !s c' coff n;
        Chunks.replace f.chunks ci c';
        Chunks.remove f.pinned ci
    | Some c -> Bytes.blit src !s c coff n
    | None ->
        (* a write over the whole chunk leaves no byte to zero *)
        let c =
          if n = chunk_bytes then Bytes.create chunk_bytes
          else Bytes.make chunk_bytes '\000'
        in
        Bytes.blit src !s c coff n;
        Chunks.add f.chunks ci c);
    pos := !pos + n;
    s := !s + n;
    remaining := !remaining - n
  done

let rec read t ~off ~len dst dst_off =
  check t off len;
  match t with
  | Flat f -> flat_read f ~off ~len dst dst_off
  | View v ->
      let pos = ref off and remaining = ref len and d = ref dst_off in
      while !remaining > 0 do
        let base_off, run = v.map !pos in
        if run <= 0 then invalid_arg "Store.read: view maps to empty run";
        let n = min !remaining run in
        read v.base ~off:base_off ~len:n dst !d;
        pos := !pos + n;
        d := !d + n;
        remaining := !remaining - n
      done

let rec write t ~off ~len src src_off =
  check t off len;
  match t with
  | Flat f -> flat_write f ~off ~len src src_off
  | View v ->
      let pos = ref off and remaining = ref len and s = ref src_off in
      while !remaining > 0 do
        let base_off, run = v.map !pos in
        if run <= 0 then invalid_arg "Store.write: view maps to empty run";
        let n = min !remaining run in
        write v.base ~off:base_off ~len:n src !s;
        pos := !pos + n;
        s := !s + n;
        remaining := !remaining - n
      done

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
      let shared =
        match t with
        | Flat f when lend -> (
            let ci = whole_chunk !pos b boff n in
            match if ci < 0 then None else Chunks.find_opt f.chunks ci with
            | Some c ->
                Sim.Iov.swap iov ~off:(!pos - off) c;
                true
            | None -> false)
        | Flat _ | View _ -> false
      in
      if not shared then read t ~off:!pos ~len:n b boff;
      pos := !pos + n)
    iov

(* Keep [b] as chunk [ci].  The chunk it displaces goes back to the
   frame pool unless it is pinned: every other holder on this host has
   let go of a chunk's bytes by the time its block is written again,
   but a frame another host holds is left to the GC (DESIGN.md,
   "Buffer ownership"). *)
let adopt f frames ci b =
  (match Chunks.find_opt f.chunks ci with
  | Some old when old != b ->
      if Chunks.mem f.pinned ci then Chunks.remove f.pinned ci
      else begin
        Sim.Frames.give frames old;
        f.recycled <- f.recycled + 1
      end
  | Some _ | None -> ());
  Chunks.replace f.chunks ci b;
  f.adopted <- f.adopted + 1

let pin t ~off b =
  match t with
  | Flat f when off mod chunk_bytes = 0 -> (
      let ci = off / chunk_bytes in
      match Chunks.find_opt f.chunks ci with
      | Some c when c == b -> Chunks.replace f.pinned ci ()
      | Some _ | None -> ())
  | Flat _ | View _ -> ()

let writev ?lend t ~off iov =
  check t off (Sim.Iov.length iov);
  let pos = ref off in
  Sim.Iov.iter
    (fun b boff n ->
      (match (lend, t) with
      | Some frames, Flat f when whole_chunk !pos b boff n >= 0 ->
          adopt f frames (!pos / chunk_bytes) b
      | _ -> write t ~off:!pos ~len:n b boff);
      pos := !pos + n)
    iov

let rec chunks_allocated = function
  | Flat f -> Chunks.length f.chunks
  | View v -> chunks_allocated v.base

let rec chunks_adopted = function
  | Flat f -> f.adopted
  | View v -> chunks_adopted v.base

let rec chunks_recycled = function
  | Flat f -> f.recycled
  | View v -> chunks_recycled v.base

let rec iter_chunks g = function
  | Flat f -> Chunks.iter (fun ci c -> g (ci * chunk_bytes) c) f.chunks
  | View v -> iter_chunks g v.base

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (match t with
      | Flat f ->
          let chunks =
            Chunks.fold (fun k v acc -> (k, v) :: acc) f.chunks []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          List.iter
            (fun (ci, data) ->
              seek_out oc (ci * chunk_bytes);
              output_bytes oc data)
            chunks
      | View _ ->
          (* materialise through the mapping, keeping the image sparse *)
          let buf = Bytes.create chunk_bytes in
          let total = size t in
          let nchunks = (total + chunk_bytes - 1) / chunk_bytes in
          for ci = 0 to nchunks - 1 do
            let n = min chunk_bytes (total - (ci * chunk_bytes)) in
            read t ~off:(ci * chunk_bytes) ~len:n buf 0;
            if not (Bytes.for_all (fun c -> c = '\000') (Bytes.sub buf 0 n))
            then begin
              seek_out oc (ci * chunk_bytes);
              output_bytes oc (Bytes.sub buf 0 n)
            end
          done);
      (* pin the file length to the full device size *)
      if pos_out oc < size t then begin
        seek_out oc (size t - 1);
        output_char oc '\000'
      end)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fsize = in_channel_length ic in
      let t = create ~size:fsize in
      let f = match t with Flat f -> f | View _ -> assert false in
      let buf = Bytes.create chunk_bytes in
      let nchunks = (fsize + chunk_bytes - 1) / chunk_bytes in
      for ci = 0 to nchunks - 1 do
        let n = min chunk_bytes (fsize - (ci * chunk_bytes)) in
        really_input ic buf 0 n;
        if n < chunk_bytes then Bytes.fill buf n (chunk_bytes - n) '\000';
        if not (Bytes.for_all (fun c -> c = '\000') buf) then
          Chunks.replace f.chunks ci (Bytes.sub buf 0 chunk_bytes)
      done;
      t)

let copy_into src dst =
  if size src <> size dst then invalid_arg "Store.copy_into: size mismatch";
  match (src, dst) with
  | Flat s, Flat d ->
      Chunks.reset d.chunks;
      Chunks.reset d.pinned;
      Chunks.iter (fun k v -> Chunks.replace d.chunks k (Bytes.copy v))
        s.chunks
  | _ ->
      (* at least one side remaps: go through the generic paths *)
      let buf = Bytes.create chunk_bytes in
      let total = size src in
      let nchunks = (total + chunk_bytes - 1) / chunk_bytes in
      for ci = 0 to nchunks - 1 do
        let n = min chunk_bytes (total - (ci * chunk_bytes)) in
        read src ~off:(ci * chunk_bytes) ~len:n buf 0;
        write dst ~off:(ci * chunk_bytes) ~len:n buf 0
      done
