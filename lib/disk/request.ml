type kind = Read | Write

type t = {
  kind : kind;
  sector : int;
  count : int;
  store_sector : int;
  iov : Sim.Iov.t;
  ordered : bool;
  lend : bool;
  mutable enq_at : Sim.Time.t;
  mutable start_at : Sim.Time.t;
  mutable finish_at : Sim.Time.t;
  mutable seek_us : Sim.Time.t;
  mutable rot_us : Sim.Time.t;
  mutable xfer_us : Sim.Time.t;
  mutable completed : bool;
  mutable callbacks : (unit -> unit) list;
  mutable waiters : (unit -> unit) list;
  mutable absorbed_into : t option;
}

let check_extent ~sector ~count =
  if sector < 0 || count <= 0 then invalid_arg "Request.make: bad extent"

let build ~ordered ~lend ~kind ~sector ~store_sector ~count iov =
  check_extent ~sector ~count;
  if Sim.Iov.length iov <> count * 512 then
    invalid_arg "Request.of_iov: iov length is not count sectors";
  {
    kind;
    sector;
    count;
    store_sector;
    iov;
    ordered;
    lend;
    enq_at = 0;
    start_at = 0;
    finish_at = 0;
    seek_us = 0;
    rot_us = 0;
    xfer_us = 0;
    completed = false;
    callbacks = [];
    waiters = [];
    absorbed_into = None;
  }

let of_iov ?(ordered = false) ?(lend = false) ~kind ~sector ~count iov () =
  build ~ordered ~lend ~kind ~sector ~store_sector:sector ~count iov

let make ?ordered ~kind ~sector ~count ~buf ~buf_off () =
  check_extent ~sector ~count;
  if buf_off < 0 || buf_off + (count * 512) > Bytes.length buf then
    invalid_arg "Request.make: buffer too small";
  of_iov ?ordered ~kind ~sector ~count
    (Sim.Iov.of_bytes ~off:buf_off ~len:(count * 512) buf)
    ()

let fragment t ~off ~sector ~count =
  build ~ordered:t.ordered ~lend:false ~kind:t.kind ~sector
    ~store_sector:(t.store_sector + off) ~count
    (Sim.Iov.sub t.iov ~off:(off * 512) ~len:(count * 512))

let on_complete t f =
  if t.completed then f () else t.callbacks <- f :: t.callbacks

let rec resolve t =
  match t.absorbed_into with Some a -> resolve a | None -> t

(* One blocking boundary.  The wait is attributed across the request's
   residence components — queue wait and the seek/rot/xfer split stamped
   by the device — scaled so that a late waiter (e.g. one that only
   joined for the tail of an async write) never charges more than it
   blocked; rounding slack and time the device spent on coalesced
   neighbours land in "disk.wait".  Traced callers get the wait as a
   span carrying the device's unscaled split: an async request enqueued
   long before the waiter arrived keeps its true split in the attrs. *)
let wait engine t =
  if not t.completed then begin
    let before = Sim.Engine.now engine in
    Sim.Engine.suspend engine ~register:(fun resume ->
        t.waiters <- resume :: t.waiters);
    let now = Sim.Engine.now engine in
    let r = resolve t in
    let queue = max 0 (r.start_at - r.enq_at) in
    let total = queue + r.seek_us + r.rot_us + r.xfer_us in
    let f =
      Float.min 1.0 (float_of_int (now - before) /. float_of_int (max 1 total))
    in
    let scale x = int_of_float (f *. float_of_int x) in
    Sim.Attrib.blocked ~rest:"disk.wait"
      ~parts:
        [
          ("disk.queue", scale queue);
          ("disk.seek", scale r.seek_us);
          ("disk.rot", scale r.rot_us);
          ("disk.xfer", scale r.xfer_us);
        ]
      ~name:"disk.io"
      ~attrs:
        [
          ("kind", Sim.Span.S (match r.kind with Read -> "read" | Write -> "write"));
          ("sector", Sim.Span.I r.sector);
          ("count", Sim.Span.I r.count);
          ("queue_us", Sim.Span.I queue);
          ("seek_us", Sim.Span.I r.seek_us);
          ("rot_us", Sim.Span.I r.rot_us);
          ("xfer_us", Sim.Span.I r.xfer_us);
        ]
      ~start_us:before ~stop_us:now ()
  end

let complete t ~now =
  assert (not t.completed);
  t.completed <- true;
  t.finish_at <- now;
  let cbs = List.rev t.callbacks and ws = List.rev t.waiters in
  t.callbacks <- [];
  t.waiters <- [];
  List.iter (fun f -> f ()) cbs;
  List.iter (fun w -> w ()) ws

let set_enq_at t at = t.enq_at <- at
let set_start_at t at = t.start_at <- at

let set_split t ~seek ~rot ~xfer =
  t.seek_us <- seek;
  t.rot_us <- rot;
  t.xfer_us <- xfer
let latency t = t.finish_at - t.enq_at
let end_sector t = t.sector + t.count
