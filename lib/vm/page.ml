type ident = { vid : int; off : int }

type t = {
  frameno : int;
  mutable data : bytes;
  mutable frame : Sim.Frames.frame;
  mutable ident : ident option;
  mutable valid : bool;
  mutable dirty : bool;
  mutable referenced : bool;
  mutable busy : bool;
  mutable prefetched : bool;
  mutable lent : bool;
  mutable waiters : (unit -> unit) list;
}

let make ~frameno =
  {
    frameno;
    data = Sim.Frames.empty.bytes;
    frame = Sim.Frames.empty;
    ident = None;
    valid = false;
    dirty = false;
    referenced = false;
    busy = false;
    prefetched = false;
    lent = false;
    waiters = [];
  }

let set_ident t i = t.ident <- i
let set_valid t b = t.valid <- b
let set_dirty t b = t.dirty <- b
let set_referenced t b = t.referenced <- b
let set_prefetched t b = t.prefetched <- b
let lend t = t.lent <- true

(* The page holds [f] from now on, and drops the frame it had (a hold
   taken before the old one is dropped). *)
let switch frames t (f : Sim.Frames.frame) =
  let old = t.frame in
  t.frame <- f;
  t.data <- f.bytes;
  Sim.Frames.release frames old

let back frames t = switch frames t (Sim.Frames.frame frames)

let unback frames t =
  switch frames t Sim.Frames.empty;
  t.lent <- false

let borrow frames t f =
  Sim.Frames.hold f;
  switch frames t f;
  lend t

(* A retransmitted WRITE may bring the page's own frame again. *)
let adopt frames t f =
  if f != t.frame then begin
    Sim.Frames.hold f;
    switch frames t f
  end;
  lend t

let export t =
  lend t;
  Sim.Frames.hold t.frame;
  t.frame

(* A lent frame may have other holders; the page moves to a frame of
   its own (a UFS page is exactly one pool frame long). *)
let own_blank frames t =
  if t.lent then begin
    switch frames t (Sim.Frames.frame frames);
    t.lent <- false
  end

let own frames t =
  if t.lent then begin
    let f = Sim.Frames.frame frames in
    Bytes.blit t.data 0 f.bytes 0 (Bytes.length t.data);
    switch frames t f;
    t.lent <- false
  end

let rec lock engine t =
  if t.busy then begin
    Sim.Engine.suspend engine ~register:(fun resume ->
        t.waiters <- resume :: t.waiters);
    lock engine t
  end
  else t.busy <- true

let wait_unbusy engine t =
  let before = Sim.Engine.now engine in
  while t.busy do
    Sim.Engine.suspend engine ~register:(fun resume ->
        t.waiters <- resume :: t.waiters)
  done;
  Sim.Attrib.blocked ~rest:"disk.wait" ~name:"vm.wait_page" ~start_us:before
    ~stop_us:(Sim.Engine.now engine) ()

let unbusy t =
  if not t.busy then invalid_arg "Page.unbusy: not busy";
  t.busy <- false;
  let ws = List.rev t.waiters in
  t.waiters <- [];
  List.iter (fun w -> w ()) ws

let try_lock t =
  if t.busy then false
  else begin
    t.busy <- true;
    true
  end
