type ident = { vid : int; off : int }

type t = {
  frameno : int;
  mutable data : bytes;
  mutable ident : ident option;
  mutable valid : bool;
  mutable dirty : bool;
  mutable referenced : bool;
  mutable busy : bool;
  mutable prefetched : bool;
  mutable lent : bool;
  mutable exported : bool;
  mutable home : int;
  mutable waiters : (unit -> unit) list;
}

let make ~frameno ~pagesize =
  {
    frameno;
    data = Bytes.make pagesize '\000';
    ident = None;
    valid = false;
    dirty = false;
    referenced = false;
    busy = false;
    prefetched = false;
    lent = false;
    exported = false;
    home = -1;
    waiters = [];
  }

let set_ident t i = t.ident <- i
let set_valid t b = t.valid <- b
let set_dirty t b = t.dirty <- b
let set_referenced t b = t.referenced <- b
let set_prefetched t b = t.prefetched <- b

let lend t ~home =
  t.lent <- true;
  t.home <- home

(* A fresh page-in's own frame is private, so the pool can have it. *)
let borrow frames t b ~home =
  Sim.Frames.give frames t.data;
  t.data <- b;
  lend t ~home

(* The frame it replaces goes back to the pool only if it is private.
   A retransmitted WRITE may bring the page's own frame again. *)
let adopt frames t b =
  if b != t.data then begin
    if not t.lent then Sim.Frames.give frames t.data;
    t.data <- b;
    t.home <- -1
  end;
  t.lent <- true;
  t.exported <- true

let export t =
  t.lent <- true;
  t.exported <- true

(* A lent frame belongs to the store or another host from now on; the
   page moves to a frame of its own (a UFS page is exactly one pool
   frame long). *)
let own_blank frames t =
  if t.lent then begin
    t.data <- Sim.Frames.take frames;
    t.lent <- false;
    t.exported <- false;
    t.home <- -1
  end

let own frames t =
  if t.lent then begin
    let shared = t.data in
    own_blank frames t;
    Bytes.blit shared 0 t.data 0 (Bytes.length shared)
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
