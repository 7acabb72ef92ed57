type t = {
  name : string;
  engine : Sim.Engine.t;
  geom : Geom.t;
  capacity : int;
  submit : Request.t -> unit;
  quiesce : unit -> unit;
  busy : unit -> bool;
  queue_length : unit -> int;
  store : Store.t;
  members : Device.t array;
}

let of_device d =
  {
    name = "disk";
    engine = Device.engine d;
    geom = (Device.config d).geom;
    capacity = Device.capacity_bytes d;
    submit = Device.submit d;
    quiesce = (fun () -> Device.quiesce d);
    busy = (fun () -> Device.busy d);
    queue_length = (fun () -> Device.queue_length d);
    store = Device.store d;
    members = [| d |];
  }

let engine t = t.engine
let geom t = t.geom
let sector_bytes t = t.geom.Geom.sector_bytes
let capacity_bytes t = t.capacity
let store t = t.store
let members t = t.members
let submit t r = t.submit r

let read_sync t ~sector ~count ~buf ~buf_off =
  let r = Request.make ~kind:Request.Read ~sector ~count ~buf ~buf_off () in
  t.submit r;
  Request.wait t.engine r

let write_sync t ~sector ~count ~buf ~buf_off =
  let r = Request.make ~kind:Request.Write ~sector ~count ~buf ~buf_off () in
  t.submit r;
  Request.wait t.engine r

let quiesce t = t.quiesce ()
let busy t = t.busy ()
let queue_length t = t.queue_length ()
let crash_cut t = Array.iter Device.crash_cut t.members

let completed_writes t =
  Array.fold_left (fun acc d -> acc + Device.completed_writes d) 0 t.members

let set_write_cutoff t n = Array.iter (fun d -> Device.set_write_cutoff d n) t.members

let crash_dropped t =
  Array.fold_left
    (fun (ar, ab) d ->
      let r, b = Device.crash_dropped d in
      (ar + r, ab + b))
    (0, 0) t.members

type stats = {
  reads : int;
  writes : int;
  sectors_read : int;
  sectors_written : int;
  busy_time : Sim.Time.t;
  seek_time : Sim.Time.t;
  rot_wait : Sim.Time.t;
  transfer_time : Sim.Time.t;
  coalesced : int;
}

let stats t =
  Array.fold_left
    (fun acc d ->
      let s = Device.stats d in
      {
        reads = acc.reads + s.Device.reads;
        writes = acc.writes + s.Device.writes;
        sectors_read = acc.sectors_read + s.Device.sectors_read;
        sectors_written = acc.sectors_written + s.Device.sectors_written;
        busy_time = acc.busy_time + s.Device.busy;
        seek_time = acc.seek_time + s.Device.seek_time;
        rot_wait = acc.rot_wait + s.Device.rot_wait;
        transfer_time = acc.transfer_time + s.Device.transfer_time;
        coalesced = acc.coalesced + s.Device.coalesced;
      })
    {
      reads = 0;
      writes = 0;
      sectors_read = 0;
      sectors_written = 0;
      busy_time = Sim.Time.zero;
      seek_time = Sim.Time.zero;
      rot_wait = Sim.Time.zero;
      transfer_time = Sim.Time.zero;
      coalesced = 0;
    }
    t.members
