type t = {
  fs : Types.fs;
  interval : Sim.Time.t;
  mutable running : bool;
  mutable passes : int;
  mutable flushed_bytes : int;
  dirty_age_us : Sim.Stats.Summary.t;
  mutable timer : Sim.Engine.timer option;
  tick : Sim.Condition.t;
}

(* The interval timer is a cancellable engine event, not a sleep inside
   the daemon: [stop] cancels it, so a stopped syncer dies now rather
   than dozing out the rest of a 30-second interval first. *)
let arm t =
  t.timer <-
    Some
      (Sim.Engine.schedule_cancellable t.fs.Types.engine ~delay:t.interval
         (fun () ->
           t.timer <- None;
           Sim.Condition.signal t.tick))

let daemon t () =
  while t.running do
    Sim.Condition.wait t.tick;
    if t.running then begin
      let fs = t.fs in
      (* how stale was the oldest dirty data when this pass caught it? *)
      let now = Sim.Engine.now fs.Types.engine in
      if fs.Types.stats.Types.oldest_dirty >= 0 then
        Sim.Stats.Summary.add_int t.dirty_age_us
          (now - fs.Types.stats.Types.oldest_dirty);
      (* re-arm before the (sleeping) sync: dirtying that happens while
         we flush belongs to the next pass *)
      fs.Types.stats.Types.oldest_dirty <- -1;
      let before = (Disk.Blkdev.stats fs.Types.dev).Disk.Blkdev.sectors_written in
      Fs.sync t.fs;
      let after = (Disk.Blkdev.stats fs.Types.dev).Disk.Blkdev.sectors_written in
      t.flushed_bytes <-
        t.flushed_bytes
        + ((after - before) * Disk.Blkdev.sector_bytes fs.Types.dev);
      t.passes <- t.passes + 1;
      (* stop may have arrived during the sync pass: don't re-arm, the
         while test will see [running] down and exit *)
      if t.running then arm t
    end
  done

let start fs ?(interval = Sim.Time.sec 30) () =
  if interval <= 0 then invalid_arg "Syncer.start: interval";
  let t =
    {
      fs;
      interval;
      running = true;
      passes = 0;
      flushed_bytes = 0;
      dirty_age_us = Sim.Stats.Summary.create ();
      timer = None;
      tick = Sim.Condition.create fs.Types.engine "syncer.tick";
    }
  in
  arm t;
  Sim.Engine.spawn fs.Types.engine ~name:"update" (daemon t);
  t

let stop t =
  if t.running then begin
    t.running <- false;
    (match t.timer with
    | Some tm ->
        Sim.Engine.cancel tm;
        t.timer <- None
    | None -> ());
    Sim.Condition.broadcast t.tick
  end

let passes t = t.passes
let flushed_bytes t = t.flushed_bytes
let dirty_age_us t = t.dirty_age_us

let register_metrics t reg ~instance =
  Sim.Metrics.register reg ~layer:"syncer" ~instance (fun () ->
      Sim.Metrics.
        [
          ("passes", Int t.passes);
          ("flushed_bytes", Int t.flushed_bytes);
          ("dirty_age_us", Summary t.dirty_age_us);
        ])
