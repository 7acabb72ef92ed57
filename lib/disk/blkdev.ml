type layout = Concat | Stripe | Mirror

let layout_of_string = function
  | "concat" -> Concat
  | "stripe" -> Stripe
  | "mirror" -> Mirror
  | s -> invalid_arg (Printf.sprintf "Blkdev.layout_of_string: %S" s)

let layout_to_string = function
  | Concat -> "concat"
  | Stripe -> "stripe"
  | Mirror -> "mirror"

type t = {
  engine : Sim.Engine.t;
  layout : layout;
  stripe : int;  (** stripe unit, sectors (0 unless striped) *)
  sectors : int;  (** logical size, sectors *)
  store : Store.t;  (** the one flat image every member moves bytes in *)
  members : Device.t array;
  first : int array;
      (** concat: each member's first logical sector, then the end of
          the last *)
  failed : bool array;
  dropped : int array;  (** write fragments dropped while failed *)
  mutable rr : int;  (** round-robin cursor for mirror reads *)
  mutable splits : int;
}

let sector_bytes t = Device.sector_bytes t.members.(0)

let make engine layout ~stripe_bytes ~capacity store members =
  let n = Array.length members and sb = Device.sector_bytes members.(0) in
  let first = Array.make (n + 1) 0 in
  if layout = Concat then
    for i = 1 to n do
      first.(i) <- first.(i - 1) + (Device.capacity_bytes members.(i - 1) / sb)
    done;
  {
    engine;
    layout;
    stripe = (if layout = Stripe then stripe_bytes / sb else 0);
    sectors = capacity / sb;
    store;
    members;
    first;
    failed = Array.make n false;
    dropped = Array.make n 0;
    rr = 0;
    splits = 0;
  }

let of_device d =
  make (Device.engine d) Concat ~stripe_bytes:0
    ~capacity:(Device.capacity_bytes d) (Device.store d) [| d |]

let create ?(stripe_bytes = 128 * 1024) engine layout cfgs =
  let n = Array.length cfgs in
  if n = 0 then invalid_arg "Blkdev.create: no members";
  (* one drive is the drive itself, whatever the layout *)
  let layout = if n = 1 then Concat else layout in
  let sb = cfgs.(0).Device.geom.Geom.sector_bytes in
  Array.iter
    (fun c ->
      if c.Device.geom.Geom.sector_bytes <> sb then
        invalid_arg "Blkdev.create: members disagree on sector size")
    cfgs;
  if layout = Stripe && (stripe_bytes <= 0 || stripe_bytes mod sb <> 0) then
    invalid_arg "Blkdev.create: stripe unit must be a positive sector multiple";
  let caps = Array.map (fun c -> Geom.capacity_bytes c.Device.geom) cfgs in
  let capacity =
    match layout with
    | Concat -> Array.fold_left ( + ) 0 caps
    | Stripe ->
        let upm = Array.fold_left min caps.(0) caps / stripe_bytes in
        if upm = 0 then
          invalid_arg "Blkdev.create: stripe unit exceeds smallest member";
        n * upm * stripe_bytes
    | Mirror -> Array.fold_left min caps.(0) caps
  in
  let store = Store.create ~size:capacity in
  make engine layout ~stripe_bytes ~capacity store
    (Array.map (Device.create ~store engine) cfgs)

let engine t = t.engine
let geom t = (Device.config t.members.(0)).Device.geom
let capacity_bytes t = t.sectors * sector_bytes t
let store t = t.store
let members t = t.members

let check_member t i =
  if i < 0 || i >= Array.length t.members then
    invalid_arg "Blkdev: bad member index"

let fail_member t i =
  check_member t i;
  t.failed.(i) <- true

let repair_member t i =
  check_member t i;
  t.failed.(i) <- false

let failed t i =
  check_member t i;
  t.failed.(i)

let dropped_writes t = Array.copy t.dropped
let splits t = t.splits

(* ---- fragment planning (sector granularity) ---- *)

(* A fragment: [count] sectors of the parent request, [off] sectors
   into it, that land on member [midx] at member sector [msector]. *)
type frag = { midx : int; msector : int; off : int; count : int }

let plan_concat t ~sector ~count =
  let frags = ref [] in
  let cur = ref sector and remaining = ref count in
  let mi = ref 0 in
  while !remaining > 0 do
    let start = t.first.(!mi) and stop = t.first.(!mi + 1) in
    if !cur < stop then begin
      let n = min !remaining (stop - !cur) in
      frags :=
        { midx = !mi; msector = !cur - start; off = !cur - sector; count = n }
        :: !frags;
      cur := !cur + n;
      remaining := !remaining - n
    end;
    if !remaining > 0 then incr mi
  done;
  List.rev !frags

let plan_stripe t ~sector ~count =
  let su = t.stripe and n = Array.length t.members in
  let frags = ref [] in
  let cur = ref sector and remaining = ref count in
  while !remaining > 0 do
    let k = !cur / su and o = !cur mod su in
    let len = min !remaining (su - o) in
    frags :=
      {
        midx = k mod n;
        msector = ((k / n) * su) + o;
        off = !cur - sector;
        count = len;
      }
      :: !frags;
    cur := !cur + len;
    remaining := !remaining - len
  done;
  List.rev !frags

let pick_read_member t =
  let n = Array.length t.members in
  let rec go k =
    if k = n then failwith "Blkdev: mirror read with all members failed"
    else
      let i = (t.rr + k) mod n in
      if t.failed.(i) then go (k + 1)
      else begin
        t.rr <- (i + 1) mod n;
        i
      end
  in
  go 0

(* ---- submission ---- *)

let fan_out t (r : Request.t) frags =
  (* the parent completes when the last fragment lands *)
  (match frags with
  | _ :: _ :: _ ->
      t.splits <- t.splits + 1;
      (* a traced caller sees the fan-out on whatever span covers the
         submission (the members' I/O shows up when it waits) *)
      Sim.Span.add_attr "vol.split" (Sim.Span.I (List.length frags))
  | _ -> ());
  let pending = ref (List.length frags) in
  if !pending = 0 then
    (* every target was a dropped mirror write *)
    Request.complete r ~now:(Sim.Engine.now t.engine)
  else
    List.iter
      (fun f ->
        let child =
          Request.fragment r ~off:f.off ~sector:f.msector ~count:f.count
        in
        Request.on_complete child (fun () ->
            decr pending;
            if !pending = 0 then
              Request.complete r ~now:(Sim.Engine.now t.engine));
        Device.submit t.members.(f.midx) child)
      frags

let no_redundancy i =
  failwith (Printf.sprintf "Blkdev: I/O to failed member %d (no redundancy)" i)

let submit t (r : Request.t) =
  let sector = r.Request.sector and count = r.Request.count in
  if sector + count > t.sectors then
    invalid_arg "Blkdev.submit: request past end of device";
  match t.layout with
  | Mirror when r.Request.kind = Request.Read ->
      (* whole request to one live member; sectors map 1:1 *)
      Device.submit t.members.(pick_read_member t) r
  | Mirror ->
      let live = ref [] in
      for i = Array.length t.members - 1 downto 0 do
        if t.failed.(i) then t.dropped.(i) <- t.dropped.(i) + 1
        else live := { midx = i; msector = sector; off = 0; count } :: !live
      done;
      fan_out t r !live
  | Concat when sector + count <= t.first.(1) ->
      (* inside member 0, at its own sectors: the request itself goes
         to the drive, as on a bare disk *)
      if t.failed.(0) then no_redundancy 0;
      Device.submit t.members.(0) r
  | Concat | Stripe -> (
      let frags =
        if t.layout = Concat then plan_concat t ~sector ~count
        else plan_stripe t ~sector ~count
      in
      List.iter (fun f -> if t.failed.(f.midx) then no_redundancy f.midx) frags;
      match frags with
      | [ f ] when f.msector = sector ->
          (* one whole fragment at its own sector: hand the request
             itself to the member *)
          Device.submit t.members.(f.midx) r
      | frags -> fan_out t r frags)

let read_sync t ~sector ~count ~buf ~buf_off =
  let r = Request.make ~kind:Request.Read ~sector ~count ~buf ~buf_off () in
  submit t r;
  Request.wait t.engine r

let write_sync t ~sector ~count ~buf ~buf_off =
  let r = Request.make ~kind:Request.Write ~sector ~count ~buf ~buf_off () in
  submit t r;
  Request.wait t.engine r

let quiesce t = Array.iter Device.quiesce t.members
let busy t = Array.exists Device.busy t.members

let queue_length t =
  Array.fold_left (fun acc d -> acc + Device.queue_length d) 0 t.members

let crash_cut t = Array.iter Device.crash_cut t.members

let completed_writes t =
  Array.fold_left (fun acc d -> acc + Device.completed_writes d) 0 t.members

let set_write_cutoff t n =
  Array.iter (fun d -> Device.set_write_cutoff d n) t.members

let crash_dropped t =
  Array.fold_left
    (fun (ar, ab) d ->
      let r, b = Device.crash_dropped d in
      (ar + r, ab + b))
    (0, 0) t.members

let register_metrics t reg ~instance =
  let n = Array.length t.members in
  Array.iteri
    (fun i d ->
      let instance =
        if n = 1 then instance else Printf.sprintf "%s.d%d" instance i
      in
      Device.register_metrics d reg ~instance)
    t.members;
  if n > 1 then
    Sim.Metrics.register reg ~layer:"vol" ~instance (fun () ->
        let failed =
          Array.fold_left (fun a f -> if f then a + 1 else a) 0 t.failed
        in
        Sim.Metrics.
          [
            ("splits", Int t.splits);
            ("dropped_writes", Int (Array.fold_left ( + ) 0 t.dropped));
            ("n_members", Int n);
            ("failed_members", Int failed);
            ("queue_length", Int (queue_length t));
          ])

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
