type layout = Concat | Stripe | Mirror

let layout_of_string = function
  | "concat" -> Concat
  | "stripe" -> Stripe
  | "mirror" -> Mirror
  | s -> invalid_arg (Printf.sprintf "Vol.layout_of_string: %S" s)

let layout_to_string = function
  | Concat -> "concat"
  | Stripe -> "stripe"
  | Mirror -> "mirror"

type member = {
  dev : Disk.Device.t;
  start : int;  (** concat: member's first logical byte *)
  mutable failed : bool;
  mutable dropped_writes : int;
}

type t = {
  engine : Sim.Engine.t;
  layout : layout;
  stripe_bytes : int;
  sector_bytes : int;
  capacity : int;  (** logical bytes *)
  store : Disk.Store.t;  (** logical flat image *)
  members : member array;
  mutable rr : int;  (** round-robin cursor for mirror reads *)
  mutable splits : int;
}

(* Member-physical byte offset -> (logical byte offset, run length).
   Runs end at the next point where the mapping stops being affine, so
   Store can blit run by run. *)
let concat_map ~start ~mcap mo = (start + mo, mcap - mo)

let stripe_map ~su ~n ~i ~usable mo =
  if mo >= usable then
    invalid_arg "Vol: access to unusable striped-member tail"
  else
    let k = mo / su and o = mo mod su in
    (((k * n) + i) * su + o, su - o)

let mirror_map ~cap mo =
  if mo >= cap then invalid_arg "Vol: access beyond mirrored capacity"
  else (mo, cap - mo)

let create ?(stripe_bytes = 128 * 1024) engine layout cfgs =
  let n = Array.length cfgs in
  if n = 0 then invalid_arg "Vol.create: no members";
  let sb = (cfgs.(0)).Disk.Device.geom.Disk.Geom.sector_bytes in
  Array.iter
    (fun c ->
      if c.Disk.Device.geom.Disk.Geom.sector_bytes <> sb then
        invalid_arg "Vol.create: members disagree on sector size")
    cfgs;
  if layout = Stripe && (stripe_bytes <= 0 || stripe_bytes mod sb <> 0) then
    invalid_arg "Vol.create: stripe unit must be a positive sector multiple";
  let caps = Array.map (fun c -> Disk.Geom.capacity_bytes c.Disk.Device.geom) cfgs in
  let min_cap = Array.fold_left min caps.(0) caps in
  let capacity, starts =
    match layout with
    | Concat ->
        let starts = Array.make n 0 in
        let total = ref 0 in
        Array.iteri
          (fun i c ->
            starts.(i) <- !total;
            total := !total + c)
          caps;
        (!total, starts)
    | Stripe ->
        let upm = min_cap / stripe_bytes in
        if upm = 0 then
          invalid_arg "Vol.create: stripe unit exceeds smallest member";
        (n * upm * stripe_bytes, Array.make n 0)
    | Mirror -> (min_cap, Array.make n 0)
  in
  let store = Disk.Store.create ~size:capacity in
  let members =
    Array.init n (fun i ->
        let mcap = caps.(i) in
        let map =
          match layout with
          | Concat -> concat_map ~start:starts.(i) ~mcap
          | Stripe ->
              let usable = capacity / n in
              stripe_map ~su:stripe_bytes ~n ~i ~usable
          | Mirror -> mirror_map ~cap:capacity
        in
        let mstore = Disk.Store.view ~base:store ~size:mcap ~map in
        {
          dev = Disk.Device.create ~store:mstore engine cfgs.(i);
          start = starts.(i);
          failed = false;
          dropped_writes = 0;
        })
  in
  {
    engine;
    layout;
    stripe_bytes;
    sector_bytes = sb;
    capacity;
    store;
    members;
    rr = 0;
    splits = 0;
  }

let capacity_bytes t = t.capacity
let sector_bytes t = t.sector_bytes
let layout t = t.layout
let stripe_bytes t = t.stripe_bytes
let devices t = Array.map (fun m -> m.dev) t.members
let store t = t.store
let n_members t = Array.length t.members

let check_member t i =
  if i < 0 || i >= n_members t then invalid_arg "Vol: bad member index"

let fail_member t i =
  check_member t i;
  t.members.(i).failed <- true

let repair_member t i =
  check_member t i;
  t.members.(i).failed <- false

let failed t i =
  check_member t i;
  t.members.(i).failed

let dropped_writes t = Array.map (fun m -> m.dropped_writes) t.members

let splits t = t.splits

(* ---- fragment planning (sector granularity) ---- *)

(* A fragment: [count] sectors of the parent request that land on member
   [midx] at member sector [msector]; [lsector] is where the fragment
   starts in the parent's logical range (fixes its slice of the iov). *)
type frag = { midx : int; msector : int; count : int; lsector : int }

let plan_concat t ~sector ~count =
  let sb = t.sector_bytes in
  let frags = ref [] in
  let cur = ref sector and remaining = ref count in
  let mi = ref 0 in
  while !remaining > 0 do
    let m = t.members.(!mi) in
    let mstart = m.start / sb in
    let msects = Disk.Device.capacity_bytes m.dev / sb in
    if !cur < mstart + msects then begin
      let n = min !remaining (mstart + msects - !cur) in
      frags :=
        { midx = !mi; msector = !cur - mstart; count = n; lsector = !cur }
        :: !frags;
      cur := !cur + n;
      remaining := !remaining - n
    end;
    if !remaining > 0 then incr mi
  done;
  List.rev !frags

let plan_stripe t ~sector ~count =
  let su = t.stripe_bytes / t.sector_bytes in
  let n = n_members t in
  let frags = ref [] in
  let cur = ref sector and remaining = ref count in
  while !remaining > 0 do
    let k = !cur / su and o = !cur mod su in
    let len = min !remaining (su - o) in
    frags :=
      {
        midx = k mod n;
        msector = ((k / n) * su) + o;
        count = len;
        lsector = !cur;
      }
      :: !frags;
    cur := !cur + len;
    remaining := !remaining - len
  done;
  List.rev !frags

let live_members t =
  let live = ref [] in
  Array.iteri (fun i m -> if not m.failed then live := i :: !live) t.members;
  List.rev !live

let pick_read_member t =
  match live_members t with
  | [] -> failwith "Vol: mirror read with all members failed"
  | live ->
      (* advance the round-robin cursor to the next live member *)
      let n = n_members t in
      let rec go tries i =
        if tries > n then assert false
        else if List.mem (i mod n) live then i mod n
        else go (tries + 1) (i + 1)
      in
      let i = go 0 t.rr in
      t.rr <- (i + 1) mod n;
      i

(* ---- submission ---- *)

let child_request t (r : Disk.Request.t) f =
  let iov =
    Sim.Iov.sub r.Disk.Request.iov
      ~off:((f.lsector - r.Disk.Request.sector) * t.sector_bytes)
      ~len:(f.count * t.sector_bytes)
  in
  Disk.Request.of_iov ~ordered:r.Disk.Request.ordered ~kind:r.Disk.Request.kind
    ~sector:f.msector ~count:f.count iov ()

let submit_frags t (r : Disk.Request.t) frags =
  (* Fan out; the parent completes when the last fragment lands. *)
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
    Disk.Request.complete r ~now:(Sim.Engine.now t.engine)
  else
    List.iter
      (fun f ->
        let child = child_request t r f in
        Disk.Request.on_complete child (fun () ->
            decr pending;
            if !pending = 0 then
              Disk.Request.complete r ~now:(Sim.Engine.now t.engine));
        Disk.Device.submit t.members.(f.midx).dev child)
      frags

let submit t (r : Disk.Request.t) =
  let sects = t.capacity / t.sector_bytes in
  if r.Disk.Request.sector < 0 || r.Disk.Request.count <= 0
     || r.Disk.Request.sector + r.Disk.Request.count > sects
  then invalid_arg "Vol.submit: request past end of volume";
  match t.layout with
  | Mirror when r.Disk.Request.kind = Disk.Request.Read ->
      (* whole request to one live member; sectors map 1:1 *)
      Disk.Device.submit t.members.(pick_read_member t).dev r
  | Mirror ->
      let targets = live_members t in
      Array.iter
        (fun m -> if m.failed then m.dropped_writes <- m.dropped_writes + 1)
        t.members;
      submit_frags t r
        (List.map
           (fun i ->
             {
               midx = i;
               msector = r.Disk.Request.sector;
               count = r.Disk.Request.count;
               lsector = r.Disk.Request.sector;
             })
           targets)
  | Concat | Stripe -> (
      let frags =
        match t.layout with
        | Concat ->
            plan_concat t ~sector:r.Disk.Request.sector
              ~count:r.Disk.Request.count
        | Stripe ->
            plan_stripe t ~sector:r.Disk.Request.sector
              ~count:r.Disk.Request.count
        | Mirror -> assert false
      in
      List.iter
        (fun f ->
          if t.members.(f.midx).failed then
            failwith
              (Printf.sprintf "Vol: I/O to failed member %d (no redundancy)"
                 f.midx))
        frags;
      match frags with
      | [ f ] when f.msector = r.Disk.Request.sector ->
          (* single whole fragment at the same sector: pass the parent
             through untouched, so a 1-member volume is identical to the
             bare drive *)
          Disk.Device.submit t.members.(f.midx).dev r
      | frags -> submit_frags t r frags)

let quiesce t = Array.iter (fun m -> Disk.Device.quiesce m.dev) t.members
let busy t = Array.exists (fun m -> Disk.Device.busy m.dev) t.members

let queue_length t =
  Array.fold_left (fun acc m -> acc + Disk.Device.queue_length m.dev) 0 t.members

let register_metrics t reg ~instance =
  Sim.Metrics.register reg ~layer:"vol" ~instance (fun () ->
      let dropped = Array.fold_left (fun a m -> a + m.dropped_writes) 0 t.members in
      let failed = Array.fold_left (fun a m -> a + if m.failed then 1 else 0) 0 t.members in
      Sim.Metrics.
        [
          ("splits", Int t.splits);
          ("dropped_writes", Int dropped);
          ("n_members", Int (n_members t));
          ("failed_members", Int failed);
          ("queue_length", Int (queue_length t));
        ])

let blkdev t =
  {
    Disk.Blkdev.name = Printf.sprintf "vol-%s×%d" (layout_to_string t.layout)
        (n_members t);
    engine = t.engine;
    geom = (Disk.Device.config t.members.(0).dev).Disk.Device.geom;
    capacity = t.capacity;
    submit = submit t;
    quiesce = (fun () -> quiesce t);
    busy = (fun () -> busy t);
    queue_length = (fun () -> queue_length t);
    store = t.store;
    members = devices t;
  }
