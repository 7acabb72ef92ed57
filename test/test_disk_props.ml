(* qcheck properties over the disk layer: the queue never loses or
   duplicates requests, barriers hold under random traffic, geometry
   decoding is a bijection, and service timing invariants hold. *)

let mk_req ?(ordered = false) sector =
  Disk.Request.make ~ordered ~kind:Disk.Request.Write ~sector ~count:1
    ~buf:(Bytes.create 512) ~buf_off:0 ()

(* drive a queue with interleaved enqueues and services; return the
   requests in service order and in enqueue order *)
let run_queue policy ops =
  let q = Disk.Disksort.create policy in
  let served = ref [] and enqueued = ref [] in
  let head = ref 0 in
  let serve () =
    match Disk.Disksort.next q ~head_sector:!head with
    | Some r ->
        served := r :: !served;
        head := Disk.Request.end_sector r
    | None -> ()
  in
  List.iter
    (fun (enqueue, sector, ordered) ->
      if enqueue then begin
        let r = mk_req ~ordered sector in
        enqueued := r :: !enqueued;
        Disk.Disksort.enqueue q r
      end
      else serve ())
    ops;
  let rec drain () =
    if not (Disk.Disksort.is_empty q) then begin
      serve ();
      drain ()
    end
  in
  drain ();
  (List.rev !served, List.rev !enqueued)

let gen_ops =
  QCheck.(
    list_of_size
      (Gen.int_range 1 60)
      (triple bool (int_bound 5000) (QCheck.map (fun n -> n = 0) (int_bound 4))))

let prop_no_loss policy =
  Helpers.qtest ~count:150
    (Printf.sprintf "%s: every request served exactly once"
       (match policy with Disk.Disksort.Fifo -> "fifo" | Elevator -> "elevator"))
    gen_ops
    (fun ops ->
      let served, enqueued = run_queue policy ops in
      List.length served = List.length enqueued
      && List.for_all
           (fun r -> List.length (List.filter (( == ) r) served) = 1)
           enqueued)

let prop_barrier_holds =
  Helpers.qtest ~count:150 "elevator: nothing crosses a B_ORDER barrier"
    gen_ops
    (fun ops ->
      let served, enq = run_queue Disk.Disksort.Elevator ops in
      (* for each ordered request O: everything enqueued before O must be
         served before O, everything after must be served after *)
      let pos_served (r : Disk.Request.t) =
        let rec idx i = function
          | [] -> -1
          | (x : Disk.Request.t) :: rest ->
              if x == r then i else idx (i + 1) rest
        in
        idx 0 served
      in
      let rec check_before seen = function
        | [] -> true
        | (r : Disk.Request.t) :: rest ->
            if r.Disk.Request.ordered then
              let po = pos_served r in
              List.for_all (fun s -> pos_served s < po) seen
              && List.for_all (fun s -> pos_served s > po) rest
              && check_before (seen @ [ r ]) rest
            else check_before (seen @ [ r ]) rest
      in
      (* note: serves interleave with enqueues, so "before O" is only
         guaranteed for requests present when O was enqueued — which is
         exactly the [seen] prefix *)
      check_before [] enq)

(* The list-backed queue the array one replaced, kept as the reference:
   arrival order, the eligible prefix up to the first B_ORDER request,
   and the elevator's first-lowest pick at or ahead of the head, else
   first-lowest overall. *)
module Ref_queue = struct
  let eligible = function
    | [] -> []
    | (first : Disk.Request.t) :: _ when first.ordered -> [ first ]
    | q ->
        let rec prefix = function
          | [] -> []
          | (r : Disk.Request.t) :: _ when r.ordered -> []
          | r :: rest -> r :: prefix rest
        in
        prefix q

  let best_of rs =
    List.fold_left
      (fun acc (r : Disk.Request.t) ->
        match acc with
        | Some (b : Disk.Request.t) when b.sector <= r.sector -> acc
        | _ -> Some r)
      None rs

  let next policy q ~head_sector =
    match eligible !q with
    | [] -> None
    | first :: _ as candidates ->
        let chosen =
          match policy with
          | Disk.Disksort.Fifo -> first
          | Elevator -> (
              let ahead =
                List.filter (fun (r : Disk.Request.t) -> r.sector >= head_sector) candidates
              in
              match best_of ahead with
              | Some r -> r
              | None -> Option.get (best_of candidates))
        in
        q := List.filter (fun x -> x != chosen) !q;
        Some chosen
end

(* ops: [`Enq (sector, ordered)] or [`Next head_sector]; sectors from a
   small range so equal-sector ties are common *)
let gen_queue_ops =
  QCheck.(
    list_of_size
      (Gen.int_range 1 120)
      (map
         (fun (enq, sector, ordered) ->
           if enq then `Enq (sector, ordered) else `Next sector)
         (triple (map (fun n -> n < 3) (int_bound 4)) (int_bound 40)
            (map (fun n -> n = 0) (int_bound 5)))))

let prop_queue_matches_list policy =
  Helpers.qtest ~count:300
    (Printf.sprintf "%s: array queue picks as the list queue did"
       (match policy with Disk.Disksort.Fifo -> "fifo" | Elevator -> "elevator"))
    gen_queue_ops
    (fun ops ->
      let q = Disk.Disksort.create policy and rq = ref [] in
      let same head_sector =
        match
          (Disk.Disksort.next q ~head_sector, Ref_queue.next policy rq ~head_sector)
        with
        | Some a, Some b -> a == b
        | None, None -> true
        | _ -> false
      in
      List.for_all
        (function
          | `Enq (sector, ordered) ->
              let r = mk_req ~ordered sector in
              Disk.Disksort.enqueue q r;
              rq := !rq @ [ r ];
              Disk.Disksort.length q = List.length !rq
          | `Next head_sector -> same head_sector)
        ops
      && List.for_all (fun _ -> same 0) !rq
      && Disk.Disksort.is_empty q)

let prop_geom_bijective =
  Helpers.qtest ~count:300 "geometry: sector -> CHS -> sector"
    QCheck.(int_bound (Disk.Geom.zoned_example.Disk.Geom.total_sectors - 1))
    (fun s ->
      let g = Disk.Geom.zoned_example in
      let chs = Disk.Geom.to_chs g s in
      (* re-linearise: walk zones to find the cylinder's first sector *)
      let rec zone_base cyl_base sec_base = function
        | [] -> assert false
        | (z : Disk.Geom.zone) :: rest ->
            if chs.Disk.Geom.cyl < cyl_base + z.Disk.Geom.cyls then
              sec_base
              + ((chs.Disk.Geom.cyl - cyl_base) * g.Disk.Geom.nheads * z.Disk.Geom.spt)
            else
              zone_base (cyl_base + z.Disk.Geom.cyls)
                (sec_base + (z.Disk.Geom.cyls * g.Disk.Geom.nheads * z.Disk.Geom.spt))
                rest
      in
      let back =
        zone_base 0 0 g.Disk.Geom.zones
        + (chs.Disk.Geom.head * chs.Disk.Geom.spt)
        + chs.Disk.Geom.sector
      in
      back = s)

let prop_device_timing_sane =
  Helpers.qtest ~count:20 "device: service time bounded and data correct"
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_bound 30_000) (int_range 1 32)))
    (fun reqs ->
      let e = Sim.Engine.create () in
      let d = Disk.Device.create e Helpers.small_disk in
      let ok = ref true in
      Sim.Engine.spawn e (fun () ->
          List.iter
            (fun (sector, count) ->
              let w = Bytes.init (count * 512) (fun i -> Char.chr ((sector + i) land 0xff)) in
              let t0 = Sim.Engine.now e in
              Disk.Device.write_sync d ~sector ~count ~buf:w ~buf_off:0;
              let dt = Sim.Engine.now e - t0 in
              (* a single small request can never take longer than a
                 max seek + a few rotations *)
              if dt <= 0 || dt > Sim.Time.ms 120 then ok := false;
              let r = Bytes.create (count * 512) in
              Disk.Device.read_sync d ~sector ~count ~buf:r ~buf_off:0;
              if not (Bytes.equal w r) then ok := false)
            reqs);
      Sim.Engine.run e;
      !ok)

(* Any segmentation of a request's buffer moves the same bytes as a flat
   one: write through one random cut, read back through another, on a
   bare drive and on a 2-way stripe whose fragments take [Iov.sub]
   slices of the parent's iov. *)
let prop_segmented_requests_match_flat =
  Helpers.qtest ~count:40 "request iov: any segmentation moves the same bytes"
    QCheck.(
      quad (int_bound 20_000) (int_range 1 48) (small_list small_nat)
        (small_list small_nat))
    (fun (sector, count, wcuts, rcuts) ->
      let len = count * 512 in
      let data = Bytes.init len (fun i -> Char.chr ((sector + (i * 7)) land 0xff)) in
      (* [target e] builds the drive or volume on engine [e]: its submit
         and its backing store *)
      let run target =
        let e = Sim.Engine.create () in
        let submit, store = target e in
        let sink = Helpers.segmented (Bytes.make len '?') rcuts in
        Sim.Engine.spawn e (fun () ->
            let io kind iov =
              let r = Disk.Request.of_iov ~kind ~sector ~count iov () in
              submit r;
              Disk.Request.wait e r
            in
            io Disk.Request.Write (Helpers.segmented data wcuts);
            io Disk.Request.Read sink);
        Sim.Engine.run e;
        let flat = Bytes.create len in
        Disk.Store.read store ~off:(sector * 512) ~len flat 0;
        Bytes.equal (Sim.Iov.to_bytes sink) data && Bytes.equal flat data
      in
      run (fun e ->
          let d = Disk.Device.create e Helpers.small_disk in
          (Disk.Device.submit d, Disk.Device.store d))
      && run (fun e ->
             let v =
               Disk.Blkdev.create ~stripe_bytes:(8 * 512) e Disk.Blkdev.Stripe
                 [| Helpers.small_disk; Helpers.small_disk |]
             in
             (Disk.Blkdev.submit v, Disk.Blkdev.store v)))

let suites =
  [
    ( "disk-props",
      [
        prop_no_loss Disk.Disksort.Fifo;
        prop_no_loss Disk.Disksort.Elevator;
        prop_barrier_holds;
        prop_queue_matches_list Disk.Disksort.Fifo;
        prop_queue_matches_list Disk.Disksort.Elevator;
        prop_geom_bijective;
        prop_device_timing_sane;
        prop_segmented_requests_match_flat;
      ] );
  ]
