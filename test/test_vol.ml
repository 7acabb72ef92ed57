(* Volumes on the one block device: geometry/capacity rules, data
   round-trips across stripe and member boundaries, mirror redundancy
   and fault injection, and the 1-member pass-through equivalence. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* a second, smaller drive for unequal-member volumes (~9.4 MB) *)
let tiny_geom =
  Disk.Geom.create ~rpm:4316 ~nheads:4
    ~zones:[ { Disk.Geom.cyls = 96; spt = 48 } ]
    ()

let tiny_disk = { Disk.Device.default_config with Disk.Device.geom = tiny_geom }

let small_cap = Disk.Geom.capacity_bytes Helpers.small_geom
let tiny_cap = Disk.Geom.capacity_bytes tiny_geom

let with_vol ?stripe_bytes layout cfgs f =
  let e = Sim.Engine.create () in
  let v = Disk.Blkdev.create ?stripe_bytes e layout cfgs in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e v));
  Sim.Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "vol test hung"

let vol_write v e ~sector ~count ~buf =
  let r =
    Disk.Request.make ~kind:Disk.Request.Write ~sector ~count ~buf ~buf_off:0 ()
  in
  Disk.Blkdev.submit v r;
  Disk.Request.wait e r

let vol_read v e ~sector ~count ~buf =
  let r =
    Disk.Request.make ~kind:Disk.Request.Read ~sector ~count ~buf ~buf_off:0 ()
  in
  Disk.Blkdev.submit v r;
  Disk.Request.wait e r

(* ---------- capacity / geometry rules ---------- *)

let test_capacities () =
  let two_small = [| Helpers.small_disk; Helpers.small_disk |] in
  let uneven = [| Helpers.small_disk; tiny_disk |] in
  let e = Sim.Engine.create () in
  check_int "concat sums members"
    (small_cap + tiny_cap)
    (Disk.Blkdev.capacity_bytes
       (Disk.Blkdev.create e Disk.Blkdev.Concat uneven));
  (* stripe: floor each member to whole units, truncate to the smallest *)
  let su = 128 * 1024 in
  let v = Disk.Blkdev.create e Disk.Blkdev.Stripe uneven ~stripe_bytes:su in
  check_int "stripe truncates to smallest member" (2 * (tiny_cap / su) * su)
    (Disk.Blkdev.capacity_bytes v);
  check_int "stripe of equals" (2 * (small_cap / su) * su)
    (Disk.Blkdev.capacity_bytes
       (Disk.Blkdev.create e Disk.Blkdev.Stripe two_small ~stripe_bytes:su));
  check_int "mirror is the smallest member" tiny_cap
    (Disk.Blkdev.capacity_bytes
       (Disk.Blkdev.create e Disk.Blkdev.Mirror uneven));
  (* invalid configurations *)
  Alcotest.check_raises "no members"
    (Invalid_argument "Blkdev.create: no members") (fun () ->
      ignore (Disk.Blkdev.create e Disk.Blkdev.Concat [||]));
  Alcotest.check_raises "stripe unit not a sector multiple"
    (Invalid_argument
       "Blkdev.create: stripe unit must be a positive sector multiple")
    (fun () ->
      ignore
        (Disk.Blkdev.create e Disk.Blkdev.Stripe two_small ~stripe_bytes:1000));
  Alcotest.check_raises "oversized stripe unit"
    (Invalid_argument "Blkdev.create: stripe unit exceeds smallest member")
    (fun () ->
      ignore
        (Disk.Blkdev.create e Disk.Blkdev.Stripe uneven
           ~stripe_bytes:(2 * tiny_cap)))

(* [capacity] is the authoritative device size; [geom] is a per-member
   timing hint.  A file system built on a 2-disk concat must span both
   members, not stop at what the (member-0) geometry suggests. *)
let test_blkdev_capacity_authoritative () =
  let two_small = [| Helpers.small_disk; Helpers.small_disk |] in
  with_vol Disk.Blkdev.Concat two_small (fun e bd ->
      check_int "capacity sums the members" (2 * small_cap)
        (Disk.Blkdev.capacity_bytes bd);
      check_int "geom still describes one member" small_cap
        (Disk.Geom.capacity_bytes (Disk.Blkdev.geom bd));
      Ufs.Fs.mkfs bd ~opts:Helpers.small_mkfs ();
      let cpu = Sim.Cpu.create e in
      let pool = Vm.Pool.create e (Vm.Param.default ~memory_mb:4 ()) in
      let fs =
        Ufs.Fs.mount e cpu pool bd ~features:Ufs.Types.features_clustered ()
      in
      let s = Ufs.Fs.statfs fs in
      check_bool "file system spans both spindles" true
        (s.Ufs.Fs.f_frags * Ufs.Layout.fsize > small_cap);
      Ufs.Fs.unmount fs)

(* ---------- data round-trips ---------- *)

let pattern n seed = Bytes.init n (fun i -> Helpers.pattern_byte ~seed i)

(* write a pattern over a sector range, read it back through the volume,
   and check the bytes survived the member remapping: the read returns
   them, and they sit at the range's own offset of the device's store *)
let roundtrip ?stripe_bytes layout cfgs ~sector ~count =
  with_vol ?stripe_bytes layout cfgs (fun e v ->
      let w = pattern (count * 512) sector in
      vol_write v e ~sector ~count ~buf:w;
      let r = Bytes.create (count * 512) in
      vol_read v e ~sector ~count ~buf:r;
      let image = Bytes.create (count * 512) in
      Disk.Store.read (Disk.Blkdev.store v) ~off:(sector * 512)
        ~len:(count * 512) image 0;
      Bytes.equal w r && Bytes.equal w image)

let test_roundtrips () =
  let uneven = [| Helpers.small_disk; tiny_disk |] in
  let three = [| tiny_disk; tiny_disk; tiny_disk |] in
  (* concat: a run crossing the member-0/member-1 boundary *)
  let m0_sectors = small_cap / 512 in
  check_bool "concat crosses member boundary" true
    (roundtrip Disk.Blkdev.Concat uneven ~sector:(m0_sectors - 7)
       ~count:16);
  (* stripe: 8KB units, a run spanning >= 3 stripe units and all members *)
  check_bool "stripe spans 3+ units" true
    (roundtrip Disk.Blkdev.Stripe three ~stripe_bytes:8192 ~sector:5
       ~count:60);
  check_bool "stripe unaligned single sector" true
    (roundtrip Disk.Blkdev.Stripe three ~stripe_bytes:8192 ~sector:333
       ~count:1);
  check_bool "mirror" true
    (roundtrip Disk.Blkdev.Mirror uneven ~sector:1000 ~count:24)

let test_stripe_split_lands_on_all_members () =
  let three = [| tiny_disk; tiny_disk; tiny_disk |] in
  with_vol Disk.Blkdev.Stripe three ~stripe_bytes:8192 (fun e v ->
      (* 48KB from sector 0 = 6 units of 16 sectors: two per member *)
      let count = 96 in
      let buf = pattern (count * 512) 3 in
      vol_write v e ~sector:0 ~count ~buf;
      check_int "one parent split" 1 (Disk.Blkdev.splits v);
      Array.iteri
        (fun i d ->
          check_int
            (Printf.sprintf "member %d write count" i)
            2
            (Disk.Device.stats d).Disk.Device.writes;
          check_int
            (Printf.sprintf "member %d sectors written" i)
            32
            (Disk.Device.stats d).Disk.Device.sectors_written)
        (Disk.Blkdev.members v);
      (* member 1's first unit is logical unit 1: its drive serves
         member sector 0 for a write of logical unit 1 alone, and the
         bytes land at logical unit 1 of the device's store *)
      let log = Helpers.disk_log (Disk.Blkdev.members v) in
      let unit1 = pattern 8192 11 in
      vol_write v e ~sector:16 ~count:16 ~buf:unit1;
      (match log () with
      | [ (1, ev) ] ->
          check_int "member 1 serves member sector 0" 0
            ev.Disk.Device.sector;
          check_int "one unit" 16 ev.Disk.Device.count
      | _ -> Alcotest.fail "want one write, on member 1");
      let got = Bytes.create 8192 in
      Disk.Store.read (Disk.Blkdev.store v) ~off:8192 ~len:8192 got 0;
      check_bool "member 1 unit 0 = logical unit 1" true
        (Bytes.equal got unit1))

(* ---------- mirror behaviour ---------- *)

let test_mirror_writes_both_then_survives_failure () =
  let two = [| Helpers.small_disk; Helpers.small_disk |] in
  with_vol Disk.Blkdev.Mirror two (fun e v ->
      let buf = pattern (16 * 512) 7 in
      vol_write v e ~sector:40 ~count:16 ~buf;
      Array.iter
        (fun d ->
          check_int "every member saw the write" 16
            (Disk.Device.stats d).Disk.Device.sectors_written)
        (Disk.Blkdev.members v);
      (* kill member 0; reads must come back intact off member 1 *)
      Disk.Blkdev.fail_member v 0;
      let r = Bytes.create (16 * 512) in
      vol_read v e ~sector:40 ~count:16 ~buf:r;
      vol_read v e ~sector:40 ~count:16 ~buf:r;
      check_bool "read-back after member failure" true (Bytes.equal buf r);
      check_int "dead member served no reads" 0
        (Disk.Device.stats (Disk.Blkdev.members v).(0)).Disk.Device.reads;
      (* degraded writes are dropped on the dead member and counted *)
      vol_write v e ~sector:80 ~count:8 ~buf:(pattern (8 * 512) 8);
      check_int "dropped write counted" 1 (Disk.Blkdev.dropped_writes v).(0);
      check_int "survivor still written" 24
        (Disk.Device.stats (Disk.Blkdev.members v).(1))
          .Disk.Device.sectors_written;
      (* repair: members share one image, so the repaired member is
         immediately consistent *)
      Disk.Blkdev.repair_member v 0;
      check_bool "repaired" false (Disk.Blkdev.failed v 0))

let test_stripe_failed_member_raises () =
  let two = [| tiny_disk; tiny_disk |] in
  with_vol Disk.Blkdev.Stripe two ~stripe_bytes:8192 (fun e v ->
      Disk.Blkdev.fail_member v 1;
      (* sectors 0..15 live on member 0: still fine *)
      vol_write v e ~sector:0 ~count:8 ~buf:(pattern (8 * 512) 1);
      check_bool "member-0 I/O still works" true true;
      match vol_read v e ~sector:16 ~count:8 ~buf:(Bytes.create (8 * 512)) with
      | () -> Alcotest.fail "read touching failed member should raise"
      | exception Failure _ -> ())

(* ---------- pass-through equivalence ---------- *)

(* A 1-member concat must produce the very same request stream — same
   sectors, same virtual-time completions — as the bare drive. *)
let test_single_member_passthrough () =
  let run_bare () =
    let e = Sim.Engine.create () in
    let d = Disk.Device.create e Helpers.small_disk in
    let log = Helpers.disk_log [| d |] in
    Sim.Engine.spawn e (fun () ->
        let b = Bytes.create 8192 in
        Disk.Device.write_sync d ~sector:100 ~count:16 ~buf:b ~buf_off:0;
        Disk.Device.read_sync d ~sector:100 ~count:16 ~buf:b ~buf_off:0;
        Disk.Device.read_sync d ~sector:500 ~count:4 ~buf:b ~buf_off:0);
    Sim.Engine.run e;
    List.map snd (log ())
  in
  let run_vol () =
    with_vol Disk.Blkdev.Concat [| Helpers.small_disk |] (fun e v ->
        let log = Helpers.disk_log [| (Disk.Blkdev.members v).(0) |] in
        let b = Bytes.create 8192 in
        vol_write v e ~sector:100 ~count:16 ~buf:b;
        vol_read v e ~sector:100 ~count:16 ~buf:b;
        vol_read v e ~sector:500 ~count:4 ~buf:b;
        check_int "nothing was split" 0 (Disk.Blkdev.splits v);
        List.map snd (log ()))
  in
  let bare = run_bare () and vol = run_vol () in
  check_int "same event count" (List.length bare) (List.length vol);
  List.iter2
    (fun (a : Disk.Device.event) (b : Disk.Device.event) ->
      check_int "same virtual time" a.Disk.Device.at b.Disk.Device.at;
      check_int "same sector" a.Disk.Device.sector b.Disk.Device.sector;
      check_int "same count" a.Disk.Device.count b.Disk.Device.count)
    bare vol

(* ---------- qcheck: random round-trips on every layout ---------- *)

(* runs start within 2000 sectors of [from] *)
let prop_roundtrip layout ?stripe_bytes ?(from = 0) cfgs =
  QCheck.Test.make ~count:30
    ~name:
      (Printf.sprintf "%s round-trip" (Disk.Blkdev.layout_to_string layout))
    QCheck.(pair (int_bound 2000) (int_range 1 200))
    (fun (sector, count) ->
      roundtrip ?stripe_bytes layout cfgs ~sector:(from + sector) ~count)

let qcheck_tests =
  let uneven = [| tiny_disk; Helpers.small_disk |] in
  List.map Helpers.to_alcotest
    [
      (* around the member 0/member 1 boundary *)
      prop_roundtrip Disk.Blkdev.Concat ~from:((tiny_cap / 512) - 1000)
        uneven;
      prop_roundtrip Disk.Blkdev.Stripe ~stripe_bytes:8192 uneven;
      prop_roundtrip Disk.Blkdev.Mirror uneven;
    ]

(* ---------- a whole machine on a striped volume ---------- *)

let test_machine_on_stripe () =
  let vol =
    { Clusterfs.Config.disks = 4; layout = Disk.Blkdev.Stripe; stripe_kb = 64 }
  in
  let m = Helpers.machine ~vol () in
  check_int "machine has 4 member drives" 4
    (Array.length (Disk.Blkdev.members m.Clusterfs.Machine.dev));
  Clusterfs.Machine.run m (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let ip = Ufs.Fs.creat fs "/striped" in
      Helpers.write_pattern fs ip ~seed:4 ~off:0 ~len:300_000;
      Ufs.Fs.fsync fs ip;
      Helpers.check_pattern fs ip ~seed:4 ~off:0 ~len:300_000;
      Ufs.Iops.iput fs ip);
  (* the work really spread across spindles *)
  let busy =
    Array.fold_left
      (fun n d ->
        if (Disk.Device.stats d).Disk.Device.writes > 0 then n + 1 else n)
      0 (Disk.Blkdev.members m.Clusterfs.Machine.dev)
  in
  check_bool "several members wrote" true (busy >= 2);
  (* fsck sees one consistent logical image through the volume *)
  Helpers.fsck_clean m

let suites =
  [
    ( "vol",
      [
        Alcotest.test_case "capacities and edge cases" `Quick test_capacities;
        Alcotest.test_case "blkdev capacity is authoritative" `Quick
          test_blkdev_capacity_authoritative;
        Alcotest.test_case "round-trips across boundaries" `Quick
          test_roundtrips;
        Alcotest.test_case "stripe split: fan-out and mapping" `Quick
          test_stripe_split_lands_on_all_members;
        Alcotest.test_case "mirror: fan-in, failure, repair" `Quick
          test_mirror_writes_both_then_survives_failure;
        Alcotest.test_case "stripe: failed member raises" `Quick
          test_stripe_failed_member_raises;
        Alcotest.test_case "1-member volume == bare drive" `Quick
          test_single_member_passthrough;
        Alcotest.test_case "machine on a 4-disk stripe" `Quick
          test_machine_on_stripe;
      ]
      @ qcheck_tests );
  ]
