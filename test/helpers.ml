(* Shared scaffolding for the test suites: small, fast machines. *)

(* ~20 MB drive: big enough for multi-group allocation, small enough
   that every test machine builds instantly. *)
let small_geom =
  Disk.Geom.create ~rpm:4316 ~nheads:4
    ~zones:[ { Disk.Geom.cyls = 200; spt = 48 } ]
    ()

let small_mkfs =
  {
    Ufs.Fs.mkfs_defaults with
    Ufs.Fs.fpg = 4096 (* 4 MB groups *);
    ipg = 512;
    rotdelay_ms = 0;
    maxcontig = 8;
  }

let small_disk = { Disk.Device.default_config with Disk.Device.geom = small_geom }

let config ?(name = "test") ?(memory_mb = 4) ?(mkfs = small_mkfs)
    ?(features = Ufs.Types.features_clustered) ?(disk = small_disk)
    ?(vol = Clusterfs.Config.single_disk) () =
  {
    Clusterfs.Config.name;
    disk;
    vol;
    memory_mb;
    mkfs;
    features;
    costs = Ufs.Costs.default;
  }

let machine ?name ?memory_mb ?mkfs ?features ?disk ?vol () =
  Clusterfs.Machine.create (config ?name ?memory_mb ?mkfs ?features ?disk ?vol ())

(* Run [f] on a fresh small machine inside a simulation process. *)
let in_machine ?name ?memory_mb ?mkfs ?features ?disk ?vol f =
  let m = machine ?name ?memory_mb ?mkfs ?features ?disk ?vol () in
  Clusterfs.Machine.run m (fun m -> f m)

(* Deterministic file contents: byte at absolute offset [o] of a file
   seeded with [seed]. *)
let pattern_byte ~seed o = Char.chr ((o + (seed * 131)) land 0xff)

let write_pattern fs ip ~seed ~off ~len =
  let buf = Bytes.init len (fun i -> pattern_byte ~seed (off + i)) in
  Ufs.Fs.write fs ip ~off ~buf ~len

let check_pattern fs ip ~seed ~off ~len =
  let buf = Bytes.create len in
  let n = Ufs.Fs.read fs ip ~off ~buf ~len in
  Alcotest.(check int) "read length" len n;
  let ok = ref true in
  for i = 0 to len - 1 do
    if Bytes.get buf i <> pattern_byte ~seed (off + i) then ok := false
  done;
  Alcotest.(check bool)
    (Printf.sprintf "pattern intact at [%d,%d)" off (off + len))
    true !ok

let fsck_clean m =
  Clusterfs.Machine.run m (fun m -> Ufs.Fs.unmount m.Clusterfs.Machine.fs);
  let report = Ufs.Fsck.check m.Clusterfs.Machine.dev in
  Alcotest.(check (list string)) "fsck problems" [] report.Ufs.Fsck.problems

(* [flat]'s bytes as an iov cut at [cuts] (taken mod the length), each
   segment placed at a small offset inside a larger base buffer so
   segment offsets are exercised too.  Duplicate cuts give empty
   segments, which the iov drops. *)
let segmented flat cuts =
  let len = Bytes.length flat in
  let cuts = List.sort compare (List.map (fun c -> c mod (len + 1)) cuts) in
  let rec pieces = function
    | a :: (b :: _ as rest) ->
        let pad = a mod 7 in
        let base = Bytes.make (b - a + pad + 3) '#' in
        Bytes.blit flat a base pad (b - a);
        (base, pad, b - a) :: pieces rest
    | _ -> []
  in
  Sim.Iov.of_list (pieces ((0 :: cuts) @ [ len ]))

(* Every qcheck property runs from one fixed seed, so tier-1 gives the
   same result on every run.  Setting qcheck's own QCHECK_SEED draws
   the cases from that seed instead (qcheck prints it): the CI explore
   job runs the suite under fresh seeds that way. *)
let to_alcotest ?speed_level t =
  let rand =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some _ -> None
    | None -> Some (Random.State.make [| 20260419 |])
  in
  QCheck_alcotest.to_alcotest ?speed_level ?rand t

let qtest ?(count = 100) name arb law =
  to_alcotest (QCheck.Test.make ~count ~name arb law)

let idle (p : Vm.Page.t) = p.valid && (not p.dirty) && not p.busy

(* The page-cache oracle: [expect p id] holds for every valid, clean,
   idle page [p] of [pool], named [id], and no free page still lends
   its frame to the store.  A frame the store gave back for reuse while
   a page still held it shows up here even when a later read-back
   happens to agree. *)
let idle_pages_match pool ~expect =
  Array.for_all
    (fun (p : Vm.Page.t) ->
      match p.ident with
      | Some id when idle p -> expect p id
      | Some _ -> true
      | None -> not p.lent)
    (Vm.Pool.frames pool)

(* [idle_pages_match] for UFS: each page holds the store's bytes for its
   block up to EOF (zeros over a hole).  Must run in a process: bmap may
   read an indirect block. *)
let pages_match_store (fs : Ufs.Types.fs) =
  let store = Disk.Blkdev.store fs.Ufs.Types.dev in
  let bsize = Ufs.Layout.bsize in
  let disk = Bytes.create bsize in
  idle_pages_match fs.Ufs.Types.pool ~expect:(fun p ({ vid; off } as id) ->
      let ip = Ufs.Iops.iget fs vid in
      let n = min bsize (ip.Ufs.Types.size - off) in
      let ok =
        n <= 0
        ||
        let frag, _ = Ufs.Bmap.read fs ip ~lbn:(off / bsize) in
        (match frag with
        | Some frag ->
            Disk.Store.read store ~off:(frag * Ufs.Layout.fsize) ~len:n disk 0
        | None -> Bytes.fill disk 0 n '\000');
        (* bmap may have slept: judge only a page still as it was *)
        p.ident <> Some id
        || (not (idle p))
        || Bytes.equal (Bytes.sub p.data 0 n) (Bytes.sub disk 0 n)
      in
      Ufs.Iops.iput fs ip;
      ok)

(* The request log of [disks]: observe every drive from now on and
   return a reader of the [(member index, event)] pairs so far, in the
   order the drives reported them.  blktrace prints the same pairs,
   sorted by time and member.  Calling it again on the same drives
   starts a fresh log. *)
let disk_log disks =
  let log = ref [] in
  Array.iteri
    (fun i d -> Disk.Device.observe d (Some (fun e -> log := (i, e) :: !log)))
    disks;
  fun () -> List.rev !log
