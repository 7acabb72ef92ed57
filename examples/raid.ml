(* RAID: mount the clustered UFS on a 4-disk stripe set and compare a
   sequential write and a cold sequential read against the single-disk
   machine.

   The volume manager slots in underneath the file system: the same
   Config.config_a, same workload — only Config.with_vol changes where
   the sectors land.  With a 128KB stripe unit each 120KB cluster stays
   one member I/O.  The asynchronous write stream fans out across the
   members and scales with spindle count; the cold read gains less —
   a single sequential reader has one synchronous cluster plus one
   read-ahead in flight, so at most two members overlap.

   Run with:  dune exec examples/raid.exe *)

let measure config =
  let machine = Clusterfs.Machine.create config in
  let mb = 8 in
  let rates =
    Clusterfs.Machine.run machine (fun m ->
        let fs = m.Clusterfs.Machine.fs in
        let file = Ufs.Fs.creat fs "/big.dat" in
        let block = Bytes.make 8192 's' in
        let w0 = Sim.Engine.now m.Clusterfs.Machine.engine in
        for i = 0 to (mb * 128) - 1 do
          Ufs.Fs.write fs file ~off:(i * 8192) ~buf:block ~len:8192
        done;
        Ufs.Fs.fsync fs file;
        let wdt = Sim.Engine.now m.Clusterfs.Machine.engine - w0 in

        (* drop the cache so the timed read hits the disks *)
        Vm.Pool.invalidate_vnode fs.Ufs.Types.pool file.Ufs.Types.inum;
        Ufs.Types.reset_rstreams file;

        let t0 = Sim.Engine.now m.Clusterfs.Machine.engine in
        let buf = Bytes.create 8192 in
        for i = 0 to (mb * 128) - 1 do
          ignore (Ufs.Fs.read fs file ~off:(i * 8192) ~buf ~len:8192)
        done;
        let dt = Sim.Engine.now m.Clusterfs.Machine.engine - t0 in
        Ufs.Iops.iput fs file;
        ( float_of_int (mb * 1024) /. Sim.Time.to_sec_float wdt,
          float_of_int (mb * 1024) /. Sim.Time.to_sec_float dt ))
  in
  (* how the volume spread the work over its members *)
  Array.iteri
    (fun i d ->
      let s = Disk.Device.stats d in
      Printf.printf "    disk %d: %4d reads, %6d sectors\n" i
        s.Disk.Device.reads s.Disk.Device.sectors_read)
    (Disk.Blkdev.members machine.Clusterfs.Machine.dev);
  rates

let () =
  print_endline "8MB sequential write + cold read, config A (120KB clusters):";
  print_endline "  one disk:";
  let w1, r1 = measure Clusterfs.Config.config_a in
  print_endline "  4-disk stripe, 128KB stripe unit:";
  let w4, r4 =
    measure
      (Clusterfs.Config.with_vol Clusterfs.Config.config_a
         ~layout:Disk.Blkdev.Stripe ~stripe_kb:128 4)
  in
  Printf.printf "  write: one disk %.0f KB/s  ->  stripe %.0f KB/s (%.2fx)\n"
    w1 w4 (w4 /. w1);
  Printf.printf "  read:  one disk %.0f KB/s  ->  stripe %.0f KB/s (%.2fx)\n"
    r1 r4 (r4 /. r1)
