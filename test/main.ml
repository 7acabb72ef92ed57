let () =
  Alcotest.run "clusterfs"
    (Test_sim.suites @ Test_disk.suites @ Test_vm.suites @ Test_vfs.suites
   @ Test_ufs_format.suites @ Test_alloc.suites @ Test_bmap.suites
   @ Test_cluster.suites @ Test_fs.suites @ Test_fsck.suites
   @ Test_workload.suites @ Test_integration.suites @ Test_props.suites
   @ Test_border.suites @ Test_crash.suites @ Test_metabuf.suites
   @ Test_dir.suites @ Test_concurrency.suites @ Test_disk_props.suites
   @ Test_efs.suites @ Test_vol.suites @ Test_metrics.suites @ Test_nfs.suites
   @ Test_fio.suites @ Test_streams.suites @ Test_json.suites
   @ Test_span.suites @ Test_jrnl.suites @ Test_recycle.suites
   @ Test_transport.suites @ Test_lend.suites)
