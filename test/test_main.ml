let () =
  Alcotest.run "otock"
    [
      ("crypto", Test_crypto.suite);
      ("sim", Test_sim.suite);
      ("event-queue", Test_event_queue.suite);
      ("mpu", Test_mpu.suite);
      ("cells", Test_cells.suite);
      ("hw", Test_hw.suite);
      ("tbf", Test_tbf.suite);
      ("syscall", Test_syscall.suite);
      ("kernel", Test_kernel.suite);
      ("tables", Test_tables.suite);
      ("alarm-mux", Test_alarm_mux.suite);
      ("loader", Test_loader.suite);
      ("capsules", Test_capsules.suite);
      ("userland", Test_userland.suite);
      ("storage", Test_storage.suite);
      ("boards", Test_boards.suite);
      ("fleet", Test_fleet.suite);
      ("scheduler", Test_scheduler.suite);
      ("adaptors", Test_adaptors.suite);
      ("kv-model", Test_kv_model.suite);
      ("features", Test_features.suite);
      ("net", Test_net.suite);
      ("storage-acl", Test_storage_acl.suite);
      ("u2f-and-props", Test_u2f.suite);
      ("fuzz", Test_fuzz.suite);
      ("extra", Test_extra.suite);
      ("app-loader", Test_app_loader.suite);
      ("obs", Test_obs.suite);
      ("analysis", Test_analysis.suite);
      ("check", Test_check.suite);
    ]
