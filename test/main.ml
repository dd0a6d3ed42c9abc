let () =
  (* Before anything else: if this process was exec'd as a campaign
     worker (the process backend re-execs the hosting binary) or as a
     remote-worker daemon (the sockets backend does the same), serve
     instead of running the test suite. *)
  Worker.guard ();
  Remote.guard ();
  Service.guard ();
  (* Test-only re-exec helpers: cross-process contenders spawned by
     the cache-lock and concurrent-client tests (Unix.fork is
     unavailable once domains have run in this binary). *)
  Test_cache.helper_guard ();
  Test_service.helper_guard ();
  Alcotest.run "fipitfalls"
    [
      Test_prng.suite;
      Test_stats.suite;
      Test_isa.suite;
      Test_machine.suite;
      Test_loopproof.suite;
      Test_trace.suite;
      Test_campaign.suite;
      Test_checkpoint.suite;
      Test_engine.suite;
      Test_matrix.suite;
      Test_faultspace.suite;
      Test_process.suite;
      Test_net.suite;
      Test_supervision.suite;
      Test_mir.suite;
      Test_kernel.suite;
      Test_optimize.suite;
      Test_core.suite;
      Test_regspace.suite;
      Test_report.suite;
      Test_extensions.suite;
      Test_more.suite;
      Test_breakdown.suite;
      Test_cache.suite;
      Test_service.suite;
      Test_fuzz.suite;
    ]
