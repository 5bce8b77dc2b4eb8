(* Test runner: every suite of the reproduction — the TPAL abstract
   machine and toolchain, the simulated testbed substrate, the
   benchmark kernels, the effects-based heartbeat runtime, and the
   experiment harness. *)

let () =
  Alcotest.run "tpal-repro"
    [
      Suite_value.suite;
      Suite_machine.suite;
      Suite_step.suite;
      Suite_eval.suite;
      Suite_cost.suite;
      Suite_syntax.suite;
      Suite_trace.suite;
      Suite_rollforward.suite;
      Suite_assets.suite;
      Suite_substrate.suite;
      Suite_engine.suite;
      Suite_faults.suite;
      Suite_workloads.suite;
      Suite_par.suite;
      Suite_par.one_domain_suite;
      Suite_chaos.suite;
      Suite_fuzz.suite;
      Suite_serve.suite;
      Suite_net.suite;
      Suite_obs.suite;
      Suite_stats.suite;
      Suite_repro.suite;
    ]
