(* Entry point aggregating every library's test suite. *)

let () =
  Alcotest.run "estima"
    [
      ("numerics", Test_numerics.suite);
      ("fit-core", Test_fit_core.suite);
      ("kernels", Test_kernels.suite);
      ("machine", Test_machine.suite);
      ("simulator", Test_simulator.suite);
      ("counters", Test_counters.suite);
      ("workloads", Test_workloads.suite);
      ("estima", Test_estima.suite);
      ("confidence", Test_confidence.suite);
      ("diag", Test_diag.suite);
      ("obs", Test_obs.suite);
      ("par", Test_par.suite);
      ("repro", Test_repro.suite);
      ("service", Test_service.suite);
      ("store", Test_store.suite);
      ("faults", Test_faults.suite);
      ("wire-tcp", Test_wire_tcp.suite);
      ("load", Test_load.suite);
      ("exit-codes", Test_exit_codes.suite);
      ("validate", Test_validate.suite);
      ("properties", Test_properties.suite);
    ]
