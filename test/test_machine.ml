(* Tests for topology, machines, allocation and frequency scaling. *)

open Estima_machine

let test_machine_inventory () =
  Alcotest.(check int) "four machines" 4 (List.length Machines.all);
  List.iter
    (fun m ->
      match Topology.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid machine: %s" e)
    Machines.all

let test_core_counts () =
  Alcotest.(check int) "haswell cores" 4 (Topology.cores Machines.haswell_desktop);
  Alcotest.(check int) "haswell threads" 8 (Topology.hardware_threads Machines.haswell_desktop);
  Alcotest.(check int) "opteron cores" 48 (Topology.cores Machines.opteron48);
  Alcotest.(check int) "xeon20 cores" 20 (Topology.cores Machines.xeon20);
  Alcotest.(check int) "xeon20 threads" 40 (Topology.hardware_threads Machines.xeon20);
  Alcotest.(check int) "xeon48 cores" 48 (Topology.cores Machines.xeon48)

let test_find () =
  Alcotest.(check bool) "find opteron48" true (Machines.find "opteron48" = Some Machines.opteron48);
  Alcotest.(check bool) "find nothing" true (Machines.find "sparc" = None)

let test_restrict_sockets () =
  let one = Machines.restrict_sockets Machines.opteron48 ~sockets:1 in
  Alcotest.(check int) "one socket, 12 cores" 12 (Topology.cores one);
  Alcotest.(check string) "derived name" "opteron48/1s" one.Topology.name;
  Alcotest.check_raises "too many" (Invalid_argument "Machines.restrict_sockets: bad socket count")
    (fun () -> ignore (Machines.restrict_sockets Machines.xeon20 ~sockets:3))

let test_placement_socket_first () =
  let p = Allocation.place Machines.opteron48 ~threads:12 in
  Alcotest.(check int) "12 threads fill one socket" 1 (Allocation.sockets_used p);
  let p13 = Allocation.place Machines.opteron48 ~threads:13 in
  Alcotest.(check int) "13th thread spills to socket 2" 2 (Allocation.sockets_used p13)

let test_placement_smt_last () =
  (* On xeon20 (10 cores/socket, SMT2) the first 20 threads must use 20
     distinct physical cores before any SMT sibling is used. *)
  let p = Allocation.place Machines.xeon20 ~threads:20 in
  Array.iter (fun l -> Alcotest.(check int) "smt slot 0 first" 0 l.Topology.thread) p;
  let p21 = Allocation.place Machines.xeon20 ~threads:21 in
  Alcotest.(check int) "21st thread is an SMT sibling" 1 p21.(20).Topology.thread;
  Alcotest.(check int) "sibling shares socket 0" 0 p21.(20).Topology.socket

let test_placement_bounds () =
  Alcotest.check_raises "zero threads" (Invalid_argument "Allocation.place: non-positive thread count")
    (fun () -> ignore (Allocation.place Machines.xeon20 ~threads:0));
  (try
     ignore (Allocation.place Machines.haswell_desktop ~threads:9);
     Alcotest.fail "should reject 9 threads on an 8-thread machine"
   with Invalid_argument _ -> ())

let test_numa_hops () =
  let a = { Topology.socket = 0; chip = 0; core = 0; thread = 0 } in
  let same_chip = { a with Topology.core = 3 } in
  let other_chip = { a with Topology.chip = 1 } in
  let other_socket = { a with Topology.socket = 2 } in
  Alcotest.(check int) "same chip" 0 (Topology.numa_hops a same_chip);
  Alcotest.(check int) "other chip" 1 (Topology.numa_hops a other_chip);
  Alcotest.(check int) "other socket" 2 (Topology.numa_hops a other_socket)

let test_memory_latency_monotone () =
  List.iter
    (fun m ->
      let l0 = Topology.memory_latency m ~hops:0 in
      let l1 = Topology.memory_latency m ~hops:1 in
      let l2 = Topology.memory_latency m ~hops:2 in
      Alcotest.(check bool) (m.Topology.name ^ " monotone") true (l0 <= l1 && l1 <= l2))
    Machines.all

let test_opteron_intra_socket_numa () =
  (* The Opteron MCM shows NUMA inside a socket; the Xeons do not. *)
  let opt = Machines.opteron48 and xeon = Machines.xeon20 in
  Alcotest.(check bool) "opteron hop1 costs more" true
    (Topology.memory_latency opt ~hops:1 > Topology.memory_latency opt ~hops:0);
  Alcotest.(check int) "xeon hop1 free" (Topology.memory_latency xeon ~hops:0)
    (Topology.memory_latency xeon ~hops:1)

let test_frequency_scaling () =
  let s = Frequency.time_scale ~measured_on:Machines.haswell_desktop ~target:Machines.xeon20 in
  Alcotest.(check (float 1e-9)) "3.4/2.8" (3.4 /. 2.8) s

let test_validate_catches_bad_machines () =
  let bad = { Machines.xeon20 with Topology.frequency_ghz = 0.0 } in
  (match Topology.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero frequency accepted");
  let bad2 =
    { Machines.xeon20 with Topology.timing = { Machines.xeon20.Topology.timing with Topology.llc_hit_cycles = 1 } }
  in
  match Topology.validate bad2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "inverted cache latencies accepted"

(* ------------------------------------------------------------------ *)
(* Topology edge cases: out-of-range measurement requests must be      *)
(* typed diagnostics (exit 2), never an exception from the allocator.  *)
(* ------------------------------------------------------------------ *)

let single_core_host =
  {
    Topology.name = "host:uniprocessor";
    vendor = Topology.Intel;
    sockets = 1;
    chips_per_socket = 1;
    cores_per_chip = 1;
    smt = 1;
    frequency_ghz = 2.0;
    timing =
      {
        Topology.l1_hit_cycles = 4;
        llc_hit_cycles = 36;
        local_memory_cycles = 200;
        remote_chip_penalty_cycles = 0;
        remote_socket_penalty_cycles = 150;
        memory_ports_per_controller = 2;
        memory_service_cycles = 20;
        private_cache_lines = 4096;
        llc_lines_per_socket = 262144;
      };
  }

let kmeans_spec =
  match Estima_workloads.Suite.find "kmeans" with
  | Some entry -> entry.Estima_workloads.Suite.spec
  | None -> Alcotest.fail "kmeans missing from the suite"

let test_single_core_host () =
  (match Topology.validate single_core_host with
  | Ok () -> ()
  | Error e -> Alcotest.failf "single-core host invalid: %s" e);
  Alcotest.(check int) "one core" 1 (Topology.cores single_core_host);
  Alcotest.(check int) "one hardware thread" 1 (Topology.hardware_threads single_core_host);
  (* Measuring it works, and the one-point series rides the constant
     fallback: a finite flat extrapolation that cannot claim scaling —
     never an exception out of the allocator or the fitter. *)
  let series =
    match
      Estima.Api.collect_checked ~repetitions:1 ~machine:single_core_host ~spec:kmeans_spec
        ~max_threads:1 ()
    with
    | Ok series -> series
    | Error d -> Alcotest.failf "collect on a single core must work: %s" (Estima.Diag.render d)
  in
  match Estima.Api.predict ~series ~target_max:48 () with
  | Error d -> Alcotest.failf "one-point series must still predict: %s" (Estima.Diag.render d)
  | Ok p ->
      Alcotest.(check bool) "finite positive times" true
        (Array.for_all (fun t -> Float.is_finite t && t > 0.0) p.Estima.Predictor.predicted_times);
      (* Constant extrapolated stalls translate to ideal speedup, so the
         optimistic verdict for a zero-information series is "scales". *)
      (match Estima.Api.verdict p with
      | Estima.Diag.Quality.Scales -> ()
      | v ->
          Alcotest.failf "constant stalls must scale ideally, got %s"
            (Estima.Diag.Quality.verdict_to_string v))

let test_window_larger_than_machine () =
  let opteron1s = Machines.restrict_sockets Machines.opteron48 ~sockets:1 in
  let expect_bad_config what = function
    | Error d -> (
        match d.Estima.Diag.cause with
        | Estima.Diag.Bad_config _ -> Alcotest.(check int) (what ^ ": exit 2") 2 (Estima.Diag.exit_code d)
        | _ -> Alcotest.failf "%s: expected Bad_config, got %s" what (Estima.Diag.render d))
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  expect_bad_config "window 13 on 12 threads" (Estima.Api.validate_window ~machine:opteron1s ~max_threads:13);
  expect_bad_config "window 2 on a single core" (Estima.Api.validate_window ~machine:single_core_host ~max_threads:2);
  expect_bad_config "window 0" (Estima.Api.validate_window ~machine:opteron1s ~max_threads:0);
  (match Estima.Api.validate_window ~machine:opteron1s ~max_threads:12 with
  | Ok () -> ()
  | Error d -> Alcotest.failf "full window rejected: %s" (Estima.Diag.render d));
  (* collect_checked guards the same way instead of letting
     Allocation.place raise, and checks repetitions too. *)
  expect_bad_config "collect_checked window 999"
    (Result.map ignore
       (Estima.Api.collect_checked ~machine:opteron1s ~spec:kmeans_spec ~max_threads:999 ()));
  expect_bad_config "collect_checked repetitions 0"
    (Result.map ignore
       (Estima.Api.collect_checked ~repetitions:0 ~machine:opteron1s ~spec:kmeans_spec
          ~max_threads:4 ()))

let test_non_contiguous_grid () =
  (* A thread grid with holes (batch schedulers hand out odd
     allocations): collection and prediction must both cope. *)
  let opteron1s = Machines.restrict_sockets Machines.opteron48 ~sockets:1 in
  let grid = [ 1; 2; 3; 5; 8; 12 ] in
  let series =
    Estima_counters.Collector.collect
      ~options:{ Estima_counters.Collector.default_options with Estima_counters.Collector.repetitions = 1 }
      ~machine:opteron1s ~spec:kmeans_spec ~thread_counts:grid ()
  in
  Alcotest.(check (list int)) "grid preserved" grid
    (Array.to_list (Array.map int_of_float (Estima_counters.Series.threads series)));
  match Estima.Api.predict ~series ~target_max:48 () with
  | Ok p ->
      Alcotest.(check int) "full target grid" 48 (Array.length p.Estima.Predictor.target_grid)
  | Error d -> Alcotest.failf "non-contiguous grid must predict: %s" (Estima.Diag.render d)

(* Every machine's name is a valid --machine: a socket restriction's
   "NAME/Ns" reads back as that restriction, and nothing else does. *)
let test_find_restricted () =
  List.iter
    (fun (base : Topology.t) ->
      for sockets = 1 to base.Topology.sockets do
        let m = Machines.restrict_sockets base ~sockets in
        Alcotest.(check bool) m.Topology.name true (Machines.find m.Topology.name = Some m)
      done)
    Machines.all;
  List.iter
    (fun name -> Alcotest.(check bool) name true (Machines.find name = None))
    [ "opteron48/0s"; "opteron48/5s"; "opteron48/01s"; "opteron48/1"; "sparc/1s"; "/1s" ]

let suite =
  [
    ("machine inventory", `Quick, test_machine_inventory);
    ("core counts", `Quick, test_core_counts);
    ("find", `Quick, test_find);
    ("restrict sockets", `Quick, test_restrict_sockets);
    ("placement socket first", `Quick, test_placement_socket_first);
    ("placement smt last", `Quick, test_placement_smt_last);
    ("placement bounds", `Quick, test_placement_bounds);
    ("numa hops", `Quick, test_numa_hops);
    ("memory latency monotone", `Quick, test_memory_latency_monotone);
    ("opteron intra socket numa", `Quick, test_opteron_intra_socket_numa);
    ("frequency scaling", `Quick, test_frequency_scaling);
    ("validate catches bad machines", `Quick, test_validate_catches_bad_machines);
    ("single-core host predicts without exceptions", `Quick, test_single_core_host);
    ("window larger than machine: typed Bad_config", `Quick, test_window_larger_than_machine);
    ("non-contiguous core grid collects and predicts", `Quick, test_non_contiguous_grid);
    ("find reads a socket restriction's name", `Quick, test_find_restricted);
  ]
