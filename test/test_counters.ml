(* Tests for event attribution, plugins, samples, series and collection. *)

open Estima_machine
open Estima_sim
open Estima_counters

let stm_spec =
  {
    Spec.name = "counters-stm";
    scaling = Spec.Strong 6_000;
    private_footprint_lines = 1000;
    shared_footprint_lines = 4000;
    footprint_scales_with_threads = false;
    op =
      {
        Spec.useful_cycles = 300.0;
        useful_cv = 0.05;
        mem_reads = 6;
        mem_writes = 2;
        shared_fraction = 0.3;
        write_shared_fraction = 0.3;
        fp_fraction = 0.1;
        dependency_factor = 0.15;
        branch_mpki = 2.0;
        frontend_cycles = 8.0;
        sync = Spec.Transactional { reads = 8; writes = 4; key_space = 512; abort_penalty_cycles = 40.0 };
        barrier_every = None;
        barrier_kind = Spec.Spinlock;
      };
  }

let run_once ?(machine = Machines.opteron48) ?(threads = 8) () =
  Engine.run ~seed:5 ~machine ~spec:stm_spec ~threads ()

(* Substring check without depending on astring. *)
let astring_free_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let _ = astring_free_contains

(* ------------------------------------------------------------------ *)

let test_event_tables () =
  Alcotest.(check int) "amd table 2 size" 5 (List.length Event.amd_backend);
  Alcotest.(check int) "intel table 3 size" 5 (List.length Event.intel_backend);
  let codes = List.map (fun e -> e.Event.code) Event.amd_backend in
  Alcotest.(check (list string)) "amd codes" [ "0D2h"; "0D5h"; "0D6h"; "0D7h"; "0D8h" ] codes;
  let icodes = List.map (fun e -> e.Event.code) Event.intel_backend in
  Alcotest.(check (list string)) "intel codes" [ "0487h"; "01A2h"; "04A2h"; "08A2h"; "10A2h" ] icodes

let test_event_find () =
  Alcotest.(check bool) "amd ls full" true (Event.find Topology.Amd "0D8h" <> None);
  Alcotest.(check bool) "intel rob" true (Event.find Topology.Intel "10A2h" <> None);
  Alcotest.(check bool) "cross vendor miss" true (Event.find Topology.Intel "0D8h" = None)

let test_attribution_weights_sum_to_one () =
  List.iter
    (fun vendor ->
      List.iter
        (fun cause ->
          let rows = Event.attribution vendor cause in
          if Stall.is_software cause then
            Alcotest.(check int) "software unattributed" 0 (List.length rows)
          else begin
            let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 rows in
            if Float.abs (total -. 1.0) > 1e-9 then
              Alcotest.failf "%s attribution sums to %g" (Stall.label cause) total
          end)
        Stall.all)
    [ Topology.Amd; Topology.Intel ]

let test_attribution_conserves_cycles () =
  (* Sum of attributed counters = hardware stalls in the ledger. *)
  let r = run_once () in
  let attributed = Event.attribute_ledger Topology.Amd r.Engine.ledger in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 attributed in
  let expected =
    Ledger.total_hardware_backend r.Engine.ledger +. Ledger.get r.Engine.ledger Stall.Frontend
  in
  if Float.abs (total -. expected) > 1e-6 *. expected then
    Alcotest.failf "attribution leaks cycles: %g vs %g" total expected

let test_plugin_pthread_rejects_nothing () =
  (match Plugin.validate Plugin.pthread_wrapper with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Plugin.validate Plugin.swisstm with Ok () -> () | Error e -> Alcotest.fail e

let test_plugin_rejects_hardware_causes () =
  let bad = { Plugin.name = "bad"; causes = [ Stall.Coherence ]; combine = Plugin.Sum } in
  match Plugin.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "hardware cause accepted in plugin"

let test_plugin_reads_stm_aborts () =
  let r = run_once ~threads:12 () in
  let v = Plugin.read Plugin.swisstm r in
  let expect = Ledger.get r.Engine.ledger Stall.Stm_abort in
  Alcotest.(check (float 1e-6)) "sum equals merged ledger" expect v

let test_plugin_combines () =
  let r = run_once ~threads:4 () in
  let base = { Plugin.swisstm with Plugin.combine = Plugin.Max } in
  let vmax = Plugin.read base r in
  let vmin = Plugin.read { base with Plugin.combine = Plugin.Min } r in
  let vavg = Plugin.read { base with Plugin.combine = Plugin.Average } r in
  Alcotest.(check bool) "min <= avg <= max" true (vmin <= vavg && vavg <= vmax)

let test_sample_of_run () =
  let r = run_once () in
  let s = Sample.of_run ~plugins:[ Plugin.swisstm ] ~vendor:Topology.Amd r in
  Alcotest.(check int) "threads" 8 s.Sample.threads;
  Alcotest.(check int) "six events (5 backend + frontend)" 6 (List.length s.Sample.counters);
  Alcotest.(check int) "one plugin" 1 (List.length s.Sample.software);
  Alcotest.(check bool) "counter lookup" true (Sample.counter s "0D8h" >= 0.0);
  Alcotest.(check bool) "plugin lookup" true (Sample.counter s "stm-abort" >= 0.0);
  (try
     ignore (Sample.counter s "bogus");
     Alcotest.fail "unknown category accepted"
   with Not_found -> ())

let test_sample_categories () =
  let r = run_once () in
  let s = Sample.of_run ~plugins:[ Plugin.swisstm ] ~vendor:Topology.Amd r in
  let no_fe = Sample.categories s ~include_frontend:false in
  let with_fe = Sample.categories s ~include_frontend:true in
  Alcotest.(check int) "5 hw + 1 sw" 6 (List.length no_fe);
  Alcotest.(check int) "6 hw + 1 sw" 7 (List.length with_fe);
  Alcotest.(check bool) "frontend excluded" true (not (List.mem "0D0h" no_fe));
  Alcotest.(check bool) "frontend included" true (List.mem "0D0h" with_fe)

let test_sample_total_stalls () =
  let r = run_once () in
  let s = Sample.of_run ~plugins:[ Plugin.swisstm ] ~vendor:Topology.Amd r in
  let hw = Sample.total_stalls s ~include_frontend:false ~include_software:false in
  let hw_sw = Sample.total_stalls s ~include_frontend:false ~include_software:true in
  let all = Sample.total_stalls s ~include_frontend:true ~include_software:true in
  Alcotest.(check bool) "software adds" true (hw_sw >= hw);
  Alcotest.(check bool) "frontend adds" true (all >= hw_sw)

let test_series_sorting_and_validation () =
  let r4 = run_once ~threads:4 () and r2 = run_once ~threads:2 () in
  let s4 = Sample.of_run ~plugins:[] ~vendor:Topology.Amd r4 in
  let s2 = Sample.of_run ~plugins:[] ~vendor:Topology.Amd r2 in
  let series = Series.make ~machine:Machines.opteron48 ~spec_name:"x" [ s4; s2 ] in
  Alcotest.(check (array (float 0.0))) "sorted" [| 2.0; 4.0 |] (Series.threads series);
  Alcotest.check_raises "duplicate rejected" (Invalid_argument "Series.make: duplicate thread count")
    (fun () -> ignore (Series.make ~machine:Machines.opteron48 ~spec_name:"x" [ s2; s2 ]))

let test_collector_full_series () =
  let series =
    Collector.collect
      ~options:{ Collector.default_options with Collector.plugins = [ Plugin.swisstm ] }
      ~machine:Machines.opteron48 ~spec:stm_spec
      ~thread_counts:(Collector.default_thread_counts ~max:6)
      ()
  in
  Alcotest.(check int) "six samples" 6 (Array.length series.Series.samples);
  Alcotest.(check int) "max threads" 6 (Series.max_threads series);
  let times = Series.times series in
  Alcotest.(check bool) "parallelism helps initially" true (times.(5) < times.(0));
  let aborts = Series.category_values series "stm-abort" in
  Alcotest.(check bool) "aborts grow with threads" true (aborts.(5) > aborts.(0))

let test_collector_repetitions_smooth () =
  let opts reps = { Collector.default_options with Collector.repetitions = reps } in
  let s1 =
    Collector.collect ~options:(opts 1) ~machine:Machines.opteron48 ~spec:stm_spec ~thread_counts:[ 4 ] ()
  in
  let s5 =
    Collector.collect ~options:(opts 5) ~machine:Machines.opteron48 ~spec:stm_spec ~thread_counts:[ 4 ] ()
  in
  (* Averaged value differs from the single seed's (they use distinct seeds)
     but must be in the same ballpark. *)
  let t1 = (Series.times s1).(0) and t5 = (Series.times s5).(0) in
  if t5 <= 0.0 || Float.abs (t1 -. t5) > 0.5 *. t1 then
    Alcotest.failf "averaging implausible: %g vs %g" t1 t5

let test_series_truncate () =
  let series =
    Collector.collect ~machine:Machines.opteron48 ~spec:stm_spec
      ~thread_counts:(Collector.default_thread_counts ~max:8)
      ()
  in
  let cut = Series.truncate series ~max_threads:3 in
  Alcotest.(check int) "3 samples kept" 3 (Array.length cut.Series.samples);
  Alcotest.check_raises "empty truncate" (Invalid_argument "Series.truncate: no samples left")
    (fun () -> ignore (Series.truncate series ~max_threads:0))

let test_collector_validation () =
  Alcotest.check_raises "no thread counts" (Invalid_argument "Collector.collect: no thread counts")
    (fun () ->
      ignore (Collector.collect ~machine:Machines.opteron48 ~spec:stm_spec ~thread_counts:[] ()))

(* --- report files, plugin config, csv export ----------------------- *)

let test_report_file_roundtrip () =
  let r = run_once ~threads:4 () in
  let report = Report_file.render r in
  (* Scanning the rendered report recovers exactly the per-thread aborts. *)
  let scanned = Report_file.scan ~expression:"stm-abort-cycles %d" report in
  Alcotest.(check int) "one value per thread" 4 (List.length scanned);
  let total = List.fold_left ( +. ) 0.0 scanned in
  let expect = Estima_sim.Ledger.get r.Engine.ledger Estima_sim.Stall.Stm_abort in
  if Float.abs (total -. expect) > 4.0 then
    Alcotest.failf "report roundtrip off: %.0f vs %.0f" total expect

let test_report_scan_expression_validation () =
  Alcotest.check_raises "no %d" (Invalid_argument "Report_file.scan: expression must contain exactly one %d")
    (fun () -> ignore (Report_file.scan ~expression:"cycles" "x"));
  Alcotest.check_raises "two %d" (Invalid_argument "Report_file.scan: expression must contain exactly one %d")
    (fun () -> ignore (Report_file.scan ~expression:"%d and %d" "x"))

let test_report_scan_suffix () =
  let text = "a 12 cycles\nb 30 cycles\nc 7 misses\n" in
  Alcotest.(check (list (float 0.0))) "suffix filters" [ 12.0; 30.0 ]
    (Report_file.scan ~expression:"%d cycles" text)

let test_plugin_config_parse () =
  let config =
    "# swisstm statistics\n\
     name stm-abort\n\
     source stm.stats\n\
     expression stm-abort-cycles %d\n\
     combine sum\n\
     \n\
     name sync\n\
     source stdout\n\
     expression lock-spin-cycles %d\n\
     combine max\n"
  in
  match Plugin_config.parse config with
  | Error e -> Alcotest.fail e
  | Ok entries ->
      Alcotest.(check int) "two stanzas" 2 (List.length entries);
      let first = List.hd entries in
      Alcotest.(check string) "name" "stm-abort" first.Plugin_config.name;
      Alcotest.(check string) "source" "stm.stats" first.Plugin_config.source;
      Alcotest.(check bool) "combine" true (first.Plugin_config.combine = Plugin.Sum);
      let second = List.nth entries 1 in
      Alcotest.(check bool) "max" true (second.Plugin_config.combine = Plugin.Max)

let test_plugin_config_errors () =
  (match Plugin_config.parse "name x\nsource y\n" with
  | Error e -> Alcotest.(check bool) "missing expression named" true
      (astring_free_contains e "expression")
  | Ok _ -> Alcotest.fail "incomplete stanza accepted");
  match Plugin_config.parse "name x\nbogus y\n" with
  | Error e -> Alcotest.(check bool) "unknown field named" true (astring_free_contains e "bogus")
  | Ok _ -> Alcotest.fail "unknown field accepted"

let test_config_plugins_in_collector () =
  (* A configuration-file plugin travels the full loop: the simulated
     runtime's report is rendered per run, scanned by the expression, and
     the combined value appears as a software category in every sample. *)
  let entry =
    {
      Plugin_config.name = "custom-aborts";
      source = "stm.stats";
      expression = "stm-abort-cycles %d";
      combine = Plugin.Sum;
    }
  in
  let series =
    Collector.collect
      ~options:
        {
          Collector.seed = 5;
          plugins = [ Plugin.swisstm ];
          config_plugins = [ entry ];
          repetitions = 1;
        }
      ~machine:Machines.opteron48 ~spec:stm_spec ~thread_counts:[ 2; 8 ] ()
  in
  let builtin = Series.category_values series "stm-abort" in
  let custom = Series.category_values series "custom-aborts" in
  Array.iteri
    (fun i v ->
      (* The report rounds to whole cycles per thread. *)
      if Float.abs (v -. builtin.(i)) > 10.0 then
        Alcotest.failf "config plugin diverges from built-in: %.0f vs %.0f" v builtin.(i))
    custom

let test_csv_series () =
  let r = run_once ~threads:2 () in
  let s = Sample.of_run ~plugins:[ Plugin.swisstm ] ~vendor:Topology.Amd r in
  let series = Series.make ~machine:Machines.opteron48 ~spec_name:"x" [ s ] in
  let csv = Csv_export.series_to_csv series in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row" 2 (List.length lines);
  Alcotest.(check bool) "header names columns" true (astring_free_contains (List.hd lines) "0D8h");
  Alcotest.(check bool) "software column present" true (astring_free_contains (List.hd lines) "stm-abort")

let suite =
  [
    ("event tables", `Quick, test_event_tables);
    ("event find", `Quick, test_event_find);
    ("attribution weights sum to one", `Quick, test_attribution_weights_sum_to_one);
    ("attribution conserves cycles", `Quick, test_attribution_conserves_cycles);
    ("plugin builtins valid", `Quick, test_plugin_pthread_rejects_nothing);
    ("plugin rejects hardware causes", `Quick, test_plugin_rejects_hardware_causes);
    ("plugin reads stm aborts", `Quick, test_plugin_reads_stm_aborts);
    ("plugin combines", `Quick, test_plugin_combines);
    ("sample of run", `Quick, test_sample_of_run);
    ("sample categories", `Quick, test_sample_categories);
    ("sample total stalls", `Quick, test_sample_total_stalls);
    ("series sorting and validation", `Quick, test_series_sorting_and_validation);
    ("collector full series", `Quick, test_collector_full_series);
    ("collector repetitions smooth", `Quick, test_collector_repetitions_smooth);
    ("series truncate", `Quick, test_series_truncate);
    ("collector validation", `Quick, test_collector_validation);
    ("report file roundtrip", `Quick, test_report_file_roundtrip);
    ("report scan expression validation", `Quick, test_report_scan_expression_validation);
    ("report scan suffix", `Quick, test_report_scan_suffix);
    ("plugin config parse", `Quick, test_plugin_config_parse);
    ("plugin config errors", `Quick, test_plugin_config_errors);
    ("config plugins in collector", `Quick, test_config_plugins_in_collector);
    ("csv series", `Quick, test_csv_series);
  ]
