(* Tests for the workload suite: registry integrity and the published
   qualitative scalability of key benchmarks. *)

open Estima_machine
open Estima_sim
open Estima_workloads

let time ?(seed = 11) spec threads =
  (Engine.run ~seed ~machine:Machines.opteron48 ~spec ~threads ()).Engine.time_seconds

let speedup spec threads = time spec 1 /. time spec threads

(* ------------------------------------------------------------------ *)

let test_registry_counts () =
  Alcotest.(check int) "19 table-4 workloads" 19 (List.length Suite.benchmarks);
  let production = List.filter (fun e -> e.Suite.family = Suite.Application) Suite.all in
  Alcotest.(check int) "2 production apps" 2 (List.length production);
  Alcotest.(check int) "2 fixed variants" 2
    (List.length Suite.all - List.length Suite.benchmarks - List.length production);
  Alcotest.(check int) "23 total" 23 (List.length Suite.all)

let test_registry_names_unique () =
  let names = Suite.names Suite.all in
  Alcotest.(check int) "unique names" (List.length names) (List.length (List.sort_uniq compare names))

let test_registry_find () =
  (match Suite.find "intruder" with
  | Some e -> Alcotest.(check bool) "intruder is stamp" true (e.Suite.family = Suite.Stamp)
  | None -> Alcotest.fail "intruder missing");
  Alcotest.(check bool) "unknown" true (Suite.find "doom" = None)

let test_all_specs_validate () =
  List.iter
    (fun e ->
      match Spec.validate e.Suite.spec with
      | Ok () -> ()
      | Error err -> Alcotest.fail err)
    Suite.all

let test_stm_workloads_have_swisstm () =
  List.iter
    (fun e ->
      let is_stm =
        match e.Suite.spec.Spec.op.Spec.sync with Spec.Transactional _ -> true | _ -> false
      in
      let has_plugin =
        List.exists (fun p -> p.Estima_counters.Plugin.name = "stm-abort") e.Suite.plugins
      in
      if is_stm && not has_plugin then
        Alcotest.failf "%s: STM workload without SwissTM plugin" e.Suite.spec.Spec.name)
    Suite.all

let test_streamcluster_has_pthread_plugin () =
  match Suite.find "streamcluster" with
  | None -> Alcotest.fail "streamcluster missing"
  | Some e ->
      Alcotest.(check bool) "pthread plugin" true
        (List.exists (fun p -> p.Estima_counters.Plugin.name = "pthread-sync") e.Suite.plugins)

let test_family_labels () =
  Alcotest.(check string) "stamp" "stamp" (Suite.family_label Suite.Stamp);
  Alcotest.(check string) "application" "application" (Suite.family_label Suite.Application)

(* --- published qualitative behaviour -------------------------------- *)

let test_blackscholes_scales_linearly () =
  let s = speedup Parsec.blackscholes 12 in
  if s < 10.0 then Alcotest.failf "blackscholes speedup %.1f at 12" s

let test_swaptions_scales_linearly () =
  let s = speedup Parsec.swaptions 48 in
  if s < 40.0 then Alcotest.failf "swaptions speedup %.1f at 48" s

let test_raytrace_scales () =
  let s = speedup Parsec.raytrace 48 in
  if s < 30.0 then Alcotest.failf "raytrace speedup %.1f at 48" s

let test_genome_scales () =
  let s = speedup Stamp.genome 48 in
  if s < 15.0 then Alcotest.failf "genome speedup %.1f at 48" s

let test_intruder_peaks_then_degrades () =
  let t12 = time Stamp.intruder 12 and t48 = time Stamp.intruder 48 in
  if t48 <= t12 then Alcotest.fail "intruder should slow down past one socket";
  let s12 = speedup Stamp.intruder 12 in
  if s12 < 2.0 then Alcotest.failf "intruder should still scale to 12 (%.1f)" s12

let test_yada_degrades () =
  let t8 = time Stamp.yada 8 and t48 = time Stamp.yada 48 in
  if t48 <= t8 then Alcotest.fail "yada should slow down at high core counts"

let test_kmeans_stops_scaling () =
  let s24 = speedup Stamp.kmeans 24 and s48 = speedup Stamp.kmeans 48 in
  if s48 >= s24 *. 1.1 then Alcotest.failf "kmeans kept scaling: %.1f -> %.1f" s24 s48

let test_vacation_contention_ordering () =
  (* The high-contention configuration must scale worse than the low one. *)
  let high = speedup Stamp.vacation_high 48 and low = speedup Stamp.vacation_low 48 in
  if high >= low then Alcotest.failf "vacation-high (%.1f) should trail vacation-low (%.1f)" high low

let test_streamcluster_saturates () =
  let s32 = speedup Parsec.streamcluster 32 and s48 = speedup Parsec.streamcluster 48 in
  if s48 > s32 *. 1.15 then Alcotest.failf "streamcluster kept scaling: %.1f -> %.1f" s32 s48

let test_streamcluster_fix_helps_at_scale () =
  let orig = time Parsec.streamcluster 48 in
  let fixed = time Variants.streamcluster_spinlock 48 in
  if fixed >= orig then Alcotest.fail "spinlock barrier fix should improve streamcluster at 48";
  let improvement = 1.0 -. (fixed /. orig) in
  if improvement < 0.15 then Alcotest.failf "fix too weak: %.0f%%" (improvement *. 100.0)

let test_intruder_fix_helps_at_scale () =
  let orig = time Stamp.intruder 48 in
  let fixed = time Variants.intruder_batched 48 in
  if fixed >= orig then Alcotest.fail "batched decode should improve intruder at 48";
  let improvement = 1.0 -. (fixed /. orig) in
  if improvement < 0.3 then Alcotest.failf "fix too weak: %.0f%%" (improvement *. 100.0)

let test_fixes_do_not_break_low_counts () =
  (* The fixes must not make the applications much slower at small scale. *)
  let sc_orig = time Parsec.streamcluster 4 and sc_fix = time Variants.streamcluster_spinlock 4 in
  if sc_fix > sc_orig *. 1.2 then Alcotest.fail "spinlock fix hurts at 4 cores";
  let in_orig = time Stamp.intruder 4 and in_fix = time Variants.intruder_batched 4 in
  if in_fix > in_orig *. 1.2 then Alcotest.fail "batching hurts at 4 cores"

let test_sqlite_stops_early () =
  let s4 = speedup Apps.sqlite_tpcc 4 and s16 = speedup Apps.sqlite_tpcc 16 in
  if s4 > 3.0 then Alcotest.failf "sqlite scaled too well at 4: %.1f" s4;
  if s16 > s4 *. 1.3 then Alcotest.failf "sqlite kept scaling: %.1f -> %.1f" s4 s16

let test_memcached_saturates_mid () =
  (* The Fig 6 setting: the server runs on one Xeon20 socket (10 cores,
     20 hardware threads); throughput must flatten in the SMT region. *)
  let socket = Machines.restrict_sockets Machines.xeon20 ~sockets:1 in
  let time n = (Engine.run ~seed:11 ~machine:socket ~spec:Apps.memcached ~threads:n ()).Engine.time_seconds in
  let t1 = time 1 and t10 = time 10 and t20 = time 20 in
  let s10 = t1 /. t10 and s20 = t1 /. t20 in
  if s10 < 4.0 then Alcotest.failf "memcached should scale on physical cores (%.1f)" s10;
  if s20 > s10 *. 1.5 then Alcotest.failf "memcached kept scaling into SMT: %.1f -> %.1f" s10 s20

let test_lockfree_beats_lockbased_skiplist () =
  let lb = speedup Micro.lock_based_skiplist 48 in
  let lf = speedup Micro.lock_free_skiplist 48 in
  ignore lf;
  (* Both scale; the lock-based one pays spinning that the CAS version
     converts into (cheaper) coherence, so it must not win by much. *)
  if lb > 45.0 then Alcotest.failf "lock-based SL implausibly linear: %.1f" lb

let test_dataset_scale () =
  let doubled = Spec.dataset_scale Stamp.genome 2.0 in
  Alcotest.(check int) "shared footprint doubled" (2 * Stamp.genome.Spec.shared_footprint_lines)
    doubled.Spec.shared_footprint_lines;
  Alcotest.(check int) "ops doubled" (2 * Stamp.genome.Spec.total_ops) doubled.Spec.total_ops;
  Alcotest.check_raises "non-positive factor" (Invalid_argument "Spec.dataset_scale: non-positive factor")
    (fun () -> ignore (Spec.dataset_scale Stamp.genome 0.0))

let suite =
  [
    ("registry counts", `Quick, test_registry_counts);
    ("registry names unique", `Quick, test_registry_names_unique);
    ("registry find", `Quick, test_registry_find);
    ("all specs validate", `Quick, test_all_specs_validate);
    ("stm workloads have swisstm", `Quick, test_stm_workloads_have_swisstm);
    ("streamcluster has pthread plugin", `Quick, test_streamcluster_has_pthread_plugin);
    ("family labels", `Quick, test_family_labels);
    ("blackscholes scales linearly", `Quick, test_blackscholes_scales_linearly);
    ("swaptions scales linearly", `Quick, test_swaptions_scales_linearly);
    ("raytrace scales", `Quick, test_raytrace_scales);
    ("genome scales", `Quick, test_genome_scales);
    ("intruder peaks then degrades", `Quick, test_intruder_peaks_then_degrades);
    ("yada degrades", `Quick, test_yada_degrades);
    ("kmeans stops scaling", `Quick, test_kmeans_stops_scaling);
    ("vacation contention ordering", `Quick, test_vacation_contention_ordering);
    ("streamcluster saturates", `Quick, test_streamcluster_saturates);
    ("streamcluster fix helps at scale", `Quick, test_streamcluster_fix_helps_at_scale);
    ("intruder fix helps at scale", `Quick, test_intruder_fix_helps_at_scale);
    ("fixes do not break low counts", `Quick, test_fixes_do_not_break_low_counts);
    ("sqlite stops early", `Quick, test_sqlite_stops_early);
    ("memcached saturates mid", `Quick, test_memcached_saturates_mid);
    ("lock-based skiplist plausible", `Quick, test_lockfree_beats_lockbased_skiplist);
    ("dataset scale", `Quick, test_dataset_scale);
  ]
