(* The shared measurement store (Estima_store): tier behaviour,
   fingerprint sensitivity, corruption tolerance, concurrency, and the
   warm-vs-cold byte-identity that lets every consumer treat a store hit
   as a fresh collection. *)

open Estima_machine
open Estima_counters
open Estima_workloads
module Store = Estima_store.Store
module Metrics = Estima_obs.Metrics
module Fanout = Estima_par.Fanout

let opteron1s = Machines.restrict_sockets Machines.opteron48 ~sockets:1

let entry name = Option.get (Suite.find name)

let options ?(seed = 42) ?(repetitions = 1) ?(plugins = []) () =
  { Collector.default_options with Collector.seed; repetitions; plugins }

let key ?seed ?repetitions ?plugins ?(machine = opteron1s) ?(spec = (entry "kmeans").Suite.spec)
    ?(thread_counts = [ 1; 2; 3; 4 ]) () =
  Store.Key.v ~machine ~spec ~thread_counts ~options:(options ?seed ?repetitions ?plugins ())

let collect_real ?(seed = 42) ?(repetitions = 1) ?(plugins = []) ?(machine = opteron1s)
    ?(spec = (entry "kmeans").Suite.spec) ?(thread_counts = [ 1; 2; 3; 4 ]) () =
  Collector.collect
    ~options:(options ~seed ~repetitions ~plugins ())
    ~machine ~spec ~thread_counts ()

let csv = Csv_export.series_to_csv

(* Fresh private directory per call; the store only creates it on first
   write, so starting from a non-existent path also covers that edge. *)
let temp_counter = ref 0

let fresh_dir () =
  incr temp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "estima-store-test.%d.%d" (Unix.getpid ()) !temp_counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let counter_value store name = Metrics.Counter.value (Metrics.counter (Store.metrics store) name)

let check_stats what store ~hits ~misses ~writes ~invalid =
  let s = Store.stats store in
  Alcotest.(check (list int))
    what [ hits; misses; writes; invalid ]
    [ s.Store.hits; s.Store.misses; s.Store.writes; s.Store.invalid ]

(* ------------------------- tier behaviour ------------------------- *)

let test_memory_tier () =
  let store = Store.create () in
  let calls = ref 0 in
  let collect () =
    incr calls;
    collect_real ()
  in
  let a = Store.find_or_collect store ~key:(key ()) ~collect in
  let b = Store.find_or_collect store ~key:(key ()) ~collect in
  Alcotest.(check int) "collected once" 1 !calls;
  Alcotest.(check string) "same bytes" (csv a) (csv b);
  check_stats "stats" store ~hits:1 ~misses:1 ~writes:0 ~invalid:0;
  Alcotest.(check int) "hit counter mirrors" 1 (counter_value store "estima_store_hits_total")

let test_disk_tier_roundtrip () =
  with_dir (fun dir ->
      let writer = Store.create ~dir () in
      let cold = Store.find_or_collect writer ~key:(key ()) ~collect:(fun () -> collect_real ()) in
      check_stats "writer stats" writer ~hits:0 ~misses:1 ~writes:1 ~invalid:0;
      Alcotest.(check int) "one disk entry" 1 (List.length (Store.disk_entries writer));
      (* A different store over the same directory models a fresh
         process: the series must come back from disk, bit-for-bit, with
         no collection. *)
      let reader = Store.create ~dir () in
      let warm =
        Store.find_or_collect reader ~key:(key ()) ~collect:(fun () ->
            Alcotest.fail "warm read ran the collector")
      in
      Alcotest.(check string) "disk round-trip is byte-identical" (csv cold) (csv warm);
      check_stats "reader stats" reader ~hits:1 ~misses:0 ~writes:0 ~invalid:0;
      Alcotest.(check int) "clear_disk removes it" 1 (Store.clear_disk reader))

(* --------------------- fingerprint sensitivity -------------------- *)

(* Any semantic input changing must change the fingerprint: the store
   invalidates by key, never by mutation. *)
let test_fingerprint_sensitivity () =
  let base = Store.Key.fingerprint (key ()) in
  let variants =
    [
      ("seed", key ~seed:43 ());
      ("repetitions", key ~repetitions:2 ());
      ("window", key ~thread_counts:[ 1; 2; 3 ] ());
      ("machine", key ~machine:(Machines.restrict_sockets Machines.xeon20 ~sockets:1) ());
      ("spec", key ~spec:(entry "genome").Suite.spec ());
      ("plugins", key ~plugins:(entry "intruder").Suite.plugins ());
    ]
  in
  List.iter
    (fun (what, k) ->
      if String.equal base (Store.Key.fingerprint k) then
        Alcotest.failf "changing %s left the fingerprint unchanged" what)
    variants;
  let described = Store.Key.describe (key ()) in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  Alcotest.(check bool)
    "descriptor names the simulator version" true
    (contains ~needle:Store.simulator_version described)

let test_fingerprint_change_is_miss () =
  with_dir (fun dir ->
      let store = Store.create ~dir () in
      ignore (Store.find_or_collect store ~key:(key ()) ~collect:(fun () -> collect_real ()));
      (* Same directory, different seed: must re-collect, not hit. *)
      let other = Store.create ~dir () in
      let calls = ref 0 in
      ignore
        (Store.find_or_collect other ~key:(key ~seed:7 ()) ~collect:(fun () ->
             incr calls;
             collect_real ~seed:7 ()));
      Alcotest.(check int) "different key re-collects" 1 !calls;
      check_stats "other stats" other ~hits:0 ~misses:1 ~writes:1 ~invalid:0)

(* ---------------------- corruption tolerance ---------------------- *)

let entry_file dir k = Filename.concat dir (Store.Key.fingerprint k ^ ".csv")

let overwrite path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let expect_invalid what ~mangle =
  with_dir (fun dir ->
      let writer = Store.create ~dir () in
      let cold = Store.find_or_collect writer ~key:(key ()) ~collect:(fun () -> collect_real ()) in
      mangle (entry_file dir (key ()));
      let reader = Store.create ~dir () in
      let calls = ref 0 in
      let again =
        Store.find_or_collect reader ~key:(key ()) ~collect:(fun () ->
            incr calls;
            collect_real ())
      in
      Alcotest.(check int) (what ^ ": re-collected") 1 !calls;
      Alcotest.(check string) (what ^ ": result unharmed") (csv cold) (csv again);
      let s = Store.stats reader in
      Alcotest.(check int) (what ^ ": invalid counted") 1 s.Store.invalid;
      Alcotest.(check int)
        (what ^ ": invalid counter mirrors")
        1
        (counter_value reader "estima_store_invalid_total"))

let test_garbage_entry () = expect_invalid "garbage" ~mangle:(fun path -> overwrite path "!! not a csv !!\n\xff\xfe")

let test_truncated_entry () =
  expect_invalid "truncated" ~mangle:(fun path ->
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let half = really_input_string ic (len / 2) in
      close_in ic;
      overwrite path half)

let test_wrong_window_entry () =
  (* A parseable series of the wrong window under this fingerprint's file
     name (e.g. a bad copy) must be rejected, not served. *)
  expect_invalid "wrong window" ~mangle:(fun path ->
      overwrite path (csv (collect_real ~thread_counts:[ 1; 2 ] ())))

let test_empty_entry () = expect_invalid "empty" ~mangle:(fun path -> overwrite path "")

(* -------------------------- concurrency --------------------------- *)

let with_jobs n f =
  Fun.protect
    ~finally:(fun () -> Fanout.set_jobs None)
    (fun () ->
      Fanout.set_jobs (Some n);
      f ())

(* Concurrent requesters, same key: exactly one collection; everyone
   gets the same bytes; hit/miss stats do not depend on scheduling. *)
let test_concurrent_same_key () =
  with_dir (fun dir ->
      with_jobs 4 (fun () ->
          let store = Store.create ~dir () in
          let calls = Atomic.make 0 in
          let outputs =
            Fanout.map (Array.init 8 Fun.id) ~f:(fun _ ->
                csv
                  (Store.find_or_collect store ~key:(key ()) ~collect:(fun () ->
                       Atomic.incr calls;
                       collect_real ())))
          in
          Alcotest.(check int) "collected once" 1 (Atomic.get calls);
          Array.iter (fun o -> Alcotest.(check string) "same bytes" outputs.(0) o) outputs;
          check_stats "stats" store ~hits:7 ~misses:1 ~writes:1 ~invalid:0))

(* Concurrent writers on distinct keys all land on disk, and a second
   store over the directory reads every one of them back. *)
let test_concurrent_distinct_keys () =
  with_dir (fun dir ->
      with_jobs 4 (fun () ->
          let store = Store.create ~dir () in
          let seeds = [| 1; 2; 3; 4; 5; 6 |] in
          let cold =
            Fanout.map seeds ~f:(fun seed ->
                csv
                  (Store.find_or_collect store ~key:(key ~seed ()) ~collect:(fun () ->
                       collect_real ~seed ())))
          in
          check_stats "writer stats" store ~hits:0 ~misses:6 ~writes:6 ~invalid:0;
          let reader = Store.create ~dir () in
          let warm =
            Fanout.map seeds ~f:(fun seed ->
                csv
                  (Store.find_or_collect reader ~key:(key ~seed ()) ~collect:(fun () ->
                       Alcotest.fail "warm read ran the collector")))
          in
          Alcotest.(check (array string)) "all read back byte-identical" cold warm))

(* ----------------- warm-vs-cold consumer identity ----------------- *)

(* Drive the real consumers (Lab/Corpus resolve through the default
   store) cold, warm and store-disabled; all three must produce the
   same bytes.  Uses the fast F5 experiment and one corpus workload to
   keep the suite quick — the CI cached-store job runs the full repro
   suite through the same path. *)
let with_default_store_dir dir f =
  let store = Store.default () in
  let saved = Store.dir store in
  Fun.protect
    ~finally:(fun () ->
      Store.reset_memory store;
      Store.set_dir store saved)
    (fun () ->
      Store.set_dir store (Some dir);
      f store)

let test_repro_warm_cold_identity () =
  let run () =
    let run = Option.get (Estima_repro.All.find "F5") in
    let (), out = Estima_repro.Render.with_capture run in
    out
  in
  let store = Store.default () in
  Store.reset_memory store;
  let disabled = run () in
  with_dir (fun dir ->
      with_default_store_dir dir (fun store ->
          Store.reset_memory store;
          let cold = run () in
          Store.reset_memory store;
          let warm = run () in
          Alcotest.(check string) "warm = cold" cold warm;
          Alcotest.(check string) "store-disabled = cold" disabled cold;
          Store.reset_memory store;
          with_jobs 4 (fun () ->
              let warm4 = run () in
              Alcotest.(check string) "warm, jobs=4 = cold" cold warm4)))

let test_corpus_warm_cold_identity () =
  let specs =
    match Estima_validate.Corpus.of_names [ "kmeans" ] with
    | Ok specs -> specs
    | Error e -> Alcotest.fail e
  in
  let spec = List.hd specs in
  let source () =
    let s = Estima_validate.Corpus.source spec in
    (csv s.Estima_validate.Backtest.measured, csv s.Estima_validate.Backtest.truth)
  in
  let store = Store.default () in
  Store.reset_memory store;
  let disabled = source () in
  with_dir (fun dir ->
      with_default_store_dir dir (fun store ->
          Store.reset_memory store;
          let cold = source () in
          Store.reset_memory store;
          let warm = source () in
          Alcotest.(check (pair string string)) "warm = cold" cold warm;
          Alcotest.(check (pair string string)) "store-disabled = cold" disabled cold))

let test_reset_memory () =
  let store = Store.create () in
  ignore (Store.find_or_collect store ~key:(key ()) ~collect:(fun () -> collect_real ()));
  Store.reset_memory store;
  check_stats "stats zeroed" store ~hits:0 ~misses:0 ~writes:0 ~invalid:0;
  let calls = ref 0 in
  ignore
    (Store.find_or_collect store ~key:(key ()) ~collect:(fun () ->
         incr calls;
         collect_real ()));
  Alcotest.(check int) "entry dropped" 1 !calls

(* compare resolves its measurements and its ground-truth sweep through
   the store like every other consumer: a fresh directory gains exactly
   those two entries, and a second run reads them back to the same
   bytes without writing another. *)
let test_compare_through_store () =
  with_dir (fun dir ->
      let compare () =
        let ic =
          Unix.open_process_in
            (Filename.quote_command Test_service.cli_exe
               [ "compare"; "kmeans"; "--store"; dir; "--repetitions"; "1" ])
        in
        let out = In_channel.input_all ic in
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "estima_cli compare failed");
        out
      in
      let entries () = Store.disk_entries (Store.create ~dir ()) in
      let cold = compare () in
      let written = entries () in
      Alcotest.(check int) "measurements + truth entries" 2 (List.length written);
      let warm = compare () in
      Alcotest.(check string) "warm stdout = cold stdout" cold warm;
      Alcotest.(check (list (pair string int))) "entry set unchanged" written (entries ()))

let suite =
  [
    Alcotest.test_case "memory tier: compute once" `Quick test_memory_tier;
    Alcotest.test_case "disk tier: byte-identical round-trip" `Quick test_disk_tier_roundtrip;
    Alcotest.test_case "fingerprint covers every key component" `Quick test_fingerprint_sensitivity;
    Alcotest.test_case "changed fingerprint is a miss" `Quick test_fingerprint_change_is_miss;
    Alcotest.test_case "garbage entry: miss + invalid, no exception" `Quick test_garbage_entry;
    Alcotest.test_case "truncated entry: miss + invalid" `Quick test_truncated_entry;
    Alcotest.test_case "wrong-window entry: miss + invalid" `Quick test_wrong_window_entry;
    Alcotest.test_case "empty entry: miss + invalid" `Quick test_empty_entry;
    Alcotest.test_case "concurrent requesters share one collection" `Quick test_concurrent_same_key;
    Alcotest.test_case "concurrent writers, distinct keys" `Quick test_concurrent_distinct_keys;
    Alcotest.test_case "repro warm/cold/disabled byte-identity" `Slow test_repro_warm_cold_identity;
    Alcotest.test_case "corpus warm/cold/disabled byte-identity" `Slow test_corpus_warm_cold_identity;
    Alcotest.test_case "reset_memory drops entries and stats" `Quick test_reset_memory;
    Alcotest.test_case "compare reads and writes through the store" `Quick test_compare_through_store;
  ]
