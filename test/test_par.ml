(* Tests for the domain-parallel fan-out: pool mechanics (ordering,
   exceptions, reuse, nesting), when a fan-out runs inline, and the
   headline guarantee that a parallel run is byte-identical to the
   sequential pipeline — predictions, trace JSON and repro output
   alike. *)

open Estima_machine
open Estima_workloads
open Estima_counters
open Estima
module Pool = Estima_par.Pool
module Fanout = Estima_par.Fanout
module Trace = Estima_obs.Trace

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* Pin the jobs knob for the duration of [f], restoring the environment
   default afterwards (the suite may itself run under ESTIMA_JOBS). *)
let with_jobs n f = Fun.protect ~finally:(fun () -> Fanout.set_jobs None) (fun () ->
    Fanout.set_jobs (Some n);
    f ())

(* A data-dependent busy loop, so task durations vary and completion
   order genuinely differs from submission order. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to 200 * (n + 1) do
    acc := !acc + (i mod 7)
  done;
  Sys.opaque_identity !acc

let opteron1s = Machines.restrict_sockets Machines.opteron48 ~sockets:1

let collect_entry entry =
  Collector.collect
    ~options:
      { Collector.default_options with Collector.seed = 42; plugins = entry.Suite.plugins; repetitions = 1 }
    ~machine:opteron1s ~spec:entry.Suite.spec
    ~thread_counts:(Collector.default_thread_counts ~max:12)
    ()

let predict_entry entry series =
  match
    Predictor.predict
      ~config:
        { Predictor.default_config with Predictor.include_software = entry.Suite.plugins <> [] }
      ~series ~target_max:48 ()
  with
  | Ok p -> p
  | Error d -> Alcotest.failf "predict %s: %s" entry.Suite.spec.Estima_sim.Spec.name (Diag.render d)

let check_bitwise name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        Alcotest.failf "%s differs at %d: %h vs %h" name i x b.(i))
    a

let summary p = Format.asprintf "%a" Predictor.pp_summary p

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)
(* ------------------------------------------------------------------ *)

let with_pool jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* The results of a [Pool.run] whose tasks must all succeed. *)
let values outcomes =
  Array.map
    (function Ok v -> v | Error (e, _) -> Alcotest.failf "task raised %s" (Printexc.to_string e))
    outcomes

let test_pool_empty_and_singleton () =
  with_pool 4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (values (Pool.run pool [||] ~f:(fun x -> x)));
      Alcotest.(check (array int)) "singleton" [| 14 |]
        (values (Pool.run pool [| 7 |] ~f:(fun x -> 2 * x))))

let test_pool_jobs1_sequential () =
  with_pool 1 (fun pool ->
      Alcotest.(check int) "size 1" 1 (Pool.size pool);
      let order = ref [] in
      let out =
        Pool.run pool [| 0; 1; 2; 3 |] ~f:(fun i ->
            order := i :: !order;
            i * i)
      in
      Alcotest.(check (array int)) "results" [| 0; 1; 4; 9 |] (values out);
      (* A one-runner pool's caller takes the queue in submission order. *)
      Alcotest.(check (list int)) "submission order" [ 0; 1; 2; 3 ] (List.rev !order))

exception Boom of int

let test_pool_exception_and_reuse () =
  with_pool 4 (fun pool ->
      let xs = Array.init 16 (fun i -> i) in
      (* Several tasks fail; every slot still holds its own task's
         outcome, in submission order. *)
      let outcomes =
        Pool.run pool xs ~f:(fun i ->
            ignore (spin (15 - i));
            if i >= 5 then raise (Boom i);
            i)
      in
      Array.iteri
        (fun i outcome ->
          match outcome with
          | Ok v when i < 5 && v = i -> ()
          | Error (Boom j, _) when i >= 5 && j = i -> ()
          | _ -> Alcotest.failf "slot %d holds another task's outcome" i)
        outcomes;
      (* The pool survives task failures and stays usable. *)
      Alcotest.(check (array int)) "usable after exception" (Array.map (fun i -> i + 1) xs)
        (values (Pool.run pool xs ~f:(fun i -> i + 1))))

let test_pool_nested_run_raises () =
  with_pool 2 (fun pool ->
      (match Pool.run pool [| 0; 1 |] ~f:(fun _ -> Pool.run pool [| 0 |] ~f:(fun x -> x)) with
      | [| Error (Failure m0, _); Error (Failure m1, _) |]
        when contains ~sub:"Pool.run" m0 && contains ~sub:"Pool.run" m1 -> ()
      | _ -> Alcotest.fail "nested run accepted");
      (* ... and the failure did not wedge the pool. *)
      Alcotest.(check (array int)) "usable after nested failure" [| 1; 2 |]
        (values (Pool.run pool [| 0; 1 |] ~f:(fun i -> i + 1))))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.run pool [| 1 |] ~f:(fun x -> x) with
  | _ -> Alcotest.fail "run after shutdown accepted"
  | exception Failure _ -> ()

let test_pool_ordering_random_durations =
  QCheck.Test.make ~name:"pool run keeps submission order under random durations" ~count:30
    QCheck.(list_of_size Gen.(int_range 0 40) (int_range 0 20))
    (fun durations ->
      let xs = Array.of_list durations in
      with_pool 4 (fun pool ->
          let out =
            Pool.run pool (Array.mapi (fun i d -> (i, d)) xs) ~f:(fun (i, d) ->
                ignore (spin d);
                i)
          in
          values out = Array.init (Array.length xs) (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Fanout: jobs knob and nesting                                       *)
(* ------------------------------------------------------------------ *)

let test_jobs_knob () =
  let original = Sys.getenv_opt "ESTIMA_JOBS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "ESTIMA_JOBS" (Option.value ~default:"" original);
      Fanout.set_jobs None)
    (fun () ->
      Fanout.set_jobs None;
      Unix.putenv "ESTIMA_JOBS" "3";
      Alcotest.(check int) "env value" 3 (Fanout.jobs ());
      Unix.putenv "ESTIMA_JOBS" "not-a-number";
      Alcotest.(check int) "malformed env falls back to 1" 1 (Fanout.jobs ());
      Unix.putenv "ESTIMA_JOBS" "0";
      Alcotest.(check int) "non-positive env falls back to 1" 1 (Fanout.jobs ());
      Unix.putenv "ESTIMA_JOBS" "";
      Alcotest.(check int) "empty env defaults to the host parallelism"
        (Domain.recommended_domain_count ())
        (Fanout.jobs ());
      Unix.putenv "ESTIMA_JOBS" "2";
      Fanout.set_jobs (Some 5);
      Alcotest.(check int) "override beats env" 5 (Fanout.jobs ());
      Fanout.set_jobs None;
      Alcotest.(check int) "None reverts to env" 2 (Fanout.jobs ());
      match Fanout.set_jobs (Some 0) with
      | () -> Alcotest.fail "set_jobs 0 accepted"
      | exception Invalid_argument _ -> ())

let test_fanout_nested_inlines () =
  with_jobs 4 (fun () ->
      (* An outer fan-out whose tasks fan out again: the inner call must
         detect it is inside a pool task and run inline rather than
         deadlock or raise. *)
      let out =
        Fanout.map [| 0; 10; 20 |] ~f:(fun base ->
            Array.fold_left ( + ) 0 (Fanout.map [| 1; 2; 3 |] ~f:(fun d -> base + d)))
      in
      Alcotest.(check (array int)) "nested totals" [| 6; 36; 66 |] out)

let test_fanout_consume_order_and_exception () =
  with_jobs 4 (fun () ->
      let seen = ref [] in
      Fanout.map_consume
        (Array.init 12 (fun i -> i))
        ~f:(fun i ->
          ignore (spin (11 - i));
          i)
        ~consume:(fun i -> seen := i :: !seen);
      Alcotest.(check (list int)) "consume in submission order" (List.init 12 (fun i -> i))
        (List.rev !seen);
      (* On failure, consume still sees every earlier result first. *)
      let seen = ref [] in
      (match
         Fanout.map_consume
           (Array.init 8 (fun i -> i))
           ~f:(fun i -> if i = 5 then raise (Boom i) else i)
           ~consume:(fun i -> seen := i :: !seen)
       with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom 5 -> ());
      Alcotest.(check (list int)) "prefix consumed before re-raise" [ 0; 1; 2; 3; 4 ]
        (List.rev !seen))

(* The domain each task of a width-[n] fan-out ran on.  Every task
   waits (up to a second) until all [n] have started, so on a pool of
   exactly [n] runners each runner takes one task. *)
let fanout_domains n =
  let started = Atomic.make 0 in
  Fanout.map (Array.make n ()) ~f:(fun () ->
      Atomic.incr started;
      let deadline = Unix.gettimeofday () +. 1.0 in
      while Atomic.get started < n && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      (Domain.self () :> int))

let test_fanout_keeps_pool () =
  with_jobs 4 (fun () ->
      let first = fanout_domains 4 in
      (* A narrower fan-out, then one as wide as the first, both fit the
         pool the first one left: no worker domain is replaced. *)
      List.iter
        (fun width ->
          Array.iter
            (fun id ->
              if not (Array.mem id first) then
                Alcotest.failf "width-%d fan-out ran on domain %d, spawned after the first fan-out"
                  width id)
            (fanout_domains width))
        [ 2; 4 ])

let test_fanout_traced_runs_inline () =
  with_jobs 4 (fun () ->
      let caller = (Domain.self () :> int) in
      let domains () =
        Fanout.map (Array.init 8 Fun.id) ~f:(fun _ ->
            Unix.sleepf 0.005;
            (Domain.self () :> int))
      in
      let traced = Estima_obs.Recorder.record (Estima_obs.Recorder.create ()) domains in
      Array.iter
        (fun id ->
          if id <> caller then
            Alcotest.failf "traced task ran on domain %d, not the calling domain %d" id caller)
        traced;
      let untraced = domains () in
      Alcotest.(check bool) "untraced fan-out uses more than one domain" true
        (Array.exists (fun id -> id <> untraced.(0)) untraced))

(* ------------------------------------------------------------------ *)
(* Determinism: parallel == sequential                                 *)
(* ------------------------------------------------------------------ *)

(* The headline guarantee, checked on every workload of the suite: the
   prediction a user sees (numbers and rendered summary) is bitwise
   independent of the jobs setting. *)
let test_predictions_byte_identical () =
  List.iter
    (fun entry ->
      let series = collect_entry entry in
      let seq = with_jobs 1 (fun () -> predict_entry entry series) in
      let par = with_jobs 4 (fun () -> predict_entry entry series) in
      let name = entry.Suite.spec.Estima_sim.Spec.name in
      check_bitwise (name ^ " predicted times") seq.Predictor.predicted_times
        par.Predictor.predicted_times;
      check_bitwise (name ^ " stalls per core") seq.Predictor.stalls_per_core
        par.Predictor.stalls_per_core;
      Alcotest.(check string) (name ^ " rendered summary") (summary seq) (summary par))
    Suite.all

(* Trace byte-identity needs a deterministic clock: events carry
   timestamps, and wall time is the one thing parallelism does change. *)
let trace_json entry series jobs =
  with_jobs jobs (fun () ->
      Trace.set_clock (fun () -> 0L);
      Fun.protect ~finally:(fun () -> Trace.set_clock Trace.default_clock) (fun () ->
          let recorder = Estima_obs.Recorder.create () in
          ignore (Estima_obs.Recorder.record recorder (fun () -> predict_entry entry series));
          Estima_obs.Trace_render.json_of_recorder recorder))

let test_traces_byte_identical () =
  List.iter
    (fun name ->
      let entry = Option.get (Suite.find name) in
      let series = collect_entry entry in
      let seq = trace_json entry series 1 in
      let par = trace_json entry series 4 in
      Alcotest.(check string) (name ^ " trace JSON") seq par)
    [ "intruder"; "kmeans"; "vacation-low" ]

let test_repro_output_byte_identical () =
  (* Two experiments through [run_many], so the jobs=4 run exercises the
     real experiment-level fan-out: concurrent experiments, captured
     output printed in submission order, the measurement store shared
     across domains. *)
  let entries = Result.get_ok (Estima_repro.All.resolve [ "F1"; "F2" ]) in
  let output jobs =
    with_jobs jobs (fun () ->
        snd (Estima_repro.Render.with_capture (fun () -> Estima_repro.All.run_many entries)))
  in
  let seq = output 1 in
  let par = output 4 in
  Alcotest.(check bool) "experiments printed something" true (String.length seq > 0);
  Alcotest.(check string) "F1+F2 text output" seq par

(* ------------------------------------------------------------------ *)
(* Repro.All lookup                                                    *)
(* ------------------------------------------------------------------ *)

let test_run_one_unknown_lists_all_ids () =
  match Estima_repro.All.resolve [ "F1"; "NOPE" ] with
  | Ok _ -> Alcotest.fail "unknown id accepted"
  | Error msg ->
      Alcotest.(check bool) "names the offender" true (contains ~sub:"\"NOPE\"" msg);
      List.iter
        (fun (id, _) ->
          if not (contains ~sub:id msg) then
            Alcotest.failf "error message omits valid id %s: %s" id msg)
        Estima_repro.All.experiments

let test_find_case_insensitive () =
  List.iter
    (fun (id, run) ->
      List.iter
        (fun variant ->
          match Estima_repro.All.resolve [ variant ] with
          | Ok [ (_, found) ] when found == run -> ()
          | _ -> Alcotest.failf "lookup of %S (for %s) failed" variant id)
        [ id; String.lowercase_ascii id; String.capitalize_ascii (String.lowercase_ascii id) ])
    Estima_repro.All.experiments;
  Alcotest.(check bool) "unknown id is an error" true
    (Result.is_error (Estima_repro.All.resolve [ "nope" ]))

let suite =
  [
    Alcotest.test_case "pool: empty and singleton" `Quick test_pool_empty_and_singleton;
    Alcotest.test_case "pool: jobs=1 runs inline sequentially" `Quick test_pool_jobs1_sequential;
    Alcotest.test_case "pool: lowest-index exception, then reusable" `Quick
      test_pool_exception_and_reuse;
    Alcotest.test_case "pool: nested run raises, pool survives" `Quick test_pool_nested_run_raises;
    Alcotest.test_case "pool: shutdown is idempotent" `Quick test_pool_shutdown_idempotent;
    QCheck_alcotest.to_alcotest test_pool_ordering_random_durations;
    Alcotest.test_case "fanout: jobs knob (override, env, malformed)" `Quick test_jobs_knob;
    Alcotest.test_case "fanout: nested fan-out runs inline" `Quick test_fanout_nested_inlines;
    Alcotest.test_case "fanout: consume order and failure prefix" `Quick
      test_fanout_consume_order_and_exception;
    Alcotest.test_case "fanout: narrower fan-outs reuse the pool" `Quick test_fanout_keeps_pool;
    Alcotest.test_case "fanout: traced fan-out runs on the calling domain" `Quick
      test_fanout_traced_runs_inline;
    Alcotest.test_case "determinism: predictions bitwise across jobs (all workloads)" `Slow
      test_predictions_byte_identical;
    Alcotest.test_case "determinism: trace JSON byte-identical across jobs" `Slow
      test_traces_byte_identical;
    Alcotest.test_case "determinism: repro run_many output byte-identical across jobs" `Slow
      test_repro_output_byte_identical;
    Alcotest.test_case "repro: unknown id error lists every valid id" `Quick
      test_run_one_unknown_lists_all_ids;
    Alcotest.test_case "repro: experiment lookup is case-insensitive" `Quick
      test_find_case_insensitive;
  ]
