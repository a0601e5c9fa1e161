(* Tests for the resource-contention simulator. *)

open Estima_sim
open Estima_machine
module Rng = Estima_numerics.Rng

let base_op =
  {
    Spec.useful_cycles = 400.0;
    useful_cv = 0.05;
    mem_reads = 4;
    mem_writes = 1;
    shared_fraction = 0.1;
    write_shared_fraction = 0.1;
    fp_fraction = 0.0;
    dependency_factor = 0.1;
    branch_mpki = 1.0;
    frontend_cycles = 5.0;
    sync = Spec.No_sync;
    barrier_every = None;
    barrier_kind = Spec.Spinlock;
  }

let cpu_bound_spec =
  {
    Spec.name = "test-cpu";
    scaling = Spec.Strong 24_000;
    private_footprint_lines = 1000;
    shared_footprint_lines = 100;
    footprint_scales_with_threads = false;
    op = { base_op with Spec.mem_reads = 1; mem_writes = 0; shared_fraction = 0.0 };
  }

let memory_bound_spec =
  {
    Spec.name = "test-mem";
    scaling = Spec.Strong 12_000;
    private_footprint_lines = 2_000_000;
    shared_footprint_lines = 1_000_000;
    footprint_scales_with_threads = false;
    op = { base_op with Spec.mem_reads = 24; mem_writes = 8; useful_cycles = 150.0; shared_fraction = 0.8 };
  }

let lock_spec kind =
  {
    Spec.name = "test-lock";
    scaling = Spec.Strong 12_000;
    private_footprint_lines = 1000;
    shared_footprint_lines = 2000;
    footprint_scales_with_threads = false;
    op =
      {
        base_op with
        Spec.sync = Spec.Locked { kind; num_locks = 1; cs_cycles = 300.0; cs_mem_accesses = 2 };
      };
  }

let stm_spec =
  {
    Spec.name = "test-stm";
    scaling = Spec.Strong 12_000;
    private_footprint_lines = 1000;
    shared_footprint_lines = 4000;
    footprint_scales_with_threads = false;
    op =
      {
        base_op with
        Spec.sync =
          Spec.Transactional { reads = 8; writes = 4; key_space = 1024; abort_penalty_cycles = 50.0 };
      };
  }

let lockfree_spec =
  {
    Spec.name = "test-lf";
    scaling = Spec.Strong 12_000;
    private_footprint_lines = 500;
    shared_footprint_lines = 2000;
    footprint_scales_with_threads = false;
    op = { base_op with Spec.sync = Spec.Lock_free { cas_cost_cycles = 40.0; retry_contention = 0.02 } };
  }

let barrier_spec =
  {
    Spec.name = "test-barrier";
    scaling = Spec.Strong 6_000;
    private_footprint_lines = 1000;
    shared_footprint_lines = 100;
    footprint_scales_with_threads = false;
    op = { base_op with Spec.useful_cv = 0.3; barrier_every = Some 50 };
  }

let run ?(seed = 7) ?(machine = Machines.opteron48) spec threads =
  Engine.run ~seed ~machine ~spec ~threads ()

(* ------------------------------------------------------------------ *)

let test_determinism () =
  let a = run stm_spec 8 and b = run stm_spec 8 in
  Alcotest.(check (float 0.0)) "same makespan" a.Engine.cycles b.Engine.cycles;
  List.iter2
    (fun (c1, v1) (c2, v2) ->
      Alcotest.(check string) "same cause" (Stall.label c1) (Stall.label c2);
      Alcotest.(check (float 0.0)) "same stalls" v1 v2)
    (Ledger.to_assoc a.Engine.ledger)
    (Ledger.to_assoc b.Engine.ledger)

let test_seed_changes_result () =
  let a = run ~seed:1 stm_spec 8 and b = run ~seed:2 stm_spec 8 in
  Alcotest.(check bool) "different seeds differ" true (a.Engine.cycles <> b.Engine.cycles)

let test_cpu_bound_scales () =
  let t1 = (run cpu_bound_spec 1).Engine.time_seconds in
  let t12 = (run cpu_bound_spec 12).Engine.time_seconds in
  let speedup = t1 /. t12 in
  if speedup < 8.0 then Alcotest.failf "cpu-bound speedup only %.2f at 12 cores" speedup

let test_strong_scaling_divides_ops () =
  let r = run cpu_bound_spec 12 in
  Alcotest.(check int) "ops divided" 24_000 r.Engine.ops_executed

let test_accounting_consistency () =
  (* With No_sync every elapsed cycle is charged somewhere: per-thread
     finish time = useful + stalls exactly. *)
  let r = run cpu_bound_spec 4 in
  Array.iter
    (fun (ts : Engine.thread_stats) ->
      let charged = Ledger.useful ts.Engine.ledger +. Ledger.total_stalls ts.Engine.ledger in
      let diff = Float.abs (ts.Engine.finish_cycles -. charged) in
      if diff > 1e-6 *. charged then
        Alcotest.failf "thread accounting off: finish %.1f vs charged %.1f" ts.Engine.finish_cycles charged)
    r.Engine.per_thread

let test_memory_bound_saturates () =
  (* Speedup must flatten well below linear once the controllers saturate:
     threads are blocking (one outstanding fill each), so saturation shows
     mainly once many threads gang up on the shared-data home socket. *)
  let t1 = (run memory_bound_spec 1).Engine.time_seconds in
  let t12 = (run memory_bound_spec 12).Engine.time_seconds in
  let t48 = (run memory_bound_spec 48).Engine.time_seconds in
  let s12 = t1 /. t12 and s48 = t1 /. t48 in
  if s12 > 11.0 then Alcotest.failf "memory-bound scaled too well at 12: %.2f" s12;
  (* Quadrupling cores past one socket must not quadruple throughput. *)
  if s48 /. s12 > 2.8 then Alcotest.failf "no saturation: s48/s12 = %.2f" (s48 /. s12)

let test_memory_queue_grows () =
  let q n =
    let r = run memory_bound_spec n in
    Ledger.get r.Engine.ledger Stall.Memory_queue /. float_of_int n
  in
  let q1 = q 1 and q24 = q 24 in
  if q24 < 2.0 *. q1 then Alcotest.failf "queueing did not grow: %.3g -> %.3g" q1 q24

let test_spinlock_spin_grows () =
  let spin n =
    let r = run (lock_spec Spec.Spinlock) n in
    Ledger.get r.Engine.ledger Stall.Lock_spin /. float_of_int n
  in
  let s2 = spin 2 and s12 = spin 12 in
  if s12 <= s2 then Alcotest.failf "spin per core did not grow: %.3g -> %.3g" s2 s12

let test_lock_serialisation_bounds_throughput () =
  (* With one lock and a 300-cycle CS, throughput is bounded by CS rate:
     makespan >= total_ops * cs_cycles regardless of threads. *)
  let r = run (lock_spec Spec.Spinlock) 12 in
  let ops = float_of_int r.Engine.ops_executed in
  if r.Engine.cycles < ops *. 300.0 *. 0.9 then
    Alcotest.failf "lock serialisation violated: %.3g < %.3g" r.Engine.cycles (ops *. 300.0)

let test_mutex_handoff_costs_more () =
  (* Both kinds report full waits as sync cycles, but mutex handoffs pay
     wake-up penalties that lengthen the serialisation chain: under heavy
     contention the mutex run is slower and waits longer overall. *)
  let result kind = run (lock_spec kind) 12 in
  let mutex = result Spec.Mutex and spinlock = result Spec.Spinlock in
  if mutex.Engine.cycles <= spinlock.Engine.cycles then
    Alcotest.fail "mutex handoffs should lengthen the critical path";
  let spin r = Ledger.get r.Engine.ledger Stall.Lock_spin in
  if spin mutex <= spin spinlock then Alcotest.fail "mutex waits should be longer";
  (* The wake path leaves hardware-visible cold-restart stalls. *)
  if
    Ledger.get mutex.Engine.ledger Stall.Miss_private
    <= Ledger.get spinlock.Engine.ledger Stall.Miss_private
  then Alcotest.fail "mutex wake-ups should add cache-refill stalls"

let test_stm_aborts_grow () =
  let aborts n =
    let r = run stm_spec n in
    Ledger.get r.Engine.ledger Stall.Stm_abort /. float_of_int n
  in
  let a1 = aborts 1 and a12 = aborts 12 in
  Alcotest.(check (float 0.0)) "single thread never aborts" 0.0 a1;
  if a12 <= 0.0 then Alcotest.fail "no aborts at 12 threads"

let test_lockfree_coherence_grows () =
  let coh n =
    let r = run lockfree_spec n in
    Ledger.get r.Engine.ledger Stall.Coherence /. float_of_int n
  in
  let c1 = coh 1 and c12 = coh 12 in
  if c12 <= c1 *. 1.5 then Alcotest.failf "cas coherence did not grow: %.3g -> %.3g" c1 c12

let test_barrier_wait_charged () =
  let r = run barrier_spec 8 in
  let wait = Ledger.get r.Engine.ledger Stall.Barrier_wait in
  if wait <= 0.0 then Alcotest.fail "no barrier wait recorded";
  (* All threads finish together at the last barrier release or later. *)
  let finishes = Array.map (fun ts -> ts.Engine.finish_cycles) r.Engine.per_thread in
  let min_f = Array.fold_left Float.min finishes.(0) finishes in
  let max_f = Array.fold_left Float.max finishes.(0) finishes in
  (* Threads synchronise every 50 ops, so the spread at the end is at most
     one inter-barrier segment, not the whole run. *)
  if (max_f -. min_f) /. max_f > 0.5 then Alcotest.fail "barrier did not synchronise threads"

let test_barrier_makespan_exceeds_nobarrier () =
  let no_barrier = { barrier_spec with Spec.name = "nb"; op = { barrier_spec.Spec.op with Spec.barrier_every = None } } in
  let with_b = (run barrier_spec 8).Engine.cycles in
  let without = (run no_barrier 8).Engine.cycles in
  if with_b <= without then Alcotest.fail "barriers should cost time"

let test_smt_slower_than_physical () =
  (* On xeon20, 20 threads use 20 physical cores; 40 threads share cores.
     Per-op cost must rise with SMT sharing. *)
  let spec = { cpu_bound_spec with Spec.scaling = Spec.Weak 500 } in
  let r20 = run ~machine:Machines.xeon20 spec 20 in
  let r40 = run ~machine:Machines.xeon20 spec 40 in
  let per_op20 = r20.Engine.cycles /. 500.0 in
  let per_op40 = r40.Engine.cycles /. 500.0 in
  if per_op40 <= per_op20 *. 1.1 then
    Alcotest.failf "SMT sharing free? %.1f vs %.1f cycles/op" per_op20 per_op40

let test_numa_remote_access_penalty () =
  (* Shared-heavy workload on opteron: crossing sockets must cost more per
     op than staying on one socket (remote fills + queueing on socket 0). *)
  let spec =
    {
      memory_bound_spec with
      Spec.name = "numa";
      scaling = Spec.Weak 300;
      op = { memory_bound_spec.Spec.op with Spec.shared_fraction = 0.8 };
    }
  in
  let r12 = run spec 12 in
  let r48 = run spec 48 in
  let per_op12 = r12.Engine.cycles /. 300.0 in
  let per_op48 = r48.Engine.cycles /. 300.0 in
  if per_op48 <= per_op12 then Alcotest.failf "no NUMA penalty: %.1f vs %.1f" per_op12 per_op48

let test_stalls_per_core () =
  let r = run stm_spec 8 in
  let manual =
    (Ledger.total_hardware_backend r.Engine.ledger
    +. Ledger.get r.Engine.ledger Stall.Lock_spin
    +. Ledger.get r.Engine.ledger Stall.Barrier_wait
    +. Ledger.get r.Engine.ledger Stall.Stm_abort)
    /. 8.0
  in
  Alcotest.(check (float 1e-6)) "stalls per core" manual (Engine.stalls_per_core r)

let test_invalid_spec_rejected () =
  let bad = { cpu_bound_spec with Spec.op = { cpu_bound_spec.Spec.op with Spec.useful_cycles = 0.0 } } in
  (try
     ignore (run bad 2);
     Alcotest.fail "invalid spec accepted"
   with Invalid_argument _ -> ())

(* --- component-level tests ---------------------------------------- *)

let test_memory_controller_queueing () =
  let m = Memory.create Machines.xeon20 in
  (* An idle controller charges no queueing. *)
  ignore (Memory.request m ~socket:0 ~chip:0 ~now:0.0 ~hops:0);
  Alcotest.(check (float 0.0)) "first request immediate" 0.0 (Memory.last_queue_delay m ~socket:0 ~chip:0);
  (* Sustain an arrival rate far above capacity for several windows: once
     the rate estimate catches up the controller must charge queueing. *)
  let delay = ref 0.0 in
  for i = 1 to 50_000 do
    ignore (Memory.request m ~socket:0 ~chip:0 ~now:(float_of_int i *. 2.0) ~hops:0);
    delay := Memory.last_queue_delay m ~socket:0 ~chip:0
  done;
  if !delay <= 100.0 then Alcotest.failf "saturated controller did not queue: %g" !delay;
  Alcotest.(check int) "fills counted" 50_001 (Memory.total_fills m ~socket:0 ~chip:0)

let test_memory_controller_reset () =
  let m = Memory.create Machines.xeon20 in
  ignore (Memory.request m ~socket:0 ~chip:0 ~now:0.0 ~hops:0);
  Memory.reset m;
  Alcotest.(check int) "reset clears fills" 0 (Memory.total_fills m ~socket:0 ~chip:0);
  ignore (Memory.request m ~socket:0 ~chip:0 ~now:0.0 ~hops:0);
  Alcotest.(check (float 0.0)) "no queue after reset" 0.0 (Memory.last_queue_delay m ~socket:0 ~chip:0)

let test_memory_remote_latency () =
  let m = Memory.create Machines.opteron48 in
  let local = Memory.request m ~socket:1 ~chip:0 ~now:0.0 ~hops:0 in
  let remote = Memory.request m ~socket:2 ~chip:1 ~now:0.0 ~hops:2 in
  if remote <= local then Alcotest.fail "remote access not slower"

let test_lock_fifo () =
  let l = Lock.create Spec.Spinlock ~count:1 ~line_transfer_cycles:10.0 in
  let g1 = Lock.make_grant () and g2 = Lock.make_grant () in
  Lock.acquire l ~into:g1 ~index:0 ~now:0.0 ~hold_for:100.0;
  Lock.acquire l ~into:g2 ~index:0 ~now:10.0 ~hold_for:100.0;
  Alcotest.(check (float 0.0)) "first immediate" 0.0 g1.Lock.acquired_at;
  if g2.Lock.acquired_at < g1.Lock.released_at then Alcotest.fail "overlapping critical sections";
  Alcotest.(check (float 1e-9)) "second spins until free" 90.0 g2.Lock.spin_cycles

let test_lock_striping () =
  let l = Lock.create Spec.Spinlock ~count:4 ~line_transfer_cycles:0.0 in
  let g = Lock.make_grant () in
  Lock.acquire l ~into:g ~index:0 ~now:0.0 ~hold_for:100.0;
  (* The same scratch grant is reusable: every field is overwritten. *)
  Lock.acquire l ~into:g ~index:1 ~now:0.0 ~hold_for:100.0;
  Alcotest.(check (float 0.0)) "different stripes don't contend" 0.0 g.Lock.spin_cycles;
  Alcotest.(check int) "no contention recorded" 0 (Lock.contended_acquisitions l)

let test_stm_no_conflicts_single () =
  let rng = Rng.create 3 in
  let stm = Stm.create ~reads:4 ~writes:2 ~key_space:100 ~abort_penalty_cycles:10.0 ~line_transfer_cycles:10.0 in
  let r = Stm.make_result () in
  Stm.run_transaction stm ~rng ~now:0.0 ~duration:100.0 ~threads_active:1 ~into:r;
  Alcotest.(check (float 0.0)) "no aborts alone" 0.0 r.Stm.aborted_attempts;
  Alcotest.(check (float 1e-9)) "commit after duration" 100.0 r.Stm.commit_at

let test_stm_conflicts_under_load () =
  let rng = Rng.create 3 in
  let stm = Stm.create ~reads:16 ~writes:8 ~key_space:64 ~abort_penalty_cycles:10.0 ~line_transfer_cycles:10.0 in
  (* Prime the write-rate estimate with many early commits. *)
  for _ = 1 to 2000 do
    Stm.record_commit stm
  done;
  let aborted = ref 0.0 in
  let r = Stm.make_result () in
  for i = 1 to 200 do
    let now = 100.0 +. float_of_int i in
    Stm.run_transaction stm ~rng ~now ~duration:500.0 ~threads_active:16 ~into:r;
    aborted := !aborted +. r.Stm.aborted_attempts
  done;
  if !aborted = 0.0 then Alcotest.fail "no aborts under heavy contention"

let test_cache_plan_ranges () =
  let p = Cache.plan Machines.opteron48 ~spec:memory_bound_spec ~threads:12 ~sockets_used:1 in
  let check01 what v =
    if v < 0.0 || v > 1.0 then Alcotest.failf "%s out of range: %g" what v
  in
  check01 "llc" p.Cache.p_miss_private_to_llc;
  check01 "private mem" p.Cache.p_miss_private_data_memory;
  check01 "shared mem" p.Cache.p_miss_shared_data_memory

let test_cache_small_footprint_fits () =
  let p = Cache.plan Machines.opteron48 ~spec:cpu_bound_spec ~threads:4 ~sockets_used:1 in
  if p.Cache.p_miss_private_data_memory > 0.01 then
    Alcotest.failf "tiny footprint should not miss to memory: %g" p.Cache.p_miss_private_data_memory

let test_coherence_probability_monotone () =
  let p n = Cache.coherence_probability ~spec:memory_bound_spec ~active_threads:n in
  Alcotest.(check (float 0.0)) "single thread no coherence" 0.0 (p 1);
  if p 24 <= p 2 then Alcotest.fail "coherence probability must grow with threads";
  if p 1000 > 0.95 then Alcotest.fail "coherence probability must saturate"

let test_ledger_merge () =
  let a = Ledger.create () and b = Ledger.create () in
  Ledger.add a Stall.Coherence 5.0;
  Ledger.add b Stall.Coherence 7.0;
  Ledger.add_useful a 10.0;
  let m = Ledger.merge [ a; b ] in
  Alcotest.(check (float 1e-9)) "merged coherence" 12.0 (Ledger.get m Stall.Coherence);
  Alcotest.(check (float 1e-9)) "merged useful" 10.0 (Ledger.useful m)

let test_ledger_rejects_negative () =
  let l = Ledger.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Ledger.add: negative amount") (fun () ->
      Ledger.add l Stall.Coherence (-1.0))

let test_stall_index_roundtrip () =
  List.iter
    (fun c -> Alcotest.(check string) "roundtrip" (Stall.label c) (Stall.label (Stall.of_index (Stall.index c))))
    Stall.all;
  Alcotest.(check int) "count" (List.length Stall.all) Stall.count

let test_stall_classification () =
  Alcotest.(check bool) "spin is software" true (Stall.is_software Stall.Lock_spin);
  Alcotest.(check bool) "frontend flagged" true (Stall.is_frontend Stall.Frontend);
  Alcotest.(check bool) "memory queue is hw backend" true (Stall.is_hardware_backend Stall.Memory_queue);
  Alcotest.(check bool) "frontend not backend" false (Stall.is_hardware_backend Stall.Frontend);
  Alcotest.(check bool) "stm not backend" false (Stall.is_hardware_backend Stall.Stm_abort)

(* ------------------------------------------------------------------ *)
(* The op loop: its bits and its allocation                            *)

(* The simulator's output, pinned bit for bit across commits: [%h] of
   every float a run reports, for each suite workload at seed 42 over six
   (machine, threads) configurations: one Opteron socket at 1, 7 and 12
   threads, the whole Opteron, the Xeon with SMT, and the desktop.  The
   other goldens compare prediction errors within a tolerance or rounded
   text, so only this one catches an op loop that reorders a
   floating-point operation or a random draw. *)
let engine_bits_configs =
  let one_socket = Machines.restrict_sockets Machines.opteron48 ~sockets:1 in
  [
    (one_socket, 1);
    (one_socket, 7);
    (one_socket, 12);
    (Machines.opteron48, 48);
    (Machines.xeon20, 40);
    (Machines.haswell_desktop, 8);
  ]

let engine_bits_line spec (machine, threads) =
  let r = Engine.run ~seed:42 ~machine ~spec ~threads () in
  String.concat " "
    ([
       r.Engine.spec_name;
       machine.Topology.name;
       Printf.sprintf "t=%d" threads;
       Printf.sprintf "cycles=%h" r.Engine.cycles;
       Printf.sprintf "time=%h" r.Engine.time_seconds;
     ]
    @ List.map (fun (c, v) -> Printf.sprintf "%s=%h" (Stall.label c) v) (Ledger.to_assoc r.Engine.ledger)
    @ [
        Printf.sprintf "useful=%h" (Ledger.useful r.Engine.ledger);
        Printf.sprintf "ops=%d" r.Engine.ops_executed;
        Printf.sprintf "contended=%d" r.Engine.lock_contended;
      ])

let test_engine_bits_golden () =
  let golden =
    In_channel.with_open_bin (Filename.concat "golden" "engine_bits.txt") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun line -> line <> "")
  in
  let runs =
    List.concat_map
      (fun (e : Estima_workloads.Suite.entry) -> List.map (fun c -> (e.spec, c)) engine_bits_configs)
      Estima_workloads.Suite.all
  in
  if List.length golden <> List.length runs then
    Alcotest.failf "golden/engine_bits.txt has %d lines for %d runs" (List.length golden) (List.length runs);
  let mismatches =
    List.concat
      (List.map2
         (fun expected (spec, ((machine, threads) as config)) ->
           let actual = engine_bits_line spec config in
           if actual = expected then []
           else
             [
               Printf.sprintf "%s on %s at %d threads:\n  golden %s\n  now    %s" spec.Spec.name
                 machine.Topology.name threads expected actual;
             ])
         golden runs)
  in
  if mismatches <> [] then
    Alcotest.failf "%d of %d runs changed bits:\n%s" (List.length mismatches) (List.length runs)
      (String.concat "\n" mismatches)

(* The op loop allocates nothing: a run of 2k operations allocates
   exactly the words of a run of k, so any word per operation (a boxed
   float crossing a call, a closure per barrier) shows as a difference.
   One spec per synchronisation regime, barriers of both kinds included,
   at 1 and 12 threads. *)
let test_op_loop_allocates_nothing () =
  let regimes =
    [
      ("no sync", memory_bound_spec);
      ("spinlock barrier", barrier_spec);
      ( "mutex barrier",
        { barrier_spec with Spec.op = { barrier_spec.Spec.op with Spec.barrier_kind = Spec.Mutex } } );
      ("mutex", lock_spec Spec.Mutex);
      ("spinlock", lock_spec Spec.Spinlock);
      ("transactional", stm_spec);
      ("lock-free", lockfree_spec);
    ]
  in
  let k = 6_000 in
  let allocated spec threads ops =
    let spec = { spec with Spec.scaling = Spec.Strong ops } in
    let before = Gc.minor_words () in
    let r = run spec threads in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) (spec.Spec.name ^ " ran its operations") ops r.Engine.ops_executed;
    words
  in
  List.iter
    (fun (regime, spec) ->
      List.iter
        (fun threads ->
          let short = allocated spec threads k and long = allocated spec threads (2 * k) in
          if long <> short then
            Alcotest.failf "%s at %d threads: %d ops allocate %.0f words, %d ops %.0f" regime threads k short
              (2 * k) long)
        [ 1; 12 ])
    regimes

let suite =
  [
    ("determinism", `Quick, test_determinism);
    ("seed changes result", `Quick, test_seed_changes_result);
    ("cpu bound scales", `Quick, test_cpu_bound_scales);
    ("strong scaling divides ops", `Quick, test_strong_scaling_divides_ops);
    ("accounting consistency", `Quick, test_accounting_consistency);
    ("memory bound saturates", `Quick, test_memory_bound_saturates);
    ("memory queue grows", `Quick, test_memory_queue_grows);
    ("spinlock spin grows", `Quick, test_spinlock_spin_grows);
    ("lock serialisation bounds throughput", `Quick, test_lock_serialisation_bounds_throughput);
    ("mutex handoff costs more", `Quick, test_mutex_handoff_costs_more);
    ("stm aborts grow", `Quick, test_stm_aborts_grow);
    ("lockfree coherence grows", `Quick, test_lockfree_coherence_grows);
    ("barrier wait charged", `Quick, test_barrier_wait_charged);
    ("barrier costs time", `Quick, test_barrier_makespan_exceeds_nobarrier);
    ("smt slower than physical", `Quick, test_smt_slower_than_physical);
    ("numa remote access penalty", `Quick, test_numa_remote_access_penalty);
    ("stalls per core", `Quick, test_stalls_per_core);
    ("invalid spec rejected", `Quick, test_invalid_spec_rejected);
    ("memory controller queueing", `Quick, test_memory_controller_queueing);
    ("memory controller reset", `Quick, test_memory_controller_reset);
    ("memory remote latency", `Quick, test_memory_remote_latency);
    ("lock fifo", `Quick, test_lock_fifo);
    ("lock striping", `Quick, test_lock_striping);
    ("stm no conflicts single", `Quick, test_stm_no_conflicts_single);
    ("stm conflicts under load", `Quick, test_stm_conflicts_under_load);
    ("cache plan ranges", `Quick, test_cache_plan_ranges);
    ("cache small footprint fits", `Quick, test_cache_small_footprint_fits);
    ("coherence probability monotone", `Quick, test_coherence_probability_monotone);
    ("ledger merge", `Quick, test_ledger_merge);
    ("ledger rejects negative", `Quick, test_ledger_rejects_negative);
    ("stall index roundtrip", `Quick, test_stall_index_roundtrip);
    ("stall classification", `Quick, test_stall_classification);
    ("engine bits match the golden", `Quick, test_engine_bits_golden);
    ("op loop allocates nothing", `Quick, test_op_loop_allocates_nothing);
  ]
