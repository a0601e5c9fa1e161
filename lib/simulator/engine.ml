open Estima_machine
module Rng = Estima_numerics.Rng

type thread_stats = {
  ledger : Ledger.t;
  finish_cycles : float;
  ops_executed : int;
  location : Topology.location;
}

type result = {
  machine : Topology.t;
  spec_name : string;
  threads : int;
  cycles : float;
  time_seconds : float;
  ledger : Ledger.t;
  per_thread : thread_stats array;
  ops_executed : int;
  footprint_lines : int;
  lock_contended : int;
}

(* Thread status values.  The per-thread clock and barrier-arrival time
   live in flat float arrays rather than record fields: this record mixes
   ints and pointers, so a mutable float field would be boxed and every
   store on the per-op path would allocate. *)
let st_running = 0
let st_parked = 1
let st_done = 2

type thread_state = {
  id : int;
  loc : Topology.location;
  rng : Rng.t;
  led : Ledger.t;
  mutable ops_left : int;
  mutable ops_done : int;
  mutable ops_since_barrier : int;
  mutable status : int;
  smt_shared : bool;  (** An SMT sibling shares this physical core. *)
  ctrl : Memory.controller;  (** This thread's own chip's memory controller. *)
  shared_dram : float;  (** DRAM latency from here to the shared data's home. *)
}

(* Per-run dispatch, specialised from [Spec.sync] once so the per-op path
   performs a single tag test instead of re-deciding the synchronisation
   model (and unwrapping options) on every operation. *)
type dispatch =
  | D_no_sync
  | D_transactional of Stm.t
  | D_locked of { bank : Lock.t; num_locks : int; cs_cycles : float; cs_mem : float; hold : float }
  | D_lock_free of { cas_cost_cycles : float; p_retry : float }

let branch_penalty_cycles = 15.0

let barrier_base_cycles = 200.0

(* Throughput loss when two SMT threads share a core: each runs at ~0.65 of
   the solo rate, i.e. the same work takes ~1.35x the core cycles. *)
let smt_slowdown = 1.35

(* Stochastic rounding keeps expected access counts exact while issuing an
   integral number of controller requests.  The expected counts are run
   constants, so [split_round] takes each one's floor and fraction once
   per run and an operation only draws the rounding: no [floor] call on
   the per-op path. *)
let split_round x =
  let f = Float.floor x in
  (Float.to_int f, x -. f)

let[@inline always] sround rng (base, fraction) =
  if Rng.bool rng fraction then base + 1 else base

let shared_home_socket = 0

(* The barrier release's scan: the latest arrival among the parked
   threads into [into], and their count.  It runs once per barrier, not
   per operation, so it keeps [Float.max], exact for NaN clocks; kept out
   of line, its two [sign_bit] C calls, the only ones left in the engine,
   stay visibly off the per-op loop. *)
let[@inline never] latest_arrival ~into ~parked_at states =
  Array.unsafe_set into 0 0.0;
  let parked = ref 0 in
  for i = 0 to Array.length states - 1 do
    if states.(i).status = st_parked then begin
      incr parked;
      Array.unsafe_set into 0 (Float.max (Array.unsafe_get into 0) parked_at.(i))
    end
  done;
  !parked

let run ?(seed = 1) ~machine ~spec ~threads () =
  (match Spec.validate spec with Ok () -> () | Error e -> invalid_arg ("Engine.run: " ^ e));
  let placement = Allocation.place machine ~threads in
  let sockets_used = Allocation.sockets_used placement in
  let plan = Cache.plan machine ~spec ~threads ~sockets_used in
  let memory = Memory.create machine in
  let timing = machine.Topology.timing in
  let llc_latency = float_of_int (timing.Topology.llc_hit_cycles - timing.Topology.l1_hit_cycles) in
  (* Cache-to-cache transfer cost: the base (intra-chip) cost plus the
     expected interconnect penalty for a transfer between two random
     participating threads — cross-socket transfers pay the socket hop,
     cross-chip (MCM) transfers the chip hop.  This is what makes shared
     lines visibly more expensive once a run spans sockets. *)
  let line_transfer =
    let base = float_of_int (2 * timing.Topology.llc_hit_cycles) in
    let n = Array.length placement in
    if n <= 1 then base
    else begin
      let pairs = ref 0 and cross_socket = ref 0 and cross_chip = ref 0 in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i < j then begin
                incr pairs;
                match Topology.numa_hops a b with
                | 2 -> incr cross_socket
                | 1 -> incr cross_chip
                | _ -> ()
              end)
            placement)
        placement;
      let fp = float_of_int !pairs in
      (* Directory-based transfers amortise part of the interconnect cost;
         charge half the raw hop penalty per transfer. *)
      base
      +. (0.5 *. float_of_int !cross_socket /. fp
         *. float_of_int timing.Topology.remote_socket_penalty_cycles)
      +. (0.5 *. float_of_int !cross_chip /. fp
         *. float_of_int timing.Topology.remote_chip_penalty_cycles)
    end
  in
  let o = spec.Spec.op in
  let ops_per_thread = Spec.ops_for spec ~threads in
  (* barrier_every counts TOTAL operations per phase; each thread's share
     of a phase shrinks as threads are added.  [max_int] means "never". *)
  let barrier_interval =
    match o.Spec.barrier_every with None -> max_int | Some total -> max 1 (total / threads)
  in
  let root_rng = Rng.create seed in
  (* Shared synchronisation structures, specialised for the per-op path.
     The critical-section duration of a lock-based op and the retry
     probability of a lock-free op are run constants: fold them here. *)
  let dispatch =
    match o.Spec.sync with
    | Spec.No_sync -> D_no_sync
    | Spec.Transactional { reads; writes; key_space; abort_penalty_cycles } ->
        D_transactional
          (Stm.create ~reads ~writes ~key_space ~abort_penalty_cycles
             ~line_transfer_cycles:line_transfer)
    | Spec.Locked { kind; num_locks; cs_cycles; cs_mem_accesses } ->
        (* Critical-section duration: its compute plus its memory accesses
           at uncontended cost (they mostly hit the shared working set). *)
        let cs_mem = float_of_int cs_mem_accesses *. (llc_latency *. 0.5) in
        D_locked
          {
            bank = Lock.create kind ~count:num_locks ~line_transfer_cycles:line_transfer;
            num_locks;
            cs_cycles;
            cs_mem;
            hold = cs_cycles +. cs_mem;
          }
    | Spec.Lock_free { cas_cost_cycles; retry_contention } ->
        (* CAS retry loop: failures are hardware-visible coherence traffic. *)
        D_lock_free
          {
            cas_cost_cycles;
            p_retry =
              (let p = retry_contention *. float_of_int (threads - 1) in
               (* [Float.min 0.9 p], without its [sign_bit] calls. *)
               if p > 0.9 then 0.9 else p);
          }
  in
  let lock_bank = match dispatch with D_locked { bank; _ } -> Some bank | _ -> None in
  let core_key l = (l.Topology.socket, l.Topology.chip, l.Topology.core) in
  let core_use = Hashtbl.create 64 in
  Array.iter
    (fun l ->
      let k = core_key l in
      Hashtbl.replace core_use k (1 + Option.value ~default:0 (Hashtbl.find_opt core_use k)))
    placement;
  let private_dram = Memory.dram_latency memory ~hops:0 in
  let shared_ctrl = Memory.controller memory ~socket:shared_home_socket ~chip:0 in
  let states =
    Array.init threads (fun i ->
        let loc = placement.(i) in
        let home = { loc with Topology.socket = shared_home_socket; chip = 0 } in
        {
          id = i;
          loc;
          rng = Rng.split root_rng;
          led = Ledger.create ();
          ops_left = ops_per_thread;
          ops_done = 0;
          ops_since_barrier = 0;
          status = st_running;
          smt_shared = Hashtbl.find core_use (core_key loc) > 1;
          ctrl = Memory.controller memory ~socket:loc.Topology.socket ~chip:loc.Topology.chip;
          shared_dram = Memory.dram_latency memory ~hops:(Topology.numa_hops loc home);
        })
  in
  let clocks = Array.make threads 0.0 in
  let parked_at = Array.make threads 0.0 in
  let coherence_p = Cache.coherence_probability ~spec ~active_threads:threads in

  (* Expected per-op event counts are run constants; precompute them so
     the hot path only draws the stochastic roundings. *)
  let accesses = o.Spec.mem_reads + o.Spec.mem_writes in
  let fa = float_of_int accesses in
  let shared_acc = fa *. o.Spec.shared_fraction in
  let private_acc = fa -. shared_acc in
  let llc_hits_round = split_round (fa *. plan.Cache.p_miss_private_to_llc) in
  let private_fills_round = split_round (private_acc *. plan.Cache.p_miss_private_data_memory) in
  let shared_fills_round = split_round (shared_acc *. plan.Cache.p_miss_shared_data_memory) in
  let transfers_round = split_round (shared_acc *. coherence_p) in
  let useful_mu = o.Spec.useful_cycles in
  let useful_sigma = o.Spec.useful_cycles *. o.Spec.useful_cv in
  let dependency_factor = o.Spec.dependency_factor in
  let fp_fraction = o.Spec.fp_fraction in
  let branch_mpki = o.Spec.branch_mpki in
  let frontend_cycles = o.Spec.frontend_cycles in
  (* Reusable out-parameters: one grant / transaction result per run, not
     one per operation. *)
  let grant = Lock.make_grant () in
  let stm_res = Stm.make_result () in
  (* The two phases' elapsed cycles.  Float array cells rather than
     returned floats or [ref]s: a float returned from a call is boxed,
     and mutable variables are not unboxed in classic mode, so either
     would allocate on every operation. *)
  let mp_elapsed = [| 0.0 |] and cp_elapsed = [| 0.0 |] in

  (* --- per-op building blocks ------------------------------------- *)
  (* Everything an operation runs is inlined into the main loop, Stm and
     Lock included, so no float crosses a call and nothing allocates; the
     only calls left are libm's [log] and [cos] in [Rng.gaussian] and
     [exp] in [Stm.run_transaction]. *)

  (* Memory accesses: elapsed cycles into [mp_elapsed]; charges stall
     causes. *)
  let[@inline always] memory_phase st =
    Array.unsafe_set mp_elapsed 0 0.0;
    if accesses > 0 then begin
      (* Private-cache misses that hit in the LLC. *)
      let llc_hits = sround st.rng llc_hits_round in
      if llc_hits > 0 then begin
        let cost = float_of_int llc_hits *. llc_latency in
        Ledger.add st.led Stall.Miss_private cost;
        Array.unsafe_set mp_elapsed 0 (Array.unsafe_get mp_elapsed 0 +. cost)
      end;
      (* DRAM fills for private data: homed on the thread's own socket. *)
      let private_fills = sround st.rng private_fills_round in
      for _ = 1 to private_fills do
        let total =
          Memory.request_on st.ctrl
            ~now:(clocks.(st.id) +. Array.unsafe_get mp_elapsed 0)
            ~dram:private_dram
        in
        let queue = Memory.queue_delay_on st.ctrl in
        Ledger.add st.led Stall.Memory_queue queue;
        Ledger.add st.led Stall.Miss_memory (total -. queue);
        Array.unsafe_set mp_elapsed 0 (Array.unsafe_get mp_elapsed 0 +. total)
      done;
      (* DRAM fills for shared data: homed on socket 0 (first touch). *)
      let shared_fills = sround st.rng shared_fills_round in
      for _ = 1 to shared_fills do
        let total =
          Memory.request_on shared_ctrl
            ~now:(clocks.(st.id) +. Array.unsafe_get mp_elapsed 0)
            ~dram:st.shared_dram
        in
        let queue = Memory.queue_delay_on shared_ctrl in
        Ledger.add st.led Stall.Memory_queue queue;
        Ledger.add st.led Stall.Miss_memory (total -. queue);
        Array.unsafe_set mp_elapsed 0 (Array.unsafe_get mp_elapsed 0 +. total)
      done;
      (* Coherence transfers on shared lines. *)
      let transfers = sround st.rng transfers_round in
      if transfers > 0 then begin
        let cost = float_of_int transfers *. line_transfer in
        Ledger.add st.led Stall.Coherence cost;
        Array.unsafe_set mp_elapsed 0 (Array.unsafe_get mp_elapsed 0 +. cost)
      end
    end
  in

  (* Compute phase: useful work plus the pipeline stalls tied to it;
     elapsed cycles into [cp_elapsed]. *)
  let[@inline always] compute_phase st =
    let g = Rng.gaussian st.rng ~mu:useful_mu ~sigma:useful_sigma in
    let base = if g > 1.0 then g else 1.0 in
    let useful = if st.smt_shared then base *. smt_slowdown else base in
    Ledger.add_useful st.led useful;
    let dep = useful *. dependency_factor in
    Ledger.add st.led Stall.Dependency dep;
    let fp = useful *. fp_fraction *. 0.35 in
    Ledger.add st.led Stall.Fp_pressure fp;
    let branch = branch_mpki *. useful /. 1000.0 *. branch_penalty_cycles in
    Ledger.add st.led Stall.Branch_recovery branch;
    Ledger.add st.led Stall.Frontend frontend_cycles;
    Array.unsafe_set cp_elapsed 0 (useful +. dep +. fp +. branch +. frontend_cycles)
  in

  (* One operation of thread [st]; advances its clock. *)
  let[@inline always] execute_op st =
    (* The memory phase runs first: its roundings draw from the
       thread's stream before the compute phase's gaussian does, the
       order test/golden/engine_bits.txt pins. *)
    memory_phase st;
    compute_phase st;
    let body = Array.unsafe_get cp_elapsed 0 +. Array.unsafe_get mp_elapsed 0 in
    match dispatch with
    | D_transactional stm ->
        (* The whole op body runs inside a transaction; aborted attempts
           re-execute it.  Hardware counters see aborted work as ordinary
           execution; SwissTM statistics expose it as software stall. *)
        Stm.run_transaction stm ~rng:st.rng ~now:clocks.(st.id) ~duration:body
          ~threads_active:threads ~into:stm_res;
        if stm_res.Stm.abort_cycles > 0.0 then begin
          Ledger.add st.led Stall.Stm_abort stm_res.Stm.abort_cycles;
          Ledger.add st.led Stall.Coherence stm_res.Stm.conflict_coherence
        end;
        clocks.(st.id) <- stm_res.Stm.commit_at +. stm_res.Stm.conflict_coherence
    | D_locked { bank; num_locks; cs_cycles; cs_mem; hold } ->
        (* Body outside the critical section, then the protected update. *)
        clocks.(st.id) <- clocks.(st.id) +. body;
        let index = Rng.int st.rng num_locks in
        Lock.acquire bank ~into:grant ~index ~now:clocks.(st.id) ~hold_for:hold;
        if grant.Lock.spin_cycles > 0.0 then Ledger.add st.led Stall.Lock_spin grant.Lock.spin_cycles;
        if grant.Lock.handoff_coherence > 0.0 then
          Ledger.add st.led Stall.Coherence grant.Lock.handoff_coherence;
        if grant.Lock.cold_restart_cycles > 0.0 then
          Ledger.add st.led Stall.Miss_private grant.Lock.cold_restart_cycles;
        Ledger.add_useful st.led cs_cycles;
        Ledger.add st.led Stall.Miss_private cs_mem;
        clocks.(st.id) <- grant.Lock.released_at
    | D_lock_free { cas_cost_cycles; p_retry } ->
        clocks.(st.id) <- clocks.(st.id) +. body;
        let attempts = ref 1 in
        while !attempts < 20 && Rng.bool st.rng p_retry do
          incr attempts
        done;
        let failed = float_of_int (!attempts - 1) in
        if failed > 0.0 then Ledger.add st.led Stall.Coherence (failed *. (cas_cost_cycles +. line_transfer));
        Ledger.add_useful st.led cas_cost_cycles;
        clocks.(st.id) <- clocks.(st.id) +. (float_of_int !attempts *. cas_cost_cycles) +. (failed *. line_transfer)
    | D_no_sync -> clocks.(st.id) <- clocks.(st.id) +. body
  in

  (* --- runnable-thread scheduling ---------------------------------- *)

  (* The engine always advances the lagging runnable thread, ties broken
     by the lowest id — the selection the old O(threads) scan made.  A
     binary min-heap of thread ids on the strict total order (clock, id)
     keeps that selection exact at O(log threads) per operation, which is
     what lets 48-thread runs cost the same per op as 2-thread runs. *)
  (* Indices into [heap]/[clocks] are thread ids and heap slots, both
     invariantly below [threads]; the unchecked accessors keep bounds
     checks off the per-op path.  Both sifts move a hole rather than
     swapping, and compare inline: the per-op [sift_down] is a loop with
     no call. *)
  let heap = Array.make threads 0 in
  let hsize = ref 0 in
  let[@inline always] precedes a b =
    let ca = Array.unsafe_get clocks a and cb = Array.unsafe_get clocks b in
    ca < cb || (ca = cb && a < b)
  in
  let hpush id =
    let i = ref !hsize in
    incr hsize;
    while !i > 0 && precedes id (Array.unsafe_get heap ((!i - 1) / 2)) do
      let p = (!i - 1) / 2 in
      Array.unsafe_set heap !i (Array.unsafe_get heap p);
      i := p
    done;
    Array.unsafe_set heap !i id
  in
  (* The root's clock advanced (or the root was replaced): move it down
     past every child that now precedes it. *)
  let[@inline always] sift_down () =
    let id = Array.unsafe_get heap 0 in
    let i = ref 0 and l = ref 1 in
    while !l < !hsize do
      let m =
        let r = !l + 1 in
        if r < !hsize && precedes (Array.unsafe_get heap r) (Array.unsafe_get heap !l) then r else !l
      in
      let child = Array.unsafe_get heap m in
      if precedes child id then begin
        Array.unsafe_set heap !i child;
        i := m;
        l := (2 * m) + 1
      end
      else l := !hsize
    done;
    Array.unsafe_set heap !i id
  in
  let hremove_root () =
    decr hsize;
    if !hsize > 0 then begin
      Array.unsafe_set heap 0 (Array.unsafe_get heap !hsize);
      sift_down ()
    end
  in
  for i = 0 to threads - 1 do
    hpush i
  done;

  (* Barrier release: all parked threads resume together.  Plain loops
     and a float cell, so a barrier allocates nothing: an [Array.iter]
     closure over a float [ref] would allocate at every one. *)
  let latest = [| 0.0 |] in
  let release_barrier () =
    let parked = latest_arrival ~into:latest ~parked_at states in
    (* Centralised barrier: the counter line bounces across participants.
       A mutex-based barrier additionally pays a serialised wake-up chain
       (the PARSEC trylock barrier of the paper's Section 4.6). *)
    let per_thread_cost =
      match o.Spec.barrier_kind with
      | Spec.Spinlock -> line_transfer
      | Spec.Mutex -> line_transfer +. (0.5 *. Lock.mutex_wake_penalty)
    in
    let overhead = barrier_base_cycles +. (per_thread_cost *. float_of_int parked) in
    let release = Array.unsafe_get latest 0 +. overhead in
    for i = 0 to threads - 1 do
      let st = states.(i) in
      if st.status = st_parked then begin
        let wait = release -. parked_at.(i) in
        Ledger.add st.led Stall.Barrier_wait wait;
        Ledger.add st.led Stall.Coherence (line_transfer *. 0.5);
        clocks.(i) <- release;
        st.status <- st_running;
        hpush i
      end
    done
  in

  (* --- main loop ---------------------------------------------------- *)
  let finished = ref 0 in
  while !finished < threads do
    if !hsize = 0 then
      (* Everyone alive is parked at the barrier. *)
      release_barrier ()
    else begin
      (* The heap root is the lagging runnable thread. *)
      let st = states.(heap.(0)) in
      execute_op st;
      st.ops_left <- st.ops_left - 1;
      st.ops_done <- st.ops_done + 1;
      st.ops_since_barrier <- st.ops_since_barrier + 1;
      if st.ops_left = 0 then begin
        st.status <- st_done;
        incr finished;
        hremove_root ()
      end
      else if st.ops_since_barrier >= barrier_interval then begin
        st.ops_since_barrier <- 0;
        st.status <- st_parked;
        parked_at.(st.id) <- clocks.(st.id);
        (* Once the last runnable thread parks the next loop iteration
           releases the barrier. *)
        hremove_root ()
      end
      else
        (* Its clock advanced: restore the heap order. *)
        sift_down ()
    end
  done;
  let per_thread =
    Array.map
      (fun st ->
        { ledger = st.led; finish_cycles = clocks.(st.id); ops_executed = st.ops_done; location = st.loc })
      states
  in
  let merged = Ledger.merge (Array.to_list (Array.map (fun st -> st.led) states)) in
  let makespan = Array.fold_left Float.max 0.0 clocks in
  {
    machine;
    spec_name = spec.Spec.name;
    threads;
    cycles = makespan;
    time_seconds = makespan /. (machine.Topology.frequency_ghz *. 1e9);
    ledger = merged;
    per_thread;
    ops_executed = Array.fold_left (fun acc st -> acc + st.ops_done) 0 states;
    footprint_lines = Spec.total_footprint_lines spec ~threads;
    lock_contended = (match lock_bank with Some b -> Lock.contended_acquisitions b | None -> 0);
  }

let stalls_per_core result =
  let hw = Ledger.total_hardware_backend result.ledger in
  let sw =
    List.fold_left
      (fun acc c -> if Stall.is_software c then acc +. Ledger.get result.ledger c else acc)
      0.0 Stall.all
  in
  (hw +. sw) /. float_of_int result.threads
