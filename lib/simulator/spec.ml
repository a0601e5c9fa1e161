type lock_kind = Mutex | Spinlock

type sync =
  | No_sync
  | Locked of { kind : lock_kind; num_locks : int; cs_cycles : float; cs_mem_accesses : int }
  | Transactional of { reads : int; writes : int; key_space : int; abort_penalty_cycles : float }
  | Lock_free of { cas_cost_cycles : float; retry_contention : float }

type op = {
  useful_cycles : float;
  useful_cv : float;
  mem_reads : int;
  mem_writes : int;
  shared_fraction : float;
  write_shared_fraction : float;
  fp_fraction : float;
  dependency_factor : float;
  branch_mpki : float;
  frontend_cycles : float;
  sync : sync;
  barrier_every : int option;
  barrier_kind : lock_kind;
}

type t = {
  name : string;
  total_ops : int;
  private_footprint_lines : int;
  shared_footprint_lines : int;
  op : op;
}

let dataset_scale t k =
  if k <= 0.0 then invalid_arg "Spec.dataset_scale: non-positive factor";
  let scale_int n = int_of_float (Float.round (float_of_int n *. k)) in
  {
    t with
    total_ops = scale_int t.total_ops;
    private_footprint_lines = scale_int t.private_footprint_lines;
    shared_footprint_lines = scale_int t.shared_footprint_lines;
  }

let ops_for t ~threads =
  if threads <= 0 then invalid_arg "Spec.ops_for: non-positive thread count";
  max 1 (t.total_ops / threads)

(* Private data is per thread; the shared dataset is one per run. *)
let total_footprint_lines t ~threads =
  (t.private_footprint_lines * threads) + t.shared_footprint_lines

let validate t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let o = t.op in
  if o.useful_cycles <= 0.0 then fail "%s: non-positive useful cycles" t.name
  else if o.useful_cv < 0.0 then fail "%s: negative cv" t.name
  else if o.mem_reads < 0 || o.mem_writes < 0 then fail "%s: negative access counts" t.name
  else if o.shared_fraction < 0.0 || o.shared_fraction > 1.0 then fail "%s: shared_fraction range" t.name
  else if o.write_shared_fraction < 0.0 || o.write_shared_fraction > 1.0 then
    fail "%s: write_shared_fraction range" t.name
  else if o.fp_fraction < 0.0 || o.fp_fraction > 1.0 then fail "%s: fp_fraction range" t.name
  else if o.dependency_factor < 0.0 || o.dependency_factor > 1.0 then fail "%s: dependency_factor range" t.name
  else if o.branch_mpki < 0.0 || o.frontend_cycles < 0.0 then fail "%s: negative stall rates" t.name
  else if t.private_footprint_lines < 0 || t.shared_footprint_lines < 0 then
    fail "%s: negative footprint" t.name
  else
    match o.sync with
    | No_sync -> Ok ()
    | Locked l ->
        if l.num_locks <= 0 then fail "%s: need at least one lock" t.name
        else if l.cs_cycles < 0.0 || l.cs_mem_accesses < 0 then fail "%s: bad critical section" t.name
        else Ok ()
    | Transactional tx ->
        if tx.reads < 0 || tx.writes < 0 then fail "%s: negative tx sets" t.name
        else if tx.key_space <= 0 then fail "%s: empty key space" t.name
        else if tx.writes > tx.key_space then fail "%s: write set exceeds key space" t.name
        else Ok ()
    | Lock_free lf ->
        if lf.cas_cost_cycles < 0.0 || lf.retry_contention < 0.0 then fail "%s: bad lock-free params" t.name
        else Ok ()
