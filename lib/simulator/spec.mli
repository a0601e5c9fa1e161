(** Behavioural specification of a simulated workload.

    A workload is described by the per-operation behaviour of its threads:
    compute cost, memory accesses, sharing, and the synchronisation regime.
    The workload library compiles each benchmark to one of these; the
    engine executes it on a machine model. *)

type lock_kind =
  | Mutex  (** pthread-style: brief spin then block, wake-up penalty. *)
  | Spinlock  (** test-and-set: all waiting is spinning. *)

type sync =
  | No_sync  (** Embarrassingly parallel work. *)
  | Locked of {
      kind : lock_kind;
      num_locks : int;  (** Striping: contention divides across locks. *)
      cs_cycles : float;  (** Critical-section compute cost. *)
      cs_mem_accesses : int;  (** Line accesses inside the section. *)
    }
  | Transactional of {
      reads : int;  (** Read-set size per transaction. *)
      writes : int;  (** Write-set size per transaction. *)
      key_space : int;  (** Keys conflicts are drawn over. *)
      abort_penalty_cycles : float;  (** Backoff cost added per abort. *)
    }
  | Lock_free of {
      cas_cost_cycles : float;  (** Cost of one CAS attempt. *)
      retry_contention : float;
          (** Retry-probability slope per concurrent thread; models CAS
              failure under contention. *)
    }

type op = {
  useful_cycles : float;  (** Mean useful compute per operation. *)
  useful_cv : float;  (** Coefficient of variation of the above. *)
  mem_reads : int;  (** Cache-line reads per operation. *)
  mem_writes : int;  (** Cache-line writes per operation. *)
  shared_fraction : float;  (** Fraction of accesses to shared data. *)
  write_shared_fraction : float;
      (** Fraction of *writes* that touch shared lines; drives coherence. *)
  fp_fraction : float;  (** Fraction of compute subject to FPU pressure. *)
  dependency_factor : float;
      (** Fraction of compute lost to dependency chains (RS pressure). *)
  branch_mpki : float;  (** Branch mispredictions per 1000 useful cycles. *)
  frontend_cycles : float;  (** Frontend stall cycles per operation. *)
  sync : sync;
  barrier_every : int option;
      (** Total operations (across all threads) per program phase; a
          barrier separates phases.  Phase-structured programs have a fixed
          number of barriers regardless of thread count, so per-thread
          phase work shrinks as threads grow while barrier cost rises —
          the classic source of barrier-bound collapse. *)
  barrier_kind : lock_kind;
      (** How the barrier is built: [Mutex] models PARSEC's
          pthread_mutex/trylock barriers (serialised wakeups — the
          streamcluster bottleneck of Section 4.6); [Spinlock] models the
          paper's test-and-set fix. *)
}

type t = {
  name : string;
  total_ops : int;  (** Total operations, divided across threads (strong scaling). *)
  private_footprint_lines : int;  (** Per-thread private working set. *)
  shared_footprint_lines : int;  (** Shared working set (whole run). *)
  op : op;
}

val dataset_scale : t -> float -> t
(** [dataset_scale t k] multiplies the footprints and the total operation
    count by [k]: the paper's Section 4.5 "2x dataset" configuration.
    Raises [Invalid_argument] if [k <= 0]. *)

val ops_for : t -> threads:int -> int
(** Operations each thread executes: [total_ops / threads], at least 1. *)

val total_footprint_lines : t -> threads:int -> int

val validate : t -> (unit, string) result
