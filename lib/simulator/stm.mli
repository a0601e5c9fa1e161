(** Software transactional memory runtime model (SwissTM-like).

    A transaction reads [reads] and writes [writes] keys out of a
    [key_space].  It aborts when another thread commits a write to one of
    its keys during its window.  The conflict rate is computed from the
    actual committed-write throughput of the other threads, so it rises
    with the core count and with any lengthening of the transaction window
    (e.g. from memory stalls) — the feedback that makes STM benchmarks
    collapse at scale.

    Aborted attempts burn their full duration plus a backoff penalty; those
    cycles are what SwissTM's statistics report and what ESTIMA consumes as
    software stalls (Section 3.2). *)

type t

(** A reusable out-parameter for {!run_transaction}: all-float and mutable
    (the abort count holds small integral values), so the engine fills the
    same scratch record on every transaction instead of allocating one per
    commit. *)
type attempt_result = {
  mutable commit_at : float;  (** When the transaction finally commits. *)
  mutable aborted_attempts : float;
  mutable abort_cycles : float;  (** Cycles burnt in aborted attempts + backoff. *)
  mutable conflict_coherence : float;  (** Extra line transfers caused by retries. *)
}

val make_result : unit -> attempt_result
(** A zeroed scratch result. *)

val create :
  reads:int ->
  writes:int ->
  key_space:int ->
  abort_penalty_cycles:float ->
  line_transfer_cycles:float ->
  t

val run_transaction :
  t ->
  rng:Estima_numerics.Rng.t ->
  now:float ->
  duration:float ->
  threads_active:int ->
  into:attempt_result ->
  unit
(** Execute one transaction of [duration] cycles starting at [now] with
    [threads_active] concurrent threads, overwriting every field of [into]
    with the outcome.  Retries are capped; the cap models contention
    management kicking in. *)

val record_commit : t -> unit
(** Tell the runtime a commit happened, feeding the global write-rate
    estimate used for conflict probabilities. *)
