(** Lock queueing model.

    A lock serialises critical sections: acquisitions are granted in FIFO
    order, so a thread arriving at time [t] when the lock frees at [f > t]
    waits [f - t] cycles.  How those waiting cycles are *spent* depends on
    the lock kind:

    - {!Spec.Spinlock}: the thread burns every waiting cycle spinning
      (all waiting is software stall).
    - {!Spec.Mutex}: pthread-style adaptive lock — spin briefly, then
      block; blocked cycles are not executed (they still elapse), and
      waking costs a context-switch penalty that lengthens the wait. *)

type t

(** A reusable out-parameter for {!acquire}: all-float and mutable, so the
    engine fills the same scratch record on every acquisition instead of
    allocating a fresh grant per critical section. *)
type grant = {
  mutable acquired_at : float;  (** When the critical section begins. *)
  mutable released_at : float;  (** When the lock frees again. *)
  mutable spin_cycles : float;
      (** Wall-clock cycles spent inside the acquire (spinning or blocked) —
          what a pthread wrapper's TSC instrumentation reports. *)
  mutable handoff_coherence : float;
      (** Cycles of cache-line transfer for the lock word on a contended
          handoff (hardware coherence stall). *)
  mutable cold_restart_cycles : float;
      (** Backend stall cycles visible after a blocked mutex waiter wakes:
          the descheduled thread's cache state was evicted and must be
          re-fetched.  Zero for spinlocks and un-blocked waits. *)
}

val make_grant : unit -> grant
(** A zeroed scratch grant. *)

val create : Spec.lock_kind -> count:int -> line_transfer_cycles:float -> t
(** A striped set of [count] locks.  [line_transfer_cycles] is the cost of
    migrating the lock word between caches on contended acquire. *)

val acquire : t -> into:grant -> index:int -> now:float -> hold_for:float -> unit
(** [acquire t ~into ~index ~now ~hold_for] requests lock [index mod count]
    at time [now], holding it for [hold_for] cycles once granted.  Every
    field of [into] is overwritten with the grant. *)

val contended_acquisitions : t -> int
(** Acquisitions that had to wait, since creation. *)

val mutex_wake_penalty : float
(** Extra cycles between lock release and a blocked waiter resuming. *)
