type t = {
  kind : Spec.lock_kind;
  free_at : float array;
  line_transfer_cycles : float;
  mutable contended : int;
}

(* All fields are floats so the record is flat and field stores do not
   allocate: the engine reuses one scratch grant across every acquisition
   of a run. *)
type grant = {
  mutable acquired_at : float;
  mutable released_at : float;
  mutable spin_cycles : float;
  mutable handoff_coherence : float;
  mutable cold_restart_cycles : float;
}

let make_grant () =
  { acquired_at = 0.0; released_at = 0.0; spin_cycles = 0.0; handoff_coherence = 0.0; cold_restart_cycles = 0.0 }

(* Cycles a Mutex spins before blocking (adaptive-mutex model). *)
let mutex_spin_threshold = 600.0

let mutex_wake_penalty = 1500.0

let create kind ~count ~line_transfer_cycles =
  if count <= 0 then invalid_arg "Lock.create: need at least one lock";
  { kind; free_at = Array.make count 0.0; line_transfer_cycles; contended = 0 }

(* Inlined into the engine's per-op path: an out-of-line call would box
   [now] on the way in. *)
let[@inline always] acquire t ~into:g ~index ~now ~hold_for =
  if hold_for < 0.0 then invalid_arg "Lock.acquire: negative hold time";
  let i = index mod Array.length t.free_at in
  let i = if i < 0 then i + Array.length t.free_at else i in
  let free = t.free_at.(i) in
  if free <= now then begin
    (* Uncontended: immediate grant, no handoff transfer. *)
    let released_at = now +. hold_for in
    t.free_at.(i) <- released_at;
    g.acquired_at <- now;
    g.released_at <- released_at;
    g.spin_cycles <- 0.0;
    g.handoff_coherence <- 0.0;
    g.cold_restart_cycles <- 0.0
  end
  else begin
    t.contended <- t.contended + 1;
    let wait = free -. now in
    (* Both kinds report the full wait as sync cycles: a pthread wrapper
       measures elapsed TSC inside lock(), blocked or spinning alike.  The
       mutex additionally pays the wake-up penalty on long waits, and
       blocking deschedules the thread: waking re-fetches the lock word,
       the protected data and whatever the scheduler evicted — roughly
       half the wake-up penalty shows up in hardware counters as backend
       (cache-refill) stalls. *)
    let blocked =
      match t.kind with Spec.Spinlock -> false | Spec.Mutex -> wait > mutex_spin_threshold
    in
    let spin = wait in
    let extra_delay = if blocked then mutex_wake_penalty else 0.0 in
    let cold_restart = if blocked then 0.5 *. mutex_wake_penalty else 0.0 in
    let acquired_at = free +. extra_delay +. t.line_transfer_cycles in
    let released_at = acquired_at +. hold_for in
    t.free_at.(i) <- released_at;
    g.acquired_at <- acquired_at;
    g.released_at <- released_at;
    g.spin_cycles <- spin;
    g.handoff_coherence <- t.line_transfer_cycles;
    g.cold_restart_cycles <- cold_restart
  end

let contended_acquisitions t = t.contended
