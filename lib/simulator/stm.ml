type t = {
  reads : int;
  writes : int;
  key_space : int;
  abort_penalty_cycles : float;
  line_transfer_cycles : float;
  (* One-cell float array rather than a [mutable float] field: the record
     mixes ints and floats, so a mutable float field would be boxed and
     every commit/abort store would allocate. *)
  committed_writes : float array;
}

(* All fields are floats (the abort count holds small integral values) so
   the record is flat and field stores do not allocate: the engine reuses
   one scratch result across every transaction of a run. *)
type attempt_result = {
  mutable commit_at : float;
  mutable aborted_attempts : float;
  mutable abort_cycles : float;
  mutable conflict_coherence : float;
}

let make_result () =
  { commit_at = 0.0; aborted_attempts = 0.0; abort_cycles = 0.0; conflict_coherence = 0.0 }

let max_attempts = 64

let create ~reads ~writes ~key_space ~abort_penalty_cycles ~line_transfer_cycles =
  if key_space <= 0 then invalid_arg "Stm.create: empty key space";
  if reads < 0 || writes < 0 then invalid_arg "Stm.create: negative set sizes";
  { reads; writes; key_space; abort_penalty_cycles; line_transfer_cycles; committed_writes = [| 0.0 |] }

let[@inline always] record_commit t =
  t.committed_writes.(0) <- t.committed_writes.(0) +. float_of_int t.writes

(* Committed writes per cycle across all threads, averaged from time 0
   to [at]; 0 when [at <= 0]. *)
let[@inline always] observed_write_rate t ~at =
  if at <= 0.0 then 0.0 else t.committed_writes.(0) /. at

(* Inlined into the engine's per-op path: an out-of-line call would box
   [now] and [duration] on the way in, and [observed_write_rate]'s result
   once per attempt. *)
let[@inline always] run_transaction t ~rng ~now ~duration ~threads_active ~into:(r : attempt_result) =
  if duration < 0.0 then invalid_arg "Stm.run_transaction: negative duration";
  if threads_active <= 0 then invalid_arg "Stm.run_transaction: no threads";
  let footprint = float_of_int (t.reads + t.writes) in
  let share_of_others = float_of_int (threads_active - 1) /. float_of_int threads_active in
  (* The retry loop accumulates directly into [r]'s flat float fields:
     float refs would box on every update (mutable variables are not
     unboxed in classic mode), and this loop runs once per operation. *)
  r.commit_at <- now;
  r.abort_cycles <- 0.0;
  r.conflict_coherence <- 0.0;
  let aborts = ref 0 in
  let committed = ref false in
  while not !committed do
    (* Conflicting-write arrival rate over this attempt's window. *)
    let rate = observed_write_rate t ~at:r.commit_at *. share_of_others in
    let lambda = rate *. duration *. footprint /. float_of_int t.key_space in
    let p_abort = 1.0 -. exp (-.lambda) in
    if !aborts < max_attempts - 1 && Estima_numerics.Rng.bool rng p_abort then begin
      incr aborts;
      (* The attempt runs (on average) half its window before the conflict
         is detected on validation, then pays backoff that grows with the
         retry count (contention management). *)
      let backoff = t.abort_penalty_cycles *. float_of_int (Int.min !aborts 10) in
      let burnt = (0.5 *. duration) +. backoff in
      r.abort_cycles <- r.abort_cycles +. burnt;
      r.conflict_coherence <- r.conflict_coherence +. (float_of_int t.writes *. t.line_transfer_cycles);
      (* Eager STM: the aborted attempt acquired its write locks before
         failing validation, so it conflicts others just like a commit.
         This positive feedback is what makes contended STM collapse. *)
      t.committed_writes.(0) <- t.committed_writes.(0) +. float_of_int t.writes;
      r.commit_at <- r.commit_at +. burnt
    end
    else begin
      r.commit_at <- r.commit_at +. duration;
      committed := true
    end
  done;
  record_commit t;
  r.aborted_attempts <- float_of_int !aborts
