open Estima_sim

let streamcluster_spinlock =
  let base = Parsec.streamcluster in
  {
    base with
    Spec.name = "streamcluster-spinlock";
    op = { base.Spec.op with Spec.barrier_kind = Spec.Spinlock };
  }

let batch = 4

(* Batching multiplies per-op work by [batch] and divides the op count; the
   transaction's shared-structure accesses grow sub-linearly because the
   queue head is taken once per batch. *)
let intruder_batched =
  let base = Stamp.intruder in
  let o = base.Spec.op in
  {
    base with
    Spec.name = "intruder-batched";
    total_ops = base.Spec.total_ops / batch;
    op =
      {
        o with
        Spec.useful_cycles = o.Spec.useful_cycles *. float_of_int batch;
        mem_reads = o.Spec.mem_reads * batch;
        mem_writes = o.Spec.mem_writes * batch;
        sync =
          (* The batched decoder takes the shared queue head once per batch
             instead of once per element: the transaction's conflict
             footprint stays the same while covering [batch] elements,
             which is equivalent to diluting the hot keys across a
             [batch]-times larger conflict space. *)
          (match o.Spec.sync with
          | Spec.Transactional { reads; writes; key_space; abort_penalty_cycles } ->
              Spec.Transactional { reads; writes; key_space = key_space * batch; abort_penalty_cycles }
          | other -> other);
      };
  }
