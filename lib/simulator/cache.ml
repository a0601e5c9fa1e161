open Estima_machine

type plan = {
  p_miss_private_to_llc : float;
  p_miss_private_data_memory : float;
  p_miss_shared_data_memory : float;
}

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let plan machine ~spec ~threads ~sockets_used =
  if threads <= 0 || sockets_used <= 0 then invalid_arg "Cache.plan: bad configuration";
  let timing = machine.Topology.timing in
  let shared_lines = float_of_int spec.Spec.shared_footprint_lines in
  let private_lines = float_of_int spec.Spec.private_footprint_lines in
  (* A thread's competitive working set: its private data plus the shared
     data it touches. *)
  let per_thread_ws = Float.max 1.0 (private_lines +. shared_lines) in
  let p_hit_private = clamp01 (float_of_int timing.Topology.private_cache_lines /. per_thread_ws) in
  (* LLC pressure on the busiest socket: the threads it hosts plus the
     shared dataset. *)
  let threads_per_socket = float_of_int ((threads + sockets_used - 1) / sockets_used) in
  let socket_ws = Float.max 1.0 ((private_lines *. threads_per_socket) +. shared_lines) in
  let p_hit_llc = clamp01 (float_of_int timing.Topology.llc_lines_per_socket /. socket_ws) in
  let p_miss_private = 1.0 -. p_hit_private in
  {
    p_miss_private_to_llc = p_miss_private *. p_hit_llc;
    p_miss_private_data_memory = p_miss_private *. (1.0 -. p_hit_llc);
    p_miss_shared_data_memory = p_miss_private *. (1.0 -. p_hit_llc);
  }

let coherence_probability ~spec ~active_threads =
  if active_threads <= 1 then 0.0
  else
    let o = spec.Spec.op in
    let accesses = float_of_int (o.Spec.mem_reads + o.Spec.mem_writes) in
    if accesses <= 0.0 then 0.0
    else
      (* Intensity of shared-line writes by the other threads: the higher it
         is, the more likely a shared access finds the line invalid or dirty
         remotely.  Saturates well below 1 (not every access can be a
         transfer). *)
      let write_share =
        float_of_int o.Spec.mem_writes *. o.Spec.write_shared_fraction /. accesses
      in
      let pressure = write_share *. float_of_int (active_threads - 1) in
      Float.min 0.95 (o.Spec.shared_fraction *. pressure)
