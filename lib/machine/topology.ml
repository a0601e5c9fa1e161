type vendor = Amd | Intel

type timing = {
  l1_hit_cycles : int;
  llc_hit_cycles : int;
  local_memory_cycles : int;
  remote_chip_penalty_cycles : int;
  remote_socket_penalty_cycles : int;
  memory_ports_per_controller : int;
  memory_service_cycles : int;
  private_cache_lines : int;
  llc_lines_per_socket : int;
}

type t = {
  name : string;
  vendor : vendor;
  sockets : int;
  chips_per_socket : int;
  cores_per_chip : int;
  smt : int;
  frequency_ghz : float;
  timing : timing;
}

type location = { socket : int; chip : int; core : int; thread : int }

let cores t = t.sockets * t.chips_per_socket * t.cores_per_chip

let hardware_threads t = cores t * t.smt

let cores_per_socket t = t.chips_per_socket * t.cores_per_chip

let validate t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.sockets <= 0 || t.chips_per_socket <= 0 || t.cores_per_chip <= 0 then
    fail "%s: non-positive topology dimensions" t.name
  else if t.smt < 1 || t.smt > 2 then fail "%s: smt must be 1 or 2" t.name
  else if t.frequency_ghz <= 0.0 then fail "%s: non-positive frequency" t.name
  else if t.timing.l1_hit_cycles <= 0 || t.timing.llc_hit_cycles <= t.timing.l1_hit_cycles then
    fail "%s: cache latencies must increase" t.name
  else if t.timing.local_memory_cycles <= t.timing.llc_hit_cycles then
    fail "%s: memory must be slower than LLC" t.name
  else if t.timing.memory_ports_per_controller <= 0 || t.timing.memory_service_cycles <= 0 then
    fail "%s: bad memory controller parameters" t.name
  else if t.timing.private_cache_lines <= 0 || t.timing.llc_lines_per_socket <= 0 then
    fail "%s: bad cache capacities" t.name
  else Ok ()

let pp ppf t =
  Format.fprintf ppf "%s (%s, %d sockets x %d chips x %d cores%s at %.2f GHz)" t.name
    (match t.vendor with Amd -> "AMD" | Intel -> "Intel")
    t.sockets t.chips_per_socket t.cores_per_chip
    (if t.smt > 1 then Printf.sprintf ", SMT%d" t.smt else "")
    t.frequency_ghz

let numa_hops a b =
  if a.socket <> b.socket then 2 else if a.chip <> b.chip then 1 else 0

let memory_latency t ~hops =
  match hops with
  | 0 -> t.timing.local_memory_cycles
  | 1 -> t.timing.local_memory_cycles + t.timing.remote_chip_penalty_cycles
  | _ -> t.timing.local_memory_cycles + t.timing.remote_socket_penalty_cycles
