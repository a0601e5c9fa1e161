open Topology

(* Cache capacities are in 64-byte lines.  Private capacity stands in for
   L1+L2 combined; LLC capacity is per socket. *)

let haswell_desktop =
  {
    name = "haswell";
    vendor = Intel;
    sockets = 1;
    chips_per_socket = 1;
    cores_per_chip = 4;
    smt = 2;
    frequency_ghz = 3.4;
    timing =
      {
        l1_hit_cycles = 4;
        llc_hit_cycles = 34;
        local_memory_cycles = 200;
        remote_chip_penalty_cycles = 0;
        remote_socket_penalty_cycles = 0;
        memory_ports_per_controller = 2;
        (* Desktop DDR: ~16 GB/s — a bit below one server socket. *)
        memory_service_cycles = 27;
        private_cache_lines = 4096;      (* 256 KiB L2 *)
        llc_lines_per_socket = 131072;   (* 8 MiB *)
      };
  }

let opteron48 =
  {
    name = "opteron48";
    vendor = Amd;
    sockets = 4;
    chips_per_socket = 2;
    cores_per_chip = 6;
    smt = 1;
    frequency_ghz = 2.1;
    timing =
      {
        l1_hit_cycles = 3;
        llc_hit_cycles = 40;
        local_memory_cycles = 180;
        (* On the 6172 MCM both cross-die and cross-socket transfers ride
           HyperTransport, so the two penalties are close — that is what
           lets a single-package window preview full-machine NUMA
           (Section 5.5). *)
        remote_chip_penalty_cycles = 60;
        remote_socket_penalty_cycles = 90;
        memory_ports_per_controller = 2;
        memory_service_cycles = 24;
        private_cache_lines = 8192;      (* 512 KiB L2 *)
        llc_lines_per_socket = 98304;    (* 6 MiB *)
      };
  }

let xeon20 =
  {
    name = "xeon20";
    vendor = Intel;
    sockets = 2;
    chips_per_socket = 1;
    cores_per_chip = 10;
    smt = 2;
    frequency_ghz = 2.8;
    timing =
      {
        l1_hit_cycles = 4;
        llc_hit_cycles = 36;
        local_memory_cycles = 190;
        remote_chip_penalty_cycles = 0;
        remote_socket_penalty_cycles = 210;
        memory_ports_per_controller = 2;
        memory_service_cycles = 20;
        private_cache_lines = 4096;
        llc_lines_per_socket = 409600;   (* 25 MiB *)
      };
  }

let xeon48 =
  {
    name = "xeon48";
    vendor = Intel;
    sockets = 4;
    chips_per_socket = 1;
    cores_per_chip = 12;
    smt = 1;
    frequency_ghz = 2.1;
    timing =
      {
        l1_hit_cycles = 4;
        llc_hit_cycles = 38;
        local_memory_cycles = 200;
        remote_chip_penalty_cycles = 0;
        remote_socket_penalty_cycles = 230;
        memory_ports_per_controller = 2;
        memory_service_cycles = 20;
        private_cache_lines = 4096;
        llc_lines_per_socket = 491520;   (* 30 MiB *)
      };
  }

let all = [ haswell_desktop; opteron48; xeon20; xeon48 ]

let restrict_sockets t ~sockets =
  if sockets <= 0 || sockets > t.sockets then invalid_arg "Machines.restrict_sockets: bad socket count";
  { t with name = Printf.sprintf "%s/%ds" t.name sockets; sockets }

(* A restricted machine's name, "NAME/Ns", reads back as that machine. *)
let rec find name =
  match List.find_opt (fun m -> String.equal m.name name) all with
  | Some m -> Some m
  | None ->
      Option.bind (String.rindex_opt name '/') (fun i ->
          Option.bind (find (String.sub name 0 i)) (fun base ->
              List.init base.sockets (fun s -> restrict_sockets base ~sockets:(s + 1))
              |> List.find_opt (fun m -> String.equal m.name name)))
