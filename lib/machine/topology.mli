(** Machine topology and timing models.

    The paper measures on real machines; here a machine is an explicit
    description of its socket/chip/core layout, clock frequency and memory
    system timing.  The simulator consumes the timing model; ESTIMA's
    allocation policy (socket-first placement) consumes the layout. *)

type vendor = Amd | Intel

type timing = {
  l1_hit_cycles : int;  (** Private-cache hit latency. *)
  llc_hit_cycles : int;  (** Shared last-level cache hit. *)
  local_memory_cycles : int;  (** DRAM access on the local controller. *)
  remote_chip_penalty_cycles : int;
      (** Extra cycles for crossing chips inside one package (the Opteron
          6172 is a multi-chip module, so this is nonzero there). *)
  remote_socket_penalty_cycles : int;  (** Extra cycles for crossing sockets. *)
  memory_ports_per_controller : int;
      (** Simultaneous outstanding line fills one controller sustains; the
          queueing knee of the bandwidth model. *)
  memory_service_cycles : int;  (** Controller occupancy per line fill. *)
  private_cache_lines : int;  (** Per-core private cache capacity in lines. *)
  llc_lines_per_socket : int;  (** Shared cache capacity per socket. *)
}

type t = {
  name : string;
  vendor : vendor;
  sockets : int;
  chips_per_socket : int;
  cores_per_chip : int;
  smt : int;  (** Hardware threads per core (1 or 2). *)
  frequency_ghz : float;
  timing : timing;
}

type location = {
  socket : int;
  chip : int;  (** Chip index within the socket. *)
  core : int;  (** Core index within the chip. *)
  thread : int;  (** SMT thread index within the core. *)
}

val cores : t -> int
(** Physical cores in the whole machine. *)

val hardware_threads : t -> int

val cores_per_socket : t -> int

val validate : t -> (unit, string) result
(** Structural sanity: positive dimensions, sane timing. *)

val pp : Format.formatter -> t -> unit

val numa_hops : location -> location -> int
(** 0 within a chip, 1 across chips in one socket, 2 across sockets. *)

val memory_latency : t -> hops:int -> int
(** DRAM latency in cycles for an access [hops] away from the requesting
    core's home controller. *)
