open Estima_machine

(* Queueing is modelled statistically rather than by reserving ports with
   absolute timestamps: threads execute whole operations at a time, so
   their clocks are mutually skewed by up to an operation, and literal
   timestamp reservations would let "future" requests block "past" ones.
   Instead each controller measures its arrival rate — fills per cycle over
   a fixed window of the controller's high-water clock — and charges an
   M/M/c-style waiting time.  The loop is self-stabilising: overload
   lengthens fills, which lengthens operations, which lowers the offered
   load back towards the controller's capacity. *)

(* All fields are floats so the record gets OCaml's flat float-record
   representation: the simulator's hot loop mutates these on every DRAM
   fill, and a mixed int/float record would box (allocate) each store.
   The fill counters hold exact integral values well below 2^53, and the
   per-controller service/port capacities are resolved from the machine's
   integer timing parameters once at creation. *)
type controller = {
  mutable high_water : float;  (** Latest request time seen (monotone). *)
  mutable window_start : float;
  mutable window_fills : float;
  mutable rate : float;  (** Fills per cycle over the last full window. *)
  mutable fills : float;
  mutable last_queue : float;  (** Queueing component of the last request. *)
  service : float;
  ports : float;
}

type t = { machine : Topology.t; controllers : controller array }

let window_cycles = 20_000.0

let rho_cap = 0.98

(* One controller per chip: multi-chip packages (the Opteron 6172 MCM)
   expose one memory controller per die, so a single-socket measurement
   window already shows load spreading across controllers. *)
let controller_index t ~socket ~chip =
  let chips = t.machine.Topology.chips_per_socket in
  if socket < 0 || socket >= t.machine.Topology.sockets || chip < 0 || chip >= chips then
    invalid_arg "Memory: unknown controller";
  (socket * chips) + chip

let create machine =
  let timing = machine.Topology.timing in
  let service = float_of_int timing.Topology.memory_service_cycles in
  let ports = float_of_int timing.Topology.memory_ports_per_controller in
  {
    machine;
    controllers =
      Array.init
        (machine.Topology.sockets * machine.Topology.chips_per_socket)
        (fun _ ->
          {
            high_water = 0.0;
            window_start = 0.0;
            window_fills = 0.0;
            rate = 0.0;
            fills = 0.0;
            last_queue = 0.0;
            service;
            ports;
          });
  }

let controller t ~socket ~chip = t.controllers.(controller_index t ~socket ~chip)

let[@inline always] dram_latency t ~hops = float_of_int (Topology.memory_latency t.machine ~hops)

(* The engine's per-fill path: the controller is pre-resolved and the DRAM
   latency (a function of the requester's NUMA distance only) precomputed,
   so a fill is pure float arithmetic on a flat record, with no call.
   [Float.max] and [Float.min] are not used here: when their first
   comparison fails, which is the common case for the high-water mark,
   they make two [sign_bit] C calls.  The comparisons below give the
   same values.  [Float.min rho_cap v] is exactly [if v > rho_cap then
   rho_cap else v], NaN and -0 included.  The high-water update matches
   [Float.max c.high_water now] on every input but two.  A -0 mark
   meeting a +0 [now] cannot occur: the mark starts at +0 and only ever
   takes a larger or a NaN [now].  A NaN mark meeting a NaN [now] keeps
   a different NaN, but a NaN mark is only ever read to fail the window
   comparison. *)
let[@inline always] request_on c ~now ~dram =
  if now > c.high_water || Float.is_nan now then c.high_water <- now;
  let elapsed = c.high_water -. c.window_start in
  if elapsed >= window_cycles then begin
    c.rate <- c.window_fills /. elapsed;
    c.window_start <- c.high_water;
    c.window_fills <- 0.0
  end;
  c.window_fills <- c.window_fills +. 1.0;
  c.fills <- c.fills +. 1.0;
  let rho =
    let v = c.rate *. c.service /. c.ports in
    if v > rho_cap then rho_cap else v
  in
  let queue_delay = c.service *. rho *. rho /. (c.ports *. (1.0 -. rho)) in
  c.last_queue <- queue_delay;
  queue_delay +. dram

let[@inline always] queue_delay_on c = c.last_queue

let request t ~socket ~chip ~now ~hops =
  request_on (controller t ~socket ~chip) ~now ~dram:(dram_latency t ~hops)

let last_queue_delay t ~socket ~chip = (controller t ~socket ~chip).last_queue

let reset t =
  Array.iter
    (fun c ->
      c.high_water <- 0.0;
      c.window_start <- 0.0;
      c.window_fills <- 0.0;
      c.rate <- 0.0;
      c.fills <- 0.0;
      c.last_queue <- 0.0)
    t.controllers

let total_fills t ~socket ~chip =
  int_of_float t.controllers.(controller_index t ~socket ~chip).fills
