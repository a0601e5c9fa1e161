(* Host-speed calibration.

   On a shared host, other tenants slow each of this machine's cores down
   on its own, by up to 2.5×, in phases of seconds to minutes: the same
   prediction over the same input takes from 1× to 2.5× its undisturbed
   time, and a whole run can fall inside a slow phase.  No statistic over
   one run's samples removes that.  So the benchmark runs on one core
   (see [pin]) and measures that core's slowdown right next to the work:
   a fixed kernel of its own, timed before and after every stretch of
   work, slows down with the program.  Each stretch's times are divided
   by the slowdown measured around it, which puts them at the speed of an
   undisturbed core.

   The kernel allocates nothing, so the program's heap and garbage
   collector cannot change its speed: it streams writes through a 2 MB
   buffer the way an allocator walks a minor heap, with small dense
   floating-point work in between, like a least-squares iteration. *)

type state = { buffer : float array; mutable cursor : int }

let state = lazy { buffer = Array.make (1 lsl 18) 0.0; cursor = 0 }

let jacobian = Array.init (48 * 6) (fun i -> 1.0 +. (float_of_int i *. 1e-3))

let advance s =
  let c = s.cursor in
  s.cursor <- (if c + 16 >= Array.length s.buffer then 0 else c + 8);
  c

let kernel s =
  for _ = 1 to 60 do
    (* The normal equations of 48 points and 6 parameters, each entry
       written out as one 8-word block. *)
    for a = 0 to 5 do
      for b = 0 to 5 do
        let acc = ref 0.0 in
        for i = 0 to 47 do
          acc := !acc +. (Array.unsafe_get jacobian ((i * 6) + a) *. Array.unsafe_get jacobian ((i * 6) + b))
        done;
        let c = advance s in
        for k = 0 to 7 do
          Array.unsafe_set s.buffer (c + k) (!acc +. float_of_int k)
        done
      done
    done;
    (* The iteration's garbage: 64 more blocks. *)
    for _ = 1 to 64 do
      let c = advance s in
      for k = 0 to 7 do
        Array.unsafe_set s.buffer (c + k) (Array.unsafe_get s.buffer (c + k) *. 0.5)
      done
    done
  done

(* What one probe (4 kernels, about 1 ms) takes on an undisturbed core:
   the 1st percentile of 5000 probes on each core of the 2-vCPU Sapphire
   Rapids host the bounds were set on (the minimum was 0.72 ms, the
   median 0.86 ms, the 90th percentile 1.4 ms).  Dividing by it keeps
   the reported times in milliseconds of that host at full speed. *)
let nominal_ns = 740_000.0

(* The slowdown of the calling thread's core, timed on [clock]: > 1 when
   it runs slow. *)
let slowdown (clock : unit -> int64) =
  let s = Lazy.force state in
  let t0 = clock () in
  for _ = 1 to 4 do
    kernel s
  done;
  Int64.to_float (Int64.sub (clock ()) t0) /. nominal_ns

(* The slowdown of work of [sensitivity] when the probe runs [slowdown]
   times slower than undisturbed.  Work feels the memory system more or
   less than the kernel does: each workload's sensitivity is in
   workloads.ml, how it was measured in perfbench/README.md. *)
let factor ~sensitivity slowdown = slowdown ** sensitivity

external current_cpu : unit -> int = "perfbench_current_cpu"

external get_affinity : unit -> int list = "perfbench_get_affinity"

external set_affinity : int list -> bool = "perfbench_set_affinity"

let allowed = lazy (get_affinity ())

(* Run the calling thread, and every domain and process it starts from
   now on, on the core it is on.  The probe then measures the core the
   work runs on, and a server spawned afterwards shares that core with
   its client, so a request is one core's work whichever process does
   it — not a cross-core hand-off the two cores' separate slowdowns
   both delay. *)
let pin () =
  ignore (Lazy.force allowed);
  ignore (set_affinity [ current_cpu () ])

(* Run [f] free to use every allowed core again: the traced run's
   measurement of what a second domain buys. *)
let unpinned f =
  let here = current_cpu () in
  ignore (set_affinity (Lazy.force allowed));
  Fun.protect ~finally:(fun () -> ignore (set_affinity [ here ])) f
