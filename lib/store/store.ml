module Topology = Estima_machine.Topology
module Spec = Estima_sim.Spec
module Stall = Estima_sim.Stall
module Series = Estima_counters.Series
module Series_io = Estima_counters.Series_io
module Csv_export = Estima_counters.Csv_export
module Collector = Estima_counters.Collector
module Plugin = Estima_counters.Plugin
module Plugin_config = Estima_counters.Plugin_config
module Metrics = Estima_obs.Metrics

let simulator_version = "estima-sim/1"

(* ------------------------------ keys ------------------------------- *)

module Key = struct
  type t = {
    fingerprint : string;
    descriptor : string;
    machine : Topology.t;  (** Vendor/clock context for parsing the CSV back. *)
    spec_name : string;
    thread_counts : int list;  (** The window a valid entry must cover exactly. *)
  }

  let buf_field b fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt

  (* Every float is rendered with %.17g (round-trip precision) and every
     variant spelled out: two keys are equal iff every component that can
     influence the simulated series is equal. *)
  let render_timing b (t : Topology.timing) =
    buf_field b "timing=%d,%d,%d,%d,%d,%d,%d,%d,%d" t.Topology.l1_hit_cycles t.Topology.llc_hit_cycles
      t.Topology.local_memory_cycles t.Topology.remote_chip_penalty_cycles
      t.Topology.remote_socket_penalty_cycles t.Topology.memory_ports_per_controller
      t.Topology.memory_service_cycles t.Topology.private_cache_lines t.Topology.llc_lines_per_socket

  let render_machine b (m : Topology.t) =
    buf_field b "machine=%s" m.Topology.name;
    buf_field b "vendor=%s" (match m.Topology.vendor with Topology.Amd -> "amd" | Topology.Intel -> "intel");
    buf_field b "geometry=%d,%d,%d,%d" m.Topology.sockets m.Topology.chips_per_socket
      m.Topology.cores_per_chip m.Topology.smt;
    buf_field b "frequency_ghz=%.17g" m.Topology.frequency_ghz;
    render_timing b m.Topology.timing

  let lock_kind_label = function Spec.Mutex -> "mutex" | Spec.Spinlock -> "spinlock"

  let render_sync b = function
    | Spec.No_sync -> buf_field b "sync=none"
    | Spec.Locked { kind; num_locks; cs_cycles; cs_mem_accesses } ->
        buf_field b "sync=locked,%s,%d,%.17g,%d" (lock_kind_label kind) num_locks cs_cycles
          cs_mem_accesses
    | Spec.Transactional { reads; writes; key_space; abort_penalty_cycles } ->
        buf_field b "sync=transactional,%d,%d,%d,%.17g" reads writes key_space abort_penalty_cycles
    | Spec.Lock_free { cas_cost_cycles; retry_contention } ->
        buf_field b "sync=lock_free,%.17g,%.17g" cas_cost_cycles retry_contention

  let render_spec b (s : Spec.t) =
    buf_field b "spec=%s" s.Spec.name;
    (match s.Spec.scaling with
    | Spec.Strong n -> buf_field b "scaling=strong,%d" n
    | Spec.Weak n -> buf_field b "scaling=weak,%d" n);
    buf_field b "footprint=%d,%d,%b" s.Spec.private_footprint_lines s.Spec.shared_footprint_lines
      s.Spec.footprint_scales_with_threads;
    let o = s.Spec.op in
    buf_field b "op=%.17g,%.17g,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" o.Spec.useful_cycles
      o.Spec.useful_cv o.Spec.mem_reads o.Spec.mem_writes o.Spec.shared_fraction
      o.Spec.write_shared_fraction o.Spec.fp_fraction o.Spec.dependency_factor o.Spec.branch_mpki
      o.Spec.frontend_cycles;
    render_sync b o.Spec.sync;
    buf_field b "barrier=%s,%s"
      (match o.Spec.barrier_every with None -> "never" | Some n -> string_of_int n)
      (lock_kind_label o.Spec.barrier_kind)

  let combine_label = function
    | Plugin.Sum -> "sum"
    | Plugin.Average -> "average"
    | Plugin.Min -> "min"
    | Plugin.Max -> "max"

  let render_options b (o : Collector.options) =
    buf_field b "seed=%d" o.Collector.seed;
    buf_field b "repetitions=%d" o.Collector.repetitions;
    List.iter
      (fun (p : Plugin.t) ->
        buf_field b "plugin=%s,%s,%s" p.Plugin.name
          (String.concat "+" (List.map Stall.label p.Plugin.causes))
          (combine_label p.Plugin.combine))
      o.Collector.plugins;
    List.iter
      (fun (e : Plugin_config.entry) ->
        buf_field b "config_plugin=%s,%s,%s,%s" e.Plugin_config.name e.Plugin_config.source
          e.Plugin_config.expression (combine_label e.Plugin_config.combine))
      o.Collector.config_plugins

  let v ~machine ~spec ~thread_counts ~options =
    let b = Buffer.create 512 in
    buf_field b "simulator=%s" simulator_version;
    render_machine b machine;
    render_spec b spec;
    buf_field b "window=%s" (String.concat "," (List.map string_of_int thread_counts));
    render_options b options;
    let descriptor = Buffer.contents b in
    {
      fingerprint = Digest.to_hex (Digest.string descriptor);
      descriptor;
      machine;
      spec_name = spec.Spec.name;
      thread_counts;
    }

  let fingerprint k = k.fingerprint

  let describe k = k.descriptor
end

(* ------------------------------ store ------------------------------ *)

type slot = Pending of Condition.t | Ready of Series.t

type stats = { hits : int; misses : int; writes : int; invalid : int }

type t = {
  mutable disk : string option;
  memory : (string, slot) Hashtbl.t;
  mutex : Mutex.t;
  registry : Metrics.t;
  (* Session stats are plain ints (resettable, read under the mutex); the
     registry mirrors them monotonically for metrics dumps. *)
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable invalid : int;
}

let create ?dir () =
  {
    disk = dir;
    memory = Hashtbl.create 64;
    mutex = Mutex.create ();
    registry = Metrics.create ();
    hits = 0;
    misses = 0;
    writes = 0;
    invalid = 0;
  }

let env_dir () =
  match Sys.getenv_opt "ESTIMA_STORE" with None | Some "" -> None | Some dir -> Some dir

(* Not a [lazy]: forcing a lazy concurrently from several domains raises
   [RacyLazy], and the default store is reached from pool workers. *)
let default_store : t option Atomic.t = Atomic.make None

let rec default () =
  match Atomic.get default_store with
  | Some t -> t
  | None ->
      let candidate = create ?dir:(env_dir ()) () in
      if Atomic.compare_and_set default_store None (Some candidate) then candidate else default ()

let dir t = t.disk

let set_dir t dir = t.disk <- dir

let metrics t = t.registry

let count t name field =
  Metrics.Counter.incr (Metrics.counter t.registry ("estima_store_" ^ name ^ "_total"));
  field ()

let record_hit t = count t "hits" (fun () -> t.hits <- t.hits + 1)

let record_miss t = count t "misses" (fun () -> t.misses <- t.misses + 1)

let record_write t = count t "writes" (fun () -> t.writes <- t.writes + 1)

let record_invalid t = count t "invalid" (fun () -> t.invalid <- t.invalid + 1)

let stats t =
  Mutex.protect t.mutex (fun () ->
      { hits = t.hits; misses = t.misses; writes = t.writes; invalid = t.invalid })

(* ---------------------------- disk tier ---------------------------- *)

let entry_path ~dir key = Filename.concat dir (Key.fingerprint key ^ ".csv")

(* A disk entry is valid only if it parses under the key's machine and
   covers exactly the key's window: a truncated file that still parses
   (fewer rows) must not masquerade as the requested series. *)
let parse_entry key text =
  match Series_io.parse ~machine:key.Key.machine ~spec_name:key.Key.spec_name text with
  | Error _ -> None
  | Ok series ->
      let threads = Array.to_list (Array.map int_of_float (Series.threads series)) in
      if threads = key.Key.thread_counts then Some series else None

let disk_find t key =
  match t.disk with
  | None -> None
  | Some dir -> (
      let path = entry_path ~dir key in
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error _ -> None (* absent: a plain miss, not corruption *)
      | text -> (
          match parse_entry key text with
          | Some series -> Some series
          | None ->
              Mutex.protect t.mutex (fun () -> record_invalid t);
              None))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let tmp_counter = Atomic.make 0

(* Atomic publish: write a private temp file in the same directory, then
   rename over the final name.  Readers either see the old entry or the
   complete new one, never a torn write — also across processes. *)
let disk_write t key series =
  match t.disk with
  | None -> ()
  | Some dir ->
      (match
         mkdir_p dir;
         let tmp =
           Filename.concat dir
             (Printf.sprintf ".tmp.%s.%d.%d" (Key.fingerprint key) (Unix.getpid ())
                (Atomic.fetch_and_add tmp_counter 1))
         in
         Out_channel.with_open_bin tmp (fun oc ->
             Out_channel.output_string oc (Csv_export.series_to_csv series));
         Sys.rename tmp (entry_path ~dir key)
       with
      | () -> Mutex.protect t.mutex (fun () -> record_write t)
      | exception Sys_error _ | exception Unix.Unix_error _ ->
          (* A read-only or vanished store directory degrades to
             memory-only caching; it never fails the collection. *)
          ())

let entry_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".csv")
      |> List.sort String.compare

let disk_entries t =
  match t.disk with
  | None -> []
  | Some dir ->
      List.filter_map
        (fun name ->
          let path = Filename.concat dir name in
          match (Unix.stat path).Unix.st_size with
          | size -> Some (Filename.chop_suffix name ".csv", size)
          | exception Unix.Unix_error _ -> None)
        (entry_files dir)

let clear_disk t =
  match t.disk with
  | None -> 0
  | Some dir ->
      List.fold_left
        (fun removed name ->
          match Sys.remove (Filename.concat dir name) with
          | () -> removed + 1
          | exception Sys_error _ -> removed)
        0 (entry_files dir)

(* --------------------------- resolution ---------------------------- *)

let find_or_collect t ~key ~collect =
  let fp = Key.fingerprint key in
  (* Memory tier: claim the key or wait for whoever holds it.  Entries
     are compute-once promises shared across domains; waiting counts as
     a hit (the work is shared), which keeps stats deterministic:
     misses = distinct keys collected, regardless of jobs. *)
  let claim () =
    Mutex.protect t.mutex (fun () ->
        let rec wait () =
          match Hashtbl.find_opt t.memory fp with
          | Some (Ready series) ->
              record_hit t;
              Some series
          | Some (Pending cond) ->
              Condition.wait cond t.mutex;
              wait ()
          | None ->
              Hashtbl.replace t.memory fp (Pending (Condition.create ()));
              None
        in
        wait ())
  in
  match claim () with
  | Some series -> series
  | None -> (
      let publish outcome_slot counted =
        Mutex.protect t.mutex (fun () ->
            counted ();
            let waiters = Hashtbl.find_opt t.memory fp in
            (match outcome_slot with
            | Some s -> Hashtbl.replace t.memory fp s
            | None -> Hashtbl.remove t.memory fp);
            match waiters with Some (Pending cond) -> Condition.broadcast cond | _ -> ())
      in
      match disk_find t key with
      | Some series ->
          publish (Some (Ready series)) (fun () -> record_hit t);
          series
      | None -> (
          let outcome =
            match collect () with
            | series -> Ok series
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          match outcome with
          | Ok series ->
              publish (Some (Ready series)) (fun () -> record_miss t);
              disk_write t key series;
              series
          | Error (e, bt) ->
              (* Drop the pending slot so waiters retry the collection
                 rather than hang. *)
              publish None (fun () -> ());
              Printexc.raise_with_backtrace e bt))

let reset_memory t =
  Mutex.protect t.mutex (fun () ->
      if
        Hashtbl.fold
          (fun _ slot acc -> acc || match slot with Pending _ -> true | Ready _ -> false)
          t.memory false
      then invalid_arg "Store.reset_memory: collection in flight";
      Hashtbl.reset t.memory;
      t.hits <- 0;
      t.misses <- 0;
      t.writes <- 0;
      t.invalid <- 0)

(* --------------------------- cached collect ------------------------ *)

module Cached = struct
  let collect ?store ?(options = Collector.default_options) ~machine ~spec ~thread_counts () =
    let store = match store with Some s -> s | None -> default () in
    let key = Key.v ~machine ~spec ~thread_counts ~options in
    find_or_collect store ~key ~collect:(fun () ->
        Collector.collect ~options ~machine ~spec ~thread_counts ())
end
