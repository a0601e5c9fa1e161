module Api = Estima.Api
module Config = Estima.Config
module Diag = Estima.Diag
module Metrics = Estima_obs.Metrics
module Topology = Estima_machine.Topology

type config = {
  machine : Topology.t;
  target : Topology.t option;
  base : Config.t;
  jobs : int;
  queue_capacity : int;
  cache_capacity : int;
  default_timeout_ms : int option;
  store_dir : string option;
}

let default_config ~machine =
  {
    machine;
    target = None;
    base = Config.default;
    jobs = 1;
    queue_capacity = 64;
    cache_capacity = 128;
    default_timeout_ms = None;
    store_dir = None;
  }

(* Server-side bootstrap policy: requests choose only the resample
   count, capped because each resample is a full pipeline refit.
   {!Estima.Api.predict_with_confidence} fixes the level and seed, so
   equal requests are byte-identical across servers. *)
let max_confidence_resamples = 1000

type fault = Fault_raise of string | Fault_delay of float | Fault_garbage

(* What decides a predict's answer besides the server's configuration,
   which never varies for one server.  The series digest carries no
   workload name, but the rendered summary does: without the spec name
   two requests differing only in "spec" would collide, and one would
   replay the other's summary line.  The protocol version is
   deliberately absent: it only changes the response envelope, which is
   built per request at respond time, so v1 and v2 requests share
   entries. *)
type cache_key = {
  spec : string;
  digest : Digest.t;  (* [Csv_export.series_digest]: the series' exact values *)
  target_max : int;
  confidence : int option;
}

type t = {
  config : config;
  clock : unit -> float;
  pool : Estima_par.Pool.t;
  (* The fit cache holds each answer's response members, rendered once
     when the entry is filled: a hit splices its own envelope onto the
     exact bytes of the run that filled it.  The confidence resample
     count is part of its key, so plain and confidence requests for the
     same series never collide. *)
  cache : (cache_key, Protocol.rendered) Fit_cache.t;
  (* The ingest memo, as bounded as the cache: an inline CSV's series
     and its [series_digest], keyed by what ingest reads from the
     request — its "spec", its "file" label and its CSV text, compared
     by value — so a repeated frame parses no CSV, whatever its id or
     version.  An entry holds its CSV text.  Only "csv" predicts use
     it: a "file" can change on disk, and a "workload" already comes
     from the store. *)
  memo : (string option * string option * string, Estima_counters.Series.t * Digest.t) Fit_cache.t;
  registry : Metrics.t;
  faults : (string, fault) Hashtbl.t;
  mutable alive : bool;
}

let create ?(clock = Estima_obs.Clock.now_s) config =
  let need what n = if n < 1 then invalid_arg (Printf.sprintf "Server.create: %s = %d" what n) in
  need "jobs" config.jobs;
  need "queue_capacity" config.queue_capacity;
  need "cache_capacity" config.cache_capacity;
  (match config.default_timeout_ms with
  | Some ms when ms < 0 -> invalid_arg (Printf.sprintf "Server.create: default_timeout_ms = %d" ms)
  | _ -> ());
  (match Config.validate config.base with
  | Ok () -> ()
  | Error diag -> invalid_arg (Diag.render diag));
  (* Point the process-wide measurement store's disk tier where the
     operator asked; [None] leaves ESTIMA_STORE (or memory-only) in
     force.  Workload collections then persist across restarts. *)
  (match config.store_dir with
  | None -> ()
  | Some dir -> Estima_store.Store.set_dir (Estima_store.Store.default ()) (Some dir));
  {
    config;
    clock;
    pool = Estima_par.Pool.create ~jobs:config.jobs;
    cache = Fit_cache.create ~capacity:config.cache_capacity;
    memo = Fit_cache.create ~capacity:config.cache_capacity;
    registry = Metrics.create ();
    faults = Hashtbl.create 4;
    alive = true;
  }

let inject_fault t ~spec fault = Hashtbl.replace t.faults spec fault

let clear_faults t = Hashtbl.reset t.faults

let metrics t = t.registry

let target_machine t = Option.value ~default:t.config.machine t.config.target

(* One predict request, resolved by the dispatcher up to the point where
   only pipeline work is left. *)
type job = { arrival : float; key : cache_key; series : Estima_counters.Series.t }

type slot =
  | Ready of string  (* response already known: parse error, shed, cache hit *)
  | Run of { id : Json.t; v : int; job : job }  (* needs the pipeline *)
  | Scrape of { id : Json.t; v : int }  (* metrics dump, built after every other response *)
  | Bye of { id : Json.t; v : int }  (* shutdown acknowledgement, built late *)

let count t name = Metrics.Counter.incr (Metrics.counter t.registry name) [@@inline]

let observe_latency t arrival =
  Metrics.Histogram.observe
    (Metrics.histogram t.registry "estima_latency_seconds")
    (Float.max 0.0 (t.clock () -. arrival))

let shed t ~id ~v ~arrival cause counter_name =
  count t counter_name;
  count t "estima_errors_total";
  observe_latency t arrival;
  Ready (Protocol.error_response ~id ~v (Diag.make ~stage:Diag.Serve ~subject:"request" cause))

(* Resolved through the shared measurement store: with a disk tier
   attached, repeats across restarts read the persisted series instead
   of re-simulating. *)
let collect_workload ~machine name =
  match Estima_workloads.Suite.find name with
  | None ->
      Error
        (Diag.make ~stage:Diag.Serve ~subject:name
           (Diag.Parse_error
              {
                file = "<wire>";
                line = 0;
                msg =
                  Printf.sprintf "unknown workload %S (known: %s)" name
                    (String.concat ", " (Estima_workloads.Suite.names Estima_workloads.Suite.all));
              }))
  | Some entry ->
      Api.collect_checked ~plugins:entry.Estima_workloads.Suite.plugins ~machine
        ~spec:entry.Estima_workloads.Suite.spec ~max_threads:(Topology.cores machine) ()

(* The request's series and its [series_digest]. *)
let resolve_series t ~(file : string option) ~csv ~workload ~spec_name =
  let with_digest =
    Result.map (fun series -> (series, Estima_counters.Csv_export.series_digest series))
  in
  match csv with
  | Some csv -> (
      let key = (spec_name, file, csv) in
      match Fit_cache.find t.memo key with
      | Some entry ->
          count t "estima_ingest_memo_hits_total";
          Ok entry
      | None ->
          let resolved =
            with_digest
              (Api.series_of_csv ~file:(Option.value ~default:"<wire>" file) ?spec_name
                 ~machine:t.config.machine csv)
          in
          Result.iter (Fit_cache.add t.memo key) resolved;
          resolved)
  | None ->
      with_digest
        (match file with
        | Some file -> Api.load_series ?spec_name ~machine:t.config.machine file
        | None -> (
            match workload with
            | Some name -> collect_workload ~machine:t.config.machine name
            | None -> assert false (* Protocol.parse_request rejects this shape *)))

let answer ~base ~series ~target_max ~confidence =
  match confidence with
  | None ->
      Result.map (fun p -> Protocol.answer p None) (Api.predict ~config:base ~series ~target_max ())
  | Some resamples ->
      Result.map
        (fun (p, c) -> Protocol.answer p (Some c))
        (Api.predict_with_confidence ~config:base ~resamples ~series ~target_max ())

(* Admission and resolution of one predict request.  [admitted] counts
   predict requests already admitted from this batch — the bounded
   queue; [pending] the cache keys already being computed for it — a
   duplicate payload coalesces onto the in-flight computation and counts
   as a cache hit, so hit/miss counters depend only on the request
   stream, not on how it happened to clump into batches. *)
let admit t ~admitted ~pending ~id ~v ~file ~csv ~workload ~spec_name ~target_max ~confidence
    ~arrival =
  count t "estima_predict_total";
  if admitted >= t.config.queue_capacity then
    shed t ~id ~v ~arrival
      (Diag.Overloaded { pending = admitted; capacity = t.config.queue_capacity })
      "estima_shed_overload_total"
  else
    let bad_confidence =
      match confidence with
      | Some n when n < 1 || n > max_confidence_resamples ->
          Some
            (Diag.make ~stage:Diag.Serve ~subject:"request"
               (Diag.Bad_config
                  {
                    what =
                      Printf.sprintf "confidence resamples %d (need 1..%d)" n
                        max_confidence_resamples;
                  }))
      | _ -> None
    in
    match bad_confidence with
    | Some diag ->
        count t "estima_errors_total";
        observe_latency t arrival;
        Ready (Protocol.error_response ~id ~v diag)
    | None -> (
        match resolve_series t ~file ~csv ~workload ~spec_name with
        | Error diag ->
            count t "estima_errors_total";
            observe_latency t arrival;
            Ready (Protocol.error_response ~id ~v diag)
        | Ok (series, digest) ->
            let target_max =
              Option.value ~default:(Topology.cores (target_machine t)) target_max
            in
            let key =
              { spec = series.Estima_counters.Series.spec_name; digest; target_max; confidence }
            in
            (match Fit_cache.find t.cache key with
            | Some rendered ->
                count t "estima_cache_hits_total";
                observe_latency t arrival;
                Ready (Protocol.rendered_response ~id ~v rendered)
            | None ->
                if Hashtbl.mem pending key then count t "estima_cache_hits_total"
                else begin
                  count t "estima_cache_misses_total";
                  Hashtbl.replace pending key ()
                end;
                Run { id; v; job = { arrival; key; series } }))

let deadline_of t request_timeout =
  match request_timeout with Some ms -> Some ms | None -> t.config.default_timeout_ms

(* An exception that escapes anywhere on a request's path — dispatcher
   or worker — becomes that request's (and only that request's) typed
   [internal] error; the server, pool and cache stay usable. *)
let internal_error t ~id ~subject ~arrival exn raw_backtrace =
  count t "estima_internal_errors_total";
  count t "estima_errors_total";
  observe_latency t arrival;
  Protocol.error_response ~id ~v:1 (Diag.of_exn ~subject exn raw_backtrace)

let spec_of job = job.series.Estima_counters.Series.spec_name

(* The test-only fault hook, applied around the pure pipeline call so
   the harness can make predict raise, stall or return garbage for the
   workloads it chose — see server.mli. *)
let run_pipeline t job =
  (match Hashtbl.find_opt t.faults (spec_of job) with
  | Some (Fault_raise msg) -> failwith msg
  | Some (Fault_delay seconds) -> Unix.sleepf seconds
  | Some Fault_garbage | None -> ());
  answer ~base:t.config.base ~series:job.series ~target_max:job.key.target_max
    ~confidence:job.key.confidence

let garbage_answer =
  {
    Protocol.summary = "\x01garbage summary\x02";
    rows = [ "NaN garbage NaN"; "\xff\xfe" ];
    verdict = "garbage verdict";
    confidence = None;
  }

let handle_batch t lines =
  if not t.alive then failwith "Server.handle_batch: server is shut down";
  let arrival = t.clock () in
  let shutdown_seen = ref false in
  (* Pass 1 (dispatcher): parse, admit, ingest, consult the cache. *)
  let admitted = ref 0 in
  let pending = Hashtbl.create 16 in
  let dispatch line =
    match Protocol.parse_request line with
        | Error (id, diag) ->
            count t "estima_errors_total";
            observe_latency t arrival;
            (* Parse and version failures have no negotiated version, so
               the error keeps the v1 envelope. *)
            Ready (Protocol.error_response ~id ~v:1 diag)
        | Ok (Protocol.Metrics { id; v }) -> Scrape { id; v }
        | Ok (Protocol.Shutdown { id; v }) ->
            shutdown_seen := true;
            Bye { id; v }
        | Ok
            (Protocol.Predict
              { id; v; file; csv; workload; spec_name; target_max; timeout_ms; confidence }) ->
            let slot =
              admit t ~admitted:!admitted ~pending ~id ~v ~file ~csv ~workload ~spec_name
                ~target_max ~confidence ~arrival
            in
            (match slot with
            | Run { id; v; job } -> (
                incr admitted;
                (* Deadline check happens when the dispatcher is about to
                   hand the job to the pool — i.e. now, after the queue
                   wait such as it was. *)
                match deadline_of t timeout_ms with
                | Some timeout_ms ->
                    let waited_ms =
                      int_of_float (Float.ceil ((t.clock () -. job.arrival) *. 1000.0))
                    in
                    if waited_ms > timeout_ms then
                      shed t ~id ~v ~arrival:job.arrival
                        (Diag.Deadline_exceeded { waited_ms; timeout_ms })
                        "estima_shed_deadline_total"
                    else Run { id; v; job }
                | None -> Run { id; v; job })
            | slot -> slot)
  in
  let slots =
    List.map
      (fun line ->
        count t "estima_requests_total";
        match dispatch line with
        | slot -> slot
        | exception exn ->
            let bt = Printexc.get_raw_backtrace () in
            Ready (internal_error t ~id:Json.Null ~subject:"request" ~arrival exn bt))
      lines
  in
  (* Pass 2 (workers): unique uncached jobs fan out on the pool. *)
  let pending =
    List.filter_map (function Run { job; _ } -> Some job | _ -> None) slots
  in
  let unique = Hashtbl.create 16 in
  List.iter (fun job -> if not (Hashtbl.mem unique job.key) then Hashtbl.add unique job.key job) pending;
  let jobs = Array.of_list (Hashtbl.fold (fun _ job acc -> job :: acc) unique []) in
  Array.sort (fun a b -> compare a.key b.key) jobs;
  let outcomes =
    Estima_par.Pool.run t.pool jobs ~f:(fun job ->
        let t0 = t.clock () in
        let result = run_pipeline t job in
        let elapsed = Float.max 0.0 (t.clock () -. t0) in
        (Result.map (fun answer -> (answer, Protocol.render answer)) result, elapsed))
  in
  (* Crash containment: a worker exception is an outcome, not a batch
     failure.  Pool.run already captured exception and backtrace per
     task; map each to a typed [internal] diagnostic charged to the jobs
     that coalesced onto that key — every other slot proceeds untouched,
     and the pool itself is unharmed (it runs every task to completion
     and stays usable; see Pool.run's contract).  Confidence metrics are
     recorded here, on the dispatcher, once per unique computed job —
     coalesced duplicates and cache hits do not re-count resamples. *)
  let results = Hashtbl.create 16 in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Ok (result, elapsed) ->
          (match result with
          | Ok ({ Protocol.confidence = Some c; _ }, _) ->
              Metrics.Counter.incr ~by:c.Protocol.resamples
                (Metrics.counter t.registry "estima_confidence_resamples_total");
              Metrics.Histogram.observe
                (Metrics.histogram t.registry "estima_confidence_seconds")
                elapsed
          | _ -> ());
          Hashtbl.replace results jobs.(i).key (Result.map snd result)
      | Error (exn, bt) ->
          Hashtbl.replace results jobs.(i).key
            (Error (Diag.of_exn ~subject:(spec_of jobs.(i)) exn bt)))
    outcomes;
  (* Pass 3 (dispatcher): fill the cache, build responses in order. *)
  let build slot =
    match slot with
    | Ready response -> response
    | Scrape { id; v } ->
        (* The server's own counters plus the shared measurement
           store's (estima_store_*_total) in one dump. *)
        let dump =
          Metrics.render t.registry
          ^ Metrics.render (Estima_store.Store.metrics (Estima_store.Store.default ()))
        in
        Protocol.metrics_response ~id ~v ~dump
    | Bye { id; v } -> Protocol.shutdown_response ~v ~id
    | Run { id; v; job } -> (
        match Hashtbl.find results job.key with
        | Ok rendered ->
            if Hashtbl.find_opt t.faults (spec_of job) = Some Fault_garbage then begin
              (* Injected garbage is served (that is the fault being
                 simulated) but never cached: the cache must stay clean
                 for the same key once the fault is cleared. *)
              observe_latency t job.arrival;
              Protocol.answer_response ~id ~v garbage_answer
            end
            else begin
              Fit_cache.add t.cache job.key rendered;
              observe_latency t job.arrival;
              Protocol.rendered_response ~id ~v rendered
            end
        | Error diag ->
            (* Internal errors are counted here, per request slot, so
               [estima_internal_errors_total] and [estima_errors_total]
               move together even when several requests coalesced onto
               one failed key — matching the dispatcher-exception path
               ([internal_error]), which also counts per request. *)
            (match diag.Diag.cause with
            | Diag.Internal_error _ -> count t "estima_internal_errors_total"
            | _ -> ());
            count t "estima_errors_total";
            observe_latency t job.arrival;
            Protocol.error_response ~id ~v diag)
  in
  let respond slot =
    match build slot with
    | response -> response
    | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        let id =
          match slot with
          | Run { id; _ } | Scrape { id; _ } | Bye { id; _ } -> id
          | Ready _ -> Json.Null
        in
        internal_error t ~id ~subject:"request" ~arrival exn bt
  in
  (* Metrics dumps are built last, so they count every other request of
     their batch, the latency of its misses included. *)
  let built =
    List.map
      (function Scrape _ as slot -> lazy (respond slot) | slot -> Lazy.from_val (respond slot))
      slots
  in
  let responses = List.map Lazy.force built in
  (responses, if !shutdown_seen then `Shutdown else `Continue)

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Estima_par.Pool.shutdown t.pool
  end
