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
  (* [jobs] sizes the process's one domain pool, the fan-out's: each
     miss runs on the dispatcher and fans its fits and bootstrap out on
     it. *)
  Estima_par.Fanout.set_jobs (Some config.jobs);
  (* Point the process-wide measurement store's disk tier where the
     operator asked; [None] leaves ESTIMA_STORE (or memory-only) in
     force.  Workload collections then persist across restarts. *)
  (match config.store_dir with
  | None -> ()
  | Some dir -> Estima_store.Store.set_dir (Estima_store.Store.default ()) (Some dir));
  {
    config;
    clock;
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

let ( let* ) = Result.bind

let count t name = Metrics.Counter.incr (Metrics.counter t.registry name) [@@inline]

let observe_latency t arrival =
  Metrics.Histogram.observe
    (Metrics.histogram t.registry "estima_latency_seconds")
    (Float.max 0.0 (t.clock () -. arrival))

(* A request answered with a typed error, counted and timed like any
   other answer. *)
let fail t ~arrival ~id ~v diag =
  count t "estima_errors_total";
  observe_latency t arrival;
  Protocol.error_response ~id ~v diag

let shed t counter_name cause =
  count t counter_name;
  Error (Diag.make ~stage:Diag.Serve ~subject:"request" cause)

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

let garbage_answer =
  {
    Protocol.summary = "\x01garbage summary\x02";
    rows = [ "NaN garbage NaN"; "\xff\xfe" ];
    verdict = "garbage verdict";
    confidence = None;
  }

(* A miss: its deadline, checked now, against the time since its batch
   arrived; then the pipeline on the dispatcher, which fans its fits and
   bootstrap out on the pool, behind the test-only fault hook (see
   server.mli); then its rendering, cached before the next request. *)
let compute t ~arrival ~timeout_ms ~series key =
  let deadline = match timeout_ms with None -> t.config.default_timeout_ms | some -> some in
  let waited_ms () = int_of_float (Float.ceil ((t.clock () -. arrival) *. 1000.0)) in
  match Option.map (fun timeout_ms -> (waited_ms (), timeout_ms)) deadline with
  | Some (waited_ms, timeout_ms) when waited_ms > timeout_ms ->
      shed t "estima_shed_deadline_total" (Diag.Deadline_exceeded { waited_ms; timeout_ms })
  | _ ->
      let fault = Hashtbl.find_opt t.faults key.spec in
      (match fault with
      | Some (Fault_raise msg) -> failwith msg
      | Some (Fault_delay seconds) -> Unix.sleepf seconds
      | Some Fault_garbage | None -> ());
      let t0 = t.clock () in
      let* answer =
        answer ~base:t.config.base ~series ~target_max:key.target_max ~confidence:key.confidence
      in
      (match answer.Protocol.confidence with
      | Some c ->
          Metrics.Counter.incr ~by:c.Protocol.resamples
            (Metrics.counter t.registry "estima_confidence_resamples_total");
          Metrics.Histogram.observe
            (Metrics.histogram t.registry "estima_confidence_seconds")
            (Float.max 0.0 (t.clock () -. t0))
      | None -> ());
      (* Injected garbage is served (that is the fault being simulated)
         but never cached: the cache must stay clean for the same key
         once the fault is cleared. *)
      if fault = Some Fault_garbage then Ok (Protocol.render garbage_answer)
      else begin
        let rendered = Protocol.render answer in
        Fit_cache.add t.cache key rendered;
        Ok rendered
      end

(* One request line's response.  A predict is admitted against the
   batch's [admitted] misses, its resample count checked, its series
   ingested and looked up in the fit cache, and a miss computed, with
   [blame] set to the request's id, version and series first. *)
let respond t ~arrival ~admitted ~shutdown ~blame line =
  match Protocol.parse_request line with
  | Error (id, diag) ->
      (* Parse and version failures have no negotiated version, so the
         error keeps the v1 envelope. *)
      fail t ~arrival ~id ~v:1 diag
  | Ok (Protocol.Metrics { id; v }) ->
      (* The server's own counters plus the shared measurement store's
         (estima_store_*_total) in one dump. *)
      Protocol.metrics_response ~id ~v
        ~dump:
          (Metrics.render t.registry
          ^ Metrics.render (Estima_store.Store.metrics (Estima_store.Store.default ())))
  | Ok (Protocol.Shutdown { id; v }) ->
      shutdown := true;
      Protocol.shutdown_response ~v ~id
  | Ok
      (Protocol.Predict
        { id; v; file; csv; workload; spec_name; target_max; timeout_ms; confidence }) -> (
      count t "estima_predict_total";
      let members =
        let* () =
          if !admitted < t.config.queue_capacity then Ok ()
          else
            shed t "estima_shed_overload_total"
              (Diag.Overloaded { pending = !admitted; capacity = t.config.queue_capacity })
        in
        let* () =
          Option.fold ~none:(Ok ())
            ~some:(fun resamples -> Api.validate_resamples ~resamples)
            confidence
        in
        let* series, digest = resolve_series t ~file ~csv ~workload ~spec_name in
        let target_max = Option.value ~default:(Topology.cores (target_machine t)) target_max in
        let key =
          { spec = series.Estima_counters.Series.spec_name; digest; target_max; confidence }
        in
        match Fit_cache.find t.cache key with
        | Some rendered ->
            count t "estima_cache_hits_total";
            Ok rendered
        | None ->
            count t "estima_cache_misses_total";
            incr admitted;
            blame := (id, v, key.spec);
            compute t ~arrival ~timeout_ms ~series key
      in
      match members with
      | Ok rendered ->
          observe_latency t arrival;
          Protocol.rendered_response ~id ~v rendered
      | Error diag -> fail t ~arrival ~id ~v diag)

let handle_batch t lines =
  if not t.alive then failwith "Server.handle_batch: server is shut down";
  let arrival = t.clock () in
  let admitted = ref 0 and shutdown = ref false in
  (* One request at a time, in wire order.  Crash containment: an
     exception escaping a request becomes that request's typed
     [internal] error, charged to the line until its pipeline starts
     and then to the request's id, version and series; the server and
     its cache stay usable. *)
  let answer_line line =
    count t "estima_requests_total";
    let blame = ref (Json.Null, 1, "request") in
    match respond t ~arrival ~admitted ~shutdown ~blame line with
    | response -> response
    | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        let id, v, subject = !blame in
        count t "estima_internal_errors_total";
        fail t ~arrival ~id ~v (Diag.of_exn ~subject exn bt)
  in
  let responses = List.map answer_line lines in
  (responses, if !shutdown then `Shutdown else `Continue)

(* The fan-out's pool and jobs knob belong to the process, not to this
   server, so shutting down leaves both alone. *)
let shutdown t = t.alive <- false
