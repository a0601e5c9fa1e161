(* The four workloads.  Each one sets up three times (reporting the
   median as setup_s and checking the three set-ups agree), measures for
   the requested seconds, checks its outputs, and — in a traced run —
   adds the per-layer probes.

   Everything runs at jobs 1 on one core (Calibrate.pin), the spawned
   server included.  Every end-to-end time is divided by the slowdown
   probed around it (Calibrate), so it reads as on an undisturbed core;
   the raw value is printed next to it. *)

module Api = Estima.Api
module Store = Estima_store.Store
module Json = Estima_service.Json
module Protocol = Estima_service.Protocol
module Server = Estima_service.Server
module Generator = Estima_load.Generator

type ctx = {
  seed : int;
  sensitivity : float;  (** Of the timed work's bulk: ops_per_s and p50_ms (Calibrate.factor). *)
  tail_sensitivity : float;  (** Of its slowest tenth: p90_ms. *)
  seconds : float;
  trace : bool;
  spans : Spans.t;
  report : Report.t;
}

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* Set-up is mostly corpus collection, i.e. the simulator: its time went
   as the probe's to the power 0.6 to 0.8 (perfbench/README.md). *)
let setup_sensitivity = 0.7

let setups = 3

(* Run [setup] [setups] times from scratch, each on the wall clock
   between two probes, and keep the last result.  Every set-up must
   produce the same inputs ([fingerprint]); each earlier one releases
   what it holds ([discard]) before the next starts. *)
let set_up ctx ~setup ~fingerprint ~discard =
  let one () =
    let before = Calibrate.slowdown Util.now_ns in
    let state, ns = Util.timed setup in
    let slowdown = sqrt (before *. Calibrate.slowdown Util.now_ns) in
    (state, ns /. 1e9, ns /. 1e9 /. Calibrate.factor ~sensitivity:setup_sensitivity slowdown)
  in
  let rec go i raw times prints =
    let state, raw_s, s = one () in
    let raw = raw_s :: raw and times = s :: times and prints = fingerprint state :: prints in
    if i < setups then begin
      discard state;
      go (i + 1) raw times prints
    end
    else begin
      Report.set_e2e ctx.report "setup_s" ~samples:setups ~raw:(Stats.median raw) (Stats.median times);
      Report.check ctx.report "set-up is deterministic" (List.for_all (String.equal (List.hd prints)) prints);
      state
    end
  in
  go 1 [] [] []

(* The timed phase's record: every operation's raw time in ms and the
   slowdown of the stretch it ran in.  Operations and probes are timed on
   the CPU clock (Util.cpu_ns). *)
type meter = { ctx : ctx; mutable before : float; mutable samples : (float * float) list }

let probe () = Calibrate.slowdown Util.cpu_ns

(* A stretch of work just ended, with these operation times in ns: probe
   again; the stretch's slowdown is the geometric mean of the probes on
   either side of it. *)
let record m times_ns =
  let after = probe () in
  let slowdown = sqrt (m.before *. after) in
  m.before <- after;
  Report.slowdown m.ctx.report slowdown;
  List.iter (fun ns -> m.samples <- (ns /. 1e6, slowdown) :: m.samples) times_ns

(* One operation as a stretch of its own. *)
let timed m f =
  let r, ns = Util.timed ~clock:Util.cpu_ns f in
  record m [ ns ];
  r

(* [step m k] for k = 0, 1, … until [seconds] have passed, always ending
   on a whole step, so every run sees each step's inputs equally often.
   Sets ops_per_s (operations over their calibrated time), p50_ms and
   p90_ms (exact quantiles of the calibrated times) and returns the wall
   time.  Each operation's time is divided by its stretch's slowdown to
   the workload's sensitivity — the tail's own for p90_ms.

   peak_rss_mb is [rss ()] after the first [rss_steps] steps (or all, in
   a shorter run).  The heap keeps growing slowly over thousands of
   operations, so the peak at the end of a run would grow with the number
   of operations the host's speed allowed; after a fixed number it
   depends on the seed alone. *)
let timed_phase ctx ~rss ~rss_steps step =
  let m = { ctx; before = probe (); samples = [] } in
  let t0 = Util.now () in
  let k = ref 0 and peak = ref Float.nan in
  while !k = 0 || Util.now () -. t0 < ctx.seconds do
    step m !k;
    incr k;
    if !k = rss_steps then peak := rss ()
  done;
  Report.set_e2e ctx.report "peak_rss_mb" ~samples:1 (if !k < rss_steps then rss () else !peak);
  let wall_s = Util.now () -. t0 in
  let raw = List.map fst m.samples in
  let scaled sensitivity =
    List.map (fun (ms, slowdown) -> ms /. Calibrate.factor ~sensitivity slowdown) m.samples
  in
  let bulk = scaled ctx.sensitivity and tail = scaled ctx.tail_sensitivity in
  let n = List.length raw in
  let rate ms = float_of_int n /. (Stats.sum ms /. 1e3) in
  Report.set_e2e ctx.report "ops_per_s" ~samples:n ~raw:(rate raw) (rate bulk);
  Report.set_e2e ctx.report "p50_ms" ~samples:n ~raw:(Stats.median raw) (Stats.median bulk);
  Report.set_e2e ctx.report "p90_ms" ~samples:n ~raw:(Stats.quantile 0.9 raw) (Stats.quantile 0.9 tail);
  wall_s

(* The tracing-overhead estimate: what recording the timed phase's spans
   cost, relative to the phase's wall time. *)
let trace_overhead ctx ~spans_before ~wall_s =
  if ctx.trace then
    Report.set_layer ctx.report "trace.overhead_ratio"
      (1.0
      +. Spans.cost_ns () *. float_of_int (Spans.count ctx.spans - spans_before) /. (wall_s *. 1e9))

(* What a second domain buys for [f]: its time at jobs 1 over its time at
   jobs 2, free of the pin.  Traced runs only. *)
let speedup_jobs2 ctx f =
  let time_at jobs =
    Estima_par.Fanout.set_jobs (Some jobs);
    snd (Util.timed f)
  in
  let t1, t2 = Calibrate.unpinned (fun () -> (time_at 1, time_at 2)) in
  Estima_par.Fanout.set_jobs (Some 1);
  Estima_par.Fanout.shutdown ();
  Report.set_layer ctx.report "par.speedup_jobs2" (t1 /. t2)

let corpus_fingerprint corpus = String.concat "" (Array.to_list (Array.map Inputs.csv corpus))

(* ------------------------------------------------------------------ *)
(* predict-csv                                                         *)
(* ------------------------------------------------------------------ *)

(* Pass [p]: every corpus window once, re-measured afresh, in a seeded
   order.  No (pass, window) pair repeats, so no memo can stand in for
   fitting. *)
let csv_pass ctx corpus p =
  let order = Array.init (Array.length corpus) Fun.id in
  Rand.shuffle (Rand.derive ctx.seed [ 1; p ]) order;
  Array.map (fun w -> (w, Inputs.csv (Inputs.perturb (Rand.derive ctx.seed [ 2; p; w ]) corpus.(w)))) order

let predict_csv ctx =
  let corpus = set_up ctx ~setup:Inputs.corpus ~fingerprint:corpus_fingerprint ~discard:ignore in
  let sp = ctx.spans in
  let run_one ~req (w, csv) =
    Spans.with_span sp ~req "op" (fun () ->
        match
          Spans.with_span sp "ingest" (fun () ->
              Api.series_of_csv ~spec_name:(Inputs.name Inputs.entries.(w)) ~machine:Inputs.machine csv)
        with
        | Error _ as e -> e
        | Ok series -> (
            match
              Spans.with_span sp "predict" (fun () ->
                  Api.predict ~config:Inputs.base ~series ~target_max:Inputs.target_max ())
            with
            | Error _ as e -> e
            | Ok p -> Ok (Spans.with_span sp "render" (fun () -> Inputs.render_prediction p))))
  in
  (* Every output's digest by (pass, position); the inputs themselves can
     be drawn again from the seed, so the run holds nothing that grows
     with its length but these. *)
  let outputs = ref [] and ops = ref 0 in
  let spans_before = Spans.count sp in
  let wall_s =
    timed_phase ctx ~rss:Util.peak_rss_mb ~rss_steps:8 (fun m p ->
        Array.iteri
          (fun i input ->
            let result = timed m (fun () -> run_one ~req:!ops input) in
            Report.op ctx.report ~ok:(Result.is_ok result);
            (match result with
            | Ok text ->
                if p = 0 then Report.add_output ctx.report text;
                outputs := (p, i, Digest.string text) :: !outputs
            | Error d -> Printf.eprintf "prediction failed: %s\n%!" (Api.Diag.render d));
            incr ops)
          (csv_pass ctx corpus p))
  in
  trace_overhead ctx ~spans_before ~wall_s;
  (* A seeded sample of the inputs, run again: same bytes. *)
  let outputs = Array.of_list (List.rev !outputs) in
  let rng = Rand.derive ctx.seed [ 9 ] in
  let sample =
    if outputs = [||] then [] else List.init 8 (fun _ -> outputs.(Rand.int rng (Array.length outputs)))
  in
  Report.check ctx.report "re-run renders the same bytes"
    (sample <> []
    && List.for_all
         (fun (p, i, digest) ->
           match run_one ~req:(-1) (csv_pass ctx corpus p).(i) with
           | Ok text -> Digest.string text = digest
           | Error _ -> false)
         sample);
  if ctx.trace then begin
    let stats = Spans.stats sp in
    Report.set_layer ctx.report "ingest_us" (Spans.median_of stats "ingest" ~scale:1e3);
    Report.set_layer ctx.report "predict_ms" (Spans.median_of stats "predict" ~scale:1e6);
    Report.set_layer ctx.report "render_us" (Spans.median_of stats "render" ~scale:1e3);
    (* Below Api.predict: the first pass's inputs, replayed stage by stage. *)
    let series =
      Array.to_list (csv_pass ctx corpus 0)
      |> List.filter_map (fun (w, csv) ->
             Result.to_option
               (Api.series_of_csv ~spec_name:(Inputs.name Inputs.entries.(w)) ~machine:Inputs.machine csv))
    in
    let replays = List.filter_map Fit_replay.run series in
    Report.check ctx.report "traced replay agrees with the program's fit.attempts and kernels"
      (List.length replays = List.length series && Fit_replay.record ctx.report replays);
    (* The nested fan-out inside a prediction. *)
    speedup_jobs2 ctx (fun () ->
        List.iter
          (fun series -> ignore (Api.predict ~config:Inputs.base ~series ~target_max:Inputs.target_max ()))
          series)
  end

(* ------------------------------------------------------------------ *)
(* collect                                                             *)
(* ------------------------------------------------------------------ *)

(* Cold passes whose store directories are kept for the warm reads; the
   rest are removed as soon as their pass ends, so what the run holds
   does not grow with the number of passes. *)
let warm_passes = 2

let collect ctx =
  let reference = set_up ctx ~setup:Inputs.corpus ~fingerprint:corpus_fingerprint ~discard:ignore in
  let sp = ctx.spans in
  let collected = Hashtbl.create 64 and ops = ref 0 and stats = ref [] and kept = ref [] in
  let pass_seed p = if p = 0 then Inputs.corpus_seed else Rand.seed_of (Rand.derive ctx.seed [ 5; p ]) in
  let store_collect ~store ~seed entry =
    Store.Cached.collect ~store ~options:(Inputs.options ~seed entry) ~machine:Inputs.machine
      ~spec:entry.Estima_workloads.Suite.spec ~thread_counts:Inputs.thread_counts ()
  in
  let spans_before = Spans.count sp in
  let wall_s =
    timed_phase ctx ~rss:Util.peak_rss_mb ~rss_steps:4 (fun m p ->
        (* A fresh store per pass: empty memory tier, empty directory, so
           every lookup misses, collects and writes. *)
        let dir = Util.scratch_dir (Printf.sprintf "store-%d" p) in
        let store = Store.create ~dir () in
        let order = Array.init (Array.length Inputs.entries) Fun.id in
        Rand.shuffle (Rand.derive ctx.seed [ 6; p ]) order;
        Array.iter
          (fun w ->
            let series =
              timed m (fun () ->
                  Spans.with_span sp ~req:!ops "store.collect" (fun () ->
                      store_collect ~store ~seed:(pass_seed p) Inputs.entries.(w)))
            in
            Report.op ctx.report ~ok:true;
            let csv = Inputs.csv series in
            if p = 0 then Report.add_output ctx.report csv;
            Hashtbl.replace collected (p, w) (Digest.string csv);
            incr ops)
          order;
        stats := Store.stats store :: !stats;
        if p < warm_passes then kept := (p, dir) :: !kept else Util.remove_tree dir)
  in
  trace_overhead ctx ~spans_before ~wall_s;
  let cold p w = Hashtbl.find_opt collected (p, w) in
  Report.check ctx.report "the store returns what direct collection returns"
    (Array.for_all Fun.id (Array.mapi (fun w s -> cold 0 w = Some (Digest.string (Inputs.csv s))) reference));
  (* Warm: a fresh memory tier over a kept pass's directory reads every
     series back from disk (then from memory), byte-identical to cold. *)
  let disk = ref [] and memory = ref [] and warm_ok = ref true in
  List.iter
    (fun (p, dir) ->
      for _ = 1 to 50 do
        let store = Store.create ~dir () in
        Array.iteri
          (fun w entry ->
            let read () = Util.timed (fun () -> store_collect ~store ~seed:(pass_seed p) entry) in
            let from_disk, disk_ns = read () in
            let from_memory, memory_ns = read () in
            disk := disk_ns :: !disk;
            memory := memory_ns :: !memory;
            let digest s = Some (Digest.string (Inputs.csv s)) in
            if cold p w <> digest from_disk || cold p w <> digest from_memory then warm_ok := false)
          Inputs.entries;
        if (Store.stats store).Store.misses > 0 then warm_ok := false
      done)
    !kept;
  Report.check ctx.report "warm reads are byte-identical to cold collection"
    (!warm_ok && List.length !kept = min warm_passes (List.length !stats));
  if ctx.trace then begin
    let set = Report.set_layer ctx.report in
    let total f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 !stats) in
    set "store.miss_write_ms" (Spans.median_of (Spans.stats sp) "store.collect" ~scale:1e6);
    set "store.disk_read_us" (Stats.median !disk /. 1e3);
    set "store.memory_hit_us" (Stats.median !memory /. 1e3);
    set "store.misses" (total (fun s -> s.Store.misses));
    set "store.writes" (total (fun s -> s.Store.writes));
    set "store.invalid" (total (fun s -> s.Store.invalid));
    (* The simulator alone, at both ends of the window. *)
    let runs threads =
      Array.to_list
        (Array.map
           (fun entry ->
             let w0 = Util.allocated_words () in
             let r, ns =
               Util.timed (fun () ->
                   Estima_sim.Engine.run ~seed:Inputs.corpus_seed ~machine:Inputs.machine
                     ~spec:entry.Estima_workloads.Suite.spec ~threads ())
             in
             (ns, float_of_int r.Estima_sim.Engine.ops_executed, Util.allocated_words () -. w0))
           Inputs.entries)
    in
    let t1 = runs 1 and t12 = runs Inputs.window in
    let all = t1 @ t12 in
    let sum f = Stats.sum (List.map f all) in
    set "engine.run_ms.t1" (Stats.median (List.map (fun (ns, _, _) -> ns /. 1e6) t1));
    set "engine.run_ms.t12" (Stats.median (List.map (fun (ns, _, _) -> ns /. 1e6) t12));
    set "engine.ops_per_s" (sum (fun (_, ops, _) -> ops) /. (sum (fun (ns, _, _) -> ns) /. 1e9));
    set "engine.alloc_words_per_op" (sum (fun (_, _, w) -> w) /. sum (fun (_, ops, _) -> ops));
    (* The collector without the store. *)
    let series =
      Array.map (fun e -> snd (Util.timed (fun () -> Inputs.collect ~seed:(pass_seed 0) e))) Inputs.entries
    in
    set "collector.series_ms" (Stats.median (Array.to_list (Array.map (fun ns -> ns /. 1e6) series)));
    speedup_jobs2 ctx (fun () -> ignore (Inputs.corpus ()))
  end;
  List.iter (fun (_, dir) -> Util.remove_tree dir) !kept

(* ------------------------------------------------------------------ *)
(* serve-hot and serve-cold                                            *)
(* ------------------------------------------------------------------ *)

type serve_plan = {
  server : Serve_client.server;
  conn : Serve_client.conn;
  frame : int -> string;  (** Request k's frame. *)
  step : int;  (** Requests in one step of the timed phase. *)
  expected : unit -> int -> string;
      (** The exact response to request k, the way the CLI ≡ Api ≡
          server identity says it must read; serve-cold computes it only
          after the timed phase. *)
  primed : bool;  (** Every response of the untimed warm-up matched. *)
  kinds : (int * Generator.kind) list;  (** A sample of requests for the in-process probes. *)
  server_config : Server.config;
}

let discard_plan plan =
  Serve_client.close plan.conn;
  Serve_client.stop plan.server

let predict_line ~id ~v ~spec ~csv =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Int id) ]
       @ (if v = 2 then [ ("v", Json.Int 2) ] else [])
       @ [ ("op", Json.String "predict"); ("csv", Json.String csv); ("spec", Json.String spec) ]))

(* Spawn the server (on the benchmark's core: it inherits the pin),
   connect and build the plan with [f]; the server is stopped again if
   anything in between fails. *)
let with_server ~args f =
  let server = Serve_client.spawn ~args:([ "--jobs"; "1" ] @ args) in
  match f server (Serve_client.connect server) with
  | plan -> plan
  | exception e ->
      Serve_client.stop server;
      raise e

let server_config ~cache =
  {
    (Server.default_config ~machine:Inputs.machine) with
    Server.target = Some Inputs.target;
    base = Inputs.base;
    cache_capacity = cache;
  }

(* serve-hot probes once per [hot_step] requests, about 50 ms of them. *)
let hot_step = 128

(* Every request a cache hit: one re-measured CSV per window, mixed v1,
   v2 and malformed frames from the load generator, primed untimed. *)
let hot_plan ctx () =
  let corpus = Inputs.corpus () in
  let payloads =
    Array.to_list
      (Array.mapi
         (fun w s ->
           {
             Generator.spec_name = Inputs.name Inputs.entries.(w);
             csv = Inputs.csv (Inputs.perturb (Rand.derive ctx.seed [ 7; w ]) s);
           })
         corpus)
  in
  let stream =
    (Generator.plan
       ~mix:{ Generator.v1 = 5; v2 = 4; workload = 0; confidence = 0; malformed = 1 }
       ~payloads ~machine:Inputs.machine ~target:Inputs.target ~base:Inputs.base ~seed:ctx.seed ~clients:1
       ~requests_per_client:1024 ())
      .Generator.streams.(0)
  in
  let at k = stream.(k mod Array.length stream) in
  with_server ~args:[] @@ fun server conn ->
  (* Prime: the plan's first request for each payload, in plan order. *)
  let seen = Hashtbl.create 8 in
  let primed = ref true in
  Array.iter
    (fun r ->
      match Protocol.parse_request r.Generator.line with
      | Ok (Protocol.Predict { csv = Some csv; _ }) when not (Hashtbl.mem seen csv) ->
          Hashtbl.add seen csv ();
          if Serve_client.request conn r.Generator.line ~timeout_s:30.0 <> Some r.Generator.expected then
            primed := false
      | _ -> ())
    stream;
  {
    server;
    conn;
    frame = (fun k -> (at k).Generator.line);
    step = hot_step;
    expected = (fun () k -> (at k).Generator.expected);
    primed = !primed && Hashtbl.length seen = List.length payloads;
    kinds = List.init 64 (fun k -> (k, (at k).Generator.kind));
    server_config = server_config ~cache:128;
  }

(* 64 distinct re-measured CSVs, 8 per window: a run's requests cover
   many inputs, so which ones a seed draws barely moves its median. *)
let cold_payloads = 64

(* Every request a cache miss: the CSVs requested in a fixed cycle
   against a server whose LRU holds 8 — each entry is long evicted when
   its CSV comes round again.  A step is one cycle, half v1 and half v2,
   the parity flipped every cycle so each CSV is asked for in both
   versions. *)
let cold_plan ctx () =
  let corpus = Inputs.corpus () in
  let payloads =
    Array.init cold_payloads (fun j ->
        let w = j mod Array.length corpus in
        ( Inputs.name Inputs.entries.(w),
          Inputs.csv (Inputs.perturb (Rand.derive ctx.seed [ 8; j ]) corpus.(w)) ))
  in
  let version k = if (k + (k / cold_payloads)) mod 2 = 1 then 2 else 1 in
  let frame k =
    let spec, csv = payloads.(k mod cold_payloads) in
    predict_line ~id:(k + 1) ~v:(version k) ~spec ~csv
  in
  (* What Api.predict gives for each CSV, rendered with the server's own
     Protocol builders. *)
  let expected () =
    let predictions =
      Array.map
        (fun (spec, csv) ->
          match Api.series_of_csv ~file:"<wire>" ~spec_name:spec ~machine:Inputs.machine csv with
          | Error d -> Error d
          | Ok series -> Api.predict ~config:Inputs.base ~series ~target_max:Inputs.target_max ())
        payloads
    in
    fun k ->
      match predictions.(k mod cold_payloads) with
      | Error d -> "unexpected error: " ^ Api.Diag.render d
      | Ok p ->
          Protocol.predict_response ~id:(Json.Int (k + 1)) ~v:(version k) ~confidence:None
            ~summary:(Api.render_summary p) ~header:Api.rows_header ~rows:(Api.render_rows p)
            ~verdict:(Api.render_verdict p)
  in
  with_server ~args:[ "--cache"; "8" ] @@ fun server conn ->
  {
    server;
    conn;
    frame;
    step = cold_payloads;
    expected;
    primed = true;
    kinds =
      List.init 8 (fun k -> (k, if version k = 2 then Generator.Predict_v2 else Generator.Predict_v1));
    server_config = server_config ~cache:8;
  }

(* In-process probes of the service layers on the workload's own frames
   (jobs 1, same configuration as the spawned server). *)
let service_probes ctx plan ~hot ~expected =
  let sp = ctx.spans in
  let set = Report.set_layer ctx.report in
  let requests pred = List.filter_map (fun (k, kind) -> if pred kind then Some k else None) plan.kinds in
  let is_predict = function Generator.Predict_v1 | Generator.Predict_v2 -> true | _ -> false in
  let predicts = requests is_predict in
  let time_parse name ks =
    List.iter
      (fun k ->
        let line = plan.frame k in
        for _ = 1 to 20 do
          ignore (Spans.with_span sp name (fun () -> Protocol.parse_request line))
        done)
      ks
  in
  time_parse "protocol.parse.predict" predicts;
  time_parse "protocol.parse.malformed" (requests (fun kind -> kind = Generator.Malformed));
  let server = Server.create { plan.server_config with Server.jobs = 1 } in
  let ok = ref true in
  let handle name k =
    match Spans.with_span sp name (fun () -> Server.handle_batch server [ plan.frame k ]) with
    | [ response ], _ -> if response <> expected k then ok := false
    | _ -> ok := false
  in
  let csv_of k =
    match Protocol.parse_request (plan.frame k) with Ok (Protocol.Predict { csv; _ }) -> csv | _ -> None
  in
  (* The first request for a CSV misses; repeats hit. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun k ->
      if Hashtbl.mem seen (csv_of k) then handle "server.hit" k
      else begin
        Hashtbl.add seen (csv_of k) ();
        handle "server.miss" k
      end)
    predicts;
  if hot then
    for _ = 1 to 5 do
      List.iter (handle "server.hit") predicts
    done;
  Server.shutdown server;
  Report.check ctx.report "in-process server answers the plan's bytes" !ok;
  (* Rendering a response from its parts, as the server does per hit. *)
  List.iter
    (fun k ->
      match Protocol.parse_request (plan.frame k) with
      | Ok (Protocol.Predict { csv = Some csv; spec_name; v; id; _ }) -> (
          match Api.series_of_csv ~file:"<wire>" ?spec_name ~machine:Inputs.machine csv with
          | Ok series -> (
              match Api.predict ~config:Inputs.base ~series ~target_max:Inputs.target_max () with
              | Ok p ->
                  let summary = Api.render_summary p and rows = Api.render_rows p in
                  let verdict = Api.render_verdict p in
                  for _ = 1 to 20 do
                    ignore
                      (Spans.with_span sp "protocol.render" (fun () ->
                           Protocol.predict_response ~id ~v ~confidence:None ~summary
                             ~header:Api.rows_header ~rows ~verdict))
                  done
              | Error _ -> ())
          | Error _ -> ())
      | _ -> ())
    (List.filteri (fun i _ -> i < 8) predicts);
  let stats = Spans.stats sp in
  set "protocol.parse_us.predict" (Spans.median_of stats "protocol.parse.predict" ~scale:1e3);
  set "protocol.parse_us.malformed" (Spans.median_of stats "protocol.parse.malformed" ~scale:1e3);
  set "protocol.render_us" (Spans.median_of stats "protocol.render" ~scale:1e3);
  set "server.hit_us" (Spans.median_of stats "server.hit" ~scale:1e3);
  set "server.miss_ms" (Spans.median_of stats "server.miss" ~scale:1e6);
  (* The wire's share of a hit: the same frames sent to the spawned server
     and handled by a fresh, primed in-process one, alternately, so both
     see the same core speed.  Tens of microseconds, below the noise of a
     cold request's fit, so serve-cold leaves it at 0. *)
  if hot then begin
    let server = Server.create { plan.server_config with Server.jobs = 1 } in
    List.iter (fun k -> ignore (Server.handle_batch server [ plan.frame k ])) predicts;
    let overheads =
      List.init 256 (fun k ->
          let line = plan.frame k in
          let _, wire_ns = Util.timed (fun () -> Serve_client.request plan.conn line ~timeout_s:30.0) in
          let _, local_ns = Util.timed (fun () -> Server.handle_batch server [ line ]) in
          wire_ns -. local_ns)
    in
    Server.shutdown server;
    set "wire.overhead_us" (Stats.median overheads /. 1e3)
  end

(* One caller that waits for each answer before it sends the next
   request (a closed loop, one request outstanding): a request's latency
   is the client's and the server's work on the shared core, with no
   queueing.  A cold request is a stretch of its own. *)
let serve ctx ~hot =
  let plan =
    set_up ctx
      ~setup:(fun () ->
        let plan = (if hot then hot_plan else cold_plan) ctx () in
        if not plan.primed then Report.check ctx.report "priming responses match" false;
        plan)
      ~fingerprint:(fun plan -> String.concat "" (List.init plan.step plan.frame))
      ~discard:discard_plan
  in
  Fun.protect
    ~finally:(fun () -> discard_plan plan)
    (fun () ->
      let conn = plan.conn in
      let scrape () = if ctx.trace then Serve_client.scrape conn else None in
      let before = scrape () in
      (* Every request's answer, kept as a digest and checked once the
         timed phase is over.  A request's time is the CPU time the client
         and the server spend on it: on the core they share, its latency
         less any time the host gave the core to another guest.  The
         server runs one thread at jobs 1, and does nothing between
         requests. *)
      let answers = ref [] in
      let server_cpu () = Util.process_cpu_ns plan.server.Serve_client.pid in
      let server_before = ref 0L in
      let send k =
        if k = 0 then server_before := server_cpu ();
        let answer, client_ns =
          Util.timed ~clock:Util.cpu_ns (fun () -> Serve_client.request conn (plan.frame k) ~timeout_s:30.0)
        in
        let server_after = server_cpu () in
        let server_ns = Int64.to_float (Int64.sub server_after !server_before) in
        server_before := server_after;
        if k < 64 then Option.iter (Report.add_output ctx.report) answer;
        answers := (k, Option.map Digest.string answer) :: !answers;
        client_ns +. server_ns
      in
      let spans_before = Spans.count ctx.spans in
      let wall_s =
        Spans.with_span ctx.spans "serve.closed_loop" (fun () ->
            timed_phase ctx
              ~rss:(Util.peak_rss_mb ~pid:plan.server.Serve_client.pid)
              ~rss_steps:(if hot then 64 else 2)
              (fun m step ->
                let first = step * plan.step in
                if hot then record m (List.init plan.step (fun i -> send (first + i)))
                else
                  for i = 0 to plan.step - 1 do
                    record m [ send (first + i) ]
                  done))
      in
      trace_overhead ctx ~spans_before ~wall_s;
      let expected = plan.expected () in
      let failed =
        List.filter
          (fun (k, answer) ->
            let wrong = answer <> Some (Digest.string (expected k)) in
            if wrong then
              Printf.eprintf "request %d: %s; expected %s\n%!" k
                (if answer = None then "no answer" else "wrong bytes")
                (String.sub (expected k) 0 (min 200 (String.length (expected k))));
            wrong)
          !answers
      in
      Report.ops ctx.report ~attempted:(List.length !answers) ~failed:(List.length failed);
      if ctx.trace then begin
        let set = Report.set_layer ctx.report in
        (match (before, scrape ()) with
        | Some before, Some after ->
            let delta name =
              let v dump =
                Option.value ~default:0.0 (Serve_client.metric_value dump ~kind:"counter" ~name ~field:None)
              in
              v after -. v before
            in
            let hits = delta "estima_cache_hits_total" and misses = delta "estima_cache_misses_total" in
            set "server.cache_hit_ratio" (Stats.ratio hits (hits +. misses));
            (* A bucket bound of the server's own histogram, not an exact
               quantile: kept to cross-check the client's exact p50. *)
            set "server.latency_p50_ms"
              (1e3
              *. Option.value ~default:0.0
                   (Serve_client.metric_value after ~kind:"histogram" ~name:"estima_latency_seconds"
                      ~field:(Some "p50")))
        | _ -> Report.check ctx.report "metrics scrape answered" false);
        service_probes ctx plan ~hot ~expected
      end)

(* ------------------------------------------------------------------ *)

(* [sensitivity]: how the bulk of a workload's operations goes with the
   probe's slowdown, [tail_sensitivity] how its slowest tenth does: the
   exponents that left the least run-to-run spread over five sets of 10
   runs per workload on the 2-vCPU host (perfbench/README.md).  A serve-hot
   request lasts a fifth of a millisecond, and its slowest tenth is made
   of requests that met the neighbours' short bursts, which the probe
   around 128 of them averages; collect's slowest are its biggest
   simulations, which feel the memory system most. *)
type workload = { name : string; sensitivity : float; tail_sensitivity : float; run : ctx -> unit }

let all =
  [
    { name = "predict-csv"; sensitivity = 0.9; tail_sensitivity = 0.9; run = predict_csv };
    { name = "collect"; sensitivity = 0.8; tail_sensitivity = 0.9; run = collect };
    { name = "serve-hot"; sensitivity = 0.85; tail_sensitivity = 0.7; run = serve ~hot:true };
    { name = "serve-cold"; sensitivity = 0.9; tail_sensitivity = 0.9; run = serve ~hot:false };
  ]
