(* The metric vocabulary (it must match BENCHMARK.json, which the smoke
   mode checks) and the accumulator one run fills in. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("p90_ms", "ms");
  ]

let per_layer =
  [
    ("lm.minimize_us", "us");
    ("lm.iterations", "count");
    ("lm.converged_ratio", "ratio");
    ("lm.alloc_words", "words");
    ("fit.calls_per_predict", "count");
    ("fit.Rat22_us", "us");
    ("fit.Rat23_us", "us");
    ("fit.Rat33_us", "us");
    ("fit.CubicLn_us", "us");
    ("fit.ExpRat_us", "us");
    ("fit.Poly25_us", "us");
    ("fit.starts_per_call", "count");
    ("fit.ok_ratio", "ratio");
    ("fit.alloc_words", "words");
    ("ingest_us", "us");
    ("extrapolation_ms", "ms");
    ("approximation.self_us", "us");
    ("scaling_factor_ms", "ms");
    ("render_us", "us");
    ("predict_ms", "ms");
    ("predict.alloc_mwords", "Mwords");
    ("predict.minor_gcs", "count");
    ("layers.coverage_ratio", "ratio");
    ("par.speedup_jobs2", "ratio");
    ("engine.run_ms.t1", "ms");
    ("engine.run_ms.t12", "ms");
    ("engine.ops_per_s", "1/s");
    ("engine.alloc_words_per_op", "words");
    ("collector.series_ms", "ms");
    ("store.miss_write_ms", "ms");
    ("store.disk_read_us", "us");
    ("store.memory_hit_us", "us");
    ("store.misses", "count");
    ("store.writes", "count");
    ("store.invalid", "count");
    ("protocol.parse_us.predict", "us");
    ("protocol.parse_us.malformed", "us");
    ("protocol.render_us", "us");
    ("server.hit_us", "us");
    ("server.miss_ms", "ms");
    ("server.cache_hit_ratio", "ratio");
    ("server.latency_p50_ms", "ms");
    ("wire.overhead_us", "us");
    ("trace.overhead_ratio", "ratio");
  ]

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * bool) list;  (** Most recent first. *)
  e2e : (string, float * int * float option) Hashtbl.t;
      (** value, sample count, and for a time the raw value it was
          calibrated from *)
  layers : (string, float) Hashtbl.t;
  mutable slowdowns : float list;  (** Every host slowdown the run measured. *)
  digest : Buffer.t;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    checks = [];
    e2e = Hashtbl.create 8;
    layers = Hashtbl.create 64;
    slowdowns = [];
    digest = Buffer.create 4096;
  }

let ops t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let op t ~ok = ops t ~attempted:1 ~failed:(if ok then 0 else 1)

let check t name ok =
  t.checks <- (name, ok) :: t.checks;
  if not ok then Printf.eprintf "check failed: %s\n%!" name

let set_e2e t name ~samples ?raw value =
  assert (List.mem_assoc name end_to_end);
  Hashtbl.replace t.e2e name (value, samples, raw)

let slowdown t s = t.slowdowns <- s :: t.slowdowns

let set_layer t name value =
  assert (List.mem_assoc name per_layer);
  Hashtbl.replace t.layers name value

(* Outputs of the run's deterministic prefix (its first pass): equal
   seeds give equal digests across commits whose outputs agree. *)
let add_output t s = Buffer.add_string t.digest s

let correct t = t.attempted > 0 && t.failed = 0 && List.for_all snd t.checks

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* The human-readable block, then the one-line JSON the caller parses:
   end-to-end metrics untraced, per-layer metrics traced.  A layer the
   workload never exercised reads 0. *)
let print t ~trace =
  let metrics = if trace then per_layer else end_to_end in
  let value name =
    if trace then (Option.value ~default:0.0 (Hashtbl.find_opt t.layers name), "")
    else
      match Hashtbl.find_opt t.e2e name with
      | Some (v, n, None) -> (v, Printf.sprintf " (n=%d)" n)
      | Some (v, n, Some raw) -> (v, Printf.sprintf " (n=%d, raw %.6g)" n raw)
      | None -> (Float.nan, " (not measured)")
  in
  if t.slowdowns <> [] then
    Printf.printf "host slowdown: median %.3f, range %.3f-%.3f over %d probes\n" (Stats.median t.slowdowns)
      (List.fold_left Float.min Float.infinity t.slowdowns)
      (List.fold_left Float.max 0.0 t.slowdowns)
      (List.length t.slowdowns);
  List.iter
    (fun (name, unit) ->
      let v, samples = value name in
      Printf.printf "metric %-28s %14.6g %s%s\n" name v unit samples)
    metrics;
  Printf.printf "checks: %d passed, %d failed\n"
    (List.length (List.filter snd t.checks))
    (List.length (List.filter (fun (_, ok) -> not ok) t.checks));
  Printf.printf "output_digest: %s\n" (Digest.to_hex (Digest.string (Buffer.contents t.digest)));
  let members =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number (fst (value name))) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct t) (max 1 t.attempted) t.failed (String.concat ", " members)
