module Metrics = Estima_obs.Metrics
module Json = Estima_json.Json

let all_kinds =
  [
    Generator.Predict_v1;
    Generator.Predict_v2;
    Generator.Workload;
    Generator.Confidence;
    Generator.Malformed;
  ]

let kind_counts plan =
  List.map (fun k -> (Generator.kind_label k, Generator.count_kind plan k)) all_kinds

let throughput_rps (o : Driver.outcome) =
  if o.Driver.elapsed_s > 0.0 then float_of_int o.Driver.received /. o.Driver.elapsed_s else 0.0

let deterministic_summary (plan : Generator.plan) (o : Driver.outcome) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "seed=%d\n" plan.Generator.seed;
  Printf.bprintf buf "clients=%d\n" (Array.length plan.Generator.streams);
  Printf.bprintf buf "requests=%d\n" (Generator.total_requests plan);
  List.iter (fun (label, count) -> Printf.bprintf buf "%s=%d\n" label count) (kind_counts plan);
  Printf.bprintf buf "stream_bytes=%d\n" (String.length (Generator.stream_bytes plan));
  Printf.bprintf buf "sent=%d\n" o.Driver.sent;
  Printf.bprintf buf "received=%d\n" o.Driver.received;
  Printf.bprintf buf "matched=%d\n" o.Driver.matched;
  Printf.bprintf buf "mismatched=%d\n" o.Driver.mismatched;
  Printf.bprintf buf "timed_out=%d\n" o.Driver.timed_out;
  Buffer.contents buf

(* [None] while no latency was recorded. *)
let quantiles (o : Driver.outcome) =
  let s : Metrics.Histogram.snapshot = o.Driver.latency in
  if s.count = 0 then None
  else
    let q = Metrics.Histogram.snapshot_quantile s in
    Some (q 0.5, q 0.9, q 0.99, s.max)

let to_text plan (o : Driver.outcome) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (deterministic_summary plan o);
  Printf.bprintf buf "elapsed_s=%.3f\n" o.Driver.elapsed_s;
  Printf.bprintf buf "throughput_rps=%.1f\n" (throughput_rps o);
  Option.iter
    (fun (p50, p90, p99, max) ->
      Printf.bprintf buf "latency_s p50=%.6f p90=%.6f p99=%.6f max=%.6f\n" p50 p90 p99 max)
    (quantiles o);
  List.iter
    (fun (m : Driver.mismatch) ->
      Printf.bprintf buf "mismatch client=%d id=%d kind=%s\n  expected: %s\n  got:      %s\n"
        m.Driver.client m.Driver.id
        (Generator.kind_label m.Driver.kind)
        m.Driver.expected m.Driver.got)
    o.Driver.mismatches;
  Buffer.contents buf

let to_json (plan : Generator.plan) (o : Driver.outcome) =
  let latency =
    match quantiles o with
    | None -> Json.Null
    | Some (p50, p90, p99, max) ->
        Json.Obj
          [
            ("p50", Json.Float p50);
            ("p90", Json.Float p90);
            ("p99", Json.Float p99);
            ("max", Json.Float max);
          ]
  in
  Json.to_string
    (Json.Obj
       [
         ("seed", Json.Int plan.Generator.seed);
         ("clients", Json.Int (Array.length plan.Generator.streams));
         ("requests", Json.Int (Generator.total_requests plan));
         ( "kinds",
           Json.Obj (List.map (fun (label, count) -> (label, Json.Int count)) (kind_counts plan)) );
         ("stream_bytes", Json.Int (String.length (Generator.stream_bytes plan)));
         ("sent", Json.Int o.Driver.sent);
         ("received", Json.Int o.Driver.received);
         ("matched", Json.Int o.Driver.matched);
         ("mismatched", Json.Int o.Driver.mismatched);
         ("timed_out", Json.Int o.Driver.timed_out);
         ("clean", Json.Bool (Driver.clean o));
         ("elapsed_s", Json.Float o.Driver.elapsed_s);
         ("throughput_rps", Json.Float (throughput_rps o));
         ("latency", latency);
       ])
