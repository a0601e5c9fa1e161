(* Tests for the prediction service: the JSON codec, the metrics
   instruments, the LRU cache, the server's shedding/caching/dispatch
   logic driven in-process with an injected clock, and two end-to-end
   exercises of the real binary — a 1000-request pipelined soak over
   stdio and concurrent clients over a Unix domain socket — asserting
   every served response byte-identical to `estima_cli predict --from`
   on the same CSV. *)

open Estima_machine
open Estima_workloads
open Estima_counters
open Estima_service

let opteron1s = Machines.restrict_sockets Machines.opteron48 ~sockets:1

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      ("null", Json.Null);
      ("true", Json.Bool true);
      ("42", Json.Int 42);
      ("-7", Json.Int (-7));
      ("\"a\\\"b\\\\c\\nd\"", Json.String "a\"b\\c\nd");
      ("[1,[],{}]", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ( "{\"id\":1,\"op\":\"predict\"}",
        Json.Obj [ ("id", Json.Int 1); ("op", Json.String "predict") ] );
    ]
  in
  List.iter
    (fun (text, value) ->
      (match Json.parse text with
      | Ok parsed -> Alcotest.(check bool) ("parse " ^ text) true (parsed = value)
      | Error e -> Alcotest.failf "parse %s: %s" text e);
      Alcotest.(check string) ("print " ^ text) text (Json.to_string value))
    cases;
  (* Whitespace and \u escapes parse; printing is canonical. *)
  (match Json.parse " { \"a\" : [ 1 , 2 ] } " with
  | Ok v -> Alcotest.(check string) "canonical" "{\"a\":[1,2]}" (Json.to_string v)
  | Error e -> Alcotest.fail e);
  match Json.parse "{\"s\":\"\\u0041\"}" with
  | Ok v -> Alcotest.(check (option string)) "\\u" (Some "A") Json.(member "s" v |> Option.get |> to_string_opt)
  | Error e -> Alcotest.fail e

let test_json_errors () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ ""; "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "nul"; "1 2"; "{\"a\":1,}" ]

(* The two codec strictness fixes: \u escapes must be exactly four hex
   digits (int_of_string's underscore tolerance must not leak into the
   wire grammar), and number signs are only a leading '-' or part of an
   exponent. *)
let test_json_strictness () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [
      "\"\\u1_23\"";
      "\"\\u123_\"";
      "\"\\u12g4\"";
      "\"\\u 123\"";
      "\"\\u0x12\"";
      "+5";
      "[+5]";
      "{\"n\":+5}";
      "1+2";
      "-+1";
      "--1";
      "5-";
      "1e5e5";
    ];
  (* ...while the legitimate neighbours still parse. *)
  List.iter
    (fun (text, value) ->
      match Json.parse text with
      | Ok v -> Alcotest.(check bool) ("accept " ^ text) true (v = value)
      | Error e -> Alcotest.failf "rejected %s: %s" text e)
    [
      ("\"\\u0041\"", Json.String "A");
      ("\"\\uAbCd\"", Json.String "\xea\xaf\x8d");
      ("-5", Json.Int (-5));
      ("1e+5", Json.Float 100000.0);
      ("2E-3", Json.Float 0.002);
      ("-1.5e-3", Json.Float (-0.0015));
    ]

(* ------------------------------------------------------------------ *)
(* Wire framing                                                        *)
(* ------------------------------------------------------------------ *)

let test_split_lines () =
  let mk s =
    let b = Buffer.create 16 in
    Buffer.add_string b s;
    b
  in
  (* No newline yet: nothing peeled, the tail stays buffered. *)
  let b = mk "partial" in
  Alcotest.(check (list string)) "no newline" [] (Wire.split_lines b);
  Alcotest.(check string) "tail kept" "partial" (Buffer.contents b);
  (* CRLF framing, empty lines preserved, unterminated tail kept. *)
  let b = mk "a\r\nb\n\nc\npart" in
  Alcotest.(check (list string)) "mixed" [ "a"; "b"; ""; "c" ] (Wire.split_lines b);
  Alcotest.(check string) "tail" "part" (Buffer.contents b);
  (* The next chunk completes the buffered tail. *)
  Buffer.add_string b "ial\n";
  Alcotest.(check (list string)) "tail completed" [ "partial" ] (Wire.split_lines b);
  Alcotest.(check string) "buffer drained" "" (Buffer.contents b);
  (* A lone \r is not a terminator; only \r\n is collapsed. *)
  let b = mk "x\ry\n\r\n" in
  Alcotest.(check (list string)) "lone CR kept" [ "x\ry"; "" ] (Wire.split_lines b);
  (* Entirely empty input. *)
  let b = mk "" in
  Alcotest.(check (list string)) "empty" [] (Wire.split_lines b);
  let b = mk "\n" in
  Alcotest.(check (list string)) "single newline" [ "" ] (Wire.split_lines b)

(* ------------------------------------------------------------------ *)
(* Json round-trip property                                            *)
(* ------------------------------------------------------------------ *)

let json_gen ~with_floats =
  let open QCheck.Gen in
  let key = string_size ~gen:printable (int_range 0 8) in
  let scalar =
    let base =
      [
        (1, return Json.Null);
        (2, map (fun b -> Json.Bool b) bool);
        (4, map (fun n -> Json.Int n) (int_range (-1_000_000) 1_000_000));
        (4, map (fun s -> Json.String s) (string_size (int_range 0 12)));
      ]
    in
    frequency (if with_floats then (3, map (fun f -> Json.Float f) float) :: base else base)
  in
  sized
    (fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4) (pair key (self (n / 2)))) );
             ]))

(* Values without floats round-trip exactly: parse (print v) = v.  The
   string generator covers raw bytes 0..255, so control-character
   escaping and non-ASCII passthrough are both exercised.  The
   multi-line printer reads back as the one-line one does. *)
let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json parse inverts print"
    (QCheck.make (json_gen ~with_floats:false))
    (fun v ->
      let parsed = Json.parse (Json.to_string v) in
      parsed = Ok v && Json.parse (Json.pretty v) = parsed)

(* With floats the printed form is the canonical one (integral floats
   print like ints, non-finite floats print as null), so the guarantee
   is that printing is a fixpoint of print-then-parse. *)
let prop_json_print_fixpoint =
  QCheck.Test.make ~count:500 ~name:"json print is a parse fixpoint"
    (QCheck.make (json_gen ~with_floats:true))
    (fun v ->
      let s = Json.to_string v in
      match Json.parse s with Ok v' -> Json.to_string v' = s | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Estima_obs.Metrics.create () in
  let c = Estima_obs.Metrics.counter m "requests" in
  Estima_obs.Metrics.Counter.incr c;
  Estima_obs.Metrics.Counter.incr ~by:4 c;
  Estima_obs.Metrics.Counter.incr ~by:(-3) c;
  (* ignored: monotonic *)
  Alcotest.(check int) "value" 5 (Estima_obs.Metrics.Counter.value c);
  Alcotest.(check bool) "same instrument" true (c == Estima_obs.Metrics.counter m "requests");
  (match Estima_obs.Metrics.histogram m "requests" with
  | _ -> Alcotest.fail "name reuse across kinds accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check string) "render" "counter requests 5\n" (Estima_obs.Metrics.render m)

let test_metrics_histogram_deterministic () =
  (* Quantiles depend only on the multiset of samples, not their order. *)
  let samples = List.init 1000 (fun i -> 1e-6 *. float_of_int (1 + ((i * 7919) mod 997))) in
  let build order =
    let m = Estima_obs.Metrics.create () in
    let h = Estima_obs.Metrics.histogram m "lat" in
    List.iter (Estima_obs.Metrics.Histogram.observe h) order;
    Estima_obs.Metrics.render m
  in
  let sorted = List.sort compare samples in
  Alcotest.(check string) "order-independent" (build samples) (build (List.rev sorted));
  let m = Estima_obs.Metrics.create () in
  let h = Estima_obs.Metrics.histogram m "lat" in
  List.iter (Estima_obs.Metrics.Histogram.observe h) samples;
  Alcotest.(check int) "count" 1000 (Estima_obs.Metrics.Histogram.count h);
  let q50 = Estima_obs.Metrics.Histogram.quantile h 0.5 in
  let q95 = Estima_obs.Metrics.Histogram.quantile h 0.95 in
  let mn = Estima_obs.Metrics.Histogram.quantile h 0.0 in
  let mx = Estima_obs.Metrics.Histogram.quantile h 1.0 in
  Alcotest.(check bool) "min <= p50 <= p95 <= max" true (mn <= q50 && q50 <= q95 && q95 <= mx);
  (* A log bucket is at most one factor of 10^(1/8) wide, so the p50
     upper bound stays within ~33% of the true median. *)
  let true_median = List.nth sorted 499 in
  Alcotest.(check bool) "p50 near the true median" true
    (q50 >= true_median && q50 <= true_median *. 1.34)

let test_metrics_histogram_exact_max () =
  (* The maximum (p100) is the exact largest sample, not a bucket upper
     bound — also under concurrent observers, where it must come from
     the same single-lock snapshot as the counts. *)
  let m = Estima_obs.Metrics.create () in
  let h = Estima_obs.Metrics.histogram m "lat" in
  (* 0.00123 falls strictly inside a log bucket: any bucket-bound
     answer would differ from it. *)
  let true_max = 0.00123 and true_min = 3.7e-7 in
  let samples domain =
    List.init 250 (fun i -> true_min +. (1e-7 *. float_of_int ((i * 31) + domain)))
  in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            List.iter (Estima_obs.Metrics.Histogram.observe h) (samples d)))
  in
  List.iter Domain.join domains;
  Estima_obs.Metrics.Histogram.observe h true_max;
  Estima_obs.Metrics.Histogram.observe h true_min;
  Alcotest.(check (float 0.0)) "exact max" true_max (Estima_obs.Metrics.Histogram.max_value h);
  Alcotest.(check (float 0.0)) "exact min" true_min (Estima_obs.Metrics.Histogram.min_value h);
  Alcotest.(check (float 0.0)) "q1 is the exact max" true_max
    (Estima_obs.Metrics.Histogram.quantile h 1.0);
  let s = Estima_obs.Metrics.Histogram.snapshot h in
  Alcotest.(check int) "snapshot count" 1002 s.Estima_obs.Metrics.Histogram.count;
  Alcotest.(check (float 0.0)) "snapshot max" true_max s.Estima_obs.Metrics.Histogram.max;
  Alcotest.(check (float 0.0)) "snapshot quantile clamps to max" true_max
    (Estima_obs.Metrics.Histogram.snapshot_quantile s 1.0);
  Alcotest.(check bool) "render carries the exact p100" true
    (contains ~sub:(Printf.sprintf "p100=%.17g" true_max) (Estima_obs.Metrics.render m));
  (* Empty histograms stay well-defined. *)
  let empty = Estima_obs.Metrics.histogram (Estima_obs.Metrics.create ()) "e" in
  Alcotest.(check (float 0.0)) "empty max" neg_infinity
    (Estima_obs.Metrics.Histogram.max_value empty);
  Alcotest.(check (float 0.0)) "empty min" infinity
    (Estima_obs.Metrics.Histogram.min_value empty)

(* ------------------------------------------------------------------ *)
(* Fit_cache                                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let c = Fit_cache.create ~capacity:2 in
  Fit_cache.add c "a" 1;
  Fit_cache.add c "b" 2;
  Alcotest.(check (option int)) "a hit" (Some 1) (Fit_cache.find c "a");
  (* "b" is now the LRU entry; adding "c" evicts it, not "a". *)
  Fit_cache.add c "c" 3;
  Alcotest.(check int) "bounded" 2 (Fit_cache.length c);
  Alcotest.(check (option int)) "b evicted" None (Fit_cache.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Fit_cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Fit_cache.find c "c");
  (* Replacing in place neither grows nor evicts. *)
  Fit_cache.add c "a" 10;
  Alcotest.(check int) "replace" 2 (Fit_cache.length c);
  Alcotest.(check (option int)) "replaced" (Some 10) (Fit_cache.find c "a")

(* ------------------------------------------------------------------ *)
(* Server, driven in-process                                           *)
(* ------------------------------------------------------------------ *)

(* Reassemble the prediction text carried by a predict response; must be
   byte-identical to the CLI output for the same CSV. *)
let response_text response =
  match Json.parse response with
  | Error e -> Alcotest.failf "bad response %s: %s" response e
  | Ok json ->
      let str key = Option.get (Option.bind (Json.member key json) Json.to_string_opt) in
      let rows =
        match Json.member "rows" json with
        | Some (Json.List rows) -> List.map (fun r -> Option.get (Json.to_string_opt r)) rows
        | _ -> Alcotest.fail "no rows"
      in
      str "summary" ^ "\n\n" ^ str "header" ^ "\n" ^ String.concat "\n" rows ^ "\n\nprediction: "
      ^ str "verdict" ^ "\n"

let collect_csv ?(max = 12) name =
  let entry = Option.get (Suite.find name) in
  let series =
    Collector.collect
      ~options:{ Collector.default_options with Collector.seed = 42; repetitions = 3 }
      ~machine:opteron1s ~spec:entry.Suite.spec
      ~thread_counts:(Collector.default_thread_counts ~max)
      ()
  in
  Csv_export.series_to_csv series

let predict_line ?(id = 1) ?v ?confidence ?spec csv =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Int id); ("op", Json.String "predict") ]
       @ (match v with None -> [] | Some v -> [ ("v", Json.Int v) ])
       @ (match confidence with None -> [] | Some n -> [ ("confidence", Json.Int n) ])
       @ (match spec with None -> [] | Some spec -> [ ("spec", Json.String spec) ])
       @ [ ("csv", Json.String csv) ]))

(* A CSV as its header cells and its rows of cells, and back. *)
let csv_table csv =
  match List.filter (( <> ) "") (String.split_on_char '\n' csv) with
  | header :: rows -> (String.split_on_char ',' header, List.map (String.split_on_char ',') rows)
  | [] -> Alcotest.fail "empty CSV"

let csv_text ?(eol = "\n") header rows =
  String.concat "" (List.map (fun cells -> String.concat "," cells ^ eol) (header :: rows))

let make_server ?clock ?(jobs = 1) ?(queue = 64) ?(cache = 16) ?timeout_ms () =
  Server.create ?clock
    {
      (Server.default_config ~machine:opteron1s) with
      Server.target = Some Machines.opteron48;
      jobs;
      queue_capacity = queue;
      cache_capacity = cache;
      default_timeout_ms = timeout_ms;
    }

let with_server ?clock ?jobs ?queue ?cache ?timeout_ms f =
  let server = make_server ?clock ?jobs ?queue ?cache ?timeout_ms () in
  Fun.protect ~finally:(fun () -> Server.shutdown server) (fun () -> f server)

let error_cause response =
  match Json.parse response with
  | Error e -> Alcotest.failf "unparseable response %s: %s" response e
  | Ok json -> (
      match Json.member "error" json with
      | None -> None
      | Some err ->
          Some
            ( Option.get (Option.bind (Json.member "cause" err) Json.to_string_opt),
              Option.get (Option.bind (Json.member "exit_code" err) Json.to_int_opt) ))

let counter_value server name =
  Estima_obs.Metrics.Counter.value (Estima_obs.Metrics.counter (Server.metrics server) name)

let test_server_parse_error () =
  with_server (fun server ->
      let responses, verdict = Server.handle_batch server [ "not json"; "{\"op\":\"sing\"}" ] in
      Alcotest.(check bool) "continue" true (verdict = `Continue);
      List.iter
        (fun r ->
          match error_cause r with
          | Some ("parse-error", 2) -> ()
          | other ->
              Alcotest.failf "expected parse-error/2, got %s"
                (match other with Some (c, n) -> Printf.sprintf "%s/%d" c n | None -> "ok"))
        responses)

let test_server_cache_and_identity () =
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let first, _ = Server.handle_batch server [ predict_line csv ] in
      let again, _ = Server.handle_batch server [ predict_line csv ] in
      Alcotest.(check int) "one miss" 1 (counter_value server "estima_cache_misses_total");
      Alcotest.(check int) "one hit" 1 (counter_value server "estima_cache_hits_total");
      Alcotest.(check string) "hit byte-identical to miss" (List.hd first) (List.hd again);
      (* A duplicate payload within one batch coalesces onto the single
         in-flight computation: one miss, one hit, identical responses. *)
      let csv2 = collect_csv ~max:11 "kmeans" in
      let pair, _ = Server.handle_batch server [ predict_line ~id:7 csv2; predict_line ~id:8 csv2 ] in
      Alcotest.(check int) "coalesced duplicate is a hit" 2
        (counter_value server "estima_cache_hits_total");
      Alcotest.(check int) "one miss for the new payload" 2
        (counter_value server "estima_cache_misses_total");
      (match pair with
      | [ a; b ] ->
          Alcotest.(check string) "identical text within batch" (response_text a) (response_text b)
      | _ -> Alcotest.fail "expected two responses");
      (* The key is the series' values, not the CSV text: the same
         values spelled otherwise (1500 as 1.50...e+03, padded cells,
         CRLF, rows reversed) are one entry, while one ulp in one cell
         is another. *)
      let csv3 = collect_csv ~max:10 "kmeans" in
      let header, rows = csv_table csv3 in
      let respelled =
        csv_text ~eol:"\r\n" header
          (List.rev_map
             (List.map2
                (fun name cell ->
                  if name = "threads" || name = "footprint_lines" then "  " ^ cell ^ " "
                  else Printf.sprintf " %.17e" (float_of_string cell))
                header)
             rows)
      in
      Alcotest.(check bool) "respelled text differs" false (respelled = csv3);
      let canonical, _ = Server.handle_batch server [ predict_line csv3 ] in
      let other, _ = Server.handle_batch server [ predict_line respelled ] in
      Alcotest.(check int) "canonical text is a miss" 3 (counter_value server "estima_cache_misses_total");
      Alcotest.(check int) "respelled text is a hit" 3 (counter_value server "estima_cache_hits_total");
      Alcotest.(check string) "respelled hit byte-identical" (List.hd canonical) (List.hd other);
      let nudged =
        csv_text header
          (List.mapi
             (fun i cells ->
               if i <> 1 then cells
               else
                 List.mapi
                   (fun j cell ->
                     if j <> 1 then cell else Printf.sprintf "%.17g" (Float.succ (float_of_string cell)))
                   cells)
             rows)
      in
      ignore (Server.handle_batch server [ predict_line nudged ]);
      Alcotest.(check int) "one ulp is a miss" 4 (counter_value server "estima_cache_misses_total");
      Alcotest.(check int) "and no hit" 3 (counter_value server "estima_cache_hits_total"))

let test_server_jobs_byte_identical () =
  let payloads =
    List.mapi (fun i name -> predict_line ~id:i (collect_csv name)) [ "kmeans"; "genome"; "ssca2"; "vacation-low" ]
  in
  let run jobs = with_server ~jobs (fun server -> fst (Server.handle_batch server payloads)) in
  Alcotest.(check (list string)) "jobs=1 vs jobs=4" (run 1) (run 4)

(* ------------------------------------------------------------------ *)
(* Protocol version negotiation (v1 default, v2 opt-in)                *)
(* ------------------------------------------------------------------ *)

let parse_response r =
  match Json.parse r with
  | Ok json -> json
  | Error e -> Alcotest.failf "unparseable response %s: %s" r e

let test_protocol_v1_bytes_unchanged () =
  (* A request without "v" negotiates v1: the response carries no "v"
     member and no "confidence" member — existing clients see the exact
     pre-v2 wire format. *)
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let responses, _ = Server.handle_batch server [ predict_line csv ] in
      let json = parse_response (List.hd responses) in
      Alcotest.(check bool) "no v member" true (Json.member "v" json = None);
      Alcotest.(check bool) "no confidence member" true (Json.member "confidence" json = None))

let test_protocol_v2_echoes_version () =
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let responses, _ =
        Server.handle_batch server [ predict_line ~v:2 csv; predict_line ~id:2 csv ]
      in
      match List.map parse_response responses with
      | [ v2; v1 ] ->
          Alcotest.(check (option int)) "v2 echoed" (Some 2)
            (Option.bind (Json.member "v" v2) Json.to_int_opt);
          Alcotest.(check bool) "v1 reply to the same series has no v" true
            (Json.member "v" v1 = None)
      | _ -> Alcotest.fail "expected two responses")

let test_protocol_rejects_unknown_version () =
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let responses, _ = Server.handle_batch server [ predict_line ~v:3 csv ] in
      match error_cause (List.hd responses) with
      | Some ("bad-config", 2) -> ()
      | other ->
          Alcotest.failf "expected bad-config/2, got %s"
            (match other with Some (c, n) -> Printf.sprintf "%s/%d" c n | None -> "ok"))

let test_protocol_confidence_requires_v2 () =
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let responses, _ = Server.handle_batch server [ predict_line ~confidence:20 csv ] in
      let r = List.hd responses in
      (match error_cause r with
      | Some ("bad-config", 2) -> ()
      | _ -> Alcotest.failf "expected bad-config/2, got %s" r);
      match Json.member "error" (parse_response r) with
      | Some err ->
          let msg = Option.get (Option.bind (Json.member "message" err) Json.to_string_opt) in
          if not (String.length msg > 0 && String.index_opt msg '2' <> None) then
            Alcotest.failf "rejection should name protocol version 2: %s" msg
      | None -> Alcotest.fail "no error member")

let test_protocol_v2_confidence_block () =
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let responses, _ =
        Server.handle_batch server [ predict_line ~v:2 ~confidence:20 csv ]
      in
      let json = parse_response (List.hd responses) in
      match Json.member "confidence" json with
      | None -> Alcotest.failf "no confidence member in %s" (List.hd responses)
      | Some c ->
          let int k = Option.get (Option.bind (Json.member k c) Json.to_int_opt) in
          Alcotest.(check int) "resamples" 20 (int "resamples");
          Alcotest.(check int) "succeeded" 20 (int "succeeded");
          Alcotest.(check int) "seed" 42 (int "seed");
          (match Json.member "p50" c with
          | Some (Json.List xs) -> Alcotest.(check int) "48 p50 points" 48 (List.length xs)
          | _ -> Alcotest.fail "no p50 list");
          let verdict = Option.get (Option.bind (Json.member "verdict" c) Json.to_string_opt) in
          if not (List.mem verdict [ "scales"; "stops"; "uncertain" ]) then
            Alcotest.failf "unexpected verdict %s" verdict)

let test_protocol_confidence_cache_distinct () =
  (* The same series with and without confidence must not share a cache
     entry: the plain entry has no bands to serve, the confidence entry
     costs resamples the plain request never asked for. *)
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let _ = Server.handle_batch server [ predict_line csv ] in
      let responses, _ = Server.handle_batch server [ predict_line ~v:2 ~confidence:10 csv ] in
      Alcotest.(check int) "two misses" 2 (counter_value server "estima_cache_misses_total");
      Alcotest.(check bool) "confidence present" true
        (Json.member "confidence" (parse_response (List.hd responses)) <> None);
      Alcotest.(check int) "resamples metered" 10
        (counter_value server "estima_confidence_resamples_total"))

let test_server_queue_full () =
  (* Four distinct payloads (duplicates would coalesce instead of
     queueing) against a queue of two. *)
  let csvs = List.map (fun max -> collect_csv ~max "kmeans") [ 9; 10; 11; 12 ] in
  with_server ~queue:2 (fun server ->
      let lines = List.mapi (fun i csv -> predict_line ~id:i csv) csvs in
      let responses, _ = Server.handle_batch server lines in
      let shed =
        List.filter_map (fun r -> error_cause r) responses
        |> List.filter (fun (c, _) -> c = "overloaded")
      in
      Alcotest.(check int) "two shed" 2 (List.length shed);
      List.iter (fun (_, code) -> Alcotest.(check int) "exit code 4" 4 code) shed;
      Alcotest.(check int) "counter" 2 (counter_value server "estima_shed_overload_total");
      (* The admitted two still answered. *)
      let ok = List.filter (fun r -> error_cause r = None) responses in
      Alcotest.(check int) "two served" 2 (List.length ok))

let test_server_deadline () =
  (* A clock that advances 10 ms per reading: by the time the dispatcher
     re-reads it for the deadline check, any timeout below 10 ms has
     already passed.  timeout_ms = 0 makes the shed deterministic. *)
  let now = ref 0.0 in
  let clock () =
    let t = !now in
    now := t +. 0.010;
    t
  in
  let csv = collect_csv "kmeans" in
  with_server ~clock ~timeout_ms:0 (fun server ->
      let responses, _ = Server.handle_batch server [ predict_line csv ] in
      (match error_cause (List.hd responses) with
      | Some ("deadline-exceeded", 4) -> ()
      | other ->
          Alcotest.failf "expected deadline-exceeded/4, got %s"
            (match other with Some (c, n) -> Printf.sprintf "%s/%d" c n | None -> "ok"));
      Alcotest.(check int) "counter" 1 (counter_value server "estima_shed_deadline_total"));
  (* A per-request timeout_ms overrides the server default: with a
     generous request deadline the same server setup answers. *)
  let request =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Int 1);
           ("op", Json.String "predict");
           ("csv", Json.String csv);
           ("timeout_ms", Json.Int 60_000);
         ])
  in
  with_server ~clock ~timeout_ms:0 (fun server ->
      let responses, _ = Server.handle_batch server [ request ] in
      Alcotest.(check bool) "request override answers" true (error_cause (List.hd responses) = None))

let test_server_shutdown_and_metrics () =
  with_server (fun server ->
      let responses, verdict =
        Server.handle_batch server [ "{\"id\":9,\"op\":\"metrics\"}"; "{\"id\":10,\"op\":\"shutdown\"}" ]
      in
      Alcotest.(check bool) "shutdown signalled" true (verdict = `Shutdown);
      (match Json.parse (List.hd responses) with
      | Ok json ->
          let dump = Option.get (Option.bind (Json.member "metrics" json) Json.to_string_opt) in
          Alcotest.(check bool) "dump has requests counter" true
            (contains ~sub:"counter estima_requests_total" dump)
      | Error e -> Alcotest.fail e);
      match Json.parse (List.nth responses 1) with
      | Ok json -> Alcotest.(check (option bool)) "bye" (Some true) Json.(member "bye" json |> Option.map (function Bool b -> b | _ -> false))
      | Error e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* End to end: the real binary over pipes and a socket                 *)
(* ------------------------------------------------------------------ *)

(* Resolve the sibling binaries relative to the test executable so the
   suite works under both `dune runtest` (cwd = _build/default/test) and
   `dune exec` (cwd = workspace root). *)
let bin_exe name = Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name)

let serve_exe = bin_exe "estima_serve.exe"

let cli_exe = bin_exe "estima_cli.exe"

let write_temp_csv name csv =
  let path = Filename.temp_file ("estima_" ^ name ^ "_") ".csv" in
  let oc = open_out path in
  output_string oc csv;
  close_out oc;
  path

(* What `estima_cli predict --from path` prints (same machine defaults as
   the served setup). *)
let cli_predict path =
  let ic = Unix.open_process_in (Filename.quote_command cli_exe [ "predict"; "--from"; path ]) in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "estima_cli predict --from %s failed" path);
  Buffer.contents buf


let spawn_serve args =
  (* cloexec: the child must NOT inherit the parent's pipe ends beyond
     the dup2'd stdin/stdout, or closing [to_server] would never read as
     EOF on the server side (it would hold its own copy of the write
     end).  The EOF-flush tests depend on this. *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process serve_exe
      (Array.of_list (serve_exe :: args))
      stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  (pid, Unix.out_channel_of_descr stdin_w, Unix.in_channel_of_descr stdout_r)

(* Kill a spawned server that is still running: the clean-up of a test
   whose server may hang.  A server the test already reaped is left
   alone, so its pid is never signalled after it could be reused. *)
let kill_if_running pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

(* Ingestion takes any header cell as a column name, but the canonical
   CSV printer refuses one it would have to quote.  The cache key must
   not print the CSV: the server answers such a file as the CLI does. *)
let test_server_unquotable_column () =
  let header, rows = csv_table (collect_csv "kmeans") in
  let header = List.map (fun name -> if name = "0D0h" then "stm abort" else name) header in
  Alcotest.(check bool) "renamed a column" true (List.mem "stm abort" header);
  let csv = csv_text header rows in
  let path = write_temp_csv "unquotable" csv in
  let spec = Filename.remove_extension (Filename.basename path) in
  let expected = cli_predict path in
  Sys.remove path;
  with_server (fun server ->
      match Server.handle_batch server [ predict_line ~id:42 ~spec csv ] with
      | [ response ], _ ->
          Alcotest.(check bool) "the request's own id" true
            (Result.map (Json.member "id") (Json.parse response) = Ok (Some (Json.Int 42)));
          Alcotest.(check int) "no internal error" 0
            (counter_value server "estima_internal_errors_total");
          Alcotest.(check string) "same text as the CLI" expected (response_text response)
      | _ -> Alcotest.fail "expected one response")

(* A time whose square overflows (data/overflow.csv) is a typed
   bad-value answer, as the CLI's exit 2, not "ok":true with "corr nan"
   and not an internal error. *)
let test_server_overflowing_value () =
  let csv = In_channel.with_open_bin "data/overflow.csv" In_channel.input_all in
  with_server (fun server ->
      match Server.handle_batch server [ predict_line ~id:7 ~spec:"overflow" csv ] with
      | [ response ], _ -> (
          match Json.parse response with
          | Error e -> Alcotest.fail e
          | Ok json ->
              Alcotest.(check bool) "not ok" true (Json.member "ok" json = Some (Json.Bool false));
              let cause = Option.bind (Json.member "error" json) (Json.member "cause") in
              Alcotest.(check bool) "cause bad-value" true (cause = Some (Json.String "bad-value"));
              Alcotest.(check int) "no internal error" 0
                (counter_value server "estima_internal_errors_total"))
      | _ -> Alcotest.fail "expected one response")

let test_soak_1000_requests () =
  let names = [ "kmeans"; "genome"; "ssca2"; "vacation-low"; "intruder"; "yada"; "labyrinth"; "kmeans-high" ] in
  let names = List.filter (fun n -> Suite.find n <> None) names in
  Alcotest.(check bool) "several distinct payloads" true (List.length names >= 4);
  let payloads =
    List.map
      (fun name ->
        let csv = collect_csv name in
        let path = write_temp_csv name csv in
        (* The served spec name must match what the CLI derives from the
           file's basename for the summary line to be byte-identical. *)
        let spec = Filename.remove_extension (Filename.basename path) in
        let line id =
          Json.to_string
            (Json.Obj
               [
                 ("id", Json.Int id);
                 ("op", Json.String "predict");
                 ("csv", Json.String csv);
                 ("spec", Json.String spec);
               ])
        in
        (path, line))
      names
  in
  let expected = List.map (fun (path, _) -> cli_predict path) payloads in
  let pid, to_server, from_server = spawn_serve [ "--jobs"; "4"; "--cache"; "32" ] in
  let n_requests = 1000 in
  (* Small pipelining window: requests carry whole CSVs and responses
     whole prediction tables, so 10 in flight keeps both directions of
     the pipe comfortably under the 64K buffer — no deadlock.  The
     cache counters do not care how requests clump into batches (the
     server coalesces duplicates within a batch). *)
  let chunk = 10 in
  let payload_count = List.length payloads in
  let served = ref 0 in
  for round = 0 to (n_requests / chunk) - 1 do
    for i = 0 to chunk - 1 do
      let id = (round * chunk) + i in
      let _, line = List.nth payloads (id mod payload_count) in
      output_string to_server (line id);
      output_char to_server '\n'
    done;
    flush to_server;
    for i = 0 to chunk - 1 do
      let id = (round * chunk) + i in
      let response = input_line from_server in
      let want = List.nth expected (id mod payload_count) in
      if response_text response <> want then
        Alcotest.failf "request %d: served text differs from the CLI" id;
      incr served
    done
  done;
  Alcotest.(check int) "all answered" n_requests !served;
  (* Metrics: the cache must have absorbed almost everything, and the
     latency histogram must report quantiles. *)
  output_string to_server "{\"id\":-1,\"op\":\"metrics\"}\n{\"id\":-2,\"op\":\"shutdown\"}\n";
  flush to_server;
  let metrics_response = input_line from_server in
  let dump =
    match Json.parse metrics_response with
    | Ok json -> Option.get (Option.bind (Json.member "metrics" json) Json.to_string_opt)
    | Error e -> Alcotest.fail e
  in
  let find_counter name =
    dump |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ "counter"; n; v ] when n = name -> int_of_string_opt v
           | _ -> None)
  in
  let hits = Option.value ~default:0 (find_counter "estima_cache_hits_total") in
  let misses = Option.value ~default:0 (find_counter "estima_cache_misses_total") in
  Alcotest.(check bool) "nonzero cache-hit rate" true (hits > 0);
  Alcotest.(check int) "hits + misses = requests" n_requests (hits + misses);
  Alcotest.(check int) "misses = distinct payloads" payload_count misses;
  let latency_line =
    dump |> String.split_on_char '\n'
    |> List.find_opt (fun l -> contains ~sub:"histogram estima_latency_seconds" l)
  in
  (match latency_line with
  | Some line ->
      Alcotest.(check bool) "p50 reported" true (contains ~sub:"p50=" line);
      Alcotest.(check bool) "p95 reported" true (contains ~sub:"p95=" line);
      Printf.printf "soak latency: %s\n%!" line
  | None -> Alcotest.fail "no latency histogram in the metrics dump");
  ignore (input_line from_server);
  close_out to_server;
  close_in from_server;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "estima_serve did not exit cleanly");
  List.iter (fun (path, _) -> Sys.remove path) payloads

let test_socket_concurrent_clients () =
  let csv = collect_csv "kmeans" in
  let path = write_temp_csv "sock" csv in
  let spec = Filename.remove_extension (Filename.basename path) in
  let expected = cli_predict path in
  let socket_path = Filename.temp_file "estima_serve_" ".sock" in
  Sys.remove socket_path;
  let pid =
    Unix.create_process serve_exe
      [| serve_exe; "--jobs"; "4"; "--socket"; socket_path |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* Wait for the listener. *)
  let rec await tries =
    if Sys.file_exists socket_path then ()
    else if tries = 0 then Alcotest.fail "socket never appeared"
    else begin
      Unix.sleepf 0.05;
      await (tries - 1)
    end
  in
  await 100;
  let line id =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Int id);
           ("op", Json.String "predict");
           ("csv", Json.String csv);
           ("spec", Json.String spec);
         ])
  in
  let client k =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
    let texts =
      List.init 25 (fun i ->
          output_string oc (line ((k * 100) + i));
          output_char oc '\n';
          flush oc;
          response_text (input_line ic))
    in
    Unix.close fd;
    texts
  in
  let domains = List.init 4 (fun k -> Domain.spawn (fun () -> client k)) in
  let all = List.concat_map Domain.join domains in
  Alcotest.(check int) "100 responses" 100 (List.length all);
  List.iter
    (fun text ->
      if text <> expected then Alcotest.fail "socket response differs from the CLI")
    all;
  (* One more client shuts the server down. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
  output_string oc "{\"id\":0,\"op\":\"shutdown\"}\n";
  flush oc;
  ignore (input_line ic);
  Unix.close fd;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "estima_serve did not exit cleanly");
  Sys.remove path

let suite =
  [
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json rejects malformed input", `Quick, test_json_errors);
    ("json strictness: \\u escapes and number signs", `Quick, test_json_strictness);
    ("wire split_lines edge cases", `Quick, test_split_lines);
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_print_fixpoint;
    ("metrics counters", `Quick, test_metrics_counters);
    ("metrics histogram is order-independent", `Quick, test_metrics_histogram_deterministic);
    ("metrics histogram tracks the exact max (p100)", `Quick, test_metrics_histogram_exact_max);
    ("fit cache is LRU", `Quick, test_cache_lru);
    ("server rejects unparseable requests", `Quick, test_server_parse_error);
    ("server cache hit/miss counters and identity", `Quick, test_server_cache_and_identity);
    ("server responses byte-identical across jobs", `Quick, test_server_jobs_byte_identical);
    ("protocol v1 bytes unchanged", `Quick, test_protocol_v1_bytes_unchanged);
    ("protocol v2 echoes version", `Quick, test_protocol_v2_echoes_version);
    ("protocol rejects unknown version", `Quick, test_protocol_rejects_unknown_version);
    ("protocol confidence requires v2", `Quick, test_protocol_confidence_requires_v2);
    ("protocol v2 confidence block", `Quick, test_protocol_v2_confidence_block);
    ("protocol confidence cache distinct", `Quick, test_protocol_confidence_cache_distinct);
    ("server sheds on a full queue", `Quick, test_server_queue_full);
    ("server sheds on a blown deadline", `Quick, test_server_deadline);
    ("server metrics and shutdown", `Quick, test_server_shutdown_and_metrics);
    ("soak: 1000 pipelined requests over stdio", `Slow, test_soak_1000_requests);
    ("soak: concurrent clients over a socket", `Slow, test_socket_concurrent_clients);
    ("server predicts a CSV with an unquotable column name", `Quick, test_server_unquotable_column);
    ("server answers an overflowing value with bad-value", `Quick, test_server_overflowing_value);
  ]
