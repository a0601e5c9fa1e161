(* Tests for the load-testing subsystem (Estima_load) and the protocol's
   robustness under adversarial bytes.

   Three claims are proven here:

   - fuzz: arbitrary byte strings — truncated UTF-8, NULs, giant
     numbers, half-JSON — pushed through Protocol.parse_request and a
     live in-process Server (at jobs 1 and 4) never raise; every input
     line is answered with exactly one parseable JSON line carrying a
     typed error with a documented exit code;
   - determinism: the same seed produces byte-identical request streams,
     and playing them against real servers yields identical
     timing-free report aggregates across runs and across --jobs;
   - identity: the expected bytes the generator precomputes for a
     predict request reassemble to exactly what `estima_cli predict
     --from` prints on the same CSV — the property that lets the driver
     verify a server by string equality alone. *)

open Estima_machine
open Estima_service
module Generator = Estima_load.Generator
module Driver = Estima_load.Driver
module Report = Estima_load.Report

let opteron1s = Machines.restrict_sockets Machines.opteron48 ~sockets:1

let target = Machines.opteron48

let base = Estima.Config.make ~measured_on:opteron1s ~target ()

(* One small payload set shared by the whole module: collection is the
   expensive part of plan construction, so do it once. *)
let payloads = lazy (Generator.suite_payloads ~machine:opteron1s [ "kmeans" ])

let quick_mix = { Generator.v1 = 4; v2 = 2; workload = 0; confidence = 1; malformed = 2 }

let quick_plan ?(seed = 7) ?(clients = 2) ?(requests_per_client = 8) () =
  Generator.plan ~mix:quick_mix ~confidence_resamples:5 ~payloads:(Lazy.force payloads)
    ~machine:opteron1s ~target ~base ~seed ~clients ~requests_per_client ()

(* ------------------------------------------------------------------ *)
(* Fuzz: the protocol and the server never raise                       *)
(* ------------------------------------------------------------------ *)

(* Raw lines a hostile client could send: arbitrary bytes (minus the
   line separators, which the transport framing owns), weighted towards
   the protocol's soft spots — JSON prefixes, giant numbers, deep
   nesting, NULs and truncated UTF-8. *)
let hostile_line =
  let open QCheck in
  let raw_char = Gen.map Char.chr (Gen.int_range 0 255) in
  let keep c = c <> '\n' && c <> '\r' in
  let strip s = String.concat "" (List.filter_map (fun c -> if keep c then Some (String.make 1 c) else None) (List.init (String.length s) (String.get s))) in
  let gen =
    Gen.oneof
      [
        Gen.map strip (Gen.string_size ~gen:raw_char (Gen.int_range 0 64));
        (* JSON-shaped prefixes: every strict prefix of a valid request
           is malformed. *)
        Gen.map
          (fun n ->
            let line = "{\"id\":1,\"v\":2,\"op\":\"predict\",\"csv\":\"threads,time_s\\n1,2\"}" in
            String.sub line 0 (min n (String.length line)))
          (Gen.int_range 0 60);
        (* Giant numbers in every numeric slot. *)
        Gen.map
          (fun n -> Printf.sprintf "{\"id\":%d9999999999999999999999,\"op\":\"predict\"}" n)
          (Gen.int_range 0 9);
        Gen.map
          (fun n -> Printf.sprintf "{\"id\":1,\"v\":%d,\"op\":\"predict\",\"csv\":\"x\"}" n)
          (Gen.int_range (-1000) 1000);
        (* Truncated UTF-8 and NULs inside a string member. *)
        Gen.map
          (fun s -> Printf.sprintf "{\"id\":1,\"op\":\"predict\",\"csv\":\"%s\"}" (strip s))
          (Gen.string_size ~gen:raw_char (Gen.int_range 0 16));
      ]
  in
  make ~print:(fun s -> String.escaped s) gen

let test_fuzz_parse_request =
  QCheck.Test.make ~count:500 ~name:"parse_request never raises on arbitrary bytes" hostile_line
    (fun line ->
      match Protocol.parse_request line with
      | Ok _ -> true
      | Error (id, diag) ->
          (* The typed error renders to one line that parses back. *)
          let response = Protocol.error_response ~id ~v:1 diag in
          (not (String.contains response '\n'))
          &&
          (match Json.parse response with
          | Ok json -> (
              match
                Option.bind (Json.member "error" json) (fun e ->
                    Option.bind (Json.member "exit_code" e) Json.to_int_opt)
              with
              | Some (2 | 4 | 5) -> true
              | _ -> false)
          | Error _ -> false))

let fuzz_server jobs =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "server survives arbitrary bytes (jobs %d)" jobs)
    QCheck.(list_of_size Gen.(int_range 1 8) hostile_line)
    (fun lines ->
      Test_service.with_server ~jobs (fun server ->
          let responses, _verdict = Server.handle_batch server lines in
          List.length responses = List.length lines
          && List.for_all
               (fun response ->
                 (not (String.contains response '\n'))
                 &&
                 match Json.parse response with
                 | Error _ -> false
                 | Ok json -> (
                     match Json.member "error" json with
                     | None -> true (* a random line that spelled a valid request *)
                     | Some e -> (
                         match Option.bind (Json.member "exit_code" e) Json.to_int_opt with
                         | Some (2 | 4 | 5) -> true
                         | _ -> false)))
               responses))

let test_fuzz_server_jobs1 = fuzz_server 1

let test_fuzz_server_jobs4 = fuzz_server 4

(* ------------------------------------------------------------------ *)
(* Generator determinism                                               *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  let a = quick_plan () and b = quick_plan () in
  Alcotest.(check string) "same seed, same bytes" (Generator.stream_bytes a)
    (Generator.stream_bytes b);
  Alcotest.(check bool) "different seed, different bytes" true
    (Generator.stream_bytes a <> Generator.stream_bytes (quick_plan ~seed:8 ()));
  Alcotest.(check int) "all requests present" 16 (Generator.total_requests a);
  (* Expected bytes are part of the determinism contract too. *)
  Array.iteri
    (fun i stream ->
      Array.iteri
        (fun j (r : Generator.request) ->
          let r' = b.Generator.streams.(i).(j) in
          Alcotest.(check string)
            (Printf.sprintf "expected bytes stable (%d,%d)" i j)
            r.Generator.expected r'.Generator.expected)
        stream)
    a.Generator.streams;
  (* Client streams are independent: the first client's bytes do not
     change when more clients are added. *)
  let wider = quick_plan ~clients:4 () in
  let first (plan : Generator.plan) =
    String.concat "\n"
      (Array.to_list (Array.map (fun r -> r.Generator.line) plan.Generator.streams.(0)))
  in
  Alcotest.(check string) "client 0 independent of client count" (first a) (first wider);
  (* Payloads resolve through the shared store: collecting them again
     reads the entries the plans above wrote, simulating nothing. *)
  let stats () = Estima_store.Store.stats (Estima_store.Store.default ()) in
  let before = stats () in
  let again = Generator.suite_payloads ~machine:opteron1s [ "kmeans" ] in
  let after = stats () in
  Alcotest.(check bool) "same payloads" true (again = Lazy.force payloads);
  Alcotest.(check bool) "store hits" true
    (after.Estima_store.Store.hits > before.Estima_store.Store.hits);
  Alcotest.(check int) "no store miss" before.Estima_store.Store.misses
    after.Estima_store.Store.misses

let test_malformed_frames_rejected () =
  (* Every malformed frame in a plan must fail to parse (that is what
     makes its expected error line correct), and every well-formed kind
     must parse. *)
  let plan = quick_plan ~seed:23 ~clients:3 ~requests_per_client:12 () in
  Array.iter
    (Array.iter (fun (r : Generator.request) ->
         match (r.Generator.kind, Protocol.parse_request r.Generator.line) with
         | Generator.Malformed, Error _ -> ()
         | Generator.Malformed, Ok _ ->
             Alcotest.failf "malformed frame parsed: %s" (String.escaped r.Generator.line)
         | _, Ok _ -> ()
         | kind, Error _ ->
             Alcotest.failf "%s frame rejected: %s" (Generator.kind_label kind)
               (String.escaped r.Generator.line)))
    plan.Generator.streams;
  Alcotest.(check bool) "the mix produced malformed frames" true
    (Generator.count_kind plan Generator.Malformed > 0)

(* ------------------------------------------------------------------ *)
(* Expected bytes are the CLI bytes                                    *)
(* ------------------------------------------------------------------ *)

let test_expected_matches_cli () =
  (* Build a payload whose spec name matches what the CLI derives from
     the file basename, then compare the generator's precomputed
     response text with the binary's actual output. *)
  let csv = (List.hd (Lazy.force payloads)).Generator.csv in
  let path = Test_service.write_temp_csv "load_identity" csv in
  let spec = Filename.remove_extension (Filename.basename path) in
  let plan =
    Generator.plan
      ~mix:{ Generator.v1 = 1; v2 = 0; workload = 0; confidence = 0; malformed = 0 }
      ~payloads:[ { Generator.spec_name = spec; csv } ]
      ~machine:opteron1s ~target ~base ~seed:1 ~clients:1 ~requests_per_client:1 ()
  in
  let request = plan.Generator.streams.(0).(0) in
  Alcotest.(check string) "generator expectation is the CLI text"
    (Test_service.cli_predict path)
    (Test_service.response_text request.Generator.expected);
  Sys.remove path;
  (* A workload-by-name request: the server collects the series itself,
     so the expectation must be what `estima_cli predict kmeans` prints. *)
  let by_name =
    Generator.plan
      ~mix:{ Generator.v1 = 0; v2 = 0; workload = 1; confidence = 0; malformed = 0 }
      ~workloads:[ "kmeans" ] ~payloads:[] ~machine:opteron1s ~target ~base ~seed:1 ~clients:1
      ~requests_per_client:1 ()
  in
  Alcotest.(check string) "workload expectation is the CLI text"
    (Test_service.cli_stdout [ "predict"; "kmeans" ])
    (Test_service.response_text by_name.Generator.streams.(0).(0).Generator.expected)

(* ------------------------------------------------------------------ *)
(* Driver determinism across runs and --jobs                           *)
(* ------------------------------------------------------------------ *)

(* The report's JSON without its timing members: what two runs of one
   plan must agree on byte for byte. *)
let deterministic_summary plan outcome =
  match Estima_json.Json.parse (Report.to_json plan outcome) with
  | Ok (Estima_json.Json.Obj members) ->
      Estima_json.Json.to_string
        (Estima_json.Json.Obj
           (List.filter
              (fun (k, _) -> not (List.mem k [ "elapsed_s"; "throughput_rps"; "latency" ]))
              members))
  | _ -> Alcotest.fail "load report is not a JSON object"

let test_driver_deterministic_across_jobs () =
  let plan = quick_plan () in
  let play jobs =
    let argv = [| Test_service.serve_exe; "--jobs"; string_of_int jobs |] in
    Driver.run ~timeout_s:60.0 (Driver.Stdio argv) plan
  in
  let o1 = play 1 in
  Alcotest.(check bool) "jobs 1 clean" true (Driver.clean o1);
  let summary = deterministic_summary plan o1 in
  (* Across runs: same plan, same server, same aggregates. *)
  Alcotest.(check string) "stable across runs" summary
    (deterministic_summary plan (play 1));
  (* Across --jobs: parallel dispatch must not change a single byte. *)
  let o4 = play 4 in
  Alcotest.(check bool) "jobs 4 clean" true (Driver.clean o4);
  Alcotest.(check string) "stable across jobs" summary (deterministic_summary plan o4)

(* ------------------------------------------------------------------ *)
(* Spawning a server that fails to start                               *)
(* ------------------------------------------------------------------ *)

(* A server that exits before listening, or that cannot be started at
   all, leaves no captured-stderr file behind in the temporary
   directory. *)
let test_failed_spawn_leaves_no_temp_file () =
  let dir = Filename.temp_dir "estima_spawn_" "" in
  let previous = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name dir;
  Fun.protect
    ~finally:(fun () -> Filename.set_temp_dir_name previous)
    (fun () ->
      List.iter
        (fun exe ->
          match Driver.spawn_tcp_server ~exe () with
          | server ->
              Driver.stop_server server;
              Alcotest.failf "%s reported listening" exe
          | exception (Failure _ | Unix.Unix_error _) -> ())
        [ "/bin/false"; Filename.concat dir "no-such-server" ]);
  let left = Sys.readdir dir in
  Array.iter (fun name -> Sys.remove (Filename.concat dir name)) left;
  Sys.rmdir dir;
  Alcotest.(check (array string)) "files left in the temporary directory" [||] left

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    q test_fuzz_parse_request;
    q test_fuzz_server_jobs1;
    q test_fuzz_server_jobs4;
    ("generator is deterministic", `Quick, test_generator_deterministic);
    ("malformed frames never parse", `Quick, test_malformed_frames_rejected);
    ("expected bytes are the CLI bytes", `Slow, test_expected_matches_cli);
    ("driver aggregates stable across runs and jobs", `Slow, test_driver_deterministic_across_jobs);
    ("a failed server spawn leaves no temporary file", `Quick, test_failed_spawn_leaves_no_temp_file);
  ]
