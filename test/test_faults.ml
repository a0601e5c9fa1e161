(* The fault-injection harness: proves the serving path survives
   anything a client (or the pipeline itself) throws at it.

   In-process, the Server fault hook drives the three injected failure
   modes — predict raising, stalling, returning garbage — and asserts
   per-request isolation: the offending request gets a typed [internal]
   error (exit code 5), every other response is byte-identical to an
   unfaulted server's, and the server, pool and cache remain fully
   usable afterwards.

   End to end, the real binary is driven through both transports with
   `--inject-fault`: a poisoned request among healthy ones, an
   oversized no-newline frame, a mid-batch client hangup, an
   unterminated final line at EOF, a connection-cap breach, a shutdown
   arriving while another connection's request is in flight (the
   drain), and a shutdown while a peer has stopped reading — healthy
   responses always byte-identical to `estima_cli predict --from` on
   the same CSV. *)

open Estima_service

(* Helpers shared with the service suite (test_service has no mli). *)
let collect_csv = Test_service.collect_csv

let response_text = Test_service.response_text

let error_cause = Test_service.error_cause

let counter_value = Test_service.counter_value

let cli_predict = Test_service.cli_predict

let write_temp_csv = Test_service.write_temp_csv

let serve_exe = Test_service.serve_exe

let contains = Test_service.contains

let with_server = Test_service.with_server

let line ~id ~spec csv =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("op", Json.String "predict");
         ("csv", Json.String csv);
         ("spec", Json.String spec);
       ])

let check_internal what response =
  (match error_cause response with
  | Some ("internal", 5) -> ()
  | Some (c, n) -> Alcotest.failf "%s: expected internal/5, got %s/%d" what c n
  | None -> Alcotest.failf "%s: expected internal/5, got ok" what);
  match Json.parse response with
  | Ok json ->
      let msg =
        Option.get
          (Option.bind
             (Option.bind (Json.member "error" json) (Json.member "message"))
             Json.to_string_opt)
      in
      Alcotest.(check bool)
        (what ^ ": message names the exception") true
        (contains ~sub:"internal error" msg)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* In-process: the Server fault hook                                   *)
(* ------------------------------------------------------------------ *)

let test_poisoned_request_is_isolated () =
  let csv = collect_csv "kmeans" in
  let batch =
    [ line ~id:1 ~spec:"healthy-a" csv; line ~id:2 ~spec:"poisoned" csv; line ~id:3 ~spec:"healthy-b" csv ]
  in
  (* Ground truth from a server that never faults. *)
  let clean = with_server ~jobs:2 (fun server -> fst (Server.handle_batch server batch)) in
  with_server ~jobs:2 (fun server ->
      Server.inject_fault server ~spec:"poisoned" (Server.Fault_raise "kaboom");
      let responses, verdict = Server.handle_batch server batch in
      Alcotest.(check bool) "continue" true (verdict = `Continue);
      (match responses with
      | [ a; b; c ] ->
          Alcotest.(check string) "healthy-a byte-identical" (List.nth clean 0) a;
          check_internal "poisoned" b;
          Alcotest.(check bool) "message carries the payload" true (contains ~sub:"kaboom" b);
          Alcotest.(check string) "healthy-b byte-identical" (List.nth clean 2) c
      | _ -> Alcotest.fail "expected three responses");
      Alcotest.(check int) "one internal error counted" 1
        (counter_value server "estima_internal_errors_total");
      (* The server, pool and cache are fully usable afterwards: the
         healthy payloads hit the cache, and once the fault is cleared
         the poisoned key computes normally (nothing bad was cached). *)
      let again, _ = Server.handle_batch server batch in
      Alcotest.(check string) "healthy-a still served" (List.nth clean 0) (List.nth again 0);
      check_internal "still poisoned" (List.nth again 1);
      Alcotest.(check bool) "healthy responses were cache hits" true
        (counter_value server "estima_cache_hits_total" >= 2);
      Server.clear_faults server;
      let healed, _ = Server.handle_batch server [ line ~id:2 ~spec:"poisoned" csv ] in
      Alcotest.(check string) "cleared fault serves normally" (List.nth clean 1)
        (List.hd healed))

let test_delay_fault_still_answers () =
  let csv = collect_csv "kmeans" in
  let batch = [ line ~id:1 ~spec:"slow" csv ] in
  let clean = with_server (fun server -> fst (Server.handle_batch server batch)) in
  with_server (fun server ->
      Server.inject_fault server ~spec:"slow" (Server.Fault_delay 0.02);
      let t0 = Unix.gettimeofday () in
      let responses, _ = Server.handle_batch server batch in
      Alcotest.(check bool) "the delay was taken" true (Unix.gettimeofday () -. t0 >= 0.02);
      Alcotest.(check string) "delayed but correct" (List.hd clean) (List.hd responses))

let test_garbage_fault_never_cached () =
  let csv = collect_csv "kmeans" in
  let garbled = line ~id:1 ~spec:"garbled" csv and healthy = line ~id:2 ~spec:"healthy" csv in
  let clean =
    with_server (fun server -> fst (Server.handle_batch server [ garbled; healthy ]))
  in
  with_server (fun server ->
      Server.inject_fault server ~spec:"garbled" Server.Fault_garbage;
      let responses, _ = Server.handle_batch server [ garbled; healthy ] in
      (match responses with
      | [ g; h ] ->
          Alcotest.(check bool) "garbage still ok:true" true (error_cause g = None);
          Alcotest.(check bool) "garbage differs from the real answer" true
            (g <> List.nth clean 0);
          Alcotest.(check string) "healthy neighbour untouched" (List.nth clean 1) h
      | _ -> Alcotest.fail "expected two responses");
      (* The garbage never reached the cache: after clearing the fault
         the same request computes — and serves — the real bytes. *)
      Server.clear_faults server;
      let healed, _ = Server.handle_batch server [ garbled ] in
      Alcotest.(check string) "post-fault bytes are the real answer" (List.nth clean 0)
        (List.hd healed))

(* ------------------------------------------------------------------ *)
(* End to end over stdio                                               *)
(* ------------------------------------------------------------------ *)

let spawn_serve = Test_service.spawn_serve

let test_stdio_fault_injection () =
  let csv_a = collect_csv "kmeans" and csv_b = collect_csv "genome" in
  let path_a = write_temp_csv "faults_a" csv_a and path_b = write_temp_csv "faults_b" csv_b in
  let spec_of path = Filename.remove_extension (Filename.basename path) in
  let expected_a = cli_predict path_a and expected_b = cli_predict path_b in
  let pid, to_server, from_server =
    spawn_serve
      [ "--jobs"; "2"; "--max-buffer"; "8192"; "--inject-fault"; "poisoned:raise:kaboom" ]
  in
  (* One pipelined batch: healthy, poisoned, healthy. *)
  output_string to_server
    (String.concat "\n"
       [
         line ~id:1 ~spec:(spec_of path_a) csv_a;
         line ~id:2 ~spec:"poisoned" csv_a;
         line ~id:3 ~spec:(spec_of path_b) csv_b;
       ]
    ^ "\n");
  flush to_server;
  Alcotest.(check string) "healthy before the poison matches the CLI" expected_a
    (response_text (input_line from_server));
  let poisoned = input_line from_server in
  check_internal "poisoned over stdio" poisoned;
  Alcotest.(check bool) "poison payload in message" true (contains ~sub:"kaboom" poisoned);
  Alcotest.(check string) "healthy after the poison matches the CLI" expected_b
    (response_text (input_line from_server));
  (* An oversized no-newline frame is shed with a typed error... *)
  output_string to_server (String.make 9000 'x');
  flush to_server;
  (match error_cause (input_line from_server) with
  | Some ("frame-too-large", 2) -> ()
  | other ->
      Alcotest.failf "expected frame-too-large/2, got %s"
        (match other with Some (c, n) -> Printf.sprintf "%s/%d" c n | None -> "ok"));
  (* ...and the next newline resynchronises the stream: the very same
     session keeps serving, byte-identical. *)
  output_string to_server ("\n" ^ line ~id:4 ~spec:(spec_of path_a) csv_a ^ "\n");
  flush to_server;
  Alcotest.(check string) "served after the shed frame" expected_a
    (response_text (input_line from_server));
  (* Metrics prove the counts; the dump arrives in a later batch so the
     internal error of the first one is visible. *)
  output_string to_server "{\"id\":5,\"op\":\"metrics\"}\n";
  flush to_server;
  let dump =
    match Json.parse (input_line from_server) with
    | Ok json -> Option.get (Option.bind (Json.member "metrics" json) Json.to_string_opt)
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "internal errors counted" true
    (contains ~sub:"counter estima_internal_errors_total 1" dump);
  Alcotest.(check bool) "shed frames counted" true
    (contains ~sub:"counter estima_frame_too_large_total 1" dump);
  (* Wire order: a chunk carrying a valid request followed by an
     oversized unterminated residual answers the request first, then
     sheds — positional clients see responses in arrival order. *)
  output_string to_server (line ~id:7 ~spec:(spec_of path_a) csv_a ^ "\n" ^ String.make 9000 'y');
  flush to_server;
  Alcotest.(check string) "request before the oversized residual answered first" expected_a
    (response_text (input_line from_server));
  (match error_cause (input_line from_server) with
  | Some ("frame-too-large", 2) -> ()
  | _ -> Alcotest.fail "expected frame-too-large after the response");
  (* Resynchronise the discarded stream before the final exchange. *)
  output_string to_server "\n";
  (* Satellite: a final line the client never terminated is still a
     request — shutdown without a trailing newline, then EOF. *)
  output_string to_server "{\"id\":6,\"op\":\"shutdown\"}";
  flush to_server;
  close_out to_server;
  (match Json.parse (input_line from_server) with
  | Ok json ->
      Alcotest.(check (option bool)) "unterminated shutdown answered" (Some true)
        Json.(member "bye" json |> Option.map (function Bool b -> b | _ -> false))
  | Error e -> Alcotest.fail e);
  close_in from_server;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "estima_serve did not exit cleanly");
  Sys.remove path_a;
  Sys.remove path_b

(* ------------------------------------------------------------------ *)
(* End to end over the socket                                          *)
(* ------------------------------------------------------------------ *)

let start_socket_serve extra_args =
  let socket_path = Filename.temp_file "estima_faults_" ".sock" in
  Sys.remove socket_path;
  let args = Array.of_list ((serve_exe :: "--socket" :: socket_path :: extra_args)) in
  let pid = Unix.create_process serve_exe args Unix.stdin Unix.stdout Unix.stderr in
  let rec await tries =
    if Sys.file_exists socket_path then ()
    else if tries = 0 then Alcotest.fail "socket never appeared"
    else begin
      Unix.sleepf 0.05;
      await (tries - 1)
    end
  in
  await 100;
  (pid, socket_path)

let connect socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  (fd, Unix.out_channel_of_descr fd, Unix.in_channel_of_descr fd)

let test_socket_fault_injection () =
  let csv = collect_csv "kmeans" in
  let path = write_temp_csv "faults_sock" csv in
  let spec = Filename.remove_extension (Filename.basename path) in
  let expected = cli_predict path in
  let pid, socket_path =
    start_socket_serve
      [
        "--jobs"; "2"; "--max-buffer"; "8192";
        "--inject-fault"; "poisoned:raise";
        "--inject-fault"; "slow:delay:0.5";
      ]
  in
  (* A poisoned request among healthy ones, over one connection. *)
  let fd1, oc1, ic1 = connect socket_path in
  output_string oc1
    (String.concat "\n"
       [ line ~id:1 ~spec csv; line ~id:2 ~spec:"poisoned" csv; line ~id:3 ~spec csv ]
    ^ "\n");
  flush oc1;
  Alcotest.(check string) "healthy matches the CLI" expected (response_text (input_line ic1));
  check_internal "poisoned over socket" (input_line ic1);
  Alcotest.(check string) "healthy after poison matches the CLI" expected
    (response_text (input_line ic1));
  (* An oversized frame on this connection is shed, the connection
     survives and resynchronises. *)
  output_string oc1 (String.make 9000 'x');
  flush oc1;
  (match error_cause (input_line ic1) with
  | Some ("frame-too-large", 2) -> ()
  | _ -> Alcotest.fail "expected frame-too-large");
  output_string oc1 ("\n" ^ line ~id:4 ~spec csv ^ "\n");
  flush oc1;
  Alcotest.(check string) "served after the shed frame" expected
    (response_text (input_line ic1));
  Unix.close fd1;
  (* Mid-batch client hangup: send a request and vanish without
     reading.  The server's write hits a dead peer (EPIPE) and must
     shrug it off. *)
  let fd2, oc2, _ = connect socket_path in
  output_string oc2 (line ~id:10 ~spec csv ^ "\n");
  flush oc2;
  Unix.close fd2;
  Unix.sleepf 0.2;
  (* ...proof: the next client is served as if nothing happened. *)
  let fd3, oc3, ic3 = connect socket_path in
  output_string oc3 (line ~id:11 ~spec csv ^ "\n");
  flush oc3;
  Alcotest.(check string) "served after a hangup" expected (response_text (input_line ic3));
  (* Satellite: EOF flush on the socket path — an unterminated final
     line followed by a write-side shutdown is still answered. *)
  output_string oc3 (line ~id:12 ~spec csv);
  flush oc3;
  Unix.shutdown fd3 Unix.SHUTDOWN_SEND;
  Alcotest.(check string) "unterminated final line answered" expected
    (response_text (input_line ic3));
  Unix.close fd3;
  (* Write-after-close regression: one peer sends a valid request plus
     an oversized unterminated frame in the same chunk and hangs up
     without reading.  The response write can hit the dead peer (EPIPE)
     and close the connection; the shed error that follows must then be
     dropped, not written to the closed fd — the server survives
     whichever way the race lands. *)
  let fd4, oc4, _ = connect socket_path in
  output_string oc4 (line ~id:13 ~spec csv ^ "\n" ^ String.make 9000 'x');
  flush oc4;
  Unix.close fd4;
  Unix.sleepf 0.2;
  let fd5, oc5, ic5 = connect socket_path in
  output_string oc5 (line ~id:14 ~spec csv ^ "\n");
  flush oc5;
  Alcotest.(check string) "served after a mid-shed hangup" expected
    (response_text (input_line ic5));
  Unix.close fd5;
  (* Shutdown during drain: connection A's request lands while the
     server is busy with connection B's batch (a delayed predict
     followed by shutdown).  The drain must still answer A before the
     listener goes away. *)
  let fd_a, oc_a, ic_a = connect socket_path in
  let fd_b, oc_b, ic_b = connect socket_path in
  output_string oc_b (line ~id:20 ~spec:"slow" csv ^ "\n{\"id\":21,\"op\":\"shutdown\"}\n");
  flush oc_b;
  Unix.sleepf 0.15;
  (* The server is inside B's batch now (0.5 s delay); A's request goes
     into the kernel buffer and is only seen by the drain sweep. *)
  output_string oc_a (line ~id:22 ~spec csv ^ "\n");
  flush oc_a;
  Alcotest.(check bool) "B's delayed predict answered" true
    (error_cause (input_line ic_b) = None);
  (match Json.parse (input_line ic_b) with
  | Ok json ->
      Alcotest.(check (option bool)) "B's shutdown acknowledged" (Some true)
        Json.(member "bye" json |> Option.map (function Bool b -> b | _ -> false))
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "A answered by the drain" expected (response_text (input_line ic_a));
  Unix.close fd_a;
  Unix.close fd_b;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "estima_serve did not exit cleanly");
  Sys.remove path

(* The drain gives up on a stalled reader.  A pipelines 1 000 predicts
   whose 2 MB of responses are far more than the kernel's socket buffers
   hold, and never reads; B's shutdown must still be answered, and the
   server must exit 0 once the drain's 5 s deadline has passed.  A server
   that blocks in a write to A never reads B's shutdown: the test then
   kills it. *)
let test_socket_drain_gives_up_on_stalled_reader () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = write_temp_csv "faults_stall" (collect_csv "kmeans") in
  let pid, socket_path = start_socket_serve [] in
  let fd_a, oc_a, _ = connect socket_path in
  let fd_b, oc_b, ic_b = connect socket_path in
  Fun.protect
    ~finally:(fun () ->
      Test_service.kill_if_running pid;
      (try Sys.remove socket_path with Sys_error _ -> ());
      Unix.close fd_a;
      Unix.close fd_b;
      Sys.remove path)
    (fun () ->
      (* 70 KB of requests: the socket buffer takes them all at once. *)
      for id = 1 to 1000 do
        output_string oc_a
          (Json.to_string
             (Json.Obj
                [ ("id", Json.Int id); ("op", Json.String "predict"); ("file", Json.String path) ])
          ^ "\n")
      done;
      flush oc_a;
      Unix.sleepf 0.5;
      output_string oc_b "{\"id\":0,\"op\":\"shutdown\"}\n";
      flush oc_b;
      (match Unix.select [ fd_b ] [] [] 10.0 with
      | [], _, _ -> Alcotest.fail "B's shutdown was not answered within 10 s"
      | _ -> ());
      (match Json.parse (input_line ic_b) with
      | Ok json ->
          Alcotest.(check (option bool)) "B's shutdown acknowledged" (Some true)
            Json.(member "bye" json |> Option.map (function Bool b -> b | _ -> false))
      | Error e -> Alcotest.fail e);
      let deadline = Estima_obs.Clock.now_s () +. 10.0 in
      let rec await () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Estima_obs.Clock.now_s () < deadline ->
            Unix.sleepf 0.1;
            await ()
        | 0, _ -> Alcotest.fail "the server was still draining 10 s after the shutdown"
        | _, Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "estima_serve did not exit cleanly"
      in
      await ())

let test_socket_connection_cap () =
  let csv = collect_csv "kmeans" in
  let path = write_temp_csv "faults_cap" csv in
  let spec = Filename.remove_extension (Filename.basename path) in
  let expected = cli_predict path in
  let pid, socket_path = start_socket_serve [ "--max-conns"; "2" ] in
  let fd1, _, _ = connect socket_path in
  let fd2, _, _ = connect socket_path in
  Unix.sleepf 0.2;
  (* Two established connections fill the cap: the third is answered
     with one typed overloaded line and closed. *)
  let fd3, _, ic3 = connect socket_path in
  (match error_cause (input_line ic3) with
  | Some ("overloaded", 4) -> ()
  | other ->
      Alcotest.failf "expected overloaded/4, got %s"
        (match other with Some (c, n) -> Printf.sprintf "%s/%d" c n | None -> "ok"));
  (match input_line ic3 with
  | _ -> Alcotest.fail "refused connection stayed open"
  | exception End_of_file -> ());
  Unix.close fd3;
  (* Freeing a slot readmits newcomers, who are served normally. *)
  Unix.close fd1;
  Unix.sleepf 0.2;
  let fd4, oc4, ic4 = connect socket_path in
  output_string oc4 (line ~id:1 ~spec csv ^ "\n");
  flush oc4;
  Alcotest.(check string) "served after a slot freed" expected (response_text (input_line ic4));
  output_string oc4 "{\"id\":2,\"op\":\"shutdown\"}\n";
  flush oc4;
  ignore (input_line ic4);
  Unix.close fd4;
  Unix.close fd2;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "estima_serve did not exit cleanly");
  Sys.remove path

let suite =
  [
    ("poisoned request is isolated (in-process)", `Quick, test_poisoned_request_is_isolated);
    ("delay fault still answers correctly", `Quick, test_delay_fault_still_answers);
    ("garbage fault never reaches the cache", `Quick, test_garbage_fault_never_cached);
    ("faults through stdio: poison, oversized frame, EOF flush", `Slow, test_stdio_fault_injection);
    ("faults through the socket: poison, hangup, drain", `Slow, test_socket_fault_injection);
    ("socket connection cap", `Slow, test_socket_connection_cap);
    ("socket drain gives up on a stalled reader", `Slow,
      test_socket_drain_gives_up_on_stalled_reader);
  ]
