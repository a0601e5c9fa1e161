(* End-to-end tests of the TCP transport: every invariant the Unix
   socket listener proves in test_faults holds over `estima_serve --tcp`
   too — same select loop, same buffer cap, shed, connection cap and
   drain — plus a peer that stops reading, and the TCP-only mechanics:
   a kernel-assigned port reported on stderr, and byte-identical
   responses to `estima_cli predict --from` across concurrent
   connections. *)

open Estima_service
module Driver = Estima_load.Driver

let collect_csv = Test_service.collect_csv

let response_text = Test_service.response_text

let error_cause = Test_service.error_cause

let cli_predict = Test_service.cli_predict

let write_temp_csv = Test_service.write_temp_csv

let line ~id ~spec csv =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("op", Json.String "predict");
         ("csv", Json.String csv);
         ("spec", Json.String spec);
       ])

(* Spawn `estima_serve --tcp 127.0.0.1:0 <args>` and learn the
   kernel-assigned port from the stderr line — the discovery protocol
   itself is under test here. *)
let start_tcp_serve extra_args =
  Driver.spawn_tcp_server ~exe:Test_service.serve_exe ~args:extra_args ()

let connect (server : Driver.server) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string server.Driver.host, server.Driver.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (fd, Unix.out_channel_of_descr fd, Unix.in_channel_of_descr fd)

let wait_exit (server : Driver.server) =
  match Unix.waitpid [] server.Driver.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "estima_serve did not exit cleanly"

let test_tcp_faults () =
  let csv = collect_csv "kmeans" in
  let path = write_temp_csv "tcp" csv in
  let spec = Filename.remove_extension (Filename.basename path) in
  let expected = cli_predict path in
  let server =
    start_tcp_serve
      [
        "--jobs"; "2"; "--max-buffer"; "8192";
        "--inject-fault"; "poisoned:raise:kaboom";
        "--inject-fault"; "slow:delay:0.5";
      ]
  in
  (* A poisoned request among healthy ones, over one connection:
     per-request isolation, healthy bytes identical to the CLI. *)
  let fd1, oc1, ic1 = connect server in
  output_string oc1
    (String.concat "\n"
       [ line ~id:1 ~spec csv; line ~id:2 ~spec:"poisoned" csv; line ~id:3 ~spec csv ]
    ^ "\n");
  flush oc1;
  Alcotest.(check string) "healthy matches the CLI" expected (response_text (input_line ic1));
  (match error_cause (input_line ic1) with
  | Some ("internal", 5) -> ()
  | other ->
      Alcotest.failf "expected internal/5, got %s"
        (match other with Some (c, n) -> Printf.sprintf "%s/%d" c n | None -> "ok"));
  Alcotest.(check string) "healthy after poison matches the CLI" expected
    (response_text (input_line ic1));
  (* An oversized no-newline frame is shed with a typed error and the
     connection resynchronises at the next newline. *)
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
  (* Mid-batch client hangup: send and vanish without reading; the
     server's write hits a dead peer and must shrug it off. *)
  let fd2, oc2, _ = connect server in
  output_string oc2 (line ~id:10 ~spec csv ^ "\n");
  flush oc2;
  Unix.close fd2;
  Unix.sleepf 0.2;
  let fd3, oc3, ic3 = connect server in
  output_string oc3 (line ~id:11 ~spec csv ^ "\n");
  flush oc3;
  Alcotest.(check string) "served after a hangup" expected (response_text (input_line ic3));
  (* EOF flush: an unterminated final line followed by a write-side
     shutdown is still answered (TCP half-close). *)
  output_string oc3 (line ~id:12 ~spec csv);
  flush oc3;
  Unix.shutdown fd3 Unix.SHUTDOWN_SEND;
  Alcotest.(check string) "unterminated final line answered" expected
    (response_text (input_line ic3));
  Unix.close fd3;
  (* Shutdown during drain: connection A's request lands while the
     server is busy with B's delayed batch ending in shutdown; the
     drain must answer A before the listener goes away. *)
  let fd_a, oc_a, ic_a = connect server in
  let fd_b, oc_b, ic_b = connect server in
  output_string oc_b (line ~id:20 ~spec:"slow" csv ^ "\n{\"id\":21,\"op\":\"shutdown\"}\n");
  flush oc_b;
  Unix.sleepf 0.15;
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
  wait_exit server;
  Sys.remove path

let test_tcp_connection_cap () =
  let csv = collect_csv "kmeans" in
  let path = write_temp_csv "tcp_cap" csv in
  let spec = Filename.remove_extension (Filename.basename path) in
  let expected = cli_predict path in
  let server = start_tcp_serve [ "--max-conns"; "2" ] in
  let fd1, _, _ = connect server in
  let fd2, _, _ = connect server in
  Unix.sleepf 0.2;
  (* The third concurrent connection is answered with one typed
     overloaded line and closed. *)
  let fd3, _, ic3 = connect server in
  (match error_cause (input_line ic3) with
  | Some ("overloaded", 4) -> ()
  | other ->
      Alcotest.failf "expected overloaded/4, got %s"
        (match other with Some (c, n) -> Printf.sprintf "%s/%d" c n | None -> "ok"));
  (match input_line ic3 with
  | _ -> Alcotest.fail "refused connection stayed open"
  | exception End_of_file -> ());
  Unix.close fd3;
  (* Freeing a slot readmits newcomers. *)
  Unix.close fd1;
  Unix.sleepf 0.2;
  let fd4, oc4, ic4 = connect server in
  output_string oc4 (line ~id:1 ~spec csv ^ "\n");
  flush oc4;
  Alcotest.(check string) "served after a slot freed" expected (response_text (input_line ic4));
  output_string oc4 "{\"id\":2,\"op\":\"shutdown\"}\n";
  flush oc4;
  ignore (input_line ic4);
  Unix.close fd4;
  Unix.close fd2;
  wait_exit server;
  Sys.remove path

let response_id response =
  match Json.parse response with
  | Ok json -> Option.bind (Json.member "id" json) Json.to_int_opt
  | Error e -> Alcotest.fail e

(* A peer that pipelines and never reads holds back only itself.  A's
   receive buffer is 4 KB and its 3 000 responses (about 2 KB each) are
   more than the server's send buffer holds, so they pile up in the
   server; B, connected meanwhile, must still be answered at once.  A
   then reads and must get every response, in order.  A server that
   blocks in a write to A never answers B: the test then kills it, which
   also frees A's writer domain. *)
let test_tcp_slow_reader_holds_back_only_itself () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let csv = collect_csv "kmeans" in
  let path = write_temp_csv "tcp_slow" csv in
  let spec = Filename.remove_extension (Filename.basename path) in
  let expected = cli_predict path in
  let server = start_tcp_serve [] in
  let fd_a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int fd_a Unix.SO_RCVBUF 4096;
  Unix.connect fd_a
    (Unix.ADDR_INET (Unix.inet_addr_of_string server.Driver.host, server.Driver.port));
  let requests = 3000 and written = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        try
          for id = 1 to requests do
            let frame = line ~id ~spec csv ^ "\n" in
            let rec go off =
              if off < String.length frame then
                go (off + Unix.write_substring fd_a frame off (String.length frame - off))
            in
            go 0;
            Atomic.incr written
          done;
          Unix.shutdown fd_a Unix.SHUTDOWN_SEND
        with Unix.Unix_error _ -> ())
  in
  let fd_b, oc_b, ic_b = connect server in
  Fun.protect
    ~finally:(fun () ->
      Test_service.kill_if_running server.Driver.pid;
      Domain.join writer;
      Unix.close fd_a;
      Unix.close fd_b;
      Sys.remove path)
    (fun () ->
      (* B asks once A's writer has stopped making progress: either all
         of A's requests are in, or the server has stopped reading A. *)
      let rec settle last =
        Unix.sleepf 0.25;
        let now = Atomic.get written in
        if now <> last then settle now
      in
      settle (-1);
      output_string oc_b (line ~id:0 ~spec csv ^ "\n");
      flush oc_b;
      (match Unix.select [ fd_b ] [] [] 5.0 with
      | [], _, _ -> Alcotest.fail "B was not answered within 5 s while A was not reading"
      | _ -> ());
      Alcotest.(check string) "B matches the CLI" expected (response_text (input_line ic_b));
      let ic_a = Unix.in_channel_of_descr fd_a in
      for id = 1 to requests do
        let response = input_line ic_a in
        if response_id response <> Some id || response_text response <> expected then
          Alcotest.failf "A's response %d is not the CLI text for request %d" id id
      done;
      (match input_line ic_a with
      | _ -> Alcotest.fail "A got more responses than requests"
      | exception End_of_file -> ());
      output_string oc_b "{\"id\":1,\"op\":\"shutdown\"}\n";
      flush oc_b;
      ignore (input_line ic_b);
      wait_exit server)

let test_tcp_mutual_exclusion () =
  (* --socket and --tcp together must be refused up front. *)
  let code =
    Sys.command
      (Filename.quote_command Test_service.serve_exe
         [ "--socket"; "/tmp/x.sock"; "--tcp"; "127.0.0.1:0" ]
      ^ " 2>/dev/null")
  in
  Alcotest.(check int) "exit 1" 1 code

let test_tcp_load_soak () =
  (* The load harness against the TCP transport: a seeded plan with
     malformed frames mixed in, two concurrent clients, byte-exact
     verification, graceful shutdown afterwards. *)
  let machine =
    Estima_machine.Machines.restrict_sockets Estima_machine.Machines.opteron48 ~sockets:1
  in
  let target = Estima_machine.Machines.opteron48 in
  let base = Estima.Config.make ~measured_on:machine ~target () in
  let csv = collect_csv "kmeans" in
  let payloads = [ { Estima_load.Generator.spec_name = "kmeans"; csv } ] in
  let plan =
    Estima_load.Generator.plan
      ~mix:{ Estima_load.Generator.v1 = 4; v2 = 2; workload = 0; confidence = 0; malformed = 2 }
      ~payloads ~machine ~target ~base ~seed:11 ~clients:2 ~requests_per_client:10 ()
  in
  let server = start_tcp_serve [ "--jobs"; "2" ] in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Driver.stop_server server)
      (fun () ->
        Driver.run ~timeout_s:60.0
          (Driver.Tcp { host = server.Driver.host; port = server.Driver.port })
          plan)
  in
  let report = Estima_load.Report.make plan outcome in
  if not (Estima_load.Report.clean report) then
    Alcotest.failf "unclean TCP soak:\n%s" (Estima_load.Report.to_text report)

let suite =
  [
    ("tcp: poison, shed, hangup, EOF flush, drain", `Slow, test_tcp_faults);
    ("tcp: connection cap", `Slow, test_tcp_connection_cap);
    ("tcp: a peer that never reads holds back only itself", `Slow,
      test_tcp_slow_reader_holds_back_only_itself);
    ("tcp: --socket/--tcp mutually exclusive", `Quick, test_tcp_mutual_exclusion);
    ("tcp: byte-exact load soak", `Slow, test_tcp_load_soak);
  ]
