(* Exit-code audit: every documented failure class, end-to-end.

   The contract (README, `estima_cli predict` manpage, Diag.exit_code):
   2 = malformed input or configuration, 3 = well-formed input but no
   realistic fit, 4 = transient service condition (overload / deadline,
   on the wire only — the serving process survives), 5 = internal error
   (also wire-only).  The CLI cases drive the real `estima_cli` binary
   and assert the process status; the serve cases drive the real
   `estima_serve` binary over stdio (or `Server.handle_batch`
   in-process where determinism demands it) and assert the `exit_code`
   member of the typed error response, plus that the process itself
   still exits 0. *)

open Estima_machine
open Estima_service

let bin_exe = Test_service.bin_exe

let cli_exe = Test_service.cli_exe

let serve_exe = Test_service.serve_exe

let contains = Test_service.contains

let spawn_serve = Test_service.spawn_serve

(* Runs the CLI (or [exe]) with no input, returns (exit code, combined
   stdout+stderr), or stdout alone with [~stderr:false]. *)
let run_cli ?(exe = cli_exe) ?(stderr = true) args =
  let ic =
    Unix.open_process_in
      (Filename.quote_command exe args ^ " < /dev/null " ^ if stderr then "2>&1" else "2>/dev/null")
  in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> Alcotest.failf "%s killed by signal %d" exe n
  in
  (code, Buffer.contents buf)

let check_exit ?exe ~msg ~code ~substring args =
  let got, output = run_cli ?exe args in
  Alcotest.(check int) (msg ^ ": exit code") code got;
  if not (contains ~sub:substring output) then
    Alcotest.failf "%s: output %S does not mention %S" msg output substring

(* A well-formed series in the opteron CSV schema: a cleanly scaling
   time curve over constant per-core stall categories. *)
let benign_csv () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "threads,time_seconds,cycles,useful_cycles,0D2h,0D5h,0D6h,0D7h,0D8h,0D0h,stm-abort,footprint_lines\n";
  for x = 1 to 12 do
    let f = float_of_int x in
    Buffer.add_string buf
      (Printf.sprintf "%d,%.6f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,180000,0,160512\n" x
         (100.0 /. f) (2e6 *. f) (1e6 *. f) (1000.0 *. f) (1000.0 *. f) (1000.0 *. f)
         (1000.0 *. f) (1000.0 *. f))
  done;
  Buffer.contents buf

let write_temp name content =
  let path = Filename.temp_file ("estima_exit_" ^ name ^ "_") ".csv" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

(* ------------------------------------------------------------------ *)
(* The CLI process statuses                                            *)
(* ------------------------------------------------------------------ *)

let test_cli_exit_0 () =
  let path = write_temp "benign" (benign_csv ()) in
  let code, output = run_cli [ "predict"; "--from"; path ] in
  Sys.remove path;
  Alcotest.(check int) "well-formed input exits 0" 0 code;
  Alcotest.(check bool) "prints a verdict" true (contains ~sub:"prediction: the application" output)

let test_cli_exit_2_parse_error () =
  check_exit ~msg:"malformed CSV" ~code:2 ~substring:"is not an integer"
    [ "predict"; "--from"; "data/malformed.csv" ]

let test_cli_exit_2_bad_window () =
  (* An out-of-range measurement window used to escape as an
     Invalid_argument from the allocator, and a repetition count below 1
     as one from the collector; each must be a typed Bad_config (exit 2)
     from Api.validate_window or Api.validate_repetitions on every
     subcommand that collects. *)
  check_exit ~msg:"predict --window beyond the machine" ~code:2
    ~substring:"exceeds the machine's 12 hardware threads"
    [ "predict"; "kmeans"; "--window"; "64" ];
  check_exit ~msg:"collect --window beyond the machine" ~code:2
    ~substring:"exceeds the machine's 12 hardware threads"
    [ "collect"; "kmeans"; "--sockets"; "1"; "--window"; "200" ];
  check_exit ~msg:"non-positive window" ~code:2 ~substring:"need >= 1"
    [ "predict"; "kmeans"; "--window"; "0" ];
  check_exit ~msg:"collect --repetitions 0" ~code:2 ~substring:"repetitions 0 (need >= 1)"
    [ "collect"; "kmeans"; "--repetitions"; "0" ];
  check_exit ~msg:"compare --repetitions 0" ~code:2 ~substring:"repetitions 0 (need >= 1)"
    [ "compare"; "kmeans"; "--repetitions"; "0" ];
  (* A --sockets count the machine does not have raised from
     Machines.restrict_sockets (exit 125); Api.validate_sockets makes it a
     Bad_config naming the machine's socket count. *)
  check_exit ~msg:"predict --sockets beyond the one-socket default" ~code:2
    ~substring:"socket count 2 (the machine has 1 socket)"
    [ "predict"; "--from"; "data/nofit.csv"; "--sockets"; "2" ];
  check_exit ~msg:"collect --sockets beyond the machine" ~code:2
    ~substring:"socket count 9 (the machine has 4 sockets)"
    [ "collect"; "kmeans"; "-w"; "4"; "--repetitions"; "1"; "--sockets"; "9" ];
  check_exit ~msg:"bottleneck --sockets 0" ~code:2
    ~substring:"socket count 0 (the machine has 4 sockets)"
    [ "bottleneck"; "kmeans"; "-w"; "4"; "--repetitions"; "1"; "--sockets"; "0" ];
  (* --from predicts the file as it is: the flags that only shape a
     simulated collection, and a WORKLOAD argument, were accepted and
     ignored (exit 0, identical output).  Each is refused by name. *)
  let path = write_temp "from_flags" (benign_csv ()) in
  List.iter
    (fun (flag, args) ->
      check_exit ~msg:("predict --from with " ^ flag) ~code:2 ~substring:(flag ^ " does not apply")
        ([ "predict"; "--from"; path ] @ args))
    [
      ("--window", [ "--window"; "0" ]);
      ("--window", [ "--window"; "1" ]);
      ("--seed", [ "--seed"; "9" ]);
      ("--repetitions", [ "--repetitions"; "0" ]);
      ("a WORKLOAD argument", [ "kmeans" ]);
    ];
  Sys.remove path

(* estima_serve and estima_load restrict their measurements machine the
   same way; they refuse the count at start-up (exit 1, as for their other
   bad flags) with the same diagnostic. *)
let test_tools_refuse_bad_sockets () =
  List.iter
    (fun exe ->
      let code, output = run_cli ~exe [ "--sockets"; "3" ] in
      Alcotest.(check int) (exe ^ ": exit code") 1 code;
      if not (contains ~sub:"socket count 3 (the machine has 1 socket)" output) then
        Alcotest.failf "%s: output %S does not name the socket count" exe output)
    [ serve_exe; bin_exe "estima_load.exe" ]

let test_cli_exit_2_overflow () =
  (* data/overflow.csv sets one finite time to 1e200, whose square
     overflows: it printed "corr nan" and exited 0. *)
  let code, output = run_cli [ "predict"; "--from"; "data/overflow.csv" ] in
  Alcotest.(check int) "exit code" 2 code;
  List.iter
    (fun sub ->
      if not (contains ~sub output) then Alcotest.failf "output %S does not mention %S" output sub)
    [ "bad value"; "time_seconds at 6 cores" ];
  if contains ~sub:"nan" output then Alcotest.failf "output %S prints nan" output

let test_cli_underflowing_times () =
  (* data/underflow.csv is examples/data/kmeans_opteron.csv with every
     time multiplied by 1e-200: the scaling factor's sums of squares
     underflowed, and it printed "ConstantFactor (corr nan)" and exited 0.
     It now predicts what the file in seconds predicts. *)
  let code, output = run_cli [ "predict"; "--from"; "data/underflow.csv" ] in
  Alcotest.(check int) "exit code" 0 code;
  if contains ~sub:"nan" output then Alcotest.failf "output %S prints nan" output;
  if not (contains ~sub:"factor         ~ Poly25 (corr 0.992)" output) then
    Alcotest.failf "output %S does not fit the factor as the unscaled file does" output;
  (* Each of the 48 rows prints its time with a nonzero digit, not as
     0.00000. *)
  let rows =
    List.filter_map
      (fun line ->
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | cores :: cells when int_of_string_opt cores <> None -> Some cells
        | _ -> None)
      (String.split_on_char '\n' output)
  in
  Alcotest.(check int) "rows" 48 (List.length rows);
  List.iter
    (fun cells -> if List.mem "0.00000" cells then Alcotest.failf "a row reads 0.00000 in %S" output)
    rows

(* A --confidence count outside 1..1000 is refused before anything is
   printed: --confidence=0 printed the whole point prediction on stdout
   and only then exited 2. *)
let test_cli_bad_resamples_print_nothing () =
  let path = write_temp "resamples" (benign_csv ()) in
  List.iter
    (fun count ->
      let args = [ "predict"; "--from"; path; "--confidence=" ^ count ] in
      check_exit ~msg:("--confidence=" ^ count) ~code:2
        ~substring:(Printf.sprintf "resamples %s (need 1..1000)" count)
        args;
      let code, stdout = run_cli ~stderr:false args in
      Alcotest.(check (pair int string)) ("--confidence=" ^ count ^ ": stdout") (2, "") (code, stdout))
    [ "0"; "1001" ];
  Sys.remove path

let test_cli_exit_3_no_realistic_fit () =
  (* data/nofit.csv poisons one stall category with uniformly negative
     per-core values: every kernel fit, every full-series refit and even
     the last-resort constant-mean fallback sit below the realism
     gate's negativity floor (-0.25 * data magnitude), so the
     extrapolate stage has nothing left to offer. *)
  check_exit ~msg:"no realistic fit" ~code:3 ~substring:"no realistic fit"
    [ "predict"; "--from"; "data/nofit.csv" ]

(* ------------------------------------------------------------------ *)
(* The serve wire statuses                                             *)
(* ------------------------------------------------------------------ *)

let error_code response =
  match Json.parse response with
  | Error e -> Alcotest.failf "unparseable response %s: %s" response e
  | Ok json -> (
      match Json.member "error" json with
      | None -> None
      | Some err ->
          Some
            ( Option.get (Option.bind (Json.member "cause" err) Json.to_string_opt),
              Option.get (Option.bind (Json.member "exit_code" err) Json.to_int_opt) ))

let test_serve_wire_overload_is_4 () =
  (* In-process so the batch boundary is deterministic: four distinct
     requests against a queue of one — one admitted, three shed, each
     shed response carrying cause `overloaded` and exit_code 4. *)
  let opteron1s = Machines.restrict_sockets Machines.opteron48 ~sockets:1 in
  let server =
    Server.create
      {
        (Server.default_config ~machine:opteron1s) with
        Server.target = Some Machines.opteron48;
        queue_capacity = 1;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Estima_par.Fanout.set_jobs None)
    (fun () ->
      let csv = benign_csv () in
      let line id =
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Int id);
               ("op", Json.String "predict");
               ("csv", Json.String csv);
               ("spec", Json.String (Printf.sprintf "spec%d" id));
             ])
      in
      let responses, control = Server.handle_batch server (List.map line [ 1; 2; 3; 4 ]) in
      Alcotest.(check bool) "continue" true (control = `Continue);
      Alcotest.(check int) "four responses" 4 (List.length responses);
      let shed = List.filter_map error_code responses in
      Alcotest.(check int) "three shed" 3 (List.length shed);
      List.iter
        (fun (cause, code) ->
          Alcotest.(check string) "cause" "overloaded" cause;
          Alcotest.(check int) "wire exit_code" 4 code)
        shed)

let test_serve_wire_internal_is_5 () =
  (* The real binary with an armed fault: the poisoned request is served
     a typed `internal` error with exit_code 5, the next request is
     answered normally, and the process still exits 0 on shutdown —
     crash containment exactly as documented. *)
  let csv = benign_csv () in
  let pid, to_server, from_server = spawn_serve [ "--inject-fault"; "boom:raise:kaboom" ] in
  let line ~id ~spec =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Int id);
           ("op", Json.String "predict");
           ("csv", Json.String csv);
           ("spec", Json.String spec);
         ])
  in
  let shutdown = Json.to_string (Json.Obj [ ("id", Json.Int 3); ("op", Json.String "shutdown") ]) in
  output_string to_server
    (line ~id:1 ~spec:"boom" ^ "\n" ^ line ~id:2 ~spec:"fine" ^ "\n" ^ shutdown ^ "\n");
  close_out to_server;
  let responses = ref [] in
  (try
     while true do
       responses := input_line from_server :: !responses
     done
   with End_of_file -> ());
  close_in from_server;
  let status = Unix.waitpid [] pid in
  (match status with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "serve process must exit 0 after an internal error");
  let responses = List.rev !responses in
  Alcotest.(check int) "three responses" 3 (List.length responses);
  (match List.map error_code responses with
  | [ Some (cause, code); None; None ] ->
      Alcotest.(check string) "cause" "internal" cause;
      Alcotest.(check int) "wire exit_code" 5 code
  | _ -> Alcotest.failf "unexpected response shapes: %s" (String.concat " | " responses));
  match Json.parse (List.nth responses 2) with
  | Ok json -> Alcotest.(check bool) "shutdown acked" true (Json.member "bye" json <> None)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* The Diag mapping itself, exhaustively                               *)
(* ------------------------------------------------------------------ *)

let test_diag_exit_code_table () =
  let open Estima.Diag in
  let diag cause = Result.get_error (error ~stage:Serve ~subject:"audit" cause) in
  List.iter
    (fun (expected, cause) -> Alcotest.(check int) (cause_label cause) expected (exit_code (diag cause)))
    [
      (2, Parse_error { file = "f"; line = 1; msg = "m" });
      (2, Short_series { points = 1; needed = 3 });
      (2, Mismatched_lengths { what = "w"; expected = 2; got = 1 });
      (2, Missing_category { category = "c"; threads = 2 });
      (2, Bad_config { what = "w" });
      (2, Bad_value { what = "w"; value = -1.0 });
      (2, Target_below_window { target = 8; window = 12 });
      (2, Frame_too_large { buffered = 9; limit = 8 });
      (3, No_realistic_fit { window = 12 });
      (4, Overloaded { pending = 1; capacity = 1 });
      (4, Deadline_exceeded { waited_ms = 2; timeout_ms = 1 });
      (5, Internal_error { exn = "e"; backtrace = "b" });
    ]

(* estima_load computes its plan for --machine/--sockets/--target and
   starts the servers it spawns with the same machines, so a non-default
   target is answered as planned in both spawning modes: one TCP server,
   or one stdio server per client. *)
let test_load_spawns_servers_for_its_plan () =
  let load = bin_exe "estima_load.exe" in
  List.iter
    (fun mode ->
      let code, output =
        run_cli ~exe:load
          (mode
          @ [ "--target"; "xeon20"; "--payload"; "kmeans"; "--mix"; "1,0,0,0,0"; "--clients"; "1";
              "--requests"; "4"; "--json" ])
      in
      let what = String.concat " " ("estima_load" :: mode) in
      Alcotest.(check int) (what ^ ": exit code") 0 code;
      match Json.parse output with
      | Error e -> Alcotest.failf "%s: output %S: %s" what output e
      | Ok report ->
          let count key = Option.bind (Json.member key report) Json.to_int_opt in
          Alcotest.(check (option int)) (what ^ ": sent") (Some 4) (count "sent");
          Alcotest.(check (option int))
            (what ^ ": matched = sent") (count "sent") (count "matched"))
    [ [ "--spawn-tcp" ]; [] ]

(* estima_serve and estima_load read --tcp with one parser: a port is
   decimal digits in 0..65535, or the address is refused (cmdliner's exit
   124) before anything listens or connects.  Port 0 asks a listener for
   a kernel-assigned port, so the load tool refuses it itself, with
   exit 1 as for its other bad flags. *)
let test_tcp_addresses () =
  let load = bin_exe "estima_load.exe" in
  List.iter
    (fun exe ->
      List.iter
        (fun address ->
          check_exit ~exe ~msg:(exe ^ " --tcp " ^ address) ~code:124
            ~substring:"bad TCP address" [ "--tcp"; address ])
        [ "127.0.0.1:0x50"; "127.0.0.1:8_0"; "127.0.0.1:+80"; "127.0.0.1:-1"; "127.0.0.1:65536";
          ":80"; "127.0.0.1" ])
    [ serve_exe; load ];
  check_exit ~exe:load ~msg:"estima_load --tcp with port 0" ~code:1
    ~substring:"port must be 1..65535" [ "--tcp"; "127.0.0.1:0" ]

(* An unknown experiment id is refused before any experiment runs, with
   the message that lists every valid id. *)
let test_repro_unknown_id () =
  let code, output = run_cli [ "repro"; "F1"; "NOPE" ] in
  Alcotest.(check int) "repro NOPE: exit code" 1 code;
  if not (contains ~sub:"unknown experiment \"NOPE\"" output) then
    Alcotest.failf "repro NOPE: output %S does not name the id" output;
  List.iter
    (fun (id, _) ->
      if not (contains ~sub:id output) then
        Alcotest.failf "repro NOPE: output %S omits valid id %s" output id)
    Estima_repro.All.experiments;
  if contains ~sub:"[F1]" output then Alcotest.failf "repro NOPE ran F1: %S" output

let suite =
  [
    ("cli: well-formed input exits 0", `Quick, test_cli_exit_0);
    ("cli: malformed input exits 2", `Quick, test_cli_exit_2_parse_error);
    ("cli: out-of-range window exits 2", `Quick, test_cli_exit_2_bad_window);
    ("cli: no realistic fit exits 3", `Quick, test_cli_exit_3_no_realistic_fit);
    ("serve: overload is exit_code 4 on the wire", `Quick, test_serve_wire_overload_is_4);
    ("serve: internal error is exit_code 5, process exits 0", `Quick, test_serve_wire_internal_is_5);
    ("diag: exit-code table is exhaustive", `Quick, test_diag_exit_code_table);
    ("cli: an overflowing value exits 2", `Quick, test_cli_exit_2_overflow);
    ("serve and load refuse an out-of-range --sockets", `Quick, test_tools_refuse_bad_sockets);
    ( "load spawns its servers with the plan's machines",
      `Quick,
      test_load_spawns_servers_for_its_plan );
    ("serve and load read --tcp with one parser", `Quick, test_tcp_addresses);
    ("cli: repro with an unknown id exits 1 naming the valid ids", `Quick, test_repro_unknown_id);
    ("cli: times in 1e-200 units predict without nan", `Quick, test_cli_underflowing_times);
    ("cli: a resample count outside 1..1000 exits 2 printing nothing", `Quick, test_cli_bad_resamples_print_nothing);
  ]
