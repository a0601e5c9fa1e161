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
   stdout+stderr). *)
let run_cli ?(exe = cli_exe) args =
  let ic = Unix.open_process_in (Filename.quote_command exe args ^ " < /dev/null 2>&1") in
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

let check_exit ~msg ~code ~substring args =
  let got, output = run_cli args in
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
    [ "bottleneck"; "kmeans"; "-w"; "4"; "--repetitions"; "1"; "--sockets"; "0" ]

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
    ~finally:(fun () -> Server.shutdown server)
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
  ]
