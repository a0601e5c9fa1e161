(* Cross-machine prediction, the paper's Section 4.3 scenario: measure a
   production application on a small desktop machine and predict its
   scalability on a server it has never run on.

   Run with:  dune exec examples/memcached_crossmachine.exe *)

open Estima_machine
open Estima_workloads
open Estima

let () =
  let entry = Option.get (Suite.find "memcached") in
  let desktop = Machines.haswell_desktop in
  (* The server process lives on one Xeon20 socket: 10 cores, 20 hardware
     threads; clients occupy the other socket. *)
  let server_socket = Machines.restrict_sockets Machines.xeon20 ~sockets:1 in
  Format.printf "measuring on %a@.targeting   %a (20 hardware threads)@.@." Topology.pp desktop
    Topology.pp server_socket;
  let series = Experiment.measure ~entry ~machine:desktop ~max_threads:6 () in
  let config =
    Experiment.config ~checkpoints:2 ~entry ~measure_machine:desktop
      ~target_machine:server_socket ()
  in
  let prediction =
    match Api.predict ~config ~series ~target_max:20 () with
    | Ok prediction -> prediction
    | Error d ->
        prerr_endline (Api.Diag.render d);
        exit (Api.Diag.exit_code d)
  in
  Format.printf "frequency scale applied: %.3f (%.1f GHz -> %.1f GHz)@."
    prediction.Predictor.config.Predictor.frequency_scale desktop.Topology.frequency_ghz
    server_socket.Topology.frequency_ghz;
  Format.printf "@.threads  predicted time@.";
  Array.iteri
    (fun i n -> if (i + 1) mod 2 = 0 then Format.printf "%7.0f  %.4f s@." n prediction.Predictor.predicted_times.(i))
    prediction.Predictor.target_grid;
  let truth = Experiment.sweep ~max_threads:20 ~entry ~machine:server_socket () in
  let error = Experiment.score ~prediction ~truth () in
  Format.printf "@.validated against the server: max error %.1f%% (%s)@."
    (100.0 *. error.Api.Quality.max_error)
    (Api.Quality.verdict_to_string error.Api.Quality.measured_verdict)
