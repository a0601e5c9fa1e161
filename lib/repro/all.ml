let experiments =
  [
    ("F1", Fig1_kmeans_time.run);
    ("F2", Fig2_correlation.run);
    ("F5", Fig5_intruder_walkthrough.run);
    ("F6", Fig6_production.run);
    ("T4", Table4_errors.run);
    ("F7", Fig7_vs_time.run);
    ("F8", Fig8_predictions.run);
    ("F9", Fig9_weak_scaling.run);
    ("F10", Fig10_bottleneck.run);
    ("T5", Table5_correlations.run);
    ("F12", Fig12_low_corr.run);
    ("T6", Table6_frontend.run);
    ("F13", Fig13_software_stalls.run);
    ("F15", Fig15_limitations.run);
    ("F16", Fig16_numa.run);
    ("T7", Table7_xeon48.run);
    ("ABL", Ablations.run);
  ]

let find id = List.assoc_opt (String.uppercase_ascii id) experiments

(* The experiments are independent (they share only the measurement
   store, which is compute-once across domains), so with jobs > 1 they
   fan out on the domain pool with each one's renderer output captured
   in-task; the buffers are printed in submission order, making the
   parallel run's stdout byte-identical to the sequential run's.  With
   jobs = 1 the original streaming path is kept, so single-job output
   still appears as each experiment progresses. *)
let run_many entries =
  if Estima_par.Fanout.jobs () <= 1 then List.iter (fun (_, run) -> run ()) entries
  else
    Estima_par.Fanout.map_consume (Array.of_list entries)
      ~f:(fun (_, run) -> snd (Render.with_capture run))
      ~consume:(fun output ->
        Render.print_string output;
        Render.flush_out ())

let run_all () = run_many experiments

let resolve ids =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | id :: rest -> (
        match find id with
        | Some run -> go ((id, run) :: acc) rest
        | None ->
            Error
              (Printf.sprintf "unknown experiment %S; valid ids: %s" id
                 (String.concat ", " (List.map fst experiments))))
  in
  go [] ids
