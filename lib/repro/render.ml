(* ------------------------- output redirection ------------------------- *)

(* Where this domain's renderer output goes: stdout by default, or a
   capture buffer installed by [with_capture].  The sink is domain-local
   so that experiments running concurrently on the domain pool
   (Repro.All.run_all with --jobs > 1) each collect their own output,
   which the submitting domain then prints in submission order — the
   parallel run's stdout is byte-identical to the sequential run's. *)
let sink_key : Buffer.t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let print_string s =
  match !(Domain.DLS.get sink_key) with
  | None -> Stdlib.print_string s
  | Some buf -> Buffer.add_string buf s

let printf fmt = Printf.ksprintf print_string fmt

let newline () = print_string "\n"

let flush_out () =
  match !(Domain.DLS.get sink_key) with None -> Stdlib.flush Stdlib.stdout | Some _ -> ()

let with_capture f =
  let sink = Domain.DLS.get sink_key in
  let saved = !sink in
  let buf = Buffer.create 4096 in
  sink := Some buf;
  let restore () = sink := saved in
  match f () with
  | v ->
      restore ();
      (v, Buffer.contents buf)
  | exception e ->
      restore ();
      raise e

(* ----------------------------- rendering ------------------------------ *)

let heading title =
  let bar = String.make (String.length title + 4) '=' in
  printf "\n%s\n| %s |\n%s\n%!" bar title bar;
  flush_out ()

let subheading title =
  printf "\n-- %s --\n" title;
  flush_out ()

let table ~header ~rows =
  let ncols = List.length header in
  List.iter
    (fun row -> if List.length row <> ncols then invalid_arg "Render.table: ragged rows")
    rows;
  let all = header :: rows in
  let widths =
    List.init ncols (fun c ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all)
  in
  let print_row row =
    List.iteri
      (fun c cell -> printf "%s%s  " cell (String.make (List.nth widths c - String.length cell) ' '))
      row;
    newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  flush_out ()

let series ~title ~grid ~columns =
  List.iter
    (fun (name, values) ->
      if Array.length values <> Array.length grid then
        invalid_arg (Printf.sprintf "Render.series: column %s length mismatch" name))
    columns;
  subheading title;
  let header = "cores" :: List.map fst columns in
  let rows =
    Array.to_list grid
    |> List.mapi (fun i n ->
           Printf.sprintf "%.0f" n :: List.map (fun (_, v) -> Printf.sprintf "%.4g" v.(i)) columns)
  in
  table ~header ~rows

(* Fit-selection audit summary: one row per audited subject (stall
   category or scaling factor) with the winner and the per-gate rejection
   tally, so every reproduced figure/table can print which kernel won each
   category and why the others lost. *)
let audit_summary (audit : Estima_obs.Audit.t) =
  subheading "fit-selection audit";
  let gate_summary record =
    match Estima_obs.Audit.rejection_counts record with
    | [] -> "-"
    | counts ->
        String.concat ", "
          (List.map
             (fun (gate, n) -> Printf.sprintf "%s x%d" (Estima_obs.Trace.gate_to_string gate) n)
             counts)
  in
  let rows =
    List.map
      (fun (r : Estima_obs.Audit.record) ->
        let winner, score, corr =
          match r.Estima_obs.Audit.winner with
          | None -> ("(none)", "-", "-")
          | Some w ->
              ( Printf.sprintf "%s@%d" w.Estima_obs.Audit.kernel w.Estima_obs.Audit.prefix,
                (if Float.is_finite w.Estima_obs.Audit.score then
                   Printf.sprintf "%.4g" w.Estima_obs.Audit.score
                 else "-"),
                if Float.is_finite w.Estima_obs.Audit.correlation then
                  Printf.sprintf "%.4f" w.Estima_obs.Audit.correlation
                else "-" )
        in
        [
          r.Estima_obs.Audit.stage;
          r.Estima_obs.Audit.subject;
          winner;
          score;
          corr;
          string_of_int (List.length r.Estima_obs.Audit.candidates);
          gate_summary r;
        ])
      audit
  in
  table
    ~header:[ "stage"; "subject"; "winner"; "score"; "corr"; "cands"; "rejections" ]
    ~rows

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let float3 x = Printf.sprintf "%.3g" x

let verdict = Estima.Diag.Quality.verdict_to_string
