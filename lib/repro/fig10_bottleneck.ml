open Estima_machine
open Estima_workloads
open Estima_counters
open Estima

type case = {
  name : string;
  analysis : Bottleneck.t;
  dominant_software : string option;
  hint : string option;
  fixed_name : string;
  improvement_at_48 : float;
  best_improvement : float;
}

let one ~name ~fixed_name =
  let entry = Option.get (Suite.find name) in
  let prediction =
    Lab.predict ~software:true ~entry ~measure_machine:Lab.opteron_1socket ~measure_max:12
      ~target_machine:Machines.opteron48 ()
  in
  let analysis = Bottleneck.analyze prediction in
  let software_findings =
    List.filter
      (fun f -> List.mem f.Bottleneck.category [ "pthread-sync"; "stm-abort" ])
      analysis.Bottleneck.findings
  in
  let dominant_software =
    match software_findings with [] -> None | f :: _ -> Some f.Bottleneck.category
  in
  let hint = Option.bind dominant_software Bottleneck.hint_for in
  (* Figure 11: measure original and fixed variants on the full machine. *)
  let fixed_entry = Option.get (Suite.find fixed_name) in
  let original = Series.times (Experiment.sweep ~entry ~machine:Machines.opteron48 ()) in
  let fixed = Series.times (Experiment.sweep ~entry:fixed_entry ~machine:Machines.opteron48 ()) in
  let improvement i = 1.0 -. (fixed.(i) /. original.(i)) in
  let best = ref 0.0 in
  Array.iteri (fun i _ -> best := Float.max !best (improvement i)) original;
  {
    name;
    analysis;
    dominant_software;
    hint;
    fixed_name;
    improvement_at_48 = improvement (Array.length original - 1);
    best_improvement = !best;
  }

let compute () =
  [
    one ~name:"streamcluster" ~fixed_name:"streamcluster-spinlock";
    one ~name:"intruder" ~fixed_name:"intruder-batched";
  ]

let run () =
  Render.heading "[F10/F11] Sections 4.6 - future bottlenecks and their fixes (Opteron)";
  List.iter
    (fun c ->
      Render.subheading c.name;
      Render.print_string (Format.asprintf "%a@." Bottleneck.pp c.analysis);
      (match (c.dominant_software, c.hint) with
      | Some cat, Some hint -> Render.printf "software bottleneck: %s\n  -> %s\n" cat hint
      | Some cat, None -> Render.printf "software bottleneck: %s\n" cat
      | None, _ -> Render.printf "no software bottleneck surfaced\n");
      Render.printf "[F11] fix '%s': %s faster at 48 cores (best %s)\n%!" c.fixed_name
        (Render.pct c.improvement_at_48)
        (Render.pct c.best_improvement))
    (compute ())
