type finding = {
  category : string;
  share_now : float;
  share_at_target : float;
  hint : string option;
}

type t = { findings : finding list; target : int; window : int }

(* Code-site hints mirroring what the paper's perf step found for the two
   case studies, plus generic pointers for the other software sources. *)
let hint_for = function
  | "pthread-sync" ->
      Some "spin cycles concentrate in pthread_mutex_trylock (PARSEC barrier); consider test-and-set spinlocks"
  | "stm-abort" ->
      Some "aborted-transaction cycles concentrate in the shared-structure access (e.g. TMDECODER_PROCESS); consider batching work per transaction"
  | _ -> None

let analyze (prediction : Predictor.t) =
  let extrapolation = prediction.Predictor.extrapolation in
  let window = Predictor.measured_window prediction in
  let target = Array.length prediction.Predictor.target_grid in
  let now = Extrapolation.dominant_categories extrapolation ~at:(float_of_int window) in
  let at_target = Extrapolation.dominant_categories extrapolation ~at:(float_of_int target) in
  let findings =
    List.map
      (fun (category, share_at_target) ->
        let share_now = Option.value ~default:0.0 (List.assoc_opt category now) in
        { category; share_now; share_at_target; hint = hint_for category })
      at_target
  in
  { findings; target; window }

let pp ppf t =
  Format.fprintf ppf "@[<v>stall-category shares (at %d cores -> at %d cores):@," t.window t.target;
  List.iter
    (fun f ->
      Format.fprintf ppf "  %-14s %5.1f%% -> %5.1f%%%s@," f.category (100.0 *. f.share_now)
        (100.0 *. f.share_at_target)
        (match f.hint with Some h when f.share_at_target >= 0.15 -> "  <- " ^ h | _ -> ""))
    t.findings;
  Format.fprintf ppf "@]"
