type entry = {
  name : string;
  source : string;
  expression : string;
  combine : Plugin.combine;
}

(* "sum" | "average" | "min" | "max" (case-insensitive). *)
let combine_of_string s =
  match String.lowercase_ascii s with
  | "sum" -> Ok Plugin.Sum
  | "average" | "avg" -> Ok Plugin.Average
  | "min" -> Ok Plugin.Min
  | "max" -> Ok Plugin.Max
  | other -> Error (Printf.sprintf "unknown combine function %S (sum/average/min/max)" other)

let strip_comment line =
  match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line

let split_field line =
  let line = String.trim (strip_comment line) in
  if line = "" then None
  else
    match String.index_opt line ' ' with
    | None -> Some (line, "")
    | Some i ->
        Some (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))

type partial = {
  p_name : string option;
  p_source : string option;
  p_expression : string option;
  p_combine : Plugin.combine option;
}

let empty_partial = { p_name = None; p_source = None; p_expression = None; p_combine = None }

let is_empty_partial p =
  p.p_name = None && p.p_source = None && p.p_expression = None && p.p_combine = None

let finish lineno p =
  match (p.p_name, p.p_source, p.p_expression) with
  | Some name, Some source, Some expression ->
      Ok { name; source; expression; combine = Option.value ~default:Plugin.Sum p.p_combine }
  | None, _, _ -> Error (Printf.sprintf "line %d: plugin stanza missing 'name'" lineno)
  | _, None, _ -> Error (Printf.sprintf "line %d: plugin stanza missing 'source'" lineno)
  | _, _, None -> Error (Printf.sprintf "line %d: plugin stanza missing 'expression'" lineno)

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno partial acc = function
    | [] ->
        if is_empty_partial partial then Ok (List.rev acc)
        else Result.map (fun e -> List.rev (e :: acc)) (finish lineno partial)
    | line :: rest -> (
        let lineno = lineno + 1 in
        match split_field line with
        | None ->
            (* Blank line: stanza boundary. *)
            if is_empty_partial partial then go lineno partial acc rest
            else (
              match finish lineno partial with
              | Error _ as e -> e
              | Ok entry -> go lineno empty_partial (entry :: acc) rest)
        | Some (key, value) -> (
            match key with
            | "name" -> go lineno { partial with p_name = Some value } acc rest
            | "source" -> go lineno { partial with p_source = Some value } acc rest
            | "expression" -> go lineno { partial with p_expression = Some value } acc rest
            | "combine" -> (
                match combine_of_string value with
                | Ok c -> go lineno { partial with p_combine = Some c } acc rest
                | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
            | other -> Error (Printf.sprintf "line %d: unknown field %S" lineno other)))
  in
  go 0 empty_partial [] lines

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e

let apply entry ~report =
  let values = Report_file.scan ~expression:entry.expression report in
  match values with
  | [] -> 0.0
  | first :: _ -> (
      match entry.combine with
      | Plugin.Sum -> List.fold_left ( +. ) 0.0 values
      | Plugin.Average -> List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)
      | Plugin.Min -> List.fold_left Float.min first values
      | Plugin.Max -> List.fold_left Float.max first values)
