module Topology = Estima_machine.Topology

type error = { file : string; line : int; msg : string }

(* Internal short-circuit; converted to [error] at the [parse] boundary. *)
exception Fail of { line : int; msg : string }

let fail line fmt = Printf.ksprintf (fun msg -> raise (Fail { line; msg })) fmt

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let split_cells line = List.map String.trim (String.split_on_char ',' line)

type column =
  | Threads
  | Time_seconds
  | Cycles
  | Useful_cycles
  | Footprint_lines
  | Counter of string
  | Software of string

let classify ~vendor name =
  match name with
  | "threads" -> Threads
  | "time_seconds" -> Time_seconds
  | "cycles" -> Cycles
  | "useful_cycles" -> Useful_cycles
  | "footprint_lines" -> Footprint_lines
  | _ -> (
      match Event.find vendor name with
      | Some _ -> Counter name
      | None -> Software name)

let parse_header ~vendor ~line header =
  let names = split_cells header in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if n = "" then fail line "empty column name in header";
      if Hashtbl.mem seen n then fail line "duplicate column %S in header" n;
      Hashtbl.add seen n ())
    names;
  List.iter
    (fun required ->
      if not (Hashtbl.mem seen required) then fail line "missing required column %S" required)
    [ "threads"; "time_seconds" ];
  List.map (classify ~vendor) names

let int_cell ~line ~name cell =
  match int_of_string_opt cell with
  | Some v -> v
  | None -> fail line "column %s: %S is not an integer" name cell

let float_cell ~line ~name cell =
  match float_of_string_opt cell with
  | Some v when Float.is_finite v -> v
  | Some _ -> fail line "column %s: %S is not finite" name cell
  | None -> fail line "column %s: %S is not a number" name cell

let parse_sample ~machine ~line columns cells =
  let threads = ref None
  and time = ref None
  and cycles = ref None
  and useful = ref None
  and footprint = ref None in
  let counters = ref [] and software = ref [] in
  List.iter2
    (fun column cell ->
      match column with
      | Threads -> threads := Some (int_cell ~line ~name:"threads" cell)
      | Time_seconds -> time := Some (float_cell ~line ~name:"time_seconds" cell)
      | Cycles -> cycles := Some (float_cell ~line ~name:"cycles" cell)
      | Useful_cycles -> useful := Some (float_cell ~line ~name:"useful_cycles" cell)
      | Footprint_lines -> footprint := Some (int_cell ~line ~name:"footprint_lines" cell)
      | Counter name -> counters := (name, float_cell ~line ~name cell) :: !counters
      | Software name -> software := (name, float_cell ~line ~name cell) :: !software)
    columns cells;
  let threads = Option.get !threads and time_seconds = Option.get !time in
  if threads <= 0 then fail line "threads must be positive (got %d)" threads;
  if time_seconds <= 0.0 then fail line "time_seconds must be positive (got %g)" time_seconds;
  let cycles =
    match !cycles with
    | Some c -> c
    | None -> time_seconds *. machine.Topology.frequency_ghz *. 1e9
  in
  {
    Sample.threads;
    time_seconds;
    cycles;
    counters = List.rev !counters;
    software = List.rev !software;
    footprint_lines = Option.value !footprint ~default:0;
    useful_cycles = Option.value !useful ~default:0.0;
  }

let parse ?(file = "<csv>") ~machine ~spec_name text =
  let numbered =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, strip_cr l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  try
    match numbered with
    | [] -> fail 0 "empty input"
    | (header_line, header) :: rows ->
        let columns = parse_header ~vendor:machine.Topology.vendor ~line:header_line header in
        let ncols = List.length columns in
        let seen_threads = Hashtbl.create 8 in
        let samples =
          List.map
            (fun (line, row) ->
              let cells = split_cells row in
              let got = List.length cells in
              if got <> ncols then fail line "row has %d cells, header has %d" got ncols;
              let s = parse_sample ~machine ~line columns cells in
              if Hashtbl.mem seen_threads s.Sample.threads then
                fail line "duplicate thread count %d" s.Sample.threads;
              Hashtbl.add seen_threads s.Sample.threads ();
              s)
            rows
        in
        (match samples with [] -> fail header_line "no data rows" | _ -> ());
        Ok (Series.make ~machine ~spec_name samples)
  with
  | Fail { line; msg } -> Error { file; line; msg }
  | Invalid_argument msg ->
      (* Series.make validation that line-level checks did not cover. *)
      Error { file; line = 0; msg }

let load ~machine ~spec_name path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse ~file:path ~machine ~spec_name text
  | exception Sys_error msg -> Error { file = path; line = 0; msg }
