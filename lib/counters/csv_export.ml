(* Column names travel unquoted, so the writer refuses any name that
   would need RFC-4180 quoting: a plugin named "a,b" would otherwise
   silently corrupt the table. *)
let valid_column_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'A' && c <= 'Z')
         || (c >= 'a' && c <= 'z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '-')
       name

let check_column_name name =
  if not (valid_column_name name) then
    invalid_arg
      (Printf.sprintf "Csv_export.series_to_csv: column name %S needs quoting (allowed: A-Za-z0-9_.-)"
         name)

(* %.17g: every float round-trips bit-for-bit through the text form,
   which is what lets Series_io.parse invert this function exactly. *)
let float_cell v = Printf.sprintf "%.17g" v

(* The category columns, in order: the first sample's counters, then
   its software plugins. *)
let column_names (series : Series.t) =
  let first = series.Series.samples.(0) in
  List.map fst first.Sample.counters @ List.map fst first.Sample.software

let series_to_csv (series : Series.t) =
  let buffer = Buffer.create 1024 in
  let names = column_names series in
  List.iter check_column_name names;
  Buffer.add_string buffer
    (String.concat ","
       ([ "threads"; "time_seconds"; "cycles"; "useful_cycles" ] @ names @ [ "footprint_lines" ]));
  Buffer.add_char buffer '\n';
  Array.iter
    (fun (s : Sample.t) ->
      let cells =
        [
          string_of_int s.Sample.threads;
          float_cell s.Sample.time_seconds;
          float_cell s.Sample.cycles;
          float_cell s.Sample.useful_cycles;
        ]
        @ List.map (fun n -> float_cell (Sample.counter s n)) names
        @ [ string_of_int s.Sample.footprint_lines ]
      in
      Buffer.add_string buffer (String.concat "," cells);
      Buffer.add_char buffer '\n')
    series.Series.samples;
  Buffer.contents buffer

(* What series_to_csv prints, in its order, as raw bits: the column
   count, each name length-prefixed (so names need no quoting here),
   then one fixed-width record per sample.  Bits stand in for %.17g
   text because that text is injective on finite floats. *)
let series_digest (series : Series.t) =
  let names = column_names series in
  let buffer = Buffer.create 1024 in
  let add_int n = Buffer.add_int64_le buffer (Int64.of_int n) in
  let add_float v = Buffer.add_int64_le buffer (Int64.bits_of_float v) in
  add_int (List.length names);
  List.iter
    (fun n ->
      add_int (String.length n);
      Buffer.add_string buffer n)
    names;
  Array.iter
    (fun (s : Sample.t) ->
      add_int s.Sample.threads;
      add_float s.Sample.time_seconds;
      add_float s.Sample.cycles;
      add_float s.Sample.useful_cycles;
      List.iter (fun n -> add_float (Sample.counter s n)) names;
      add_int s.Sample.footprint_lines)
    series.Series.samples;
  Digest.string (Buffer.contents buffer)

let write ~path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)
