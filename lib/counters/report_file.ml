open Estima_sim

let source_line thread label cycles =
  Printf.sprintf "thread %d %s %.0f" thread label cycles

let render (result : Engine.result) =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer
    (Printf.sprintf "# %s: %d threads, %d operations\n" result.Engine.spec_name result.Engine.threads
       result.Engine.ops_executed);
  Array.iteri
    (fun i (ts : Engine.thread_stats) ->
      let get c = Ledger.get ts.Engine.ledger c in
      Buffer.add_string buffer (source_line i "lock-spin-cycles" (get Stall.Lock_spin));
      Buffer.add_char buffer '\n';
      Buffer.add_string buffer (source_line i "barrier-wait-cycles" (get Stall.Barrier_wait));
      Buffer.add_char buffer '\n';
      Buffer.add_string buffer (source_line i "stm-abort-cycles" (get Stall.Stm_abort));
      Buffer.add_char buffer '\n')
    result.Engine.per_thread;
  Buffer.contents buffer

(* Split the expression around its single %d; a line matches when it
   contains the prefix followed by a number followed by the suffix. *)
let split_expression expression =
  let occurrences = ref [] in
  String.iteri
    (fun i c -> if c = '%' && i + 1 < String.length expression && expression.[i + 1] = 'd' then
        occurrences := i :: !occurrences)
    expression;
  match !occurrences with
  | [ i ] ->
      ( String.sub expression 0 i,
        String.sub expression (i + 2) (String.length expression - i - 2) )
  | _ -> invalid_arg "Report_file.scan: expression must contain exactly one %d"

let is_number_char c = (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E'

let scan_line ~prefix ~suffix line =
  let plen = String.length prefix in
  (* A candidate position either matches the (non-empty) prefix, or — for
     an empty prefix — starts a fresh number (not inside one). *)
  let candidate start =
    if plen > 0 then start + plen <= String.length line && String.sub line start plen = prefix
    else
      start < String.length line
      && is_number_char line.[start]
      && (start = 0 || not (is_number_char line.[start - 1]))
  in
  let rec find_from acc start =
    if start >= String.length line then List.rev acc
    else if candidate start then begin
      let stop = ref (start + plen) in
      while !stop < String.length line && is_number_char line.[!stop] do
        incr stop
      done;
      if !stop = start + plen then find_from acc (start + 1)
      else
        let number = String.sub line (start + plen) (!stop - start - plen) in
        let rest_ok =
          suffix = ""
          || !stop + String.length suffix <= String.length line
             && String.sub line !stop (String.length suffix) = suffix
        in
        match (rest_ok, float_of_string_opt number) with
        | true, Some v ->
            (* Resume after the captured number so a line holding several
               values yields all of them, left to right. *)
            find_from (v :: acc) !stop
        | _ -> find_from acc (start + 1)
    end
    else find_from acc (start + 1)
  in
  find_from [] 0

let scan ~expression text =
  let prefix, suffix = split_expression expression in
  String.split_on_char '\n' text
  |> List.concat_map (fun line -> scan_line ~prefix ~suffix line)
