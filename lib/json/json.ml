type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse of string

(* Recursive-descent parser over a cursor; [Parse] carries the offset so
   a malformed request can be rejected with a useful message. *)

type cursor = { input : string; mutable pos : int }

let fail cur msg = raise (Parse (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.input then Some cur.input.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  while
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        true
    | _ -> false
  do
    ()
  done

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %C" c)

let parse_literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.input && String.sub cur.input cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

external get64u : string -> int -> int64 = "%caml_string_get64u"

let ones = 0x0101010101010101L
let high_bits = 0x8080808080808080L
let quotes = 0x2222222222222222L
let backslashes = 0x5C5C5C5C5C5C5C5CL

(* The end of the run of plain bytes from [i]: the offset of the next
   quote or backslash, or the end of the input.  Eight bytes at a time:
   [x] has a zero byte exactly when [(x - 0x01..01) land (lnot x)] has a
   high bit set, and [w lxor quotes] is zero in the lanes of [w] that
   hold a quote.  The word that holds a hit, and the tail, go byte by
   byte. *)
let rec byte_run_end input i =
  if i < String.length input && input.[i] <> '"' && input.[i] <> '\\' then byte_run_end input (i + 1)
  else i

let rec run_end input i =
  if i + 8 > String.length input then byte_run_end input i
  else
    let w = get64u input i in
    let q = Int64.logxor w quotes and b = Int64.logxor w backslashes in
    let zeros =
      Int64.logor
        (Int64.logand (Int64.sub q ones) (Int64.lognot q))
        (Int64.logand (Int64.sub b ones) (Int64.lognot b))
    in
    if Int64.logand zeros high_bits <> 0L then byte_run_end input i else run_end input (i + 8)

let parse_escape cur buf =
  match peek cur with
  | None -> fail cur "unterminated escape"
  | Some c -> (
      advance cur;
      match c with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
          if cur.pos + 4 > String.length cur.input then fail cur "truncated \\u escape";
          (* Exactly four hex digits: [int_of_string_opt "0x…"]
             alone would also accept OCaml-isms such as the
             underscore in "\u1_23". *)
          let digit c =
            match c with
            | '0' .. '9' -> Char.code c - Char.code '0'
            | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
            | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
            | _ -> fail cur "bad \\u escape"
          in
          let code = ref 0 in
          for i = 0 to 3 do
            code := (!code * 16) + digit cur.input.[cur.pos + i]
          done;
          let code = !code in
          cur.pos <- cur.pos + 4;
          (* UTF-8 encode the BMP code point; surrogate pairs are
             passed through as two 3-byte sequences, which round-trips
             our own printer (it never emits \u). *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
      | _ -> fail cur "unknown escape")

(* A string with no escape is one [String.sub] of the input; otherwise
   each run of plain bytes between escapes is copied whole, with one
   [Buffer.add_substring]. *)
let parse_string_body cur =
  expect cur '"';
  let start = cur.pos in
  cur.pos <- run_end cur.input start;
  match peek cur with
  | Some '"' ->
      advance cur;
      String.sub cur.input start (cur.pos - 1 - start)
  | _ ->
      let buf = Buffer.create (cur.pos - start + 16) in
      Buffer.add_substring buf cur.input start (cur.pos - start);
      (* [cur.pos] is at the byte that ended a run, or at the end. *)
      let rec loop () =
        match peek cur with
        | None -> fail cur "unterminated string"
        | Some '"' -> advance cur
        | Some _ (* the backslash that ended the run *) ->
            advance cur;
            parse_escape cur buf;
            let stop = run_end cur.input cur.pos in
            Buffer.add_substring buf cur.input cur.pos (stop - cur.pos);
            cur.pos <- stop;
            loop ()
      in
      loop ();
      Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let continue () =
    match peek cur with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        advance cur;
        true
    | _ -> false
  in
  while continue () do
    ()
  done;
  let text = String.sub cur.input start (cur.pos - start) in
  (* JSON allows a sign only as a leading '-' or right after the
     exponent marker; [int_of_string_opt]/[float_of_string_opt] are
     laxer (a leading '+' parses), so check before handing over. *)
  let sign_ok i c =
    (c <> '+' && c <> '-')
    || (i = 0 && c = '-')
    || (i > 0 && (text.[i - 1] = 'e' || text.[i - 1] = 'E'))
  in
  let signs_ok = ref true in
  String.iteri (fun i c -> if not (sign_ok i c) then signs_ok := false) text;
  if not !signs_ok then fail { cur with pos = start } (Printf.sprintf "bad number %S" text);
  match int_of_string_opt text with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail { cur with pos = start } (Printf.sprintf "bad number %S" text))

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "expected a value"
  | Some '"' -> String (parse_string_body cur)
  | Some 't' -> parse_literal cur "true" (Bool true)
  | Some 'f' -> parse_literal cur "false" (Bool false)
  | Some 'n' -> parse_literal cur "null" Null
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List.rev (v :: acc)
          | _ -> fail cur "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let member () =
          skip_ws cur;
          let key = parse_string_body cur in
          skip_ws cur;
          expect cur ':';
          (key, parse_value cur)
        in
        let rec members acc =
          let m = member () in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              members (m :: acc)
          | Some '}' ->
              advance cur;
              List.rev (m :: acc)
          | _ -> fail cur "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some ('0' .. '9' | '-') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected %C" c)

let parse input =
  let cur = { input; pos = 0 } in
  match parse_value cur with
  | value ->
      skip_ws cur;
      if cur.pos <> String.length input then
        Error (Printf.sprintf "trailing input at offset %d" cur.pos)
      else Ok value
  | exception Parse msg -> Error msg

(* The end of the run of bytes at [i] that print as themselves: anything
   but a quote, a backslash or a control character. *)
let rec plain_end s i =
  if i < String.length s && s.[i] <> '"' && s.[i] <> '\\' && Char.code s.[i] >= 0x20 then
    plain_end s (i + 1)
  else i

(* Escaped straight into the output: each run of plain bytes is copied
   whole, with one [Buffer.add_substring], as the parser copies its. *)
let write_string buf s =
  Buffer.add_char buf '"';
  let rec loop i =
    let stop = plain_end s i in
    Buffer.add_substring buf s i (stop - i);
    if stop < String.length s then begin
      (match s.[stop] with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      loop (stop + 1)
    end
  in
  loop 0;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else Buffer.add_string buf "null"
  | String s -> write_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (String k);
          Buffer.add_char buf ':';
          write buf v)
        members;
      Buffer.add_char buf '}'

let to_string value =
  let buf = Buffer.create 256 in
  write buf value;
  Buffer.contents buf

let pretty json =
  let buf = Buffer.create 1024 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent = function
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            write buf (String k);
            Buffer.add_string buf ": ";
            go (indent + 2) v)
          members;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf '}'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            go (indent + 2) v)
          items;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf ']'
    | leaf -> write buf leaf
  in
  go 0 json;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Keys compare with [String.equal]: [List.assoc_opt]'s polymorphic
   compare is a C call per member. *)
let rec find_member key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else find_member key rest

let member key = function Obj members -> find_member key members | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_int_opt = function
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f <= 1e15 -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function Float f -> Some f | Int n -> Some (float_of_int n) | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None

let to_list_opt = function List items -> Some items | _ -> None

let member_opt ~what conv key json =
  match member key json with
  | None | Some Null -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "%S must be %s" key what))
