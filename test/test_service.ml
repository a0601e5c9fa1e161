(* Tests for the prediction service: the JSON codec, the metrics
   instruments, the LRU cache, the server's shedding/caching/dispatch
   logic driven in-process with an injected clock, and two end-to-end
   exercises of the real binary — a 1000-request pipelined soak over
   stdio and concurrent clients over a Unix domain socket — asserting
   every served response byte-identical to `estima_cli predict --from`
   on the same CSV. *)

open Estima_machine
open Estima_workloads
open Estima_counters
open Estima_service

let opteron1s = Machines.restrict_sockets Machines.opteron48 ~sockets:1

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      ("null", Json.Null);
      ("true", Json.Bool true);
      ("42", Json.Int 42);
      ("-7", Json.Int (-7));
      ("\"a\\\"b\\\\c\\nd\"", Json.String "a\"b\\c\nd");
      ("[1,[],{}]", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ( "{\"id\":1,\"op\":\"predict\"}",
        Json.Obj [ ("id", Json.Int 1); ("op", Json.String "predict") ] );
    ]
  in
  List.iter
    (fun (text, value) ->
      (match Json.parse text with
      | Ok parsed -> Alcotest.(check bool) ("parse " ^ text) true (parsed = value)
      | Error e -> Alcotest.failf "parse %s: %s" text e);
      Alcotest.(check string) ("print " ^ text) text (Json.to_string value))
    cases;
  (* Whitespace and \u escapes parse; printing is canonical. *)
  (match Json.parse " { \"a\" : [ 1 , 2 ] } " with
  | Ok v -> Alcotest.(check string) "canonical" "{\"a\":[1,2]}" (Json.to_string v)
  | Error e -> Alcotest.fail e);
  match Json.parse "{\"s\":\"\\u0041\"}" with
  | Ok v -> Alcotest.(check (option string)) "\\u" (Some "A") Json.(member "s" v |> Option.get |> to_string_opt)
  | Error e -> Alcotest.fail e

let test_json_errors () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ ""; "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "nul"; "1 2"; "{\"a\":1,}" ]

(* The two codec strictness fixes: \u escapes must be exactly four hex
   digits (int_of_string's underscore tolerance must not leak into the
   wire grammar), and number signs are only a leading '-' or part of an
   exponent. *)
let test_json_strictness () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [
      "\"\\u1_23\"";
      "\"\\u123_\"";
      "\"\\u12g4\"";
      "\"\\u 123\"";
      "\"\\u0x12\"";
      "+5";
      "[+5]";
      "{\"n\":+5}";
      "1+2";
      "-+1";
      "--1";
      "5-";
      "1e5e5";
    ];
  (* ...while the legitimate neighbours still parse. *)
  List.iter
    (fun (text, value) ->
      match Json.parse text with
      | Ok v -> Alcotest.(check bool) ("accept " ^ text) true (v = value)
      | Error e -> Alcotest.failf "rejected %s: %s" text e)
    [
      ("\"\\u0041\"", Json.String "A");
      ("\"\\uAbCd\"", Json.String "\xea\xaf\x8d");
      ("-5", Json.Int (-5));
      ("1e+5", Json.Float 100000.0);
      ("2E-3", Json.Float 0.002);
      ("-1.5e-3", Json.Float (-0.0015));
    ]

(* Strings are copied run by run between escapes: escapes at either end
   or next to each other decode as before, and a malformed string fails
   with the same message at the same offset. *)
let test_json_string_escapes () =
  List.iter
    (fun (text, want) ->
      match Json.parse text with
      | Ok v -> Alcotest.(check bool) ("decode " ^ text) true (v = Json.String want)
      | Error e -> Alcotest.failf "rejected %s: %s" text e)
    [
      ({|""|}, "");
      ({|"\n"|}, "\n");
      ({|"\tabc"|}, "\tabc");
      ({|"abc\\"|}, "abc\\");
      ({|"a\"\\\/b"|}, "a\"\\/b");
      ({|"\u0041\u00e9\r\n"|}, "A\xc3\xa9\r\n");
      ({|"x\by\fz"|}, "x\by\012z");
    ];
  List.iter
    (fun (text, want) -> Alcotest.(check (result reject string)) text (Error want) (Json.parse text))
    [
      ({|"abc|}, "unterminated string at offset 4");
      ({|"abc\|}, "unterminated escape at offset 5");
      ({|"\u12|}, "truncated \\u escape at offset 3");
      ({|"a\qb"|}, "unknown escape at offset 4");
      ({|"\u12g4"|}, "bad \\u escape at offset 3");
      ({|{"a\qb":1}|}, "unknown escape at offset 5");
    ]

(* Any bytes but a quote or a backslash, raw control bytes and invalid
   UTF-8 included, parse back as themselves between quotes — bytes the
   printer never emits unescaped, so "json parse inverts print" never
   feeds them. *)
let prop_json_plain_string =
  let plain =
    QCheck.Gen.(map (fun n -> match Char.chr n with '"' | '\\' -> 'x' | c -> c) (int_range 0 255))
  in
  QCheck.Test.make ~count:500 ~name:"json strings without escapes parse back"
    (QCheck.make ~print:String.escaped QCheck.Gen.(string_size ~gen:plain (int_range 0 64)))
    (fun s -> Json.parse ("\"" ^ s ^ "\"") = Ok (Json.String s))

(* The per-byte string scanner [Json.parse] replaced, as a reference
   model for a value that is one string: the run of plain bytes found one
   byte at a time, each run and escape appended to a buffer, then the
   trailing-input check. *)
module Reference_string = struct
  type cursor = { input : string; mutable pos : int }

  let fail cur msg = failwith (Printf.sprintf "%s at offset %d" msg cur.pos)
  let peek cur = if cur.pos < String.length cur.input then Some cur.input.[cur.pos] else None
  let advance cur = cur.pos <- cur.pos + 1

  let rec run_end input i =
    if i < String.length input && input.[i] <> '"' && input.[i] <> '\\' then run_end input (i + 1)
    else i

  let body cur =
    let buf = Buffer.create 16 in
    let rec loop () =
      let stop = run_end cur.input cur.pos in
      Buffer.add_substring buf cur.input cur.pos (stop - cur.pos);
      cur.pos <- stop;
      match peek cur with
      | None -> fail cur "unterminated string"
      | Some '"' -> advance cur
      | Some _ -> (
          advance cur;
          match peek cur with
          | None -> fail cur "unterminated escape"
          | Some c ->
              advance cur;
              (match c with
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
              | _ -> fail cur "unknown escape");
              loop ())
    in
    loop ();
    Buffer.contents buf

  (* [input] opens with a quote. *)
  let parse input =
    let cur = { input; pos = 1 } in
    match body cur with
    | s ->
        while match peek cur with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false do
          advance cur
        done;
        if cur.pos <> String.length input then
          Error (Printf.sprintf "trailing input at offset %d" cur.pos)
        else Ok (Json.String s)
    | exception Failure msg -> Error msg
end

(* A string literal of plain runs (control bytes and non-ASCII among
   them), quotes, backslashes, escapes good and bad, and \u escapes cut
   short, after 0..7 plain bytes so that each lands at every offset mod
   8 of the scanner's words: [Json.parse] returns the reference's value,
   or its error message at its offset. *)
let prop_json_string_matches_reference =
  let open QCheck.Gen in
  let plain =
    map (fun n -> match Char.chr n with '"' | '\\' -> 'x' | c -> c) (int_range 0 255)
  in
  let piece =
    frequency
      [
        (6, string_size ~gen:plain (int_range 0 20));
        (2, oneofl [ "\""; "\\"; "\\\""; "\\\\"; "\\n"; "\\/"; "\\t"; "\\b"; "\\f"; "\\r" ]);
        (1, oneofl [ "\\u0041"; "\\u00e9"; "\\uAbCd"; "\\u12g4"; "\\q"; "\\u"; "\\u1"; "\\u12"; "\\u123" ]);
        (1, oneofl [ "\n"; " "; "\000"; "\255"; "\031" ]);
      ]
  in
  let gen =
    map3
      (fun pad pieces close -> "\"" ^ String.make pad 'p' ^ String.concat "" pieces ^ close)
      (int_range 0 7)
      (list_size (int_range 0 12) piece)
      (oneofl [ ""; "\"" ])
  in
  QCheck.Test.make ~count:2000 ~name:"json strings parse as the per-byte scanner"
    (QCheck.make ~print:String.escaped gen)
    (fun input -> Json.parse input = Reference_string.parse input)

(* The printer escapes a string straight into its output, copying each
   run of plain bytes whole.  The reference is the per-byte escape it
   replaced, over raw bytes 0..255. *)
let reference_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prop_json_string_escape =
  QCheck.Test.make ~count:500 ~name:"json strings print as the per-byte escape"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 300)))
    (fun s -> Json.to_string (Json.String s) = "\"" ^ reference_escape s ^ "\"")

(* [Json.member] against the lookup it replaced, [List.assoc_opt] over
   the members (polymorphic compare), on request frames: the protocol's
   keys and near misses, repeated, null or of the wrong type, in any
   order, read from the object and from its printed and parsed frame. *)
let reference_member key = function Json.Obj members -> List.assoc_opt key members | _ -> None

let request_keys =
  [ "id"; "v"; "op"; "file"; "csv"; "workload"; "spec"; "target_max"; "timeout_ms"; "confidence"; ""; "Op"; "op " ]

let prop_json_member_matches_assoc =
  let open QCheck.Gen in
  let value =
    oneofl
      Json.
        [
          Null;
          Int 2;
          Int (-7);
          Float 1.5;
          Bool true;
          String "predict";
          String "examples/data/kmeans_opteron.csv";
          List [ Int 1 ];
          Obj [ ("op", String "shutdown") ];
        ]
  in
  let frame =
    frequency
      [
        (12, map (fun members -> Json.Obj members) (list_size (int_range 0 14) (pair (oneofl request_keys) value)));
        (1, value);
      ]
  in
  let print json = Json.to_string json in
  QCheck.Test.make ~count:2000 ~name:"json member matches the assoc lookup" (QCheck.make ~print frame)
    (fun json ->
      let parsed = match Json.parse (Json.to_string json) with Ok p -> p | Error msg -> failwith msg in
      List.for_all
        (fun key ->
          Json.member key json = reference_member key json && Json.member key parsed = reference_member key parsed)
        request_keys)

(* ------------------------------------------------------------------ *)
(* Wire framing                                                        *)
(* ------------------------------------------------------------------ *)

let test_frames () =
  let feed stream text = fst (Wire.frames stream ~limit:max_int (Bytes.of_string text) (String.length text)) in
  let eof stream = fst (Wire.frames stream ~limit:max_int (Bytes.create 0) 0) in
  (* No newline yet: nothing cut, the tail stays buffered until EOF. *)
  let s = Wire.new_stream () in
  Alcotest.(check (list string)) "no newline" [] (feed s "partial");
  Alcotest.(check (list string)) "tail kept" [ "partial" ] (eof s);
  (* CRLF framing, empty lines preserved, unterminated tail kept. *)
  let s = Wire.new_stream () in
  Alcotest.(check (list string)) "mixed" [ "a"; "b"; ""; "c" ] (feed s "a\r\nb\n\nc\npart");
  (* The next chunk completes the buffered tail. *)
  Alcotest.(check (list string)) "tail completed" [ "partial" ] (feed s "ial\n");
  Alcotest.(check (list string)) "buffer drained" [] (eof s);
  (* A lone \r is not a terminator; only \r\n is collapsed. *)
  Alcotest.(check (list string)) "lone CR kept" [ "x\ry"; "" ] (feed (Wire.new_stream ()) "x\ry\n\r\n");
  (* Entirely empty input. *)
  Alcotest.(check (list string)) "empty" [] (eof (Wire.new_stream ()));
  Alcotest.(check (list string)) "single newline" [ "" ] (feed (Wire.new_stream ()) "\n")

(* The Buffer-based framing [Wire.frames] replaced, as a reference
   model: every read appended to one buffer, the complete lines split
   off it, and the residual shed past [limit]. *)
module Reference_framing = struct
  let split_lines buffer =
    let data = Buffer.contents buffer in
    match String.rindex_opt data '\n' with
    | None -> []
    | Some last ->
        Buffer.clear buffer;
        Buffer.add_string buffer (String.sub data (last + 1) (String.length data - last - 1));
        String.sub data 0 last |> String.split_on_char '\n'
        |> List.map (fun line ->
               let n = String.length line in
               if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line)

  type stream = { buffer : Buffer.t; mutable discarding : bool }

  let ingest stream ~limit chunk n =
    let data = Bytes.sub_string chunk 0 n in
    let data =
      if not stream.discarding then data
      else
        match String.index_opt data '\n' with
        | None -> ""
        | Some i ->
            stream.discarding <- false;
            String.sub data (i + 1) (String.length data - i - 1)
    in
    if data = "" then ([], None)
    else begin
      Buffer.add_string stream.buffer data;
      let lines = split_lines stream.buffer in
      let shed =
        if Buffer.length stream.buffer > limit then begin
          let buffered = Buffer.length stream.buffer in
          Buffer.clear stream.buffer;
          stream.discarding <- true;
          Some buffered
        end
        else None
      in
      (lines, shed)
    end

  let final_lines stream =
    if stream.discarding then []
    else begin
      let lines = split_lines stream.buffer in
      let tail = Buffer.contents stream.buffer in
      Buffer.clear stream.buffer;
      if tail = "" then lines
      else
        let tail =
          let n = String.length tail in
          if tail.[n - 1] = '\r' then String.sub tail 0 (n - 1) else tail
        in
        lines @ [ tail ]
    end
end

(* A byte stream of short lines over bytes the framing must pass
   through ("\r", quotes, backslashes, NUL, 0xFF), cut into random
   reads, each in a chunk whose bytes past the read are newlines.  Every
   read gives the reference's lines and sheds, and so does the EOF. *)
let prop_frames_match_reference =
  let open QCheck.Gen in
  let byte = frequency [ (6, char_range 'a' 'z'); (2, return '\n'); (1, oneofl [ '\r'; '"'; '\\'; '\000'; '\255' ]) ] in
  let gen =
    triple (int_range 1 24)
      (string_size ~gen:byte (int_range 0 200))
      (list_size (int_range 0 40) (int_range 1 40))
  in
  QCheck.Test.make ~count:1000 ~name:"wire frames match the buffered reference"
    (QCheck.make ~print:QCheck.Print.(triple int String.escaped (list int)) gen)
    (fun (limit, text, cuts) ->
      let stream = Wire.new_stream () in
      let reference = { Reference_framing.buffer = Buffer.create 16; discarding = false } in
      let chunk = Bytes.make 64 '\n' in
      let rec reads off = function
        | _ when off >= String.length text -> true
        | cut :: cuts ->
            let n = min cut (String.length text - off) in
            Bytes.fill chunk 0 (Bytes.length chunk) '\n';
            Bytes.blit_string text off chunk 0 n;
            let got = Wire.frames stream ~limit chunk n in
            let want = Reference_framing.ingest reference ~limit chunk n in
            got = want && reads (off + n) cuts
        | [] -> reads off [ 40 ]
      in
      reads 0 cuts
      && Wire.frames stream ~limit chunk 0 = (Reference_framing.final_lines reference, None))

(* ------------------------------------------------------------------ *)
(* Json round-trip property                                            *)
(* ------------------------------------------------------------------ *)

let json_gen ~with_floats =
  let open QCheck.Gen in
  let key = string_size ~gen:printable (int_range 0 8) in
  let scalar =
    let base =
      [
        (1, return Json.Null);
        (2, map (fun b -> Json.Bool b) bool);
        (4, map (fun n -> Json.Int n) (int_range (-1_000_000) 1_000_000));
        (4, map (fun s -> Json.String s) (string_size (int_range 0 12)));
      ]
    in
    frequency (if with_floats then (3, map (fun f -> Json.Float f) float) :: base else base)
  in
  sized
    (fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4) (pair key (self (n / 2)))) );
             ]))

(* Values without floats round-trip exactly: parse (print v) = v.  The
   string generator covers raw bytes 0..255, so control-character
   escaping and non-ASCII passthrough are both exercised.  The
   multi-line printer reads back as the one-line one does. *)
let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json parse inverts print"
    (QCheck.make (json_gen ~with_floats:false))
    (fun v ->
      let parsed = Json.parse (Json.to_string v) in
      parsed = Ok v && Json.parse (Json.pretty v) = parsed)

(* With floats the printed form is the canonical one (integral floats
   print like ints, non-finite floats print as null), so the guarantee
   is that printing is a fixpoint of print-then-parse. *)
let prop_json_print_fixpoint =
  QCheck.Test.make ~count:500 ~name:"json print is a parse fixpoint"
    (QCheck.make (json_gen ~with_floats:true))
    (fun v ->
      let s = Json.to_string v in
      match Json.parse s with Ok v' -> Json.to_string v' = s | Error _ -> false)

(* A predict response as one JSON object, member by member: the bytes
   the spliced responses must keep. *)
let reference_response ~id ~v (a : Protocol.answer) =
  let strings xs = Json.List (List.map (fun x -> Json.String x) xs) in
  let floats xs = Json.List (List.map (fun x -> Json.Float x) xs) in
  let opt_int = function None -> Json.Null | Some n -> Json.Int n in
  let confidence (c : Protocol.confidence) =
    Json.Obj
      [
        ("level", Json.Float c.level);
        ("resamples", Json.Int c.resamples);
        ("succeeded", Json.Int c.succeeded);
        ("seed", Json.Int c.seed);
        ("scaling_fraction", Json.Float c.scaling_fraction);
        ("verdict", Json.String c.verdict);
        ("stop_lo", opt_int c.stop_lo);
        ("stop_hi", opt_int c.stop_hi);
        ("p_lo", floats c.p_lo);
        ("p50", floats c.p50);
        ("p_hi", floats c.p_hi);
        ("header", Json.String c.header);
        ("rows", strings c.rows);
        ("verdict_line", Json.String c.verdict_line);
      ]
  in
  Json.to_string
    (Json.Obj
       ([ ("id", id) ]
       @ (if v >= 2 then [ ("v", Json.Int v) ] else [])
       @ [
           ("ok", Json.Bool true);
           ("summary", Json.String a.summary);
           ("header", Json.String Estima.Api.rows_header);
           ("rows", strings a.rows);
           ("verdict", Json.String a.verdict);
         ]
       @ match a.confidence with None -> [] | Some c -> [ ("confidence", confidence c) ]))

let answer_gen =
  let open QCheck.Gen in
  let text = string_size (int_range 0 12) in
  let texts = list_size (int_range 0 4) text in
  let floats = list_size (int_range 0 4) float in
  let confidence =
    map
      (fun ((level, resamples, succeeded, seed), (scaling_fraction, verdict, stop_lo, stop_hi),
            (p_lo, p50, p_hi), (header, rows, verdict_line)) ->
        {
          Protocol.level;
          resamples;
          succeeded;
          seed;
          scaling_fraction;
          verdict;
          stop_lo;
          stop_hi;
          p_lo;
          p50;
          p_hi;
          header;
          rows;
          verdict_line;
        })
      (quad (quad float nat nat nat) (quad float text (opt nat) (opt nat)) (triple floats floats floats)
         (triple text texts text))
  in
  map
    (fun (summary, rows, verdict, confidence) -> { Protocol.summary; rows; verdict; confidence })
    (quad text texts text (opt confidence))

(* Any id, either version, with and without a confidence block: the
   envelope spliced onto an answer's members is the one object above. *)
let prop_answer_response_splice =
  QCheck.Test.make ~count:500 ~name:"predict responses splice the envelope onto one rendering"
    (QCheck.make QCheck.Gen.(triple (json_gen ~with_floats:true) (int_range 1 2) answer_gen))
    (fun (id, v, a) ->
      let want = reference_response ~id ~v a in
      Protocol.answer_response ~id ~v a = want
      && Protocol.rendered_response ~id ~v (Protocol.render a) = want
      && Protocol.predict_response ~id ~v ~confidence:a.confidence ~summary:a.summary
           ~header:Estima.Api.rows_header ~rows:a.rows ~verdict:a.verdict
         = want)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Estima_obs.Metrics.create () in
  let c = Estima_obs.Metrics.counter m "requests" in
  Estima_obs.Metrics.Counter.incr c;
  Estima_obs.Metrics.Counter.incr ~by:4 c;
  Estima_obs.Metrics.Counter.incr ~by:(-3) c;
  (* ignored: monotonic *)
  Alcotest.(check int) "value" 5 (Estima_obs.Metrics.Counter.value c);
  Alcotest.(check bool) "same instrument" true (c == Estima_obs.Metrics.counter m "requests");
  (match Estima_obs.Metrics.histogram m "requests" with
  | _ -> Alcotest.fail "name reuse across kinds accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check string) "render" "counter requests 5\n" (Estima_obs.Metrics.render m)

let test_metrics_histogram_deterministic () =
  (* Quantiles depend only on the multiset of samples, not their order. *)
  let samples = List.init 1000 (fun i -> 1e-6 *. float_of_int (1 + ((i * 7919) mod 997))) in
  let build order =
    let m = Estima_obs.Metrics.create () in
    let h = Estima_obs.Metrics.histogram m "lat" in
    List.iter (Estima_obs.Metrics.Histogram.observe h) order;
    Estima_obs.Metrics.render m
  in
  let sorted = List.sort compare samples in
  Alcotest.(check string) "order-independent" (build samples) (build (List.rev sorted));
  let m = Estima_obs.Metrics.create () in
  let h = Estima_obs.Metrics.histogram m "lat" in
  List.iter (Estima_obs.Metrics.Histogram.observe h) samples;
  let s = Estima_obs.Metrics.Histogram.snapshot h in
  Alcotest.(check int) "count" 1000 s.count;
  let q50 = Estima_obs.Metrics.Histogram.snapshot_quantile s 0.5 in
  let q95 = Estima_obs.Metrics.Histogram.snapshot_quantile s 0.95 in
  let mn = Estima_obs.Metrics.Histogram.snapshot_quantile s 0.0 in
  let mx = Estima_obs.Metrics.Histogram.snapshot_quantile s 1.0 in
  Alcotest.(check bool) "min <= p50 <= p95 <= max" true (mn <= q50 && q50 <= q95 && q95 <= mx);
  (* A log bucket is at most one factor of 10^(1/8) wide, so the p50
     upper bound stays within ~33% of the true median. *)
  let true_median = List.nth sorted 499 in
  Alcotest.(check bool) "p50 near the true median" true
    (q50 >= true_median && q50 <= true_median *. 1.34)

let test_metrics_histogram_exact_max () =
  (* The maximum (p100) is the exact largest sample, not a bucket upper
     bound — also under concurrent observers, where it must come from
     the same single-lock snapshot as the counts. *)
  let m = Estima_obs.Metrics.create () in
  let h = Estima_obs.Metrics.histogram m "lat" in
  (* 0.00123 falls strictly inside a log bucket: any bucket-bound
     answer would differ from it. *)
  let true_max = 0.00123 and true_min = 3.7e-7 in
  let samples domain =
    List.init 250 (fun i -> true_min +. (1e-7 *. float_of_int ((i * 31) + domain)))
  in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            List.iter (Estima_obs.Metrics.Histogram.observe h) (samples d)))
  in
  List.iter Domain.join domains;
  Estima_obs.Metrics.Histogram.observe h true_max;
  Estima_obs.Metrics.Histogram.observe h true_min;
  let s = Estima_obs.Metrics.Histogram.snapshot h in
  Alcotest.(check (float 0.0)) "exact max" true_max s.max;
  Alcotest.(check (float 0.0)) "exact min" true_min s.min;
  Alcotest.(check (float 0.0)) "q1 is the exact max" true_max
    (Estima_obs.Metrics.Histogram.snapshot_quantile s 1.0);
  Alcotest.(check int) "snapshot count" 1002 s.count;
  Alcotest.(check (float 0.0)) "snapshot max" true_max s.max;
  Alcotest.(check (float 0.0)) "snapshot quantile clamps to max" true_max
    (Estima_obs.Metrics.Histogram.snapshot_quantile s 1.0);
  Alcotest.(check bool) "render carries the exact p100" true
    (contains ~sub:(Printf.sprintf "p100=%.17g" true_max) (Estima_obs.Metrics.render m));
  (* Empty histograms stay well-defined. *)
  let empty = Estima_obs.Metrics.histogram (Estima_obs.Metrics.create ()) "e" in
  let e = Estima_obs.Metrics.Histogram.snapshot empty in
  Alcotest.(check (float 0.0)) "empty max" neg_infinity e.max;
  Alcotest.(check (float 0.0)) "empty min" infinity e.min

(* ------------------------------------------------------------------ *)
(* Fit_cache                                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let c = Fit_cache.create ~capacity:2 in
  Fit_cache.add c "a" 1;
  Fit_cache.add c "b" 2;
  Alcotest.(check (option int)) "a hit" (Some 1) (Fit_cache.find c "a");
  (* "b" is now the LRU entry; adding "c" evicts it, not "a". *)
  Fit_cache.add c "c" 3;
  Alcotest.(check int) "bounded" 2 (Fit_cache.length c);
  Alcotest.(check (option int)) "b evicted" None (Fit_cache.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Fit_cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Fit_cache.find c "c");
  (* Replacing in place neither grows nor evicts. *)
  Fit_cache.add c "a" 10;
  Alcotest.(check int) "replace" 2 (Fit_cache.length c);
  Alcotest.(check (option int)) "replaced" (Some 10) (Fit_cache.find c "a")

(* ------------------------------------------------------------------ *)
(* Server, driven in-process                                           *)
(* ------------------------------------------------------------------ *)

(* Reassemble the prediction text carried by a predict response; must be
   byte-identical to the CLI output for the same CSV. *)
let response_text response =
  match Json.parse response with
  | Error e -> Alcotest.failf "bad response %s: %s" response e
  | Ok json ->
      let str key = Option.get (Option.bind (Json.member key json) Json.to_string_opt) in
      let rows =
        match Json.member "rows" json with
        | Some (Json.List rows) -> List.map (fun r -> Option.get (Json.to_string_opt r)) rows
        | _ -> Alcotest.fail "no rows"
      in
      str "summary" ^ "\n\n" ^ str "header" ^ "\n" ^ String.concat "\n" rows ^ "\n\nprediction: "
      ^ str "verdict" ^ "\n"

let collect_csv ?(max = 12) name =
  let entry = Option.get (Suite.find name) in
  Csv_export.series_to_csv
    (Estima.Api.collect ~seed:42 ~repetitions:3 ~machine:opteron1s ~spec:entry.Suite.spec
       ~max_threads:max ())

let predict_line ?(id = 1) ?v ?confidence ?spec ?file csv =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Int id); ("op", Json.String "predict") ]
       @ (match v with None -> [] | Some v -> [ ("v", Json.Int v) ])
       @ (match confidence with None -> [] | Some n -> [ ("confidence", Json.Int n) ])
       @ (match spec with None -> [] | Some spec -> [ ("spec", Json.String spec) ])
       @ (match file with None -> [] | Some file -> [ ("file", Json.String file) ])
       @ [ ("csv", Json.String csv) ]))

(* A CSV as its header cells and its rows of cells, and back. *)
let csv_table csv =
  match List.filter (( <> ) "") (String.split_on_char '\n' csv) with
  | header :: rows -> (String.split_on_char ',' header, List.map (String.split_on_char ',') rows)
  | [] -> Alcotest.fail "empty CSV"

let csv_text ?(eol = "\n") header rows =
  String.concat "" (List.map (fun cells -> String.concat "," cells ^ eol) (header :: rows))

let make_server ?clock ?(jobs = 1) ?(queue = 64) ?(cache = 16) ?timeout_ms () =
  Server.create ?clock
    {
      (Server.default_config ~machine:opteron1s) with
      Server.target = Some Machines.opteron48;
      jobs;
      queue_capacity = queue;
      cache_capacity = cache;
      default_timeout_ms = timeout_ms;
    }

(* [Server.create] pins the process's fan-out width, which outlives the
   server: reset it, so later suites run at the suite's ESTIMA_JOBS. *)
let with_server ?clock ?jobs ?queue ?cache ?timeout_ms f =
  let server = make_server ?clock ?jobs ?queue ?cache ?timeout_ms () in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Estima_par.Fanout.set_jobs None)
    (fun () -> f server)

let parse_response r =
  match Json.parse r with
  | Ok json -> json
  | Error e -> Alcotest.failf "unparseable response %s: %s" r e

let error_cause response =
  match Json.parse response with
  | Error e -> Alcotest.failf "unparseable response %s: %s" response e
  | Ok json -> (
      match Json.member "error" json with
      | None -> None
      | Some err ->
          Some
            ( Option.get (Option.bind (Json.member "cause" err) Json.to_string_opt),
              Option.get (Option.bind (Json.member "exit_code" err) Json.to_int_opt) ))

let counter_value server name =
  Estima_obs.Metrics.Counter.value (Estima_obs.Metrics.counter (Server.metrics server) name)

let test_server_parse_error () =
  with_server (fun server ->
      let responses, verdict = Server.handle_batch server [ "not json"; "{\"op\":\"sing\"}" ] in
      Alcotest.(check bool) "continue" true (verdict = `Continue);
      List.iter
        (fun r ->
          match error_cause r with
          | Some ("parse-error", 2) -> ()
          | other ->
              Alcotest.failf "expected parse-error/2, got %s"
                (match other with Some (c, n) -> Printf.sprintf "%s/%d" c n | None -> "ok"))
        responses)

let test_server_cache_and_identity () =
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let first, _ = Server.handle_batch server [ predict_line csv ] in
      let again, _ = Server.handle_batch server [ predict_line csv ] in
      Alcotest.(check int) "one miss" 1 (counter_value server "estima_cache_misses_total");
      Alcotest.(check int) "one hit" 1 (counter_value server "estima_cache_hits_total");
      Alcotest.(check int) "a resent frame skips ingest" 1
        (counter_value server "estima_ingest_memo_hits_total");
      Alcotest.(check string) "hit byte-identical to miss" (List.hd first) (List.hd again);
      (* A duplicate payload later in one batch finds the answer the
         first one cached: one miss, one hit, identical responses. *)
      let csv2 = collect_csv ~max:11 "kmeans" in
      let pair, _ = Server.handle_batch server [ predict_line ~id:7 csv2; predict_line ~id:8 csv2 ] in
      Alcotest.(check int) "the later duplicate is a hit" 2
        (counter_value server "estima_cache_hits_total");
      Alcotest.(check int) "one miss for the new payload" 2
        (counter_value server "estima_cache_misses_total");
      (match pair with
      | [ a; b ] ->
          Alcotest.(check string) "identical text within batch" (response_text a) (response_text b)
      | _ -> Alcotest.fail "expected two responses");
      (* The key is the series' values, not the CSV text: the same
         values spelled otherwise (1500 as 1.50...e+03, padded cells,
         CRLF, rows reversed) are one entry, while one ulp in one cell
         is another. *)
      let csv3 = collect_csv ~max:10 "kmeans" in
      let header, rows = csv_table csv3 in
      let respelled =
        csv_text ~eol:"\r\n" header
          (List.rev_map
             (List.map2
                (fun name cell ->
                  if name = "threads" || name = "footprint_lines" then "  " ^ cell ^ " "
                  else Printf.sprintf " %.17e" (float_of_string cell))
                header)
             rows)
      in
      Alcotest.(check bool) "respelled text differs" false (respelled = csv3);
      let canonical, _ = Server.handle_batch server [ predict_line csv3 ] in
      let other, _ = Server.handle_batch server [ predict_line respelled ] in
      Alcotest.(check int) "canonical text is a miss" 3 (counter_value server "estima_cache_misses_total");
      Alcotest.(check int) "respelled text is a hit" 3 (counter_value server "estima_cache_hits_total");
      Alcotest.(check int) "respelled text is ingested" 2
        (counter_value server "estima_ingest_memo_hits_total");
      Alcotest.(check string) "respelled hit byte-identical" (List.hd canonical) (List.hd other);
      let nudged =
        csv_text header
          (List.mapi
             (fun i cells ->
               if i <> 1 then cells
               else
                 List.mapi
                   (fun j cell ->
                     if j <> 1 then cell else Printf.sprintf "%.17g" (Float.succ (float_of_string cell)))
                   cells)
             rows)
      in
      ignore (Server.handle_batch server [ predict_line nudged ]);
      Alcotest.(check int) "one ulp is a miss" 4 (counter_value server "estima_cache_misses_total");
      Alcotest.(check int) "and no hit" 3 (counter_value server "estima_cache_hits_total"))

(* The ingest memo keys on the request's name as well as its CSV bytes:
   one CSV text under four specs (an empty one and none among them) and
   two file labels is six workloads, each a fit-cache miss answered with
   its own name, and each frame sent again is a hit. *)
let test_server_memo_names () =
  let csv = collect_csv "kmeans" in
  let requests =
    [
      ("a", predict_line ~spec:"a" csv);
      ("b", predict_line ~spec:"b" csv);
      ("", predict_line ~spec:"" csv);
      ("<wire>", predict_line csv);
      ("one", predict_line ~file:"x/one.csv" csv);
      ("two", predict_line ~file:"y/two.csv" csv);
    ]
  in
  with_server (fun server ->
      let summary response =
        match Option.bind (Json.member "summary" (parse_response response)) Json.to_string_opt with
        | Some summary -> summary
        | None -> Alcotest.failf "no summary in %s" response
      in
      let send (name, line) =
        let misses = counter_value server "estima_cache_misses_total" in
        let response = List.hd (fst (Server.handle_batch server [ line ])) in
        if not (String.starts_with ~prefix:(Printf.sprintf "prediction for %s on " name) (summary response))
        then Alcotest.failf "the answer for %S names another workload: %s" name (summary response);
        counter_value server "estima_cache_misses_total" - misses
      in
      List.iter
        (fun ((name, _) as request) ->
          Alcotest.(check int) (Printf.sprintf "%S misses" name) 1 (send request))
        requests;
      List.iter
        (fun ((name, _) as request) ->
          Alcotest.(check int) (Printf.sprintf "%S again hits" name) 0 (send request))
        requests;
      Alcotest.(check int) "six hits" 6 (counter_value server "estima_cache_hits_total");
      Alcotest.(check int) "from the memo" 6 (counter_value server "estima_ingest_memo_hits_total"))

(* The memo compares what ingest reads by value: a CSV one byte away
   from a primed one (its last digit) is its own entry, answered as a
   fresh server answers it (the fit-cache miss shows that its series is
   its own), while the primed CSV under another id,
   another version or another member order is a memo hit. *)
let test_server_memo_by_value () =
  let csv = String.trim (collect_csv "kmeans") in
  let last = String.length csv - 1 in
  let digit = csv.[last] in
  if digit < '0' || digit > '9' then Alcotest.failf "CSV ends in %C, not a digit" digit;
  let nudged = String.sub csv 0 last ^ String.make 1 (if digit = '9' then '8' else Char.chr (Char.code digit + 1)) in
  let answer_of line = with_server (fun server -> List.hd (fst (Server.handle_batch server [ line ]))) in
  with_server (fun server ->
      let send line = List.hd (fst (Server.handle_batch server [ line ])) in
      let memo () = counter_value server "estima_ingest_memo_hits_total" in
      let primed = send (predict_line csv) in
      Alcotest.(check int) "a first frame is ingested" 0 (memo ());
      let other = send (predict_line nudged) in
      Alcotest.(check int) "the last byte differs: no memo hit" 0 (memo ());
      Alcotest.(check int) "and a fit-cache miss" 2 (counter_value server "estima_cache_misses_total");
      Alcotest.(check string) "its own answer" (answer_of (predict_line nudged)) other;
      let reordered =
        Json.to_string
          (Json.Obj [ ("csv", Json.String csv); ("op", Json.String "predict"); ("id", Json.Int 4) ])
      in
      List.iteri
        (fun i (what, line) ->
          let response = send line in
          Alcotest.(check int) (what ^ ": a memo hit") (i + 1) (memo ());
          Alcotest.(check string) (what ^ ": the primed answer") (response_text primed)
            (response_text response))
        [
          ("another id", predict_line ~id:2 csv);
          ("another version", predict_line ~id:3 ~v:2 csv);
          ("another member order", reordered);
        ];
      Alcotest.(check int) "three fit-cache hits" 3 (counter_value server "estima_cache_hits_total"))

(* A metrics dump counts the requests ahead of it in its batch: here the
   miss, whose latency is observed when it is answered. *)
let test_server_scrape_counts_its_batch () =
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      match Server.handle_batch server [ predict_line csv; {|{"id":2,"op":"metrics"}|} ] with
      | [ _; scrape ], _ -> (
          match Option.bind (Json.member "metrics" (parse_response scrape)) Json.to_string_opt with
          | Some dump ->
              Alcotest.(check bool) "the miss's latency is in the dump" true
                (contains ~sub:"histogram estima_latency_seconds count=1 " dump);
              Alcotest.(check bool) "and its miss" true
                (contains ~sub:"counter estima_cache_misses_total 1\n" dump)
          | None -> Alcotest.failf "no dump in %s" scrape)
      | _ -> Alcotest.fail "expected two responses")

(* Three batches: four plain misses; one confidence miss alone; and
   four confidence misses.  Each miss runs on the dispatcher in turn and
   fans its fits and bootstrap out on the pool. *)
let test_server_jobs_byte_identical () =
  let csvs = List.map collect_csv [ "kmeans"; "genome"; "ssca2"; "vacation-low" ] in
  let batches =
    [
      ("plain", List.mapi (fun i csv -> predict_line ~id:i csv) csvs);
      ("lone confidence", [ predict_line ~id:0 ~v:2 ~confidence:10 (List.hd csvs) ]);
      ( "four confidence",
        List.mapi (fun i csv -> predict_line ~id:i ~v:2 ~confidence:(5 + i) csv) csvs );
    ]
  in
  List.iter
    (fun (what, batch) ->
      let run jobs = with_server ~jobs (fun server -> fst (Server.handle_batch server batch)) in
      let sequential = run 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check (list string)) (Printf.sprintf "%s: jobs=1 vs jobs=%d" what jobs)
            sequential (run jobs))
        [ 2; 4 ])
    batches

let test_server_jobs_pin_fanout () =
  with_server ~jobs:3 (fun _ ->
      Alcotest.(check int) "fan-out width" 3 (Estima_par.Fanout.jobs ()))

(* ------------------------------------------------------------------ *)
(* Protocol version negotiation (v1 default, v2 opt-in)                *)
(* ------------------------------------------------------------------ *)

let test_protocol_v1_bytes_unchanged () =
  (* A request without "v" negotiates v1: the response carries no "v"
     member and no "confidence" member — existing clients see the exact
     pre-v2 wire format. *)
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let responses, _ = Server.handle_batch server [ predict_line csv ] in
      let json = parse_response (List.hd responses) in
      Alcotest.(check bool) "no v member" true (Json.member "v" json = None);
      Alcotest.(check bool) "no confidence member" true (Json.member "confidence" json = None))

let test_protocol_v2_echoes_version () =
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let responses, _ =
        Server.handle_batch server [ predict_line ~v:2 csv; predict_line ~id:2 csv ]
      in
      match List.map parse_response responses with
      | [ v2; v1 ] ->
          Alcotest.(check (option int)) "v2 echoed" (Some 2)
            (Option.bind (Json.member "v" v2) Json.to_int_opt);
          Alcotest.(check bool) "v1 reply to the same series has no v" true
            (Json.member "v" v1 = None)
      | _ -> Alcotest.fail "expected two responses")

let test_protocol_rejects_unknown_version () =
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let responses, _ = Server.handle_batch server [ predict_line ~v:3 csv ] in
      match error_cause (List.hd responses) with
      | Some ("bad-config", 2) -> ()
      | other ->
          Alcotest.failf "expected bad-config/2, got %s"
            (match other with Some (c, n) -> Printf.sprintf "%s/%d" c n | None -> "ok"))

let test_protocol_confidence_requires_v2 () =
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let responses, _ = Server.handle_batch server [ predict_line ~confidence:20 csv ] in
      let r = List.hd responses in
      (match error_cause r with
      | Some ("bad-config", 2) -> ()
      | _ -> Alcotest.failf "expected bad-config/2, got %s" r);
      match Json.member "error" (parse_response r) with
      | Some err ->
          let msg = Option.get (Option.bind (Json.member "message" err) Json.to_string_opt) in
          if not (String.length msg > 0 && String.index_opt msg '2' <> None) then
            Alcotest.failf "rejection should name protocol version 2: %s" msg
      | None -> Alcotest.fail "no error member")

let test_protocol_v2_confidence_block () =
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let responses, _ =
        Server.handle_batch server [ predict_line ~v:2 ~confidence:20 csv ]
      in
      let json = parse_response (List.hd responses) in
      match Json.member "confidence" json with
      | None -> Alcotest.failf "no confidence member in %s" (List.hd responses)
      | Some c ->
          let int k = Option.get (Option.bind (Json.member k c) Json.to_int_opt) in
          Alcotest.(check int) "resamples" 20 (int "resamples");
          Alcotest.(check int) "succeeded" 20 (int "succeeded");
          Alcotest.(check int) "seed" 42 (int "seed");
          (match Json.member "p50" c with
          | Some (Json.List xs) -> Alcotest.(check int) "48 p50 points" 48 (List.length xs)
          | _ -> Alcotest.fail "no p50 list");
          let verdict = Option.get (Option.bind (Json.member "verdict" c) Json.to_string_opt) in
          if not (List.mem verdict [ "scales"; "stops"; "uncertain" ]) then
            Alcotest.failf "unexpected verdict %s" verdict)

let test_protocol_confidence_cache_distinct () =
  (* The same series with and without confidence must not share a cache
     entry: the plain entry has no bands to serve, the confidence entry
     costs resamples the plain request never asked for. *)
  let csv = collect_csv "kmeans" in
  with_server (fun server ->
      let _ = Server.handle_batch server [ predict_line csv ] in
      let responses, _ = Server.handle_batch server [ predict_line ~v:2 ~confidence:10 csv ] in
      Alcotest.(check int) "two misses" 2 (counter_value server "estima_cache_misses_total");
      Alcotest.(check bool) "confidence present" true
        (Json.member "confidence" (parse_response (List.hd responses)) <> None);
      Alcotest.(check int) "resamples metered" 10
        (counter_value server "estima_confidence_resamples_total"))

let test_server_queue_full () =
  (* Four distinct payloads (a duplicate would be a cache hit, which
     takes no place in the queue) against a queue of two. *)
  let csvs = List.map (fun max -> collect_csv ~max "kmeans") [ 9; 10; 11; 12 ] in
  with_server ~queue:2 (fun server ->
      let lines = List.mapi (fun i csv -> predict_line ~id:i csv) csvs in
      let responses, _ = Server.handle_batch server lines in
      let shed =
        List.filter_map (fun r -> error_cause r) responses
        |> List.filter (fun (c, _) -> c = "overloaded")
      in
      Alcotest.(check int) "two shed" 2 (List.length shed);
      List.iter (fun (_, code) -> Alcotest.(check int) "exit code 4" 4 code) shed;
      Alcotest.(check int) "counter" 2 (counter_value server "estima_shed_overload_total");
      (* The admitted two still answered. *)
      let ok = List.filter (fun r -> error_cause r = None) responses in
      Alcotest.(check int) "two served" 2 (List.length ok))

let test_server_deadline () =
  (* A clock that advances 10 ms per reading: by the time the dispatcher
     re-reads it for the deadline check, any timeout below 10 ms has
     already passed.  timeout_ms = 0 makes the shed deterministic. *)
  let now = ref 0.0 in
  let clock () =
    let t = !now in
    now := t +. 0.010;
    t
  in
  let csv = collect_csv "kmeans" in
  with_server ~clock ~timeout_ms:0 (fun server ->
      let responses, _ = Server.handle_batch server [ predict_line csv ] in
      (match error_cause (List.hd responses) with
      | Some ("deadline-exceeded", 4) -> ()
      | other ->
          Alcotest.failf "expected deadline-exceeded/4, got %s"
            (match other with Some (c, n) -> Printf.sprintf "%s/%d" c n | None -> "ok"));
      Alcotest.(check int) "counter" 1 (counter_value server "estima_shed_deadline_total"));
  (* A per-request timeout_ms overrides the server default: with a
     generous request deadline the same server setup answers. *)
  let request =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Int 1);
           ("op", Json.String "predict");
           ("csv", Json.String csv);
           ("timeout_ms", Json.Int 60_000);
         ])
  in
  with_server ~clock ~timeout_ms:0 (fun server ->
      let responses, _ = Server.handle_batch server [ request ] in
      Alcotest.(check bool) "request override answers" true (error_cause (List.hd responses) = None))

let test_server_shutdown_and_metrics () =
  with_server (fun server ->
      let responses, verdict =
        Server.handle_batch server [ "{\"id\":9,\"op\":\"metrics\"}"; "{\"id\":10,\"op\":\"shutdown\"}" ]
      in
      Alcotest.(check bool) "shutdown signalled" true (verdict = `Shutdown);
      (match Json.parse (List.hd responses) with
      | Ok json ->
          let dump = Option.get (Option.bind (Json.member "metrics" json) Json.to_string_opt) in
          Alcotest.(check bool) "dump has requests counter" true
            (contains ~sub:"counter estima_requests_total" dump)
      | Error e -> Alcotest.fail e);
      match Json.parse (List.nth responses 1) with
      | Ok json -> Alcotest.(check (option bool)) "bye" (Some true) Json.(member "bye" json |> Option.map (function Bool b -> b | _ -> false))
      | Error e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* End to end: the real binary over pipes and a socket                 *)
(* ------------------------------------------------------------------ *)

(* Resolve the sibling binaries relative to the test executable so the
   suite works under both `dune runtest` (cwd = _build/default/test) and
   `dune exec` (cwd = workspace root). *)
let bin_exe name = Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name)

let serve_exe = bin_exe "estima_serve.exe"

let cli_exe = bin_exe "estima_cli.exe"

let write_temp_csv name csv =
  let path = Filename.temp_file ("estima_" ^ name ^ "_") ".csv" in
  let oc = open_out path in
  output_string oc csv;
  close_out oc;
  path

(* What `estima_cli ARGS` prints; a failing run fails the test. *)
let cli_stdout args =
  let ic = Unix.open_process_in (Filename.quote_command cli_exe args) in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "estima_cli %s failed" (String.concat " " args));
  Buffer.contents buf

(* What `estima_cli predict --from path` prints (same machine defaults as
   the served setup). *)
let cli_predict path = cli_stdout [ "predict"; "--from"; path ]


let spawn_serve args =
  (* cloexec: the child must NOT inherit the parent's pipe ends beyond
     the dup2'd stdin/stdout, or closing [to_server] would never read as
     EOF on the server side (it would hold its own copy of the write
     end).  The EOF-flush tests depend on this. *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process serve_exe
      (Array.of_list (serve_exe :: args))
      stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  (pid, Unix.out_channel_of_descr stdin_w, Unix.in_channel_of_descr stdout_r)

(* Kill a spawned server that is still running: the clean-up of a test
   whose server may hang.  A server the test already reaped is left
   alone, so its pid is never signalled after it could be reused. *)
let kill_if_running pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

(* Ingestion takes any header cell as a column name, but the canonical
   CSV printer refuses one it would have to quote.  The cache key must
   not print the CSV: the server answers such a file as the CLI does. *)
let test_server_unquotable_column () =
  let header, rows = csv_table (collect_csv "kmeans") in
  let header = List.map (fun name -> if name = "0D0h" then "stm abort" else name) header in
  Alcotest.(check bool) "renamed a column" true (List.mem "stm abort" header);
  let csv = csv_text header rows in
  let path = write_temp_csv "unquotable" csv in
  let spec = Filename.remove_extension (Filename.basename path) in
  let expected = cli_predict path in
  Sys.remove path;
  with_server (fun server ->
      match Server.handle_batch server [ predict_line ~id:42 ~spec csv ] with
      | [ response ], _ ->
          Alcotest.(check bool) "the request's own id" true
            (Result.map (Json.member "id") (Json.parse response) = Ok (Some (Json.Int 42)));
          Alcotest.(check int) "no internal error" 0
            (counter_value server "estima_internal_errors_total");
          Alcotest.(check string) "same text as the CLI" expected (response_text response)
      | _ -> Alcotest.fail "expected one response")

(* A time whose square overflows (data/overflow.csv) is a typed
   bad-value answer, as the CLI's exit 2, not "ok":true with "corr nan"
   and not an internal error. *)
let test_server_overflowing_value () =
  let csv = In_channel.with_open_bin "data/overflow.csv" In_channel.input_all in
  with_server (fun server ->
      match Server.handle_batch server [ predict_line ~id:7 ~spec:"overflow" csv ] with
      | [ response ], _ -> (
          match Json.parse response with
          | Error e -> Alcotest.fail e
          | Ok json ->
              Alcotest.(check bool) "not ok" true (Json.member "ok" json = Some (Json.Bool false));
              let cause = Option.bind (Json.member "error" json) (Json.member "cause") in
              Alcotest.(check bool) "cause bad-value" true (cause = Some (Json.String "bad-value"));
              Alcotest.(check int) "no internal error" 0
                (counter_value server "estima_internal_errors_total"))
      | _ -> Alcotest.fail "expected one response")

(* data/underflow.csv (times in 1e-200 units) through an in-process
   server: it answered "ok":true with "corr nan"; the answer now holds no
   nan, and no row of its 48, nor of its bands, reads 0.00000. *)
let test_server_underflowing_times () =
  let csv = In_channel.with_open_bin "data/underflow.csv" In_channel.input_all in
  let rows what json =
    match Option.bind (Json.member "rows" json) Json.to_list_opt with
    | Some rows ->
        let rows = List.filter_map Json.to_string_opt rows in
        Alcotest.(check int) (what ^ " rows") 48 (List.length rows);
        List.iter
          (fun row ->
            if List.mem "0.00000" (String.split_on_char ' ' row) then
              Alcotest.failf "%s row %S reads 0.00000" what row)
          rows
    | None -> Alcotest.failf "no %s rows" what
  in
  with_server (fun server ->
      match
        Server.handle_batch server
          [ predict_line ~id:7 ~spec:"underflow" csv; predict_line ~id:8 ~v:2 ~confidence:10 ~spec:"underflow" csv ]
      with
      | [ response; banded ], _ ->
          List.iter
            (fun response ->
              (match Json.parse response with
              | Ok json -> Alcotest.(check bool) "ok" true (Json.member "ok" json = Some (Json.Bool true))
              | Error e -> Alcotest.fail e);
              if contains ~sub:"nan" response then Alcotest.failf "response %S holds nan" response)
            [ response; banded ];
          rows "predicted" (parse_response response);
          (match Json.member "confidence" (parse_response banded) with
          | Some confidence -> rows "band" confidence
          | None -> Alcotest.fail "no confidence block");
          Alcotest.(check int) "no internal error" 0 (counter_value server "estima_internal_errors_total")
      | _ -> Alcotest.fail "expected two responses")

let test_soak_1000_requests () =
  let names = [ "kmeans"; "genome"; "ssca2"; "vacation-low"; "intruder"; "yada"; "labyrinth"; "kmeans-high" ] in
  let names = List.filter (fun n -> Suite.find n <> None) names in
  Alcotest.(check bool) "several distinct payloads" true (List.length names >= 4);
  let payloads =
    List.map
      (fun name ->
        let csv = collect_csv name in
        let path = write_temp_csv name csv in
        (* The served spec name must match what the CLI derives from the
           file's basename for the summary line to be byte-identical. *)
        let spec = Filename.remove_extension (Filename.basename path) in
        let line id =
          Json.to_string
            (Json.Obj
               [
                 ("id", Json.Int id);
                 ("op", Json.String "predict");
                 ("csv", Json.String csv);
                 ("spec", Json.String spec);
               ])
        in
        (path, line))
      names
  in
  let expected = List.map (fun (path, _) -> cli_predict path) payloads in
  let pid, to_server, from_server = spawn_serve [ "--jobs"; "4"; "--cache"; "32" ] in
  let n_requests = 1000 in
  (* Small pipelining window: requests carry whole CSVs and responses
     whole prediction tables, so 10 in flight keeps both directions of
     the pipe comfortably under the 64K buffer — no deadlock.  The
     cache counters do not care how requests clump into batches (a
     duplicate later in a batch is a hit on what the first cached). *)
  let chunk = 10 in
  let payload_count = List.length payloads in
  let served = ref 0 in
  for round = 0 to (n_requests / chunk) - 1 do
    for i = 0 to chunk - 1 do
      let id = (round * chunk) + i in
      let _, line = List.nth payloads (id mod payload_count) in
      output_string to_server (line id);
      output_char to_server '\n'
    done;
    flush to_server;
    for i = 0 to chunk - 1 do
      let id = (round * chunk) + i in
      let response = input_line from_server in
      let want = List.nth expected (id mod payload_count) in
      if response_text response <> want then
        Alcotest.failf "request %d: served text differs from the CLI" id;
      incr served
    done
  done;
  Alcotest.(check int) "all answered" n_requests !served;
  (* Metrics: the cache must have absorbed almost everything, and the
     latency histogram must report quantiles. *)
  output_string to_server "{\"id\":-1,\"op\":\"metrics\"}\n{\"id\":-2,\"op\":\"shutdown\"}\n";
  flush to_server;
  let metrics_response = input_line from_server in
  let dump =
    match Json.parse metrics_response with
    | Ok json -> Option.get (Option.bind (Json.member "metrics" json) Json.to_string_opt)
    | Error e -> Alcotest.fail e
  in
  let find_counter name =
    dump |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ "counter"; n; v ] when n = name -> int_of_string_opt v
           | _ -> None)
  in
  let hits = Option.value ~default:0 (find_counter "estima_cache_hits_total") in
  let misses = Option.value ~default:0 (find_counter "estima_cache_misses_total") in
  Alcotest.(check bool) "nonzero cache-hit rate" true (hits > 0);
  Alcotest.(check int) "hits + misses = requests" n_requests (hits + misses);
  Alcotest.(check int) "misses = distinct payloads" payload_count misses;
  let latency_line =
    dump |> String.split_on_char '\n'
    |> List.find_opt (fun l -> contains ~sub:"histogram estima_latency_seconds" l)
  in
  (match latency_line with
  | Some line ->
      Alcotest.(check bool) "p50 reported" true (contains ~sub:"p50=" line);
      Alcotest.(check bool) "p95 reported" true (contains ~sub:"p95=" line);
      Printf.printf "soak latency: %s\n%!" line
  | None -> Alcotest.fail "no latency histogram in the metrics dump");
  ignore (input_line from_server);
  close_out to_server;
  close_in from_server;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "estima_serve did not exit cleanly");
  List.iter (fun (path, _) -> Sys.remove path) payloads

let test_socket_concurrent_clients () =
  let csv = collect_csv "kmeans" in
  let path = write_temp_csv "sock" csv in
  let spec = Filename.remove_extension (Filename.basename path) in
  let expected = cli_predict path in
  let socket_path = Filename.temp_file "estima_serve_" ".sock" in
  Sys.remove socket_path;
  let pid =
    Unix.create_process serve_exe
      [| serve_exe; "--jobs"; "4"; "--socket"; socket_path |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* Wait for the listener. *)
  let rec await tries =
    if Sys.file_exists socket_path then ()
    else if tries = 0 then Alcotest.fail "socket never appeared"
    else begin
      Unix.sleepf 0.05;
      await (tries - 1)
    end
  in
  await 100;
  let line id =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Int id);
           ("op", Json.String "predict");
           ("csv", Json.String csv);
           ("spec", Json.String spec);
         ])
  in
  let client k =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
    let texts =
      List.init 25 (fun i ->
          output_string oc (line ((k * 100) + i));
          output_char oc '\n';
          flush oc;
          response_text (input_line ic))
    in
    Unix.close fd;
    texts
  in
  let domains = List.init 4 (fun k -> Domain.spawn (fun () -> client k)) in
  let all = List.concat_map Domain.join domains in
  Alcotest.(check int) "100 responses" 100 (List.length all);
  List.iter
    (fun text ->
      if text <> expected then Alcotest.fail "socket response differs from the CLI")
    all;
  (* One more client shuts the server down. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
  output_string oc "{\"id\":0,\"op\":\"shutdown\"}\n";
  flush oc;
  ignore (input_line ic);
  Unix.close fd;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "estima_serve did not exit cleanly");
  Sys.remove path

(* A wire target_max past the library's limit of 1024 is a typed
   bad-config (exit 2), answered before any fit: max_int and 2^54 used
   to reach Array.make and the internal-error path. *)
let test_server_target_limit () =
  let csv = collect_csv "kmeans" in
  let line target =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Int target);
           ("op", Json.String "predict");
           ("csv", Json.String csv);
           ("target_max", Json.Int target);
         ])
  in
  with_server (fun server ->
      let targets = [ max_int; 1 lsl 54; 1025 ] in
      match Server.handle_batch server (List.map line targets @ [ {|{"op":"metrics"}|} ]) with
      | responses, _ when List.length responses = 4 ->
          List.iteri
            (fun i target ->
              Alcotest.(check (option (pair string int)))
                (Printf.sprintf "target_max %d" target)
                (Some ("bad-config", 2))
                (error_cause (List.nth responses i)))
            targets;
          Alcotest.(check bool) "no internal error in the dump" false
            (contains ~sub:"estima_internal_errors_total" (List.nth responses 3))
      | _ -> Alcotest.fail "expected four responses")

let metrics_dump response =
  match Option.bind (Json.member "metrics" (parse_response response)) Json.to_string_opt with
  | Some dump -> dump
  | None -> Alcotest.failf "no dump in %s" response

(* Requests are answered one at a time, in wire order, so a scrape sees
   exactly the requests ahead of it. *)
let test_server_scrape_counts_what_is_ahead () =
  let csv = collect_csv "kmeans" in
  let scrape id = Printf.sprintf {|{"id":%d,"op":"metrics"}|} id in
  with_server (fun server ->
      match Server.handle_batch server [ scrape 1; predict_line ~id:2 csv; scrape 3 ] with
      | [ first; _; second ], _ ->
          Alcotest.(check bool) "the first dump has no predict" false
            (contains ~sub:"estima_predict_total" (metrics_dump first));
          Alcotest.(check bool) "the second counts it" true
            (contains ~sub:"counter estima_predict_total 1\n" (metrics_dump second))
      | _ -> Alcotest.fail "expected three responses")

(* A miss's deadline runs from its batch's arrival, so it includes the
   misses computed ahead of it: a 20 ms deadline behind a 50 ms miss is
   shed. *)
let test_server_deadline_counts_misses_ahead () =
  let slow = predict_line ~id:1 ~spec:"slow" (collect_csv "kmeans") in
  let hurried =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Int 2);
           ("op", Json.String "predict");
           ("csv", Json.String (collect_csv "genome"));
           ("timeout_ms", Json.Int 20);
         ])
  in
  with_server (fun server ->
      Server.inject_fault server ~spec:"slow" (Server.Fault_delay 0.05);
      match Server.handle_batch server [ slow; hurried ] with
      | [ a; b ], _ ->
          Alcotest.(check (option (pair string int))) "the slow miss answers" None (error_cause a);
          Alcotest.(check (option (pair string int))) "the one behind it is shed"
            (Some ("deadline-exceeded", 4)) (error_cause b);
          Alcotest.(check int) "counter" 1 (counter_value server "estima_shed_deadline_total")
      | _ -> Alcotest.fail "expected two responses")

(* A request's recorded latency runs from its batch's arrival to its own
   answer: a primed hit queued behind a 50 ms miss records at least
   50 ms.  The batch's two new samples are read as the histogram's
   bucket counts before and after it. *)
let test_server_hit_latency_counts_miss_ahead () =
  let delay = 0.05 in
  let hit = predict_line ~id:1 (collect_csv "kmeans") in
  let slow = predict_line ~id:2 ~spec:"slow" (collect_csv "genome") in
  let bucket_of value =
    let h = Estima_obs.Metrics.histogram (Estima_obs.Metrics.create ()) "probe" in
    Estima_obs.Metrics.Histogram.observe h value;
    fst (List.hd (Estima_obs.Metrics.Histogram.snapshot h).buckets)
  in
  with_server (fun server ->
      let latency () =
        Estima_obs.Metrics.Histogram.snapshot
          (Estima_obs.Metrics.histogram (Server.metrics server) "estima_latency_seconds")
      in
      ignore (Server.handle_batch server [ hit ]);
      Server.inject_fault server ~spec:"slow" (Server.Fault_delay delay);
      let before = latency () in
      ignore (Server.handle_batch server [ slow; hit ]);
      let after = latency () in
      Alcotest.(check int) "the hit was a hit" 1 (counter_value server "estima_cache_hits_total");
      let added =
        List.concat_map
          (fun (bucket, n) ->
            let had = Option.value ~default:0 (List.assoc_opt bucket before.buckets) in
            List.init (n - had) (fun _ -> bucket))
          after.buckets
      in
      Alcotest.(check int) "two samples" 2 (List.length added);
      List.iter
        (fun bucket ->
          if bucket < bucket_of delay then
            Alcotest.failf "a sample in bucket %d, below the delay's %d" bucket (bucket_of delay))
        added)

let suite =
  [
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json rejects malformed input", `Quick, test_json_errors);
    ("json strictness: \\u escapes and number signs", `Quick, test_json_strictness);
    ("wire framing edge cases", `Quick, test_frames);
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_print_fixpoint;
    ("metrics counters", `Quick, test_metrics_counters);
    ("metrics histogram is order-independent", `Quick, test_metrics_histogram_deterministic);
    ("metrics histogram tracks the exact max (p100)", `Quick, test_metrics_histogram_exact_max);
    ("fit cache is LRU", `Quick, test_cache_lru);
    ("server rejects unparseable requests", `Quick, test_server_parse_error);
    ("server cache hit/miss counters and identity", `Quick, test_server_cache_and_identity);
    ("server responses byte-identical across jobs", `Quick, test_server_jobs_byte_identical);
    ("protocol v1 bytes unchanged", `Quick, test_protocol_v1_bytes_unchanged);
    ("protocol v2 echoes version", `Quick, test_protocol_v2_echoes_version);
    ("protocol rejects unknown version", `Quick, test_protocol_rejects_unknown_version);
    ("protocol confidence requires v2", `Quick, test_protocol_confidence_requires_v2);
    ("protocol v2 confidence block", `Quick, test_protocol_v2_confidence_block);
    ("protocol confidence cache distinct", `Quick, test_protocol_confidence_cache_distinct);
    ("server sheds on a full queue", `Quick, test_server_queue_full);
    ("server sheds on a blown deadline", `Quick, test_server_deadline);
    ("server metrics and shutdown", `Quick, test_server_shutdown_and_metrics);
    ("soak: 1000 pipelined requests over stdio", `Slow, test_soak_1000_requests);
    ("soak: concurrent clients over a socket", `Slow, test_socket_concurrent_clients);
    ("server predicts a CSV with an unquotable column name", `Quick, test_server_unquotable_column);
    ("server answers an overflowing value with bad-value", `Quick, test_server_overflowing_value);
    ("json string escapes and their errors", `Quick, test_json_string_escapes);
    QCheck_alcotest.to_alcotest prop_json_plain_string;
    QCheck_alcotest.to_alcotest prop_answer_response_splice;
    ("server memo keys on the request's name", `Quick, test_server_memo_names);
    ("server scrape counts its own batch", `Quick, test_server_scrape_counts_its_batch);
    QCheck_alcotest.to_alcotest prop_json_string_escape;
    ("server answers times in 1e-200 units without nan", `Quick, test_server_underflowing_times);
    QCheck_alcotest.to_alcotest prop_frames_match_reference;
    QCheck_alcotest.to_alcotest prop_json_string_matches_reference;
    ("server memo keys on the CSV's value", `Quick, test_server_memo_by_value);
    QCheck_alcotest.to_alcotest prop_json_member_matches_assoc;
    ("server jobs pin the fan-out width", `Quick, test_server_jobs_pin_fanout);
    ("server answers a target past the limit with bad-config", `Quick, test_server_target_limit);
    ("a scrape counts only the requests ahead of it", `Quick, test_server_scrape_counts_what_is_ahead);
    ("a miss's deadline counts the misses ahead of it", `Quick, test_server_deadline_counts_misses_ahead);
    ("a hit's latency counts the miss ahead of it", `Quick, test_server_hit_latency_counts_miss_ahead);
  ]
