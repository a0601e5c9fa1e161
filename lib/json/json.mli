(** The one JSON codec of the system, with no dependency beyond the
    stdlib.

    Everything the system writes as JSON comes out of this module: the
    service's newline-delimited wire protocol (one value per line), the
    fit-selection trace ([--trace=json]), the accuracy reports and golden
    files, and the load harness's [--json] report.  It covers objects,
    arrays, strings, integers, floats, booleans and null.

    Printing is canonical enough for tests to byte-compare output:
    object members print in the order given, strings escape the
    mandatory characters only, integers print as integers, finite floats
    print as [%.17g] (so they read back bit-exact) and non-finite floats
    as [null].  {!to_string} never emits a newline, so one value is
    always one line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; trailing input after the value (other than
    whitespace) is an error.  The error string says what was expected
    and at which byte offset. *)

val to_string : t -> string
(** Canonical one-line rendering. *)

val pretty : t -> string
(** Multi-line rendering with 2-space indentation, ending in a newline.
    Scalars print exactly as in {!to_string}, so
    [parse (pretty v) = parse (to_string v)].  Golden files and
    [validate --json] are written in this form so that drifts show as
    reviewable diffs. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object member lookup; [None] for absent members and non-objects. *)

val to_string_opt : t -> string option

val to_int_opt : t -> int option
(** Accepts [Int]; also a [Float] with an exact integer value. *)

val to_float_opt : t -> float option
(** Accepts [Float] and [Int] (an integral float prints like an int). *)

val to_bool_opt : t -> bool option

val to_list_opt : t -> t list option

val member_opt :
  what:string -> (t -> 'a option) -> string -> t -> ('a option, string) result
(** [member_opt ~what conv key json] reads an optional member: [Ok None]
    when [key] is absent or [null], [Ok (Some x)] when [conv] accepts
    it, and otherwise [Error "\"key\" must be what"] (with [what] such
    as ["a string"]).  Decoders chain these with [Result.bind], so the
    first malformed member names itself. *)

val member_req : what:string -> (t -> 'a option) -> string -> t -> ('a, string) result
(** Like {!member_opt} for a required member: absent or [null] is
    [Error "missing \"key\""]. *)
