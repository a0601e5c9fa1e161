(** Ingestion of externally collected measurement series.

    Parses the CSV table {!Csv_export.series_to_csv} emits — and, more
    importantly, the same table produced by a user's own measurement
    scripts on a real machine.  The schema is one header line

    {v threads,time_seconds[,cycles][,useful_cycles],<categories...>[,footprint_lines] v}

    followed by one row per measured thread count.  [threads] and
    [time_seconds] are required; [cycles] defaults to
    [time_seconds * frequency_ghz * 1e9], [useful_cycles] to [0] and
    [footprint_lines] to [0] when the column is absent.  Every other
    column is a stall category: names that {!Event.find} recognises for
    the machine's vendor are hardware counters, the rest are software
    plugin columns.  Columns may appear in any order; blank lines and
    [\r\n] endings are tolerated.

    Round-trip guarantee (tested): for any series [s] collected by the
    suite, [parse (Csv_export.series_to_csv s)] reconstructs [s]
    bit-for-bit. *)

type error = { file : string; line : int; msg : string }
(** [line] is 1-based; 0 when the error is not tied to a line (empty
    input, unreadable file). *)

val parse :
  ?file:string ->
  machine:Estima_machine.Topology.t ->
  spec_name:string ->
  string ->
  (Series.t, error) result
(** Parse a full CSV document.  [file] (default ["<csv>"]) only labels
    errors.  The [machine] supplies the vendor used to classify counter
    columns and the clock frequency used for the [cycles] default. *)

val load :
  machine:Estima_machine.Topology.t ->
  spec_name:string ->
  string ->
  (Series.t, error) result
(** [load ~machine ~spec_name path] reads [path] and parses it; an
    unreadable file becomes an [error] with [line = 0]. *)
