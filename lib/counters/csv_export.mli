(** The measurement-series CSV: what [estima_cli collect --csv] prints
    and the store writes, the exact format {!Series_io.parse} reads back,
    and the digest the server's fit cache keys on. *)

val series_to_csv : Series.t -> string
(** One row per measured core count; columns: [threads], [time_seconds],
    [cycles], [useful_cycles], every hardware counter, every software
    plugin, [footprint_lines].  Floats are printed with [%.17g] so
    [Series_io.parse] inverts this function bit-for-bit.  Fields travel
    unquoted: raises [Invalid_argument] when a counter or plugin column
    name strays outside [A-Za-z0-9_.-]. *)

val series_digest : Series.t -> Digest.t
(** A digest of exactly what {!series_to_csv} prints, in the same
    order, without rendering it: the column names, then each sample's
    [threads], the bits ([Int64.bits_of_float]) of [time_seconds],
    [cycles], [useful_cycles] and of every column, and
    [footprint_lines].  Counter and software columns are not told
    apart, as the CSV header does not tell them apart.

    Equivalence contract: for series whose values are finite (the only
    ones ingestion admits) and whose names {!series_to_csv} accepts,
    [series_digest a = series_digest b] exactly when
    [series_to_csv a = series_to_csv b] — [%.17g] round-trips and
    prints [-0] apart from [0], so equal text is equal bits.  Unlike
    {!series_to_csv} it accepts any column name. *)

val write : path:string -> string -> unit
