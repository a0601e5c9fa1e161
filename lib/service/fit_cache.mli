(** An LRU cache for finished predictions, and for the ingest memo in
    front of them.

    Keys are compared by value: [Hashtbl.hash] and structural equality,
    so a key holds exactly what decides its entry.  The service keys
    results by the spec name, a canonical digest of the ingested series,
    the target core count and the confidence resample count (one
    server's configuration never varies, so it is not part of the key),
    so a hit is guaranteed to return exactly the bytes a fresh pipeline
    run would produce; its ingest memo keys ingested series by the
    request's spec, file label and CSV text.  A memo entry thus holds
    its request's CSV text, so the memo's memory is bounded by its
    capacity times the frame size.  Capacity is bounded; inserting into
    a full cache evicts the least recently used entry ({!find} counts as
    a use).  It keeps no hit or miss counters: the server counts its
    lookups in its metrics registry ([estima_cache_hits_total],
    [estima_cache_misses_total], [estima_ingest_memo_hits_total]).

    Not thread-safe by itself — the service accesses it from the
    dispatcher only, which is the design: workers compute, the
    dispatcher owns the cache. *)

type ('k, 'a) t

val create : capacity:int -> ('k, 'a) t
(** [capacity >= 1]; [Invalid_argument] otherwise. *)

val length : ('k, 'a) t -> int

val find : ('k, 'a) t -> 'k -> 'a option
(** Look up a key and mark it most recently used. *)

val add : ('k, 'a) t -> 'k -> 'a -> unit
(** Insert or replace; evicts the LRU entry when full.  The inserted
    entry becomes most recently used. *)
