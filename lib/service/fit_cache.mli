(** An LRU cache for finished predictions, and for the ingest memo in
    front of them.

    The service keys results by a canonical hash of the ingested series
    plus the numeric slice of the configuration
    ({!Estima.Config.fingerprint}), so a hit is guaranteed to return
    exactly the bytes a fresh pipeline run would produce; its ingest
    memo keys ingested series by the request bytes they came from.
    Capacity is bounded; inserting into a full cache evicts the least
    recently used entry ({!find} counts as a use).  It keeps no hit or
    miss counters: the server counts its lookups in its metrics registry
    ([estima_cache_hits_total], [estima_cache_misses_total],
    [estima_ingest_memo_hits_total]).

    Not thread-safe by itself — the service accesses it from the
    dispatcher only, which is the design: workers compute, the
    dispatcher owns the cache. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity >= 1]; [Invalid_argument] otherwise. *)

val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Look up a key and mark it most recently used. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or replace; evicts the LRU entry when full.  The inserted
    entry becomes most recently used. *)
