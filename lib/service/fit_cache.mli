(** An LRU cache for finished predictions, and for the ingest memo in
    front of them.

    The service keys results by a canonical hash of the ingested series
    plus the numeric slice of the configuration
    ({!Estima.Config.fingerprint}), so a hit is guaranteed to return
    exactly the bytes a fresh pipeline run would produce; its ingest
    memo keys ingested series by the request bytes they came from.
    Capacity is bounded; inserting into a full cache evicts the least
    recently used entry ({!find} counts as a use).

    Not thread-safe by itself — the service accesses it from the
    dispatcher only, which is the design: workers compute, the
    dispatcher owns the cache. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity >= 1]; [Invalid_argument] otherwise. *)

val capacity : 'a t -> int

val length : 'a t -> int

val hits : 'a t -> int
(** {!find} calls that returned a value, since creation. *)

val misses : 'a t -> int
(** {!find} calls that returned [None], since creation.  [hits + misses]
    is exactly the number of [find] calls ({!add} never counts). *)

val find : 'a t -> string -> 'a option
(** Look up a key and mark it most recently used. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or replace; evicts the LRU entry when full.  The inserted
    entry becomes most recently used. *)
