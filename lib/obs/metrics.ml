module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0

  let incr ?(by = 1) t = if by > 0 then ignore (Atomic.fetch_and_add t by)

  let value = Atomic.get
end

module Histogram = struct
  (* Geometric buckets, [buckets_per_decade] per factor of ten starting
     at [floor_value]: sample v lands in bucket
     floor (bpd * log10 (v / floor)).  Bucket counts are the only state
     the quantiles read, so they are a pure function of the observed
     multiset — arrival order and thread interleaving cannot change a
     dump. *)
  let buckets_per_decade = 8.0

  let floor_value = 1e-9

  type t = {
    mutex : Mutex.t;
    counts : (int, int) Hashtbl.t;
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    {
      mutex = Mutex.create ();
      counts = Hashtbl.create 64;
      count = 0;
      sum = 0.0;
      min = Float.infinity;
      max = Float.neg_infinity;
    }

  let bucket_of v =
    if v <= floor_value then 0
    else int_of_float (Float.floor (buckets_per_decade *. Float.log10 (v /. floor_value)))

  let bucket_upper i = floor_value *. Float.pow 10.0 (float_of_int (i + 1) /. buckets_per_decade)

  let observe t v =
    if Float.is_finite v then begin
      Mutex.protect t.mutex (fun () ->
          let b = bucket_of v in
          Hashtbl.replace t.counts b (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts b));
          t.count <- t.count + 1;
          t.sum <- t.sum +. v;
          if v < t.min then t.min <- v;
          if v > t.max then t.max <- v)
    end

  (* All reads go through a snapshot taken under one lock: count, sum,
     min/max and the bucket counts are captured atomically, so anything
     derived from one snapshot — in particular a rendered line combining
     count, sum and several quantiles — is consistent even while other
     threads keep observing. *)
  type snapshot = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : (int * int) list;  (** (bucket, count), sorted by bucket. *)
  }

  let snapshot t =
    Mutex.protect t.mutex (fun () ->
        {
          count = t.count;
          sum = t.sum;
          min = t.min;
          max = t.max;
          buckets = List.sort compare (Hashtbl.fold (fun b n acc -> (b, n) :: acc) t.counts []);
        })

  let snapshot_quantile s q =
    if not (Float.is_finite q && q >= 0.0 && q <= 1.0) then
      invalid_arg (Printf.sprintf "Metrics.Histogram.snapshot_quantile: q = %g not in [0, 1]" q);
    if s.count = 0 then Float.nan
    else if q = 0.0 then s.min
    else if q = 1.0 then s.max
    else begin
      let rank = int_of_float (Float.ceil (q *. float_of_int s.count)) in
      let rec walk seen = function
        | [] -> s.max
        | (b, n) :: rest ->
            let seen = seen + n in
            if seen >= rank then Float.min (bucket_upper b) s.max else walk seen rest
      in
      walk 0 s.buckets
    end
end

type instrument = Counter of Counter.t | Histogram of Histogram.t

type t = { mutex : Mutex.t; instruments : (string, instrument) Hashtbl.t }

let create () = { mutex = Mutex.create (); instruments = Hashtbl.create 16 }

let register t name make describe =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.instruments name with
      | None ->
          let i = make () in
          Hashtbl.replace t.instruments name i;
          i
      | Some i -> describe i)

let counter t name =
  match
    register t name
      (fun () -> Counter (Counter.create ()))
      (function
        | Counter _ as i -> i
        | Histogram _ ->
            invalid_arg (Printf.sprintf "Metrics.counter: %S is registered as a histogram" name))
  with
  | Counter c -> c
  | Histogram _ -> assert false

let histogram t name =
  match
    register t name
      (fun () -> Histogram (Histogram.create ()))
      (function
        | Histogram _ as i -> i
        | Counter _ ->
            invalid_arg (Printf.sprintf "Metrics.histogram: %S is registered as a counter" name))
  with
  | Histogram h -> h
  | Counter _ -> assert false

let render t =
  let entries =
    Mutex.protect t.mutex (fun () ->
        Hashtbl.fold (fun name i acc -> (name, i) :: acc) t.instruments [])
  in
  let line (name, instrument) =
    match instrument with
    | Counter c -> Printf.sprintf "counter %s %d" name (Counter.value c)
    | Histogram h ->
        (* One snapshot per histogram: count, sum and every quantile on
           the line describe the same multiset of samples even when
           observers are running concurrently — no torn lines. *)
        let s = Histogram.snapshot h in
        if s.count = 0 then Printf.sprintf "histogram %s count=0" name
        else
          let q p = Histogram.snapshot_quantile s p in
          (* p50..p99 are bucket upper bounds (clamped to the exact max);
             p100 is the exact maximum sample tracked under the same
             lock — the tail a load report must not under-state. *)
          Printf.sprintf
            "histogram %s count=%d sum=%.6g min=%.6g max=%.6g p50=%.6g p90=%.6g p95=%.6g p99=%.6g p100=%.17g"
            name s.count s.sum (q 0.0) (q 1.0) (q 0.5) (q 0.9) (q 0.95) (q 0.99) s.max
  in
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) entries in
  String.concat "\n" (List.map line sorted) ^ if sorted = [] then "" else "\n"
