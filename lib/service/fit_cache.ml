(* Hashtbl plus a recency stamp per entry.  Eviction scans for the
   minimum stamp — O(capacity), which at service cache sizes (tens to a
   few thousand entries, on eviction only) is noise next to a pipeline
   run, and keeps the structure obviously correct. *)

type 'a entry = { value : 'a; mutable stamp : int }

type ('k, 'a) t = {
  capacity : int;
  entries : ('k, 'a entry) Hashtbl.t;
  mutable clock : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg (Printf.sprintf "Fit_cache.create: capacity = %d" capacity);
  { capacity; entries = Hashtbl.create (2 * capacity); clock = 0 }

let length t = Hashtbl.length t.entries

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.entries key with
  | None -> None
  | Some entry ->
      entry.stamp <- tick t;
      Some entry.value

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best.stamp <= entry.stamp -> acc
        | _ -> Some (key, entry))
      t.entries None
  in
  match victim with None -> () | Some (key, _) -> Hashtbl.remove t.entries key

let add t key value =
  if not (Hashtbl.mem t.entries key) && Hashtbl.length t.entries >= t.capacity then evict_lru t;
  Hashtbl.replace t.entries key { value; stamp = tick t }
