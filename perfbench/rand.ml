(* splitmix64, owned by the benchmark: the inputs a seed produces depend
   on this file alone, never on a generator inside the program under
   test, so a change to the program cannot silently change its own
   benchmark inputs. *)

type t = { mutable state : int64 }

let make seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1). *)
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let int t bound = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

(* A generator for one named stream of a seed: [derive seed [a; b]] is
   independent of [derive seed [a; c]], so each input (pass, window,
   request) gets its own reproducible draw. *)
let derive seed tags =
  let t = make seed in
  List.iter
    (fun tag ->
      t.state <- Int64.logxor t.state (Int64.of_int tag);
      ignore (next t))
    tags;
  make (Int64.to_int (next t))

(* A non-negative seed for the program's own seeded stages. *)
let seed_of t = Int64.to_int (Int64.shift_right_logical (next t) 34)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done
