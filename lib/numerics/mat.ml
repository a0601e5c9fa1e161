type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let init rows cols f =
  let m = create rows cols 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let rows m = m.rows

let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.get: out of bounds";
  m.data.((i * m.cols) + j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.set: out of bounds";
  m.data.((i * m.cols) + j) <- x

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays arr =
  let nrows = Array.length arr in
  if nrows = 0 then invalid_arg "Mat.of_arrays: no rows";
  let ncols = Array.length arr.(0) in
  if not (Array.for_all (fun r -> Array.length r = ncols) arr) then
    invalid_arg "Mat.of_arrays: ragged rows";
  init nrows ncols (fun i j -> arr.(i).(j))

let to_arrays m = Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  init a.rows b.cols (fun i j ->
      let acc = ref 0.0 in
      for k = 0 to a.cols - 1 do
        acc := !acc +. (get a i k *. get b k j)
      done;
      !acc)

let mul_vec a v =
  if a.cols <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let acc = ref 0.0 in
      for k = 0 to a.cols - 1 do
        acc := !acc +. (get a i k *. v.(k))
      done;
      !acc)
