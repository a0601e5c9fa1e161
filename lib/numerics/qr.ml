exception Singular

let rank_tolerance = 1e-12

(* One pass of the reflector [beta v] of column k over the [w <= 4]
   columns that start at index [at] of row k, and over [b] when [rhs]: the
   dots side by side, each its own sum from 0.0 in row order, then the
   updates.  Inlined at constant [w] and [rhs], so no test of either is
   left in its loops. *)
let[@inline] reflect a b v ~n ~k ~len ~beta ~at ~w ~rhs =
  let d0 = ref 0.0 and d1 = ref 0.0 and d2 = ref 0.0 and d3 = ref 0.0 and db = ref 0.0 in
  let p = ref at in
  for i = 0 to len - 1 do
    let x = Array.unsafe_get v i and p' = !p in
    if w > 0 then d0 := !d0 +. (x *. Array.unsafe_get a p');
    if w > 1 then d1 := !d1 +. (x *. Array.unsafe_get a (p' + 1));
    if w > 2 then d2 := !d2 +. (x *. Array.unsafe_get a (p' + 2));
    if w > 3 then d3 := !d3 +. (x *. Array.unsafe_get a (p' + 3));
    if rhs then db := !db +. (x *. Array.unsafe_get b (k + i));
    p := p' + n
  done;
  let s0 = beta *. !d0 and s1 = beta *. !d1 and s2 = beta *. !d2 and s3 = beta *. !d3 in
  let sb = beta *. !db and p = ref at in
  for i = 0 to len - 1 do
    let x = Array.unsafe_get v i and p' = !p in
    if w > 0 then Array.unsafe_set a p' (Array.unsafe_get a p' -. (s0 *. x));
    if w > 1 then Array.unsafe_set a (p' + 1) (Array.unsafe_get a (p' + 1) -. (s1 *. x));
    if w > 2 then Array.unsafe_set a (p' + 2) (Array.unsafe_get a (p' + 2) -. (s2 *. x));
    if w > 3 then Array.unsafe_set a (p' + 3) (Array.unsafe_get a (p' + 3) -. (s3 *. x));
    if rhs then Array.unsafe_set b (k + i) (Array.unsafe_get b (k + i) -. (sb *. x));
    p := p' + n
  done

(* Householder QR of the [rows × cols] row-major matrix [a], in place.  For
   each column k the reflector is built in [v] and applied to the trailing
   columns of [a] and, straight away, to [b]; on return the upper triangle
   of [a] holds R and [b] holds Q^T b.  Reflector k sweeps rows k to
   k + band (every row below k once [band >= rows - 1]), so a reflector
   never touches rows its column holds only zeros in; [solve_in_place]
   says when that gives the full sweep's bits.  This is the library's only
   factorization loop.

   Independent sums share a pass over the band's rows, so none waits on
   another: |v|² with column k's dot, then the dots of the trailing
   columns four at a time, the last 0-3 of them with [b]'s.  No later
   reflector reads column k below its diagonal, so only the diagonal
   entry is updated there, and the strictly lower part of [a] is left
   unspecified.

   It indexes unchecked, with a running index down the band: its callers
   have checked that [a] holds [rows * cols] entries, [b] and [v] at least
   [rows], and that [band >= 0]. *)
let triangularize ~rows:m ~cols:n ~band a b v =
  (* Int comparisons: Stdlib.min is polymorphic, a C call each. *)
  for k = 0 to (if m < n then m else n) - 1 do
    let len = if band < m - 1 - k then band + 1 else m - k in
    let kk = (k * n) + k in
    let sq = ref 0.0 and at = ref kk in
    for i = 0 to len - 1 do
      let x = Array.unsafe_get a !at in
      Array.unsafe_set v i x;
      sq := !sq +. (x *. x);
      at := !at + n
    done;
    let alpha = sqrt !sq in
    let v0 = Array.unsafe_get v 0 in
    let alpha = if v0 >= 0.0 then -.alpha else alpha in
    Array.unsafe_set v 0 (v0 -. alpha);
    let vnorm2 = ref 0.0 and dot = ref 0.0 and at = ref kk in
    for i = 0 to len - 1 do
      let x = Array.unsafe_get v i in
      vnorm2 := !vnorm2 +. (x *. x);
      dot := !dot +. (x *. Array.unsafe_get a !at);
      at := !at + n
    done;
    let beta = if !vnorm2 <= 0.0 then 0.0 else 2.0 /. !vnorm2 in
    if beta <> 0.0 then begin
      let s = beta *. !dot in
      Array.unsafe_set a kk (Array.unsafe_get a kk -. (s *. Array.unsafe_get v 0));
      let j = ref (k + 1) in
      while !j + 3 < n do
        reflect a b v ~n ~k ~len ~beta ~at:((k * n) + !j) ~w:4 ~rhs:false;
        j := !j + 4
      done;
      let at = (k * n) + !j in
      match n - !j with
      | 0 -> reflect a b v ~n ~k ~len ~beta ~at ~w:0 ~rhs:true
      | 1 -> reflect a b v ~n ~k ~len ~beta ~at ~w:1 ~rhs:true
      | 2 -> reflect a b v ~n ~k ~len ~beta ~at ~w:2 ~rhs:true
      | _ -> reflect a b v ~n ~k ~len ~beta ~at ~w:3 ~rhs:true
    end
  done

(* Solve R x = (Q^T b) for the first [n] rows. *)
let back_substitute ~cols:n r qtb x =
  (* Scale the tolerance by the largest diagonal magnitude so rank detection
     is invariant to the overall scale of the system. *)
  let max_diag = ref 0.0 in
  for k = 0 to n - 1 do
    (* [Float.max !max_diag d] without its two [sign_bit] C calls: both
       are absolute values, sign bit clear, so this returns the same
       value, the same NaN included. *)
    let d = Float.abs r.((k * n) + k) in
    if d > !max_diag || Float.is_nan d then max_diag := d
  done;
  (* [Float.max 1.0 !max_diag] without its [sign_bit] C calls: a NaN
     propagates, as there. *)
  let tol = rank_tolerance *. if !max_diag < 1.0 then 1.0 else !max_diag in
  for i = n - 1 downto 0 do
    let acc = ref qtb.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (r.((i * n) + j) *. x.(j))
    done;
    let d = r.((i * n) + i) in
    if Float.abs d <= tol then raise Singular;
    x.(i) <- !acc /. d
  done

let solve_in_place ~rows ~cols ~band a b ~reflector x =
  if
    cols < 0 || rows < cols || band < 0
    || Array.length a < rows * cols
    || Array.length b < rows
    || Array.length reflector < rows
    || Array.length x < cols
  then invalid_arg "Qr.solve_in_place: bad dimensions";
  triangularize ~rows ~cols ~band a b reflector;
  back_substitute ~cols a b x

let row_major a =
  let m = Mat.rows a and n = Mat.cols a in
  let buf = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      buf.((i * n) + j) <- Mat.get a i j
    done
  done;
  buf

let solve_least_squares a b =
  let m = Mat.rows a and n = Mat.cols a in
  if m <> Array.length b then invalid_arg "Qr.solve_least_squares: dimension mismatch";
  if m < n then invalid_arg "Qr.solve_least_squares: underdetermined system";
  let x = Array.make n 0.0 in
  solve_in_place ~rows:m ~cols:n ~band:m (row_major a) (Array.copy b) ~reflector:(Array.make m 0.0) x;
  x

let solve_square a b =
  if Mat.rows a <> Mat.cols a then invalid_arg "Qr.solve_square: matrix not square";
  solve_least_squares a b

let decompose a =
  let m = Mat.rows a and n = Mat.cols a in
  let q = Mat.create m m 0.0 and r = ref (row_major a) in
  (* Row c of Q is Q^T e_c, so factor once per identity column; every pass
     leaves the same R. *)
  for c = 0 to m - 1 do
    let e = Array.init m (fun i -> if i = c then 1.0 else 0.0) in
    r := row_major a;
    triangularize ~rows:m ~cols:n ~band:m !r e (Array.make m 0.0);
    Array.iteri (Mat.set q c) e
  done;
  (q, Mat.init m n (fun i j -> if i <= j then !r.((i * n) + j) else 0.0))
