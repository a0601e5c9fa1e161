exception Singular

let rank_tolerance = 1e-12

(* Householder QR of the [rows × cols] row-major matrix [a], in place.  For
   each column k the reflector is built in [v] and applied to the trailing
   columns of [a] and, straight away, to [b]; on return the upper triangle
   of [a] holds R and [b] holds Q^T b.  This is the library's only
   factorization loop. *)
let triangularize ~rows:m ~cols:n a b v =
  for k = 0 to min (m - 1) (n - 1) do
    let len = m - k in
    let sq = ref 0.0 in
    for i = 0 to len - 1 do
      let x = a.(((k + i) * n) + k) in
      v.(i) <- x;
      sq := !sq +. (x *. x)
    done;
    let alpha = sqrt !sq in
    let alpha = if v.(0) >= 0.0 then -.alpha else alpha in
    v.(0) <- v.(0) -. alpha;
    let vnorm2 = ref 0.0 in
    for i = 0 to len - 1 do
      vnorm2 := !vnorm2 +. (v.(i) *. v.(i))
    done;
    let beta = if !vnorm2 <= 0.0 then 0.0 else 2.0 /. !vnorm2 in
    if beta <> 0.0 then begin
      for j = k to n - 1 do
        let dot = ref 0.0 in
        for i = 0 to len - 1 do
          dot := !dot +. (v.(i) *. a.(((k + i) * n) + j))
        done;
        let s = beta *. !dot in
        for i = 0 to len - 1 do
          let at = ((k + i) * n) + j in
          a.(at) <- a.(at) -. (s *. v.(i))
        done
      done;
      let dot = ref 0.0 in
      for i = 0 to len - 1 do
        dot := !dot +. (v.(i) *. b.(k + i))
      done;
      let s = beta *. !dot in
      for i = 0 to len - 1 do
        b.(k + i) <- b.(k + i) -. (s *. v.(i))
      done
    end
  done

(* Solve R x = (Q^T b) for the first [n] rows. *)
let back_substitute ~cols:n r qtb x =
  (* Scale the tolerance by the largest diagonal magnitude so rank detection
     is invariant to the overall scale of the system. *)
  let max_diag = ref 0.0 in
  for k = 0 to n - 1 do
    max_diag := Float.max !max_diag (Float.abs r.((k * n) + k))
  done;
  let tol = rank_tolerance *. Float.max 1.0 !max_diag in
  for i = n - 1 downto 0 do
    let acc = ref qtb.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (r.((i * n) + j) *. x.(j))
    done;
    let d = r.((i * n) + i) in
    if Float.abs d <= tol then raise Singular;
    x.(i) <- !acc /. d
  done

let solve_in_place ~rows ~cols a b ~reflector x =
  triangularize ~rows ~cols a b reflector;
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
  solve_in_place ~rows:m ~cols:n (row_major a) (Array.copy b) ~reflector:(Array.make m 0.0) x;
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
    triangularize ~rows:m ~cols:n !r e (Array.make m 0.0);
    Array.iteri (Mat.set q c) e
  done;
  (q, Mat.init m n (fun i j -> if i <= j then !r.((i * n) + j) else 0.0))
