open Estima_numerics

let basis x =
  let l = log x in
  [| 1.0; l; l *. l; l *. l *. l |]

let eval params x = Vec.dot params (basis x)

let initial_guesses ~xs ~ys =
  if Array.length xs < 4 || Array.exists (fun x -> x <= 0.0) xs then []
  else
    match
      Linear_fit.fit
        ~basis:[| (fun _ -> 1.0); log; (fun x -> Float.pow (log x) 2.0); (fun x -> Float.pow (log x) 3.0) |]
        ~xs ~ys
    with
    | exception Qr.Singular -> []
    | c -> if Vec.all_finite c then [ c ] else []

let kernel =
  Kernel.make ~name:"CubicLn" ~arity:4 ~eval ~objective:(Kernel.basis_objective ~arity:4 basis) ~initial_guesses
    ~linear:true
