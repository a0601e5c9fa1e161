open Estima_numerics

let basis x = [| 1.0; x; x *. x; Float.pow x 2.5 |]

let eval params x = Vec.dot params (basis x)

let initial_guesses ~xs ~ys =
  if Array.length xs < 4 || Array.exists (fun x -> x < 0.0) xs then []
  else
    match
      Linear_fit.fit
        ~basis:[| (fun _ -> 1.0); Fun.id; (fun x -> x *. x); (fun x -> Float.pow x 2.5) |]
        ~xs ~ys
    with
    | exception Qr.Singular -> []
    | c -> if Vec.all_finite c then [ c ] else []

let kernel =
  Kernel.make ~name:"Poly25" ~arity:4 ~eval ~objective:(Kernel.basis_objective ~arity:4 basis) ~initial_guesses
    ~linear:true
