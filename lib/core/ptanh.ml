module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng

type t = { n : int; eta1 : Var.t; eta2 : Var.t; eta3 : Var.t; eta4 : Var.t }

let create rng ~features =
  assert (features > 0);
  let row lo hi = Var.param (T.init ~rows:1 ~cols:features (fun _ _ -> Rng.uniform rng ~lo ~hi)) in
  {
    n = features;
    eta1 = row (-0.1) 0.1;
    eta2 = row 0.7 1.0;
    eta3 = row (-0.1) 0.1;
    eta4 = row 1.5 3.0;
  }

let features a = a.n
let params a = [ a.eta1; a.eta2; a.eta3; a.eta4 ]

let named_params a =
  [ ("eta1", a.eta1); ("eta2", a.eta2); ("eta3", a.eta3); ("eta4", a.eta4) ]

let sample_eps ~draw a =
  Array.init 4 (fun _ -> Variation.eps_for draw ~rows:1 ~cols:a.n)

(* Effective (variation-folded) eta rows are constant over a sequence;
   realize them once per forward pass. *)
type realization = { e1 : Var.t; e2 : Var.t; e3 : Var.t; e4 : Var.t }

let realize ~draw a =
  let eps = sample_eps ~draw a in
  let e i v =
    if draw.Variation.ste then Var.ste_mul v eps.(i) else Var.mul v (Var.const eps.(i))
  in
  { e1 = e 0 a.eta1; e2 = e 1 a.eta2; e3 = e 2 a.eta3; e4 = e 3 a.eta4 }

(* Pure-tensor realization for the no-grad evaluation path. *)
type realization_t = { e1_t : T.t; e2_t : T.t; e3_t : T.t; e4_t : T.t }

let realize_t ~draw a =
  let eps = sample_eps ~draw a in
  let e i v = T.mul (Var.value v) eps.(i) in
  { e1_t = e 0 a.eta1; e2_t = e 1 a.eta2; e3_t = e 2 a.eta3; e4_t = e 3 a.eta4 }

let kernel_t real = (real.e1_t, real.e2_t, real.e3_t, real.e4_t)

let eta_values a = Array.map (fun v -> T.copy (Var.value v)) [| a.eta1; a.eta2; a.eta3; a.eta4 |]

let clamp a =
  let project v ~lo ~hi =
    let t = Var.value v in
    for c = 0 to T.cols t - 1 do
      T.set t 0 c (Float.max lo (Float.min hi (T.get t 0 c)))
    done
  in
  project a.eta1 ~lo:(-1.) ~hi:1.;
  project a.eta2 ~lo:0.2 ~hi:1.;
  project a.eta3 ~lo:(-1.) ~hi:1.;
  project a.eta4 ~lo:0.5 ~hi:6.
