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

let apply_t_into ?(precision = `Exact) ~dst real x =
  assert (T.same_shape dst x && T.cols x = T.cols real.e1_t);
  let fast = match precision with `Fast -> true | `Exact -> false in
  let cols = T.cols x in
  let module BA = Bigarray.Array1 in
  let xd = x.T.data and od = dst.T.data in
  let e1 = real.e1_t.T.data
  and e2 = real.e2_t.T.data
  and e3 = real.e3_t.T.data
  and e4 = real.e4_t.T.data in
  let eo1 = real.e1_t.T.off
  and eo2 = real.e2_t.T.off
  and eo3 = real.e3_t.T.off
  and eo4 = real.e4_t.T.off in
  for r = 0 to T.rows x - 1 do
    let xo = x.T.off + (r * cols) and oo = dst.T.off + (r * cols) in
    for c = 0 to cols - 1 do
      (* Fused η₁ + η₂·tanh((x − η₃)·η₄) with the exact elementwise
         operation sequence of the training node (the subtraction is an
         add of the negation), so results stay bit-identical to the Var
         path under [`Exact].
         [`Fast] substitutes the bounded approximation for the single
         transcendental — everything around it is unchanged, so the
         logit deviation is |η₂|·(tanh error) ≤ 1e-7 per element.
         Unchecked accesses: the shape assert above plus the view
         invariant make every index in bounds. *)
      BA.unsafe_set od (oo + c)
        ((BA.unsafe_get xd (xo + c) +. -.BA.unsafe_get e3 (eo3 + c))
        *. BA.unsafe_get e4 (eo4 + c))
    done;
    (* Activation pass over the row ([dst] holds the scaled
       pre-activations): `Fast runs one unboxed in-module loop, `Exact
       the direct unboxed extern — a per-element cross-module call
       would box both floats without flambda. The per-element
       expression tree matches the former single-pass form, so `Exact
       stays bit-identical. *)
    if fast then Pnc_tensor.Fast_math.apply_range od ~off:oo ~len:cols
    else
      for c = 0 to cols - 1 do
        BA.unsafe_set od (oo + c) (Stdlib.tanh (BA.unsafe_get od (oo + c)))
      done;
    for c = 0 to cols - 1 do
      BA.unsafe_set od (oo + c)
        ((BA.unsafe_get od (oo + c) *. BA.unsafe_get e2 (eo2 + c))
        +. BA.unsafe_get e1 (eo1 + c))
    done
  done

(* Batched twin: row-independent elementwise kernel applied block by
   block through zero-copy row views — bit-identical to a single
   [apply_t_into] over the whole batch for any [block]. *)
let apply_batch_t ?(precision = `Exact) ?block real x =
  let rows = T.rows x in
  let out = T.zeros ~rows ~cols:(T.cols x) in
  let b = match block with Some b when b > 0 -> Stdlib.min b rows | _ -> rows in
  let r0 = ref 0 in
  while !r0 < rows do
    let len = Stdlib.min b (rows - !r0) in
    apply_t_into ~precision
      ~dst:(T.rows_view out ~row:!r0 ~len)
      real
      (T.rows_view x ~row:!r0 ~len);
    r0 := !r0 + len
  done;
  out

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
