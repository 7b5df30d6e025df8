module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var

type t = { n_in : int; n_out : int; theta : Var.t; theta_b : Var.t }

let g_dummy = 0.05 (* in units of the max printable crossbar conductance *)

let create rng ~inputs ~outputs =
  assert (inputs > 0 && outputs > 0);
  (* Kaiming-flavoured init scaled to the normalized-conductance window:
     magnitudes well inside (threshold, 1], random signs. *)
  let scale = Float.min 0.8 (1.5 /. sqrt (float_of_int inputs)) in
  let init () =
    let mag = Pnc_util.Rng.uniform rng ~lo:0.3 ~hi:1.0 *. scale in
    if Pnc_util.Rng.bool rng then mag else -.mag
  in
  {
    n_in = inputs;
    n_out = outputs;
    theta = Var.param (T.init ~rows:inputs ~cols:outputs (fun _ _ -> init ()));
    theta_b = Var.param (T.init ~rows:1 ~cols:outputs (fun _ _ -> 0.3 *. init ()));
  }

let inputs cb = cb.n_in
let outputs cb = cb.n_out
let params cb = [ cb.theta; cb.theta_b ]
let named_params cb = [ ("theta", cb.theta); ("theta_b", cb.theta_b) ]

let sample_eps ~draw cb =
  ( Variation.eps_for draw ~rows:cb.n_in ~cols:cb.n_out,
    Variation.eps_for draw ~rows:1 ~cols:cb.n_out )

(* The crossbar is one physical device: its effective conductances are
   fixed for a whole sequence, so they are realized once and only the
   input-dependent part (matmul + bias + normalization) runs per time
   step. *)
type realization = { theta_eff : Var.t; bias_num : Var.t; denominator : Var.t }

let realize ~draw cb =
  let theta_eps, bias_eps = sample_eps ~draw cb in
  (* A [ste] draw swaps the variation fold for the straight-through
     estimator: forward values are bit-identical, only the backward
     rule changes (noise-injection training sees the perturbed crossbar
     but updates the clean conductances). *)
  let fold v eps =
    if draw.Variation.ste then Var.ste_mul v eps else Var.mul v (Var.const eps)
  in
  let theta_eff = fold cb.theta theta_eps in
  let bias_eff = fold cb.theta_b bias_eps in
  {
    theta_eff;
    bias_num = Var.scale Printed.v_supply bias_eff;
    denominator =
      Var.add_scalar g_dummy (Var.add (Var.sum_rows (Var.abs theta_eff)) (Var.abs bias_eff));
  }

(* Pure-tensor realization for the no-grad evaluation path. Applies the
   exact floating-point operation sequence of [realize] on raw tensors,
   and the normalization divides by multiplying with a precomputed
   reciprocal, as the training node does, so logits are bit-identical
   to the Var path under the same draw. *)
type realization_t = { theta_eff_t : T.t; bias_num_t : T.t; inv_den_t : T.t }

let realize_t ~draw cb =
  let theta_eps, bias_eps = sample_eps ~draw cb in
  let theta_eff = T.mul (Var.value cb.theta) theta_eps in
  let bias_eff = T.mul (Var.value cb.theta_b) bias_eps in
  let den =
    T.add_scalar g_dummy (T.add (T.sum_rows (T.map Float.abs theta_eff)) (T.map Float.abs bias_eff))
  in
  {
    theta_eff_t = theta_eff;
    bias_num_t = T.scale Printed.v_supply bias_eff;
    inv_den_t = T.map (fun x -> 1. /. x) den;
  }

let kernel_t real = (real.theta_eff_t, real.bias_num_t, real.inv_den_t)

let theta_values cb = T.copy (Var.value cb.theta)
let bias_values cb = T.copy (Var.value cb.theta_b)

let clamp cb =
  let project v =
    let t = Var.value v in
    for r = 0 to T.rows t - 1 do
      for c = 0 to T.cols t - 1 do
        T.set t r c (Printed.clamp_theta (T.get t r c))
      done
    done
  in
  project cb.theta;
  project cb.theta_b
