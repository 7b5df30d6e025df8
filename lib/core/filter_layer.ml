module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng

type order = First | Second

type stage = { r_norm : Var.t; c_norm : Var.t } (* each 1 x features *)

type t = { order : order; n : int; stages : stage array }

let tau_max = Printed.filter_r_max *. Printed.filter_c_max

let create rng order ~features =
  assert (features > 0);
  let mk_stage () =
    let row () =
      Var.param (T.init ~rows:1 ~cols:features (fun _ _ -> Rng.uniform rng ~lo:0.3 ~hi:0.9))
    in
    { r_norm = row (); c_norm = row () }
  in
  let n_stages = match order with First -> 1 | Second -> 2 in
  { order; n = features; stages = Array.init n_stages (fun _ -> mk_stage ()) }

let order f = f.order
let features f = f.n

let params f =
  Array.to_list f.stages |> List.concat_map (fun s -> [ s.r_norm; s.c_norm ])

let named_params f =
  List.concat
    (List.mapi
       (fun i s ->
         [
           (Printf.sprintf "stage%d/r_norm" i, s.r_norm);
           (Printf.sprintf "stage%d/c_norm" i, s.c_norm);
         ])
       (Array.to_list f.stages))

type stage_real = { a : Var.t; b : Var.t; v0 : T.t }
type realization = { stage_reals : stage_real array }

let realize ~draw f =
  (* SPICE-characterized drift multipliers on R (temperature) and C
     (aging). Exactly 1. when the spec has no drift point, in which
     case the scaling is skipped entirely so the realization stays
     bit-identical to the drift-free model. *)
  let rm = Variation.drift_r_mult draw and cm = Variation.drift_c_mult draw in
  let drift m v = if m = 1. then v else Var.scale m v in
  let realize_stage (s : stage) =
    let eps_r = Variation.eps_for draw ~rows:1 ~cols:f.n in
    let eps_c = Variation.eps_for draw ~rows:1 ~cols:f.n in
    let mu = Variation.mu_for draw ~cols:f.n in
    let mul_eps v e =
      if draw.Variation.ste then Var.ste_mul v e else Var.mul v (Var.const e)
    in
    let r_eff = drift rm (mul_eps s.r_norm eps_r) in
    let c_eff = drift cm (mul_eps s.c_norm eps_c) in
    let tau = Var.scale tau_max (Var.mul r_eff c_eff) in
    let den = Var.add_scalar Printed.dt (Var.mul (Var.const mu) tau) in
    let a = Var.div tau den in
    let b = Var.div (Var.const (T.create ~rows:1 ~cols:f.n Printed.dt)) den in
    { a; b; v0 = Variation.v0_for draw ~cols:f.n }
  in
  { stage_reals = Array.map realize_stage f.stages }

(* Pure-tensor realization for the no-grad evaluation path: same
   sampling order and floating-point operation sequence as [realize],
   on raw tensors. *)
type stage_real_t = { a_t : T.t; b_t : T.t; v0_t : T.t }
type realization_t = { stage_reals_t : stage_real_t array }

let realize_t ~draw f =
  let rm = Variation.drift_r_mult draw and cm = Variation.drift_c_mult draw in
  let drift m t = if m = 1. then t else T.scale m t in
  let realize_stage (s : stage) =
    let eps_r = Variation.eps_for draw ~rows:1 ~cols:f.n in
    let eps_c = Variation.eps_for draw ~rows:1 ~cols:f.n in
    let mu = Variation.mu_for draw ~cols:f.n in
    let r_eff = drift rm (T.mul (Var.value s.r_norm) eps_r) in
    let c_eff = drift cm (T.mul (Var.value s.c_norm) eps_c) in
    let tau = T.scale tau_max (T.mul r_eff c_eff) in
    let den = T.add_scalar Printed.dt (T.mul mu tau) in
    {
      a_t = T.div tau den;
      b_t = T.div (T.create ~rows:1 ~cols:f.n Printed.dt) den;
      v0_t = Variation.v0_for draw ~cols:f.n;
    }
  in
  { stage_reals_t = Array.map realize_stage f.stages }

type state_t = T.t array

type state_init = [ `V0 | `Zero | `Gaussian of Rng.t * float ]

(* Refill an existing state in place. `V0 broadcasts the draw's sampled
   initial voltages down every batch row (the historical [init_state_t]
   convention); `Zero is the fully-settled circuit; `Gaussian draws a
   fresh V[0] per (row, channel) — the sliding-window regime of the
   exemplar LearnableFilter, where each window meets the filter bank
   mid-transient. The gaussian stream is consumed stage-major then
   row-major, so a full-batch reset followed by row-sliced views is
   bit-identical to resetting the full batch directly (the batched
   forwards rely on this to keep the block size a pure performance
   knob). *)
let reset_state_t ?(init = `V0) real (st : state_t) =
  Array.iteri
    (fun i s ->
      let sr = real.stage_reals_t.(i) in
      match init with
      | `V0 ->
          for r = 0 to T.rows s - 1 do
            for c = 0 to T.cols s - 1 do
              T.set s r c (T.get sr.v0_t 0 c)
            done
          done
      | `Zero -> T.fill s 0.
      | `Gaussian (rng, sigma) ->
          for r = 0 to T.rows s - 1 do
            for c = 0 to T.cols s - 1 do
              T.set s r c (Rng.gaussian ~sigma rng)
            done
          done)
    st

let init_state_t ?(init = `V0) real ~batch =
  let st =
    Array.map (fun sr -> T.zeros ~rows:batch ~cols:(T.cols sr.v0_t)) real.stage_reals_t
  in
  reset_state_t ~init real st;
  st

let kernel_t real = Array.map (fun sr -> (sr.a_t, sr.b_t)) real.stage_reals_t

let r_values f =
  Array.map
    (fun s -> Array.map (fun x -> x *. Printed.filter_r_max) (T.row (Var.value s.r_norm) 0))
    f.stages

let c_values f =
  Array.map
    (fun s -> Array.map (fun x -> x *. Printed.filter_c_max) (T.row (Var.value s.c_norm) 0))
    f.stages

let cutoff_hz f =
  let rs = r_values f and cs = c_values f in
  Array.init f.n (fun ch ->
      match f.order with
      | First -> Pnc_signal.Filter.cutoff_hz { Pnc_signal.Filter.r = rs.(0).(ch); c = cs.(0).(ch) }
      | Second ->
          Pnc_signal.Filter.cutoff_2nd_hz
            {
              Pnc_signal.Filter.stage1 = { Pnc_signal.Filter.r = rs.(0).(ch); c = cs.(0).(ch) };
              stage2 = { Pnc_signal.Filter.r = rs.(1).(ch); c = cs.(1).(ch) };
            })

let clamp f =
  let lo_r = Printed.filter_r_min /. Printed.filter_r_max in
  let lo_c = Printed.filter_c_min /. Printed.filter_c_max in
  let project v ~lo =
    let t = Var.value v in
    for c = 0 to T.cols t - 1 do
      T.set t 0 c (Float.max lo (Float.min 1. (T.get t 0 c)))
    done
  in
  Array.iter
    (fun s ->
      project s.r_norm ~lo:lo_r;
      project s.c_norm ~lo:lo_c)
    f.stages
