(* The per-time-step tape formulation of a pTPB layer, as a test
   oracle.

   Every time step of every layer is a small Var graph: a crossbar
   matmul, a bias add and a normalizing division, one state update per
   filter stage, and the printable tanh as five row-vector nodes.
   [Network.forward] (one fused node per layer and draw) must reproduce
   its logits and every parameter gradient bit for bit (test_core's
   fused-vs-tape battery), and the layer-level gradient tests drive it
   against central differences.

   The row-vector combinators only this oracle needs are defined here
   with [Var.custom], each with the forward value and backward
   expressions the fused adjoint mirrors. The modules extend the
   library ones, so a test opts in by aliasing them, e.g.
   [module Crossbar = Layer_oracle.Crossbar]. *)

module T = struct
  include Pnc_tensor.Tensor

  (* [m x n] times [1 x n], row by row: the tensor kernel of the
     row-vector products below. *)
  let mul_rv m rv =
    assert (rows rv = 1 && cols rv = cols m);
    init ~rows:(rows m) ~cols:(cols m) (fun r c -> get m r c *. get rv 0 c)
end

module Var = struct
  include Pnc_autodiff.Var

  (* [m x n] op [1 x n]. *)
  let sub_rv m rv =
    custom
      (T.add_rv (value m) (T.neg (value rv)))
      [| m; rv |]
      (fun g -> [| Some g; Some (T.neg (T.sum_rows g)) |])

  let mul_rv m rv =
    custom
      (T.mul_rv (value m) (value rv))
      [| m; rv |]
      (fun g -> [| Some (T.mul_rv g (value rv)); Some (T.sum_rows (T.mul g (value m))) |])

  let div_rv m rv =
    let inv = T.map (fun x -> 1. /. x) (value rv) in
    let y = T.mul_rv (value m) inv in
    custom y [| m; rv |] (fun g ->
        [| Some (T.mul_rv g inv); Some (T.neg (T.sum_rows (T.mul_rv (T.mul g y) inv))) |])

  (* [s ∘ a + x ∘ b]: the filter state update V(k) = a·V(k−1) + b·V_in(k)
     as one node per stage and step. *)
  let affine_rv s a x b =
    custom
      (T.add (T.mul_rv (value s) (value a)) (T.mul_rv (value x) (value b)))
      [| s; a; x; b |]
      (fun g ->
        [|
          Some (T.mul_rv g (value a));
          Some (T.sum_rows (T.mul g (value s)));
          Some (T.mul_rv g (value b));
          Some (T.sum_rows (T.mul g (value x)));
        |])
end

module Crossbar = struct
  include Pnc_core.Crossbar

  let apply (real : realization) x =
    Var.div_rv (Var.add_rv (Var.matmul x real.theta_eff) real.bias_num) real.denominator

  let forward ~draw cb x = apply (realize ~draw cb) x
end

module Filter_layer = struct
  include Pnc_core.Filter_layer

  type state = Var.t array (* one [batch x features] node per stage *)

  let init_state real ~batch : state =
    Array.map
      (fun sr ->
        Var.const (T.init ~rows:batch ~cols:(T.cols sr.v0) (fun _ c -> T.get sr.v0 0 c)))
      real.stage_reals

  let step real (st : state) x =
    let x_in = ref x in
    let st' =
      Array.mapi
        (fun i s ->
          let sr = real.stage_reals.(i) in
          let s' = Var.affine_rv s sr.a !x_in sr.b in
          x_in := s';
          s')
        st
    in
    (st', !x_in)
end

module Ptanh = struct
  include Pnc_core.Ptanh

  let apply (real : realization) x =
    let scaled = Var.mul_rv (Var.sub_rv x real.e3) real.e4 in
    Var.add_rv (Var.mul_rv (Var.tanh scaled) real.e2) real.e1

  let forward ~draw a x = apply (realize ~draw a) x
end

module Network = struct
  include Pnc_core.Network

  type layer_real = {
    cb : Crossbar.realization;
    filt : Filter_layer.realization;
    act : Ptanh.realization;
    mutable filt_state : Filter_layer.state;
  }

  (* Same sampling order as the library: filters, activation, crossbar. *)
  let realize_layers ~draw_crossbar ~draw_filter ~draw_act ~batch net =
    List.map
      (fun (cb, fl, act) ->
        let filt = Filter_layer.realize ~draw:draw_filter fl in
        let act = Ptanh.realize ~draw:draw_act act in
        let cb = Crossbar.realize ~draw:draw_crossbar cb in
        { cb; filt; act; filt_state = Filter_layer.init_state filt ~batch })
      (layers net)

  let step_layer lr x =
    let summed = Crossbar.apply lr.cb x in
    let state', filtered = Filter_layer.step lr.filt lr.filt_state summed in
    lr.filt_state <- state';
    Ptanh.apply lr.act filtered

  (* The per-step twin of [forward]: time-major, every
     layer advanced one step before the next step starts. *)
  let reference_multi ~readout ~draw_crossbar ~draw_filter ~draw_act net steps =
    assert (Array.length steps > 0);
    let batch = T.rows steps.(0) in
    let reals = realize_layers ~draw_crossbar ~draw_filter ~draw_act ~batch net in
    let acc = ref None in
    Array.iter
      (fun x_t ->
        let signal = ref (Var.const x_t) in
        List.iter (fun lr -> signal := step_layer lr !signal) reals;
        acc :=
          Some
            (match (readout, !acc) with
            | Last_step, _ | Integrated, None -> !signal
            | Integrated, Some a -> Var.add a !signal))
      steps;
    match (readout, !acc) with
    | Integrated, Some sum -> Var.scale (1. /. float_of_int (Array.length steps)) sum
    | Last_step, Some last -> last
    | _, None -> assert false
end
