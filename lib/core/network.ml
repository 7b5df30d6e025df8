module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var

type arch = Ptpnc | Adapt

let arch_name = function Ptpnc -> "pTPNC" | Adapt -> "ADAPT-pNC"

type layer = Crossbar.t * Filter_layer.t * Ptanh.t

type t = { arch : arch; n_in : int; n_hidden : int; n_classes : int; layers : layer list }

let create ?hidden rng arch ~inputs ~classes =
  let hidden =
    match hidden with Some h -> h | None -> ( match arch with Ptpnc -> 3 | Adapt -> 6)
  in
  let filter_order =
    match arch with Ptpnc -> Filter_layer.First | Adapt -> Filter_layer.Second
  in
  let layer ~n_in ~n_out =
    ( Crossbar.create rng ~inputs:n_in ~outputs:n_out,
      Filter_layer.create rng filter_order ~features:n_out,
      Ptanh.create rng ~features:n_out )
  in
  {
    arch;
    n_in = inputs;
    n_hidden = hidden;
    n_classes = classes;
    layers = [ layer ~n_in:inputs ~n_out:hidden; layer ~n_in:hidden ~n_out:classes ];
  }

let arch net = net.arch
let inputs net = net.n_in
let classes net = net.n_classes
let hidden net = net.n_hidden
let layers net = net.layers

let params net =
  List.concat_map
    (fun (cb, fl, act) -> Crossbar.params cb @ Filter_layer.params fl @ Ptanh.params act)
    net.layers

let named_params net =
  List.concat
    (List.mapi
       (fun i (cb, fl, act) ->
         let under prefix ps =
           List.map (fun (n, p) -> (Printf.sprintf "layer%d/%s/%s" i prefix n, p)) ps
         in
         under "crossbar" (Crossbar.named_params cb)
         @ under "filter" (Filter_layer.named_params fl)
         @ under "ptanh" (Ptanh.named_params act))
       net.layers)

let n_params net =
  List.fold_left (fun acc v -> acc + T.numel (Var.value v)) 0 (params net)

(* The layer kernel ---------------------------------------------------------

   One pTPB layer is a crossbar, a filter bank and a printable tanh.
   After the crossbar matmul everything is elementwise over a
   [batch x features] block with no cross-element reduction, so one
   pass applies bias + normalization, the RC stage update(s) and the
   activation. The evaluation engine and the training node below run
   this same pass, so their forwards agree bit for bit. *)

(* Raw coefficient views of one realized layer, extracted once per
   draw so the per-time-step loops touch plain tensors only. *)
type layer_kernel = {
  k_theta : T.t;
  k_bias : T.t;
  k_inv : T.t;
  k_stages : (T.t * T.t) array;
  k_e1 : T.t;
  k_e2 : T.t;
  k_e3 : T.t;
  k_e4 : T.t;
}

(* Activation pass over one row whose [th] elements already hold the
   scaled pre-activations: tanh in place, then [out = th·η₂ + η₁]. Two
   entry points for the transcendental — `Fast runs
   [Fast_math.apply_range] (one unboxed in-module loop; a per-element
   cross-module call would box both floats without flambda and cost
   more than the polynomial saves), `Exact the direct unboxed
   [Stdlib.tanh] extern. [th] may be [out]. *)
let activation_row ~fast (thd : T.buffer) ~tho (od : T.buffer) ~oo ~cols (e2 : T.buffer) eo2
    (e1 : T.buffer) eo1 =
  let module BA = Bigarray.Array1 in
  if fast then Pnc_tensor.Fast_math.apply_range thd ~off:tho ~len:cols
  else
    for c = 0 to cols - 1 do
      BA.unsafe_set thd (tho + c) (Stdlib.tanh (BA.unsafe_get thd (tho + c)))
    done;
  for c = 0 to cols - 1 do
    BA.unsafe_set od (oo + c)
      ((BA.unsafe_get thd (tho + c) *. BA.unsafe_get e2 (eo2 + c))
      +. BA.unsafe_get e1 (eo1 + c))
  done

(* One time step of the layer over a block of rows, after the crossbar
   matmul [mm]. [prev.(i)] holds stage i's voltages before the step
   and [cur.(i)] receives them after; [th] receives the tanh values and
   [out] the layer output. The evaluation engine passes [prev == cur]
   (each element is read before it is written) and [th == out]; the
   training node passes row views of its saved sequences. Specialized
   for the two printable filter orders. Unchecked accesses are covered
   by the shape asserts plus the tensor view invariant.

   [~fast] selects the activation implementation: [false] is
   [Stdlib.tanh], [true] is [Fast_math.tanh] (≤1e-7 absolute tanh
   error; see docs/BATCHING.md). Nothing else in the element sequence
   changes between the tiers. *)
let layer_rows ~fast k ~mm ~prev ~cur ~th ~out =
  let module BA = Bigarray.Array1 in
  let rows = T.rows mm and cols = T.cols mm in
  assert (T.same_shape th mm && T.same_shape out mm);
  assert (T.cols k.k_bias = cols && T.cols k.k_inv = cols && T.cols k.k_e1 = cols);
  assert (T.cols k.k_e2 = cols && T.cols k.k_e3 = cols && T.cols k.k_e4 = cols);
  Array.iter (fun s -> assert (T.same_shape s mm)) prev;
  Array.iter (fun s -> assert (T.same_shape s mm)) cur;
  Array.iter (fun (a, b) -> assert (T.cols a = cols && T.cols b = cols)) k.k_stages;
  let md = mm.T.data and thd = th.T.data and od = out.T.data in
  let bd = k.k_bias.T.data and bo = k.k_bias.T.off in
  let id = k.k_inv.T.data and io = k.k_inv.T.off in
  let e1 = k.k_e1.T.data and eo1 = k.k_e1.T.off in
  let e2 = k.k_e2.T.data and eo2 = k.k_e2.T.off in
  let e3 = k.k_e3.T.data and eo3 = k.k_e3.T.off in
  let e4 = k.k_e4.T.data and eo4 = k.k_e4.T.off in
  match (prev, cur, k.k_stages) with
  | [| p1; p2 |], [| s1; s2 |], [| (a1, b1); (a2, b2) |] ->
      let p1d = p1.T.data and p2d = p2.T.data and s1d = s1.T.data and s2d = s2.T.data in
      let a1d = a1.T.data and a1o = a1.T.off in
      let b1d = b1.T.data and b1o = b1.T.off in
      let a2d = a2.T.data and a2o = a2.T.off in
      let b2d = b2.T.data and b2o = b2.T.off in
      for r = 0 to rows - 1 do
        let mo = mm.T.off + (r * cols)
        and tho = th.T.off + (r * cols)
        and oo = out.T.off + (r * cols)
        and p1o = p1.T.off + (r * cols)
        and p2o = p2.T.off + (r * cols)
        and s1o = s1.T.off + (r * cols)
        and s2o = s2.T.off + (r * cols) in
        for c = 0 to cols - 1 do
          let v =
            (BA.unsafe_get md (mo + c) +. BA.unsafe_get bd (bo + c))
            *. BA.unsafe_get id (io + c)
          in
          let s1v =
            (BA.unsafe_get p1d (p1o + c) *. BA.unsafe_get a1d (a1o + c))
            +. (v *. BA.unsafe_get b1d (b1o + c))
          in
          BA.unsafe_set s1d (s1o + c) s1v;
          let s2v =
            (BA.unsafe_get p2d (p2o + c) *. BA.unsafe_get a2d (a2o + c))
            +. (s1v *. BA.unsafe_get b2d (b2o + c))
          in
          BA.unsafe_set s2d (s2o + c) s2v;
          BA.unsafe_set thd (tho + c)
            ((s2v +. -.BA.unsafe_get e3 (eo3 + c)) *. BA.unsafe_get e4 (eo4 + c))
        done;
        activation_row ~fast thd ~tho od ~oo ~cols e2 eo2 e1 eo1
      done
  | [| p1 |], [| s1 |], [| (a1, b1) |] ->
      let p1d = p1.T.data and s1d = s1.T.data in
      let a1d = a1.T.data and a1o = a1.T.off in
      let b1d = b1.T.data and b1o = b1.T.off in
      for r = 0 to rows - 1 do
        let mo = mm.T.off + (r * cols)
        and tho = th.T.off + (r * cols)
        and oo = out.T.off + (r * cols)
        and p1o = p1.T.off + (r * cols)
        and s1o = s1.T.off + (r * cols) in
        for c = 0 to cols - 1 do
          let v =
            (BA.unsafe_get md (mo + c) +. BA.unsafe_get bd (bo + c))
            *. BA.unsafe_get id (io + c)
          in
          let s1v =
            (BA.unsafe_get p1d (p1o + c) *. BA.unsafe_get a1d (a1o + c))
            +. (v *. BA.unsafe_get b1d (b1o + c))
          in
          BA.unsafe_set s1d (s1o + c) s1v;
          BA.unsafe_set thd (tho + c)
            ((s1v +. -.BA.unsafe_get e3 (eo3 + c)) *. BA.unsafe_get e4 (eo4 + c))
        done;
        activation_row ~fast thd ~tho od ~oo ~cols e2 eo2 e1 eo1
      done
  | _ -> invalid_arg "Network.layer_rows: a filter bank has one or two stages"

(* Training forward: one custom tape node per (layer, draw) -------------- *)

(* One sampled physical instance of a layer, shared across time steps:
   the variation-folded component values are realized once as Vars (so
   the ε / straight-through fold stays on the tape); the layer node
   below consumes them. *)
type layer_vars = {
  cb : Crossbar.realization;
  filt : Filter_layer.realization;
  act : Ptanh.realization;
}

let realize_layers ~draw_crossbar ~draw_filter ~draw_act net =
  List.map
    (fun (cb, fl, act) ->
      (* Explicit sampling order — filters, activation, crossbar. The
         tensor path below must consume the draws' random streams in
         exactly this order for realization parity. *)
      let filt = Filter_layer.realize ~draw:draw_filter fl in
      let act = Ptanh.realize ~draw:draw_act act in
      let cb = Crossbar.realize ~draw:draw_crossbar cb in
      { cb; filt; act })
    net.layers

(* The normalization multiplies by the reciprocal of the denominator,
   computed here exactly as the evaluation realization computes it. *)
let kernel_of_vars lv =
  let v = Var.value in
  {
    k_theta = v lv.cb.Crossbar.theta_eff;
    k_bias = v lv.cb.Crossbar.bias_num;
    k_inv = T.map (fun x -> 1. /. x) (v lv.cb.Crossbar.denominator);
    k_stages =
      Array.map (fun sr -> (v sr.Filter_layer.a, v sr.Filter_layer.b)) lv.filt.Filter_layer.stage_reals;
    k_e1 = v lv.act.Ptanh.e1;
    k_e2 = v lv.act.Ptanh.e2;
    k_e3 = v lv.act.Ptanh.e3;
    k_e4 = v lv.act.Ptanh.e4;
  }

type readout = Integrated | Last_step

(* What a layer node emits: its whole output sequence (a hidden layer)
   or the class scores read out of it (the last layer). *)
type node_out = Sequence | Readout of readout

(* Contributions to a parent's gradient arrive one time step at a time,
   from the last step down, and combine as the per-step tape combined
   them: the last step's is taken as is, each earlier one is added.
   [fold d i ~last v] folds contribution [v] into element [i] of [d]. *)
let[@inline] fold (d : T.buffer) i ~last v =
  Bigarray.Array1.unsafe_set d i (if last then v else Bigarray.Array1.unsafe_get d i +. v)

(* Folds one column of the activation rows e1..e4 (from row [j_e] of
   an [n]-column accumulator). The e3 sum is negated first, like its
   per-step rule. *)
let[@inline] fold_activation d ~n ~j_e c ~last e1 e2 e3 e4 =
  fold d ((j_e * n) + c) ~last e1;
  fold d (((j_e + 1) * n) + c) ~last e2;
  fold d (((j_e + 2) * n) + c) ~last (-.e3);
  fold d (((j_e + 3) * n) + c) ~last e4

(* Element [c] of a row vector. *)
let[@inline] col (v : T.t) c = Bigarray.Array1.unsafe_get v.T.data (v.T.off + c)

(* [layer_node ~out ~batch ~steps lv input]: the layer over the whole
   sequence as one tape node. [input] holds the [steps·batch x n_in]
   input sequence, time-major (rows [t·batch .. t·batch + batch − 1]
   are step t). The forward is one matmul over all steps, then
   [layer_rows] per step, saving each step's stage voltages and tanh
   values for the adjoint. The adjoint walks the steps from the last
   down, columns outer and rows inner, and allocates nothing per step
   (DESIGN.md, "The pTPB adjoint"). *)
let layer_node ~out ~batch ~steps lv input =
  let k = kernel_of_vars lv in
  let x = Var.value input in
  let rows = T.rows x and n = T.cols k.k_theta in
  assert (rows = steps * batch);
  let seq () = T.zeros ~rows ~cols:n in
  let at a t = T.rows_view a ~row:(t * batch) ~len:batch in
  let mm = seq () in
  T.matmul_into ~dst:mm x k.k_theta;
  let stage_reals = lv.filt.Filter_layer.stage_reals in
  let ns = Array.length stage_reals in
  let s = Array.init ns (fun _ -> seq ()) and th = seq () and y = seq () in
  let init =
    Array.map
      (fun sr -> T.init ~rows:batch ~cols:n (fun _ c -> T.get sr.Filter_layer.v0 0 c))
      stage_reals
  in
  for t = 0 to steps - 1 do
    let prev = if t = 0 then init else Array.map (fun a -> at a (t - 1)) s in
    layer_rows ~fast:false k ~mm:(at mm t) ~prev ~cur:(Array.map (fun a -> at a t) s)
      ~th:(at th t) ~out:(at y t)
  done;
  (* Default read-out: the class scores integrate the output voltage
     over the window — physically one slow RC stage per output (counted
     by Hardware). Reading only the final instant (Last_step, kept for
     the ablation bench) forgets transient evidence faster than any
     printable RC can retain it. *)
  let scale = 1. /. float_of_int steps in
  let value =
    match out with
    | Sequence -> y
    | Readout Integrated ->
        let acc = T.copy (at y 0) in
        for t = 1 to steps - 1 do
          T.add_inplace acc (at y t)
        done;
        T.scale scale acc
    | Readout Last_step -> T.copy (at y (steps - 1))
  in
  let stage_vars =
    Array.concat
      (List.map (fun sr -> [| sr.Filter_layer.a; sr.Filter_layer.b |]) (Array.to_list stage_reals))
  in
  let parents =
    Array.concat
      [
        [| input; lv.cb.Crossbar.theta_eff; lv.cb.Crossbar.bias_num; lv.cb.Crossbar.denominator |];
        stage_vars;
        [| lv.act.Ptanh.e1; lv.act.Ptanh.e2; lv.act.Ptanh.e3; lv.act.Ptanh.e4 |];
      ]
  in
  let backward g =
    let module BA = Bigarray.Array1 in
    let n_in = T.cols x in
    (* Row-vector parents, one row each of [acc], in [parents] order:
       bias_num, denominator, a_i and b_i per stage, e1..e4. *)
    let j_e = 2 + (2 * ns) in
    let acc = T.zeros ~rows:(j_e + 4) ~cols:n and d_theta = T.zeros ~rows:n_in ~cols:n in
    (* [rec_.(i)] carries stage i's gradient from step t+1 through the
       recurrence (∂s_i(t+1) ∘ a_i); [gmm] is every step's gradient of
       the matmul output. *)
    let rec_ = Array.init ns (fun _ -> T.zeros ~rows:batch ~cols:n) in
    let gmm = seq () in
    (* Output gradient of step t: its block of the sequence gradient, or
       the scaled read-out gradient. A Last_step read-out gives none
       before the last step (the tape never reached those activations). *)
    let gy =
      match out with Readout Integrated -> T.scale scale g | Sequence | Readout Last_step -> g
    in
    let gy_off t = match out with Sequence -> gy.T.off + (t * batch * n) | Readout _ -> gy.T.off in
    let has_y t =
      match out with Readout Last_step -> t = steps - 1 | Sequence | Readout Integrated -> true
    in
    let md = mm.T.data and thd = th.T.data and gmd = gmm.T.data and gyd = gy.T.data in
    let accd = acc.T.data and dtd = d_theta.T.data and xd = x.T.data in
    (* dθ(i, c) of step t sums x[t,r,i]·g_m[r,c] over ascending rows
       from +0.0, skipping zero inputs: the order and the skips of
       [matmul (transpose x_t) g_t]. *)
    let theta_column ~last t c =
      for i = 0 to n_in - 1 do
        let sum = ref 0. in
        for r = (t * batch) to ((t + 1) * batch) - 1 do
          let xv = BA.unsafe_get xd (x.T.off + (r * n_in) + i) in
          if xv <> 0. then sum := !sum +. (xv *. BA.unsafe_get gmd ((r * n) + c))
        done;
        fold dtd ((i * n) + c) ~last !sum
      done
    in
    (* Each column sum starts from +0.0 and adds rows in ascending order,
       as the per-step [sum_rows] did. The denominator and e3 sums are
       negated before the fold, like their per-step rules. *)
    (match (k.k_stages, s, rec_) with
    | [| (a1v, b1v); (a2v, b2v) |], [| s1; s2 |], [| r1; r2 |] ->
        let s1d = s1.T.data and s2d = s2.T.data and r1d = r1.T.data and r2d = r2.T.data in
        for t = steps - 1 downto 0 do
          let last = t = steps - 1 and first = t = 0 and has_y = has_y t and gyo = gy_off t in
          for c = 0 to n - 1 do
            let bias = col k.k_bias c and inv = col k.k_inv c in
            let a1 = col a1v c and b1 = col b1v c and a2 = col a2v c and b2 = col b2v c in
            let e2 = col k.k_e2 c and e3 = col k.k_e3 c and e4 = col k.k_e4 c in
            let v01 = col stage_reals.(0).Filter_layer.v0 c in
            let v02 = col stage_reals.(1).Filter_layer.v0 c in
            let c_bias = ref 0. and c_den = ref 0. in
            let c_a1 = ref 0. and c_b1 = ref 0. and c_a2 = ref 0. and c_b2 = ref 0. in
            let c_e1 = ref 0. and c_e2 = ref 0. and c_e3 = ref 0. and c_e4 = ref 0. in
            for r = 0 to batch - 1 do
              let o = ((((t * batch) + r) * n) + c) and ro = (r * n) + c in
              let po = o - (batch * n) in
              (* Printable tanh: y = e1 + e2·tanh(u·e4), u = s_2 − e3. *)
              let ff =
                if has_y then begin
                  let g = BA.unsafe_get gyd (gyo + ro) and h = BA.unsafe_get thd o in
                  c_e1 := !c_e1 +. g;
                  c_e2 := !c_e2 +. (g *. h);
                  let g_z = g *. e2 *. (1. -. (h *. h)) in
                  let u = BA.unsafe_get s2d o +. -.e3 in
                  c_e4 := !c_e4 +. (g_z *. u);
                  let g_u = g_z *. e4 in
                  c_e3 := !c_e3 +. g_u;
                  g_u
                end
                else 0.
              in
              (* Filter stages, output side first: s_i = s_i(t−1)·a_i + x_i·b_i. *)
              let g2 =
                if last then ff
                else if has_y then BA.unsafe_get r2d ro +. ff
                else BA.unsafe_get r2d ro
              in
              c_a2 := !c_a2 +. (g2 *. if first then v02 else BA.unsafe_get s2d po);
              c_b2 := !c_b2 +. (g2 *. BA.unsafe_get s1d o);
              BA.unsafe_set r2d ro (g2 *. a2);
              let ff = g2 *. b2 in
              let g1 = if last then ff else BA.unsafe_get r1d ro +. ff in
              (* Crossbar: v = (m + bias_num) / denominator. *)
              let v = (BA.unsafe_get md o +. bias) *. inv in
              c_a1 := !c_a1 +. (g1 *. if first then v01 else BA.unsafe_get s1d po);
              c_b1 := !c_b1 +. (g1 *. v);
              BA.unsafe_set r1d ro (g1 *. a1);
              let ff = g1 *. b1 in
              let g_m = ff *. inv in
              c_bias := !c_bias +. g_m;
              c_den := !c_den +. (ff *. v *. inv);
              BA.unsafe_set gmd o g_m
            done;
            (* Every step contributes to the crossbar and filter rows; the
               activation rows only where the step has an output gradient. *)
            fold accd c ~last !c_bias;
            fold accd (n + c) ~last (-. !c_den);
            fold accd ((2 * n) + c) ~last !c_a1;
            fold accd ((3 * n) + c) ~last !c_b1;
            fold accd ((4 * n) + c) ~last !c_a2;
            fold accd ((5 * n) + c) ~last !c_b2;
            if has_y then fold_activation accd ~n ~j_e c ~last !c_e1 !c_e2 !c_e3 !c_e4;
            theta_column ~last t c
          done
        done
    | [| (a1v, b1v) |], [| s1 |], [| r1 |] ->
        let s1d = s1.T.data and r1d = r1.T.data in
        for t = steps - 1 downto 0 do
          let last = t = steps - 1 and first = t = 0 and has_y = has_y t and gyo = gy_off t in
          for c = 0 to n - 1 do
            let bias = col k.k_bias c and inv = col k.k_inv c in
            let a1 = col a1v c and b1 = col b1v c in
            let e2 = col k.k_e2 c and e3 = col k.k_e3 c and e4 = col k.k_e4 c in
            let v01 = col stage_reals.(0).Filter_layer.v0 c in
            let c_bias = ref 0. and c_den = ref 0. and c_a1 = ref 0. and c_b1 = ref 0. in
            let c_e1 = ref 0. and c_e2 = ref 0. and c_e3 = ref 0. and c_e4 = ref 0. in
            for r = 0 to batch - 1 do
              let o = ((((t * batch) + r) * n) + c) and ro = (r * n) + c in
              let po = o - (batch * n) in
              (* Printable tanh: y = e1 + e2·tanh(u·e4), u = s_1 − e3. *)
              let ff =
                if has_y then begin
                  let g = BA.unsafe_get gyd (gyo + ro) and h = BA.unsafe_get thd o in
                  c_e1 := !c_e1 +. g;
                  c_e2 := !c_e2 +. (g *. h);
                  let g_z = g *. e2 *. (1. -. (h *. h)) in
                  let u = BA.unsafe_get s1d o +. -.e3 in
                  c_e4 := !c_e4 +. (g_z *. u);
                  let g_u = g_z *. e4 in
                  c_e3 := !c_e3 +. g_u;
                  g_u
                end
                else 0.
              in
              (* Filter stage: s_1 = s_1(t−1)·a_1 + x·b_1. *)
              let g1 =
                if last then ff
                else if has_y then BA.unsafe_get r1d ro +. ff
                else BA.unsafe_get r1d ro
              in
              (* Crossbar: v = (m + bias_num) / denominator. *)
              let v = (BA.unsafe_get md o +. bias) *. inv in
              c_a1 := !c_a1 +. (g1 *. if first then v01 else BA.unsafe_get s1d po);
              c_b1 := !c_b1 +. (g1 *. v);
              BA.unsafe_set r1d ro (g1 *. a1);
              let ff = g1 *. b1 in
              let g_m = ff *. inv in
              c_bias := !c_bias +. g_m;
              c_den := !c_den +. (ff *. v *. inv);
              BA.unsafe_set gmd o g_m
            done;
            fold accd c ~last !c_bias;
            fold accd (n + c) ~last (-. !c_den);
            fold accd ((2 * n) + c) ~last !c_a1;
            fold accd ((3 * n) + c) ~last !c_b1;
            if has_y then fold_activation accd ~n ~j_e c ~last !c_e1 !c_e2 !c_e3 !c_e4;
            theta_column ~last t c
          done
        done
    | _ -> invalid_arg "Network.layer_node: a filter bank has one or two stages");
    let input_grad =
      if Var.requires_grad input then Some (T.matmul gmm (T.transpose k.k_theta)) else None
    in
    Array.append
      [| input_grad; Some d_theta |]
      (Array.init (j_e + 4) (fun j -> Some (T.rows_view acc ~row:j ~len:1)))
  in
  Var.custom value parents backward

(* Time-major stacking of per-step [batch x n] inputs into the
   [steps·batch x n] sequence a layer node consumes. *)
let stack_steps steps =
  let batch = T.rows steps.(0) and n = T.cols steps.(0) in
  let seq = T.zeros ~rows:(Array.length steps * batch) ~cols:n in
  Array.iteri (fun t x_t -> T.blit_into ~dst:(T.rows_view seq ~row:(t * batch) ~len:batch) x_t) steps;
  seq

let forward_multi_readout ~readout ~draw_crossbar ~draw_filter ~draw_act net steps =
  assert (Array.length steps > 0);
  let batch = T.rows steps.(0) and n_steps = Array.length steps in
  let layers = realize_layers ~draw_crossbar ~draw_filter ~draw_act net in
  let last = List.length layers - 1 in
  let signal = ref (Var.const (stack_steps steps)) in
  List.iteri
    (fun i lv ->
      let out = if i = last then Readout readout else Sequence in
      signal := layer_node ~out ~batch ~steps:n_steps lv !signal)
    layers;
  !signal

let forward_readout ~readout ~draw net x =
  let steps = Array.init (T.cols x) (fun k -> T.col x k) in
  forward_multi_readout ~readout ~draw_crossbar:draw ~draw_filter:draw ~draw_act:draw net steps

let forward_multi ~draw net steps =
  forward_multi_readout ~readout:Integrated ~draw_crossbar:draw ~draw_filter:draw ~draw_act:draw
    net steps

let forward ~draw net x =
  let time = T.cols x in
  let steps = Array.init time (fun k -> T.col x k) in
  forward_multi ~draw net steps

(* Pure-tensor forward for evaluation: same sampling order and same
   floating-point operation sequence as the Var path, but no autodiff
   nodes are allocated and the per-step kernels run in preallocated
   buffers. Logits are bit-identical to [forward] under the same
   draw(s).

   Realization (the RNG-consuming part) is separated from the per-block
   workspace (state + scratch buffers): the batched forwards below
   realize ONCE per draw and then chunk the batch through zero-copy row
   views, which is what makes the block size a pure performance knob —
   every block sees the same physical circuit instance, so results are
   bit-identical for any batch size. *)
type layer_real_t = {
  cb_t : Crossbar.realization_t;
  filt_t : Filter_layer.realization_t;
  act_t : Ptanh.realization_t;
  n_out : int;
}

let realize_net_t ~draw_crossbar ~draw_filter ~draw_act net =
  List.map
    (fun (cb, fl, act) ->
      (* Same sampling order as the Var path: filters, activation,
         crossbar. *)
      let filt_t = Filter_layer.realize_t ~draw:draw_filter fl in
      let act_t = Ptanh.realize_t ~draw:draw_act act in
      let cb_t = Crossbar.realize_t ~draw:draw_crossbar cb in
      { cb_t; filt_t; act_t; n_out = Crossbar.outputs cb })
    net.layers

let make_kernel real =
  let theta, bias, inv = Crossbar.kernel_t real.cb_t in
  let e1, e2, e3, e4 = Ptanh.kernel_t real.act_t in
  {
    k_theta = theta;
    k_bias = bias;
    k_inv = inv;
    k_stages = Filter_layer.kernel_t real.filt_t;
    k_e1 = e1;
    k_e2 = e2;
    k_e3 = e3;
    k_e4 = e4;
  }

type layer_ws = {
  real : layer_real_t;
  kern : layer_kernel;
  filt_state_t : Filter_layer.state_t;
  cb_out : T.t;
  act_out : T.t;
}

(* [states], when given, hands each layer a pre-initialized filter
   state for this block (usually row views of a full-batch state) —
   the batched forwards use it to keep [`Gaussian] initial-state draws
   independent of the block size. Otherwise a fresh state is drawn
   here with [init] semantics. *)
let make_ws ?(init = `V0) ?states ~batch reals =
  let states =
    match states with
    | Some sts -> sts
    | None -> List.map (fun real -> Filter_layer.init_state_t ~init real.filt_t ~batch) reals
  in
  List.map2
    (fun real st ->
      {
        real;
        kern = make_kernel real;
        filt_state_t = st;
        cb_out = T.zeros ~rows:batch ~cols:real.n_out;
        act_out = T.zeros ~rows:batch ~cols:real.n_out;
      })
    reals states

(* Evaluation layer step: the crossbar matmul into the layer's scratch
   block, then the shared kernel in place on the block's filter state —
   the exact per-element sequence of the training node, so `Exact logits
   are bit-identical to the Var path. *)
let fused_step_layer ~fast lr x =
  T.matmul_into ~dst:lr.cb_out x lr.kern.k_theta;
  layer_rows ~fast lr.kern ~mm:lr.cb_out ~prev:lr.filt_state_t ~cur:lr.filt_state_t
    ~th:lr.act_out ~out:lr.act_out;
  lr.act_out

(* Run one block of rows through all time steps against an already
   realized circuit instance. *)
let forward_block ?(precision = `Exact) ?(state_init = `V0) ?states ~readout ~classes reals
    steps =
  let fast = match precision with `Fast -> true | `Exact -> false in
  let batch = T.rows steps.(0) in
  let ws = make_ws ~init:state_init ?states ~batch reals in
  let acc = T.zeros ~rows:batch ~cols:classes in
  let last = ref acc in
  Array.iter
    (fun x_t ->
      let signal = ref x_t in
      List.iter (fun lr -> signal := fused_step_layer ~fast lr !signal) ws;
      (match readout with
      | Integrated -> T.add_inplace acc !signal
      | Last_step -> ());
      last := !signal)
    steps;
  match readout with
  | Integrated -> T.scale (1. /. float_of_int (Array.length steps)) acc
  | Last_step -> T.copy !last

let forward_multi_readout_t ?state_init ~readout ~draw_crossbar ~draw_filter ~draw_act net
    steps =
  assert (Array.length steps > 0);
  let reals = realize_net_t ~draw_crossbar ~draw_filter ~draw_act net in
  forward_block ?state_init ~readout ~classes:net.n_classes reals steps

let forward_multi_readout_batch_t ?batch_size ?precision ?(state_init = `V0) ~readout
    ~draw_crossbar ~draw_filter ~draw_act net steps =
  assert (Array.length steps > 0);
  let rows = T.rows steps.(0) in
  let block = Batch.resolve ?batch_size ~n:rows () in
  let reals = realize_net_t ~draw_crossbar ~draw_filter ~draw_act net in
  (* Under [`Gaussian] the initial-state draws must not depend on the
     block size: pre-draw the full-batch states once and hand each
     block its row slice. [`V0] keeps the historical per-block init
     (bit-identical, and row-independent anyway); [`Zero] rides the
     same pre-draw path — it is row-independent too, so slicing
     changes nothing. *)
  let full_states =
    match state_init with
    | `V0 -> None
    | init ->
        Some
          (List.map (fun real -> Filter_layer.init_state_t ~init real.filt_t ~batch:rows) reals)
  in
  let t0 = Batch.start () in
  let out = T.zeros ~rows ~cols:net.n_classes in
  let blocks =
    Batch.chunked ~rows ~block (fun ~row ~len ->
        let sub = Array.map (fun s -> T.rows_view s ~row ~len) steps in
        let states =
          Option.map (List.map (Array.map (fun s -> T.rows_view s ~row ~len))) full_states
        in
        let logits = forward_block ?precision ?states ~readout ~classes:net.n_classes reals sub in
        T.blit_into ~dst:(T.rows_view out ~row ~len) logits)
  in
  Batch.record ~block ~rows ~blocks ~t0;
  out

let forward_multi_selective_t ~draw_crossbar ~draw_filter ~draw_act net steps =
  forward_multi_readout_t ~readout:Integrated ~draw_crossbar ~draw_filter ~draw_act net steps

let forward_multi_t ~draw net steps =
  forward_multi_selective_t ~draw_crossbar:draw ~draw_filter:draw ~draw_act:draw net steps

let forward_multi_batch_t ?batch_size ?precision ?state_init ~draw net steps =
  forward_multi_readout_batch_t ?batch_size ?precision ?state_init ~readout:Integrated
    ~draw_crossbar:draw ~draw_filter:draw ~draw_act:draw net steps

let forward_selective_t ~draw_crossbar ~draw_filter ~draw_act net x =
  let steps = Array.init (T.cols x) (fun k -> T.col x k) in
  forward_multi_selective_t ~draw_crossbar ~draw_filter ~draw_act net steps

let forward_selective_batch_t ?batch_size ?precision ~draw_crossbar ~draw_filter ~draw_act
    net x =
  let steps = Array.init (T.cols x) (fun k -> T.col x k) in
  forward_multi_readout_batch_t ?batch_size ?precision ~readout:Integrated ~draw_crossbar
    ~draw_filter ~draw_act net steps

let forward_readout_t ~readout ~draw net x =
  let steps = Array.init (T.cols x) (fun k -> T.col x k) in
  forward_multi_readout_t ~readout ~draw_crossbar:draw ~draw_filter:draw ~draw_act:draw net
    steps

let forward_t ~draw net x =
  let steps = Array.init (T.cols x) (fun k -> T.col x k) in
  forward_multi_t ~draw net steps

let forward_batch_t ?batch_size ?precision ?state_init ~draw net x =
  let steps = Array.init (T.cols x) (fun k -> T.col x k) in
  forward_multi_batch_t ?batch_size ?precision ?state_init ~draw net steps

let predict ?(draw = Variation.deterministic) net x = T.argmax_rows (forward_t ~draw net x)

let predict_batch ?batch_size ?precision ?state_init ?(draw = Variation.deterministic) net x =
  T.argmax_rows (forward_batch_t ?batch_size ?precision ?state_init ~draw net x)

let clamp net =
  List.iter
    (fun (cb, fl, act) ->
      Crossbar.clamp cb;
      Filter_layer.clamp fl;
      Ptanh.clamp act)
    net.layers
