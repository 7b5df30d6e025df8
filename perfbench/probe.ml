(* Layer profile: each layer's public entry point re-driven in
   isolation at one workload's shapes, every call inside a span under
   the "probe" root. The per-layer metrics of a traced run are read off
   these spans (medians), plus exact counts: tape nodes, words
   allocated, and flops and bytes computed from the shapes. *)

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Optimizer = Pnc_optim.Optimizer
module Pool = Pnc_util.Pool
module Json = Pnc_obs.Obs.Json
module Rng = Pnc_util.Rng
module Dataset = Pnc_data.Dataset
module Model = Pnc_core.Model
module Network = Pnc_core.Network
module Train = Pnc_core.Train
module Mc_loss = Pnc_core.Mc_loss
module Variation = Pnc_core.Variation
module Crossbar = Pnc_core.Crossbar
module Filter_layer = Pnc_core.Filter_layer
module Ptanh = Pnc_core.Ptanh
module Online = Pnc_stream.Online
module Scenario = Pnc_stream.Scenario

type shapes = {
  model : Model.t;
  eval_set : Dataset.t;  (** the rows one Monte-Carlo draw evaluates *)
  train_set : Dataset.t;  (** the rows one training step sees *)
  valid_set : Dataset.t;
  mc : int;  (** Monte-Carlo draws per training step *)
  stream : Scenario.realized;
  block : Dataset.t;  (** one serve request: [max_batch] rows *)
}

let max_batch = 64

let layers = function Model.Circuit net -> Network.layers net | Model.Reference _ -> []

(* One physical instance: draw the variation, realize every layer. *)
let realize ~rng ~spec model =
  let draw = Variation.make_draw rng spec in
  List.iter
    (fun (cb, fl, pt) ->
      ignore (Crossbar.realize_t ~draw cb);
      ignore (Filter_layer.realize_t ~draw fl);
      ignore (Ptanh.realize_t ~draw pt))
    (layers model)

let stages fl = match Filter_layer.order fl with Filter_layer.First -> 1 | Filter_layer.Second -> 2

(* Work of one draw over [rows] series of [steps] samples, computed
   from the shapes: per step and layer, the crossbar matmul (2·in·out
   flops) and its bias and normalisation (4·out), the filter stages
   (3 per stage and feature), the ptanh (6 per feature, tanh counted
   as one). Bytes: the layer input read, and per feature the crossbar
   output written and read, each filter state read and written, and
   the activation read and written, in 8-byte floats. *)
let work_per_draw ~rows ~steps model =
  let per_row_step =
    List.fold_left
      (fun (fl_acc, by_acc) (cb, fl, _) ->
        let i = float_of_int (Crossbar.inputs cb) and o = float_of_int (Crossbar.outputs cb) in
        let s = float_of_int (stages fl) in
        ( fl_acc +. (2. *. i *. o) +. (4. *. o) +. (3. *. s *. o) +. (6. *. o),
          by_acc +. (8. *. i) +. (8. *. o *. (2. +. (2. *. s) +. 2.)) ))
      (0., 0.) (layers model)
  in
  let k = float_of_int (rows * steps) in
  (k *. fst per_row_step, k *. snd per_row_step)

let random_tensor rng ~rows ~cols = T.init ~rows ~cols (fun _ _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.)

let span_n n name f =
  for _ = 1 to n do
    Span.with_ name f
  done

type counts = {
  nodes_per_step : float;
  alloc_mw_per_step : float;
  alloc_mw_per_draw : float;
  flops_per_draw : float;
  bytes_per_draw : float;
}


let run ~seed sh =
  Span.with_ "probe" @@ fun () ->
  let rng = Rng.create ~seed:(seed + 9000) in
  let snap = Online.snapshot_params sh.model in
  (* Variation realization, i.i.d. and correlated. *)
  span_n 50 "variation.realize" (fun () -> realize ~rng ~spec:Setup.iid sh.model);
  span_n 50 "variation.realize_corr" (fun () -> realize ~rng ~spec:Setup.corr sh.model);
  (* The crossbar matmuls of one draw: every layer at its shape, once
     per time step, over the evaluated rows. *)
  let rows = Dataset.n_samples sh.eval_set and steps = Dataset.length sh.eval_set in
  let mats =
    List.map
      (fun (cb, _, _) ->
        let i = Crossbar.inputs cb and o = Crossbar.outputs cb in
        ( T.create ~rows ~cols:o 0.,
          random_tensor rng ~rows ~cols:i,
          random_tensor rng ~rows:i ~cols:o ))
      (layers sh.model)
  in
  span_n 30 "tensor.matmul" (fun () ->
      for _ = 1 to steps do
        List.iter (fun (dst, a, b) -> T.matmul_into ~dst a b) mats
      done);
  (* One whole draw on the no-grad engine. *)
  let draw_words = ref 0. in
  for _ = 1 to 30 do
    let draw = Variation.make_draw rng Setup.iid in
    let w0 = Measure.words () in
    Span.with_ "core.draw" (fun () -> ignore (Train.accuracy ~draw sh.model sh.eval_set));
    draw_words := Measure.words () -. w0
  done;
  let flops_per_draw, bytes_per_draw = work_per_draw ~rows ~steps sh.model in
  (* Pool of 2 against sequential on one evaluation protocol; the
     results must be bit-identical. *)
  let protocol pool =
    Train.accuracy_under_variation ?pool ~rng:(Rng.create ~seed:(seed + 9100)) ~spec:Setup.iid
      ~draws:8 sh.model sh.eval_set
  in
  let seq = Array.init 5 (fun _ -> Span.with_ "pool.seq" (fun () -> protocol None)) in
  let par =
    Pool.with_pool ~size:2 (fun p ->
        Array.init 5 (fun _ -> Span.with_ "pool.w2" (fun () -> protocol (Some p))))
  in
  Check.expect
    (Array.for_all (fun a -> Int64.bits_of_float a = Int64.bits_of_float seq.(0)) (Array.append seq par))
    "pool-of-2 evaluation differs from the sequential one";
  (* One training step at the workload's training shape. *)
  let x, labels = Train.to_xy sh.train_set in
  let xv, lv = Train.to_xy sh.valid_set in
  let tcfg = Setup.cfg.Pnc_exp.Config.train_va in
  let opt = Optimizer.adamw ~weight_decay:tcfg.Train.weight_decay ~params:(Model.params sh.model) () in
  Optimizer.zero_grads opt;
  let nodes = ref 0 and step_words = ref 0. in
  for _ = 1 to 8 do
    let n0 = Var.nodes_created () and w0 = Measure.words () in
    let loss =
      Span.with_ "autodiff.fwd" (fun () ->
          Mc_loss.expected ~rng ~spec:tcfg.Train.variation ~n:sh.mc sh.model ~x ~labels)
    in
    nodes := Var.nodes_created () - n0;
    Span.with_ "autodiff.bwd" (fun () -> Var.backward loss);
    step_words := Measure.words () -. w0;
    Span.with_ "optim.step" (fun () ->
        Option.iter (fun m -> Optimizer.clip_grad_norm opt ~max_norm:m) tcfg.Train.grad_clip;
        Optimizer.step opt ~lr:tcfg.Train.lr;
        Model.clamp sh.model;
        Optimizer.zero_grads opt);
    Span.with_ "core.val" (fun () ->
        ignore
          (Mc_loss.expected_value ~rng ~spec:tcfg.Train.variation ~n:tcfg.Train.mc_samples_val
             sh.model ~x:xv ~labels:lv))
  done;
  Online.restore_params sh.model snap;
  (* Streaming: a frozen pass and an adapted pass over the same
     windows. *)
  let protocol = { Online.default_protocol with Online.adapt = Online.All } in
  for _ = 1 to 3 do
    Span.with_ "stream.frozen" (fun () ->
        ignore
          (Online.eval ~spec:Setup.iid ~rng:(Rng.create ~seed) { protocol with Online.adapt = Online.Off }
             sh.model sh.stream));
    Span.with_ "stream.adapted" (fun () ->
        ignore (Online.eval ~spec:Setup.iid ~rng:(Rng.create ~seed) protocol sh.model sh.stream));
    Online.restore_params sh.model snap
  done;
  (* Serving: the wire format of one max_batch request and its reply,
     and the compute of one block. *)
  let body = Daemon.batch_body sh.block.Dataset.x in
  let reply =
    Json.Obj
      [
        ("model_version", Json.Num 1.);
        ( "logits",
          Json.List
            (List.init max_batch (fun _ ->
                 Json.List
                   (List.init sh.block.Dataset.n_classes (fun _ ->
                        Json.Num (Rng.uniform rng ~lo:(-1.) ~hi:1.))))) );
      ]
  in
  span_n 50 "serve.parse" (fun () -> ignore (Json.parse body));
  span_n 50 "serve.encode" (fun () -> ignore (Json.render reply));
  span_n 50 "serve.compute" (fun () -> ignore (Train.accuracy sh.model sh.block));
  {
    nodes_per_step = float_of_int !nodes;
    alloc_mw_per_step = !step_words /. 1e6;
    alloc_mw_per_draw = !draw_words /. 1e6;
    flops_per_draw;
    bytes_per_draw;
  }

let windows sh =
  let n = Array.length sh.stream.Scenario.x and w = Online.default_protocol.Online.width in
  float_of_int (n / w)
