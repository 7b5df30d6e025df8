(* Component-level tests for the pnc_core circuit models: printable
   ranges, variation sampling, crossbar, ptanh, learnable filters,
   networks, hardware costing and the mu extraction. *)

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng
module Printed = Pnc_core.Printed
module Variation = Pnc_core.Variation
module Crossbar = Layer_oracle.Crossbar
module Ptanh = Layer_oracle.Ptanh
module Filter_layer = Layer_oracle.Filter_layer
module Network = Pnc_core.Network
module Elman = Pnc_core.Elman
module Model = Pnc_core.Model
module Mc_loss = Pnc_core.Mc_loss
module Hardware = Pnc_core.Hardware
module Coupling = Pnc_core.Coupling
module Filter = Pnc_signal.Filter

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_f ?eps name expected got =
  Alcotest.(check bool) (Printf.sprintf "%s (exp %.6g, got %.6g)" name expected got) true
    (approx ?eps expected got)

let rng () = Rng.create ~seed:7

(* Printed ------------------------------------------------------------------ *)

let test_printed_ranges () =
  Alcotest.(check bool) "g bounds consistent" true
    (approx (1. /. Printed.crossbar_r_max) Printed.crossbar_g_min);
  check_f "threshold" 0.01 Printed.theta_print_threshold;
  check_f "clamp theta high" 1.0 (Printed.clamp_theta 3.);
  check_f "clamp theta neg" (-1.0) (Printed.clamp_theta (-3.));
  check_f "sub-threshold untouched" 0.001 (Printed.clamp_theta 0.001);
  check_f "filter r clamp" Printed.filter_r_max (Printed.clamp_filter_r 5000.);
  check_f "filter c clamp" Printed.filter_c_min (Printed.clamp_filter_c 1e-9)

(* Variation ----------------------------------------------------------------- *)

let test_variation_none () =
  let eps = Variation.sample_eps (rng ()) Variation.none ~rows:3 ~cols:4 in
  Alcotest.(check bool) "all ones" true (T.equal_eps ~eps:0. (T.create ~rows:3 ~cols:4 1.) eps)

let test_variation_uniform_bounds () =
  let r = rng () in
  let spec = Variation.uniform 0.1 in
  for _ = 1 to 1000 do
    let x = Variation.sample_scalar r spec in
    if x < 0.9 || x > 1.1 then Alcotest.failf "out of +-10%%: %f" x
  done

let test_variation_mean_one () =
  let r = rng () in
  List.iter
    (fun spec ->
      let xs = Array.init 20000 (fun _ -> Variation.sample_scalar r spec) in
      let m = Pnc_util.Stats.mean xs in
      Alcotest.(check bool) "mean near 1" true (Float.abs (m -. 1.) < 0.05))
    [ Variation.uniform 0.1; Variation.gaussian 0.1 ]

let test_variation_mu_v0 () =
  let r = rng () in
  let mu = Variation.sample_mu r ~cols:16 in
  for c = 0 to 15 do
    let m = T.get mu 0 c in
    if m < Printed.mu_min || m > Printed.mu_max then Alcotest.failf "mu out of range: %f" m
  done;
  let v0 = Variation.sample_v0 r ~sigma:0.05 ~cols:1000 in
  Alcotest.(check bool) "v0 centered" true (Float.abs (T.mean v0) < 0.01)

let test_draw_deterministic () =
  let d = Variation.deterministic in
  Alcotest.(check bool) "flagged" true (Variation.is_deterministic d);
  Alcotest.(check bool) "eps all 1" true
    (T.equal_eps ~eps:0. (T.create ~rows:2 ~cols:2 1.) (Variation.eps_for d ~rows:2 ~cols:2));
  Alcotest.(check bool) "mu all 1" true
    (T.equal_eps ~eps:0. (T.create ~rows:1 ~cols:3 1.) (Variation.mu_for d ~cols:3));
  Alcotest.(check bool) "v0 zero" true
    (T.equal_eps ~eps:0. (T.zeros ~rows:1 ~cols:3) (Variation.v0_for d ~cols:3))

(* Crossbar ------------------------------------------------------------------ *)

let test_crossbar_closed_form () =
  (* Hand-check Eq. (1) on a 2-input, 1-output crossbar. *)
  let cb = Crossbar.create (rng ()) ~inputs:2 ~outputs:1 in
  (* overwrite parameters with known values *)
  let theta = Crossbar.theta_values cb in
  ignore theta;
  let ps = Crossbar.params cb in
  (match ps with
  | [ th; thb ] ->
      let tv = Var.value th in
      T.set tv 0 0 0.6;
      T.set tv 1 0 (-0.4);
      T.set (Var.value thb) 0 0 0.2
  | _ -> Alcotest.fail "param structure");
  let x = Var.const (T.of_rows [| [| 0.5; -1. |] |]) in
  let out = Crossbar.forward ~draw:Variation.deterministic cb x in
  let expected = ((0.6 *. 0.5) +. (-0.4 *. -1.) +. 0.2) /. (0.6 +. 0.4 +. 0.2 +. Crossbar.g_dummy) in
  check_f ~eps:1e-9 "Eq. 1" expected (T.get (Var.value out) 0 0)

let test_crossbar_output_bounded () =
  (* Outputs are conductance-weighted averages: bounded by the largest
     input magnitude (and the 1 V bias). *)
  let r = rng () in
  for _ = 1 to 20 do
    let cb = Crossbar.create r ~inputs:5 ~outputs:3 in
    let x = Var.const (T.uniform r ~rows:4 ~cols:5 ~lo:(-1.) ~hi:1.) in
    let out = Var.value (Crossbar.forward ~draw:Variation.deterministic cb x) in
    Alcotest.(check bool) "bounded" true (T.max_abs out <= 1. +. 1e-9)
  done

let test_crossbar_variation_changes_output () =
  let cb = Crossbar.create (rng ()) ~inputs:3 ~outputs:2 in
  let x = Var.const (T.of_rows [| [| 0.3; -0.7; 0.5 |] |]) in
  let clean = Var.value (Crossbar.forward ~draw:Variation.deterministic cb x) in
  let draw = Variation.make_draw (rng ()) (Variation.uniform 0.1) in
  let noisy = Var.value (Crossbar.forward ~draw cb x) in
  Alcotest.(check bool) "different" false (T.equal_eps ~eps:1e-12 clean noisy);
  (* 10% component variation must not produce wild output swings here *)
  Alcotest.(check bool) "but close" true (T.equal_eps ~eps:0.2 clean noisy)

let test_crossbar_gradients () =
  (* Finite differences through the full crossbar expression. *)
  let cb = Crossbar.create (rng ()) ~inputs:3 ~outputs:2 in
  let x = T.of_rows [| [| 0.4; -0.2; 0.9 |]; [| -0.5; 0.1; 0.3 |] |] in
  let params = Crossbar.params cb in
  let f () = Var.sum (Var.sqr (Crossbar.forward ~draw:Variation.deterministic cb (Var.const x))) in
  List.iter Var.zero_grad params;
  Var.backward (f ());
  let analytic = List.map (fun p -> T.copy (Var.grad p)) params in
  List.iteri
    (fun pi p ->
      let v = Var.value p in
      let g = List.nth analytic pi in
      for r = 0 to T.rows v - 1 do
        for c = 0 to T.cols v - 1 do
          let orig = T.get v r c in
          let h = 1e-5 in
          T.set v r c (orig +. h);
          let fp = T.get_scalar (Var.value (f ())) in
          T.set v r c (orig -. h);
          let fm = T.get_scalar (Var.value (f ())) in
          T.set v r c orig;
          let fd = (fp -. fm) /. (2. *. h) in
          if Float.abs (fd -. T.get g r c) > 1e-4 *. Float.max 1. (Float.abs fd) then
            Alcotest.failf "crossbar grad mismatch p%d (%d,%d): fd %f vs %f" pi r c fd (T.get g r c)
        done
      done)
    params

let test_crossbar_clamp () =
  let cb = Crossbar.create (rng ()) ~inputs:2 ~outputs:2 in
  (match Crossbar.params cb with
  | [ th; _ ] ->
      T.set (Var.value th) 0 0 5.;
      T.set (Var.value th) 0 1 (-7.)
  | _ -> Alcotest.fail "params");
  Crossbar.clamp cb;
  let t = Crossbar.theta_values cb in
  check_f "clamped +" 1. (T.get t 0 0);
  check_f "clamped -" (-1.) (T.get t 0 1)

(* Ptanh ---------------------------------------------------------------------- *)

let test_ptanh_shape_and_formula () =
  let act = Ptanh.create (rng ()) ~features:2 in
  let etas = Ptanh.eta_values act in
  let x = Var.const (T.of_rows [| [| 0.3; -0.6 |] |]) in
  let out = Var.value (Ptanh.forward ~draw:Variation.deterministic act x) in
  for c = 0 to 1 do
    let e i = T.get etas.(i) 0 c in
    let expected = e 0 +. (e 1 *. tanh ((T.get (Var.value x) 0 c -. e 2) *. e 3)) in
    check_f ~eps:1e-9 (Printf.sprintf "ptanh ch%d" c) expected (T.get out 0 c)
  done

let test_ptanh_monotone () =
  let act = Ptanh.create (rng ()) ~features:1 in
  let prev = ref neg_infinity in
  for i = 0 to 40 do
    let v = -1. +. (0.05 *. float_of_int i) in
    let out =
      T.get
        (Var.value
           (Ptanh.forward ~draw:Variation.deterministic act (Var.const (T.of_rows [| [| v |] |]))))
        0 0
    in
    if out < !prev -. 1e-12 then Alcotest.fail "ptanh not monotone (eta2, eta4 > 0)";
    prev := out
  done

let test_ptanh_clamp () =
  let act = Ptanh.create (rng ()) ~features:1 in
  (match Ptanh.params act with
  | [ _; e2; _; e4 ] ->
      T.set (Var.value e2) 0 0 9.;
      T.set (Var.value e4) 0 0 100.
  | _ -> Alcotest.fail "params");
  Ptanh.clamp act;
  let etas = Ptanh.eta_values act in
  check_f "eta2 top" 1. (T.get etas.(1) 0 0);
  check_f "eta4 top" 6. (T.get etas.(3) 0 0)

(* Filter layer ---------------------------------------------------------------- *)

let filter_coeff_of_layer fl ~stage ~ch ~mu =
  let r = (Filter_layer.r_values fl).(stage).(ch) in
  let c = (Filter_layer.c_values fl).(stage).(ch) in
  Filter.discrete_coeffs ~mu ~dt:Printed.dt { Filter.r; c }

let run_filter_layer fl ~draw input =
  (* input: float array (single channel, batch 1) *)
  let real = Filter_layer.realize ~draw fl in
  let state = ref (Filter_layer.init_state real ~batch:1) in
  Array.map
    (fun x ->
      let st, out = Filter_layer.step real !state (Var.const (T.of_rows [| [| x |] |])) in
      state := st;
      T.get (Var.value out) 0 0)
    input

let test_filter_first_order_matches_theory () =
  let fl = Filter_layer.create (rng ()) Filter_layer.First ~features:1 in
  let input = Array.init 40 (fun i -> sin (0.3 *. float_of_int i)) in
  let got = run_filter_layer fl ~draw:Variation.deterministic input in
  let co = filter_coeff_of_layer fl ~stage:0 ~ch:0 ~mu:1. in
  let expected = Filter.apply co input in
  Alcotest.(check bool) "matches discrete model" true
    (Pnc_util.Vec.equal_eps ~eps:1e-9 expected got)

let test_filter_second_order_matches_theory () =
  let fl = Filter_layer.create (rng ()) Filter_layer.Second ~features:1 in
  let input = Array.init 40 (fun i -> cos (0.2 *. float_of_int i)) in
  let got = run_filter_layer fl ~draw:Variation.deterministic input in
  let c1 = filter_coeff_of_layer fl ~stage:0 ~ch:0 ~mu:1. in
  let c2 = filter_coeff_of_layer fl ~stage:1 ~ch:0 ~mu:1. in
  let expected = Filter.apply_second_order ~c1 ~c2 input in
  Alcotest.(check bool) "matches cascade" true (Pnc_util.Vec.equal_eps ~eps:1e-9 expected got)

let test_filter_gradients () =
  (* FD check through the unrolled second-order filter. *)
  let fl = Filter_layer.create (rng ()) Filter_layer.Second ~features:2 in
  let params = Filter_layer.params fl in
  let xs = Array.init 6 (fun i -> T.of_rows [| [| sin (0.4 *. float_of_int i); 0.3 |] |]) in
  let f () =
    let real = Filter_layer.realize ~draw:Variation.deterministic fl in
    let state = ref (Filter_layer.init_state real ~batch:1) in
    let last = ref (Var.const (T.zeros ~rows:1 ~cols:2)) in
    Array.iter
      (fun x ->
        let st, out = Filter_layer.step real !state (Var.const x) in
        state := st;
        last := out)
      xs;
    Var.sum (Var.sqr !last)
  in
  List.iter Var.zero_grad params;
  Var.backward (f ());
  let analytic = List.map (fun p -> T.copy (Var.grad p)) params in
  List.iteri
    (fun pi p ->
      let v = Var.value p in
      let g = List.nth analytic pi in
      for c = 0 to T.cols v - 1 do
        let orig = T.get v 0 c in
        let h = 1e-6 in
        T.set v 0 c (orig +. h);
        let fp = T.get_scalar (Var.value (f ())) in
        T.set v 0 c (orig -. h);
        let fm = T.get_scalar (Var.value (f ())) in
        T.set v 0 c orig;
        let fd = (fp -. fm) /. (2. *. h) in
        if Float.abs (fd -. T.get g 0 c) > 1e-3 *. Float.max 1. (Float.abs fd) then
          Alcotest.failf "filter grad mismatch p%d ch%d: fd %g vs %g" pi c fd (T.get g 0 c)
      done)
    params

let test_filter_mu_reduces_gain () =
  (* mu > 1 shunts current: the DC gain of the realized filter drops. *)
  let fl = Filter_layer.create (rng ()) Filter_layer.First ~features:1 in
  let step_input = Array.make 600 1. in
  let clean = run_filter_layer fl ~draw:Variation.deterministic step_input in
  let coupled_draw = Variation.make_draw (Rng.create ~seed:3) Variation.none in
  (* Variation.none keeps eps at 1 but non-deterministic draw samples mu in [1,1.3] *)
  let coupled = run_filter_layer fl ~draw:coupled_draw step_input in
  check_f ~eps:1e-6 "clean settles to 1" 1. clean.(599);
  Alcotest.(check bool)
    (Printf.sprintf "coupled settles below 1 (%.4f)" coupled.(599))
    true
    (coupled.(599) < 1. -. 1e-4)

(* Initial-state semantics (PR 9 fix): the explicit reset/init entry
   point distinguishes the settled circuit (`Zero), the historical
   drawn-V0 broadcast (`V0, the default — unchanged behaviour) and the
   sliding-window randomized start (`Gaussian), which must be
   seeded-reproducible and distinguishable from both. *)
let test_filter_state_init_semantics () =
  let fl = Filter_layer.create (rng ()) Filter_layer.Second ~features:3 in
  let draw = Variation.make_draw (Rng.create ~seed:5) (Variation.uniform 0.1) in
  let real = Filter_layer.realize_t ~draw fl in
  let batch = 4 in
  let eq0 = Array.for_all2 (T.equal_eps ~eps:0.) in
  let v0 = Filter_layer.init_state_t real ~batch in
  let zero = Filter_layer.init_state_t ~init:`Zero real ~batch in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "`Zero is the settled circuit" true
        (T.equal_eps ~eps:0. s (T.zeros ~rows:batch ~cols:(T.cols s))))
    zero;
  Alcotest.(check bool) "drawn V0 differs from the settled state" false (eq0 v0 zero);
  let gauss seed = Filter_layer.init_state_t ~init:(`Gaussian (Rng.create ~seed, 0.2)) real ~batch in
  Alcotest.(check bool) "randomized init is seeded-reproducible" true (eq0 (gauss 9) (gauss 9));
  Alcotest.(check bool) "randomized init follows the seed" false (eq0 (gauss 9) (gauss 10));
  Alcotest.(check bool) "randomized init differs from zero init" false (eq0 (gauss 9) zero);
  (* reset_state_t re-initializes in place: resetting a randomized
     state back to `V0 reproduces a fresh `V0 state bit-for-bit. *)
  let st = gauss 9 in
  Filter_layer.reset_state_t real st;
  Alcotest.(check bool) "reset to `V0 = fresh `V0" true (eq0 st v0)

let test_filter_params_count () =
  let f1 = Filter_layer.create (rng ()) Filter_layer.First ~features:4 in
  let f2 = Filter_layer.create (rng ()) Filter_layer.Second ~features:4 in
  Alcotest.(check int) "first order params" 2 (List.length (Filter_layer.params f1));
  Alcotest.(check int) "second order params" 4 (List.length (Filter_layer.params f2))

let test_filter_clamp_and_ranges () =
  let fl = Filter_layer.create (rng ()) Filter_layer.Second ~features:3 in
  List.iter (fun p -> T.set (Var.value p) 0 0 99.) (Filter_layer.params fl);
  Filter_layer.clamp fl;
  Array.iter
    (fun stage ->
      Array.iter
        (fun r ->
          if r < Printed.filter_r_min -. 1e-9 || r > Printed.filter_r_max +. 1e-9 then
            Alcotest.failf "R out of printable range: %g" r)
        stage)
    (Filter_layer.r_values fl);
  Array.iter
    (fun stage ->
      Array.iter
        (fun c ->
          if c < Printed.filter_c_min -. 1e-15 || c > Printed.filter_c_max +. 1e-9 then
            Alcotest.failf "C out of printable range: %g" c)
        stage)
    (Filter_layer.c_values fl)

let test_filter_cutoffs_positive () =
  let fl = Filter_layer.create (rng ()) Filter_layer.Second ~features:3 in
  Array.iter
    (fun fc -> Alcotest.(check bool) "cutoff positive finite" true (fc > 0. && Float.is_finite fc))
    (Filter_layer.cutoff_hz fl)

(* Network ---------------------------------------------------------------------- *)

let test_network_shapes () =
  let net = Network.create (rng ()) Network.Adapt ~inputs:1 ~classes:4 in
  let x = T.uniform (rng ()) ~rows:5 ~cols:16 ~lo:(-1.) ~hi:1. in
  let out = Var.value (Network.forward ~draw:Variation.deterministic net x) in
  Alcotest.(check int) "batch" 5 (T.rows out);
  Alcotest.(check int) "classes" 4 (T.cols out);
  Alcotest.(check int) "hidden default" 6 (Network.hidden net);
  Alcotest.(check int) "layers" 2 (List.length (Network.layers net))

let test_network_deterministic_repeatable () =
  let net = Network.create (rng ()) Network.Ptpnc ~inputs:1 ~classes:2 in
  let x = T.uniform (rng ()) ~rows:3 ~cols:10 ~lo:(-1.) ~hi:1. in
  let a = Var.value (Network.forward ~draw:Variation.deterministic net x) in
  let b = Var.value (Network.forward ~draw:Variation.deterministic net x) in
  Alcotest.(check bool) "same output" true (T.equal_eps ~eps:0. a b)

let test_network_variation_perturbs () =
  let net = Network.create (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let x = T.uniform (rng ()) ~rows:3 ~cols:10 ~lo:(-1.) ~hi:1. in
  let clean = Var.value (Network.forward ~draw:Variation.deterministic net x) in
  let draw = Variation.make_draw (rng ()) (Variation.uniform 0.1) in
  let noisy = Var.value (Network.forward ~draw net x) in
  Alcotest.(check bool) "outputs differ" false (T.equal_eps ~eps:1e-12 clean noisy)

let test_network_param_counts () =
  (* inputs=1, hidden=h, classes=c:
     layer1: theta 1*h + bias h + filter (stages*2*h) + ptanh 4h
     layer2: theta h*c + bias c + filter stages*2*c + ptanh 4c *)
  let net = Network.create ~hidden:3 (rng ()) Network.Ptpnc ~inputs:1 ~classes:2 in
  let expected = (3 + 3 + 6 + 12) + (6 + 2 + 4 + 8) in
  Alcotest.(check int) "ptpnc params" expected (Network.n_params net);
  let net2 = Network.create ~hidden:3 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let expected2 = (3 + 3 + 12 + 12) + (6 + 2 + 8 + 8) in
  Alcotest.(check int) "adapt params" expected2 (Network.n_params net2)

let test_network_outputs_bounded () =
  (* ptanh output is eta1 + eta2*tanh(...) with |eta1| <= 1, eta2 <= 1. *)
  let net = Network.create (rng ()) Network.Adapt ~inputs:1 ~classes:3 in
  let x = T.uniform (rng ()) ~rows:8 ~cols:64 ~lo:(-1.) ~hi:1. in
  let out = Var.value (Network.forward ~draw:Variation.deterministic net x) in
  Alcotest.(check bool) "bounded by 2" true (T.max_abs out <= 2.)

let test_network_multivariate () =
  (* Fig. 4's block has multiple sensory inputs: drive a 2-input network
     through forward_multi. *)
  let net = Network.create ~hidden:3 (rng ()) Network.Adapt ~inputs:2 ~classes:2 in
  let steps =
    Array.init 12 (fun k ->
        T.of_rows
          [|
            [| sin (0.3 *. float_of_int k); cos (0.3 *. float_of_int k) |];
            [| 0.1; -0.2 |];
          |])
  in
  let out = Var.value (Network.forward_multi ~draw:Variation.deterministic net steps) in
  Alcotest.(check int) "batch 2" 2 (T.rows out);
  Alcotest.(check int) "classes 2" 2 (T.cols out);
  Alcotest.(check bool) "finite" true (Float.is_finite (T.sum out))

let test_readout_variants () =
  let net = Network.create ~hidden:3 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let x = T.uniform (rng ()) ~rows:3 ~cols:16 ~lo:(-1.) ~hi:1. in
  let integrated =
    Var.value (Network.forward_readout ~readout:Network.Integrated ~draw:Variation.deterministic net x)
  in
  let last =
    Var.value (Network.forward_readout ~readout:Network.Last_step ~draw:Variation.deterministic net x)
  in
  Alcotest.(check bool) "variants differ" false (T.equal_eps ~eps:1e-12 integrated last);
  let default = Var.value (Network.forward ~draw:Variation.deterministic net x) in
  Alcotest.(check bool) "forward = integrated" true (T.equal_eps ~eps:0. integrated default)

let test_model_dispatch () =
  let net = Network.create (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let e = Elman.create (rng ()) ~inputs:1 ~classes:2 in
  Alcotest.(check string) "circuit label" "ADAPT-pNC" (Model.label (Model.Circuit net));
  Alcotest.(check string) "rnn label" "Elman RNN" (Model.label (Model.Reference e));
  Alcotest.(check bool) "is_circuit" true (Model.is_circuit (Model.Circuit net));
  let x = T.uniform (rng ()) ~rows:2 ~cols:8 ~lo:(-1.) ~hi:1. in
  Alcotest.(check int) "predict length" 2 (Array.length (Model.predict (Model.Circuit net) x))

(* Elman -------------------------------------------------------------------------- *)

let test_elman_shapes () =
  let e = Elman.create ~hidden:5 (rng ()) ~inputs:1 ~classes:3 in
  let x = T.uniform (rng ()) ~rows:4 ~cols:12 ~lo:(-1.) ~hi:1. in
  let out = Var.value (Elman.forward e x) in
  Alcotest.(check int) "batch" 4 (T.rows out);
  Alcotest.(check int) "classes" 3 (T.cols out);
  Alcotest.(check int) "param tensors" 8 (List.length (Elman.params e));
  Alcotest.(check int) "n_params" ((1 * 5) + 25 + 5 + 25 + 25 + 5 + 15 + 3) (Elman.n_params e)

let test_elman_multivariate () =
  let e = Elman.create ~hidden:4 (rng ()) ~inputs:2 ~classes:3 in
  let steps =
    Array.init 8 (fun k -> T.of_rows [| [| sin (0.5 *. float_of_int k); 0.3 |] |])
  in
  let out = Var.value (Elman.forward_multi e steps) in
  Alcotest.(check int) "classes" 3 (T.cols out);
  Alcotest.(check bool) "finite" true (Float.is_finite (T.sum out))

let test_elman_depends_on_sequence () =
  let e = Elman.create (rng ()) ~inputs:1 ~classes:2 in
  let x1 = T.of_rows [| Array.init 10 (fun i -> float_of_int i /. 10.) |] in
  let x2 = T.of_rows [| Array.init 10 (fun i -> float_of_int (9 - i) /. 10.) |] in
  let o1 = Var.value (Elman.forward e x1) and o2 = Var.value (Elman.forward e x2) in
  Alcotest.(check bool) "order matters" false (T.equal_eps ~eps:1e-12 o1 o2)

let test_elman_gradients () =
  (* BPTT through a short unrolled Elman layer vs finite differences. *)
  let e = Elman.create ~hidden:3 (rng ()) ~inputs:1 ~classes:2 in
  let x = T.uniform (rng ()) ~rows:2 ~cols:5 ~lo:(-1.) ~hi:1. in
  let f () = Var.sum (Var.sqr (Elman.forward e x)) in
  let params = Elman.params e in
  List.iter Var.zero_grad params;
  Var.backward (f ());
  let analytic = List.map (fun p -> T.copy (Var.grad p)) params in
  List.iteri
    (fun pi p ->
      let v = Var.value p in
      let g = List.nth analytic pi in
      for r = 0 to T.rows v - 1 do
        for c = 0 to T.cols v - 1 do
          let orig = T.get v r c in
          let h = 1e-5 in
          T.set v r c (orig +. h);
          let fp = T.get_scalar (Var.value (f ())) in
          T.set v r c (orig -. h);
          let fm = T.get_scalar (Var.value (f ())) in
          T.set v r c orig;
          let fd = (fp -. fm) /. (2. *. h) in
          if Float.abs (fd -. T.get g r c) > 1e-3 *. Float.max 1. (Float.abs fd) then
            Alcotest.failf "elman grad mismatch p%d (%d,%d): %g vs %g" pi r c fd (T.get g r c)
        done
      done)
    params

let test_variation_gmm_spread () =
  let r = rng () in
  let spec = Variation.default_gmm 0.1 in
  let xs = Array.init 20_000 (fun _ -> Variation.sample_scalar r spec) in
  let m = Pnc_util.Stats.mean xs and s = Pnc_util.Stats.std xs in
  Alcotest.(check bool) (Printf.sprintf "mean near 1 (%.4f)" m) true (Float.abs (m -. 1.) < 0.02);
  Alcotest.(check bool) "has spread" true (s > 0.02 && s < 0.2);
  (* heavier tails than the uniform model at the same level *)
  let extreme = Array.fold_left (fun acc x -> if Float.abs (x -. 1.) > 0.1 then acc + 1 else acc) 0 xs in
  Alcotest.(check bool) "mixture exceeds uniform bounds sometimes" true (extreme > 100)

let test_hardware_g_scale () =
  let ratio = Hardware.g_scale Network.Ptpnc /. Hardware.g_scale Network.Adapt in
  Alcotest.(check bool) "adapt printed at 10x higher resistance" true
    (Float.abs (ratio -. 10.) < 1e-9)

let test_predict_with_draw_varies () =
  let net = Network.create (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let x = T.uniform (rng ()) ~rows:20 ~cols:16 ~lo:(-1.) ~hi:1. in
  let p1 = Network.predict net x in
  let p2 = Network.predict net x in
  Alcotest.(check (array int)) "deterministic predict repeatable" p1 p2

(* MC loss ------------------------------------------------------------------------- *)

let test_mc_loss_reduces_without_variation () =
  let net = Network.create (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let x = T.uniform (rng ()) ~rows:6 ~cols:10 ~lo:(-1.) ~hi:1. in
  let labels = [| 0; 1; 0; 1; 0; 1 |] in
  let r = Rng.create ~seed:5 in
  let l1 = Mc_loss.expected_value ~rng:r ~spec:Variation.none ~n:1 model ~x ~labels in
  let l4 = Mc_loss.expected_value ~rng:r ~spec:Variation.none ~n:4 model ~x ~labels in
  (* without variation the MC average over identical draws changes only
     through V0 sampling; with v0_sigma forced by make_draw the draws
     still match because spec.level = 0 keeps eps at 1 but v0 varies --
     so compare within a loose tolerance. *)
  Alcotest.(check bool) "close" true (Float.abs (l1 -. l4) < 0.2)

let test_mc_loss_positive () =
  let net = Network.create (rng ()) Network.Ptpnc ~inputs:1 ~classes:3 in
  let model = Model.Circuit net in
  let x = T.uniform (rng ()) ~rows:9 ~cols:10 ~lo:(-1.) ~hi:1. in
  let labels = Array.init 9 (fun i -> i mod 3) in
  let l =
    Mc_loss.expected_value ~rng:(Rng.create ~seed:1) ~spec:(Variation.uniform 0.1) ~n:3 model ~x
      ~labels
  in
  Alcotest.(check bool) "positive finite" true (l > 0. && Float.is_finite l)

let test_antithetic_mirror_mirrors () =
  let rng1 = Rng.create ~seed:5 in
  let d1, d2 = Variation.antithetic_pair rng1 (Variation.uniform 0.1) in
  let e1 = Variation.eps_for d1 ~rows:2 ~cols:3 in
  let e2 = Variation.eps_for d2 ~rows:2 ~cols:3 in
  (* elementwise e1 + e2 = 2 (reflection around the mean 1) *)
  Alcotest.(check bool) "reflected" true
    (T.equal_eps ~eps:1e-12 (T.create ~rows:2 ~cols:3 2.) (T.add e1 e2));
  let m1 = Variation.mu_for d1 ~cols:4 and m2 = Variation.mu_for d2 ~cols:4 in
  Alcotest.(check bool) "mu reflected" true
    (T.equal_eps ~eps:1e-12
       (T.create ~rows:1 ~cols:4 (Printed.mu_min +. Printed.mu_max))
       (T.add m1 m2));
  let v1 = Variation.v0_for d1 ~cols:4 and v2 = Variation.v0_for d2 ~cols:4 in
  Alcotest.(check bool) "v0 negated" true
    (T.equal_eps ~eps:1e-12 (T.zeros ~rows:1 ~cols:4) (T.add v1 v2))

let test_antithetic_reduces_variance () =
  (* Estimate the MC loss of a fixed circuit with n=2 many times, with
     and without antithetic pairing: the pairing must shrink the
     spread of the estimates. *)
  let net = Network.create ~hidden:3 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let model = Pnc_core.Model.Circuit net in
  let x = T.uniform (rng ()) ~rows:10 ~cols:12 ~lo:(-1.) ~hi:1. in
  let labels = Array.init 10 (fun i -> i mod 2) in
  let estimates antithetic =
    Array.init 40 (fun seed ->
        Mc_loss.expected_value ~antithetic ~rng:(Rng.create ~seed:(seed * 13))
          ~spec:(Variation.uniform 0.2) ~n:2 model ~x ~labels)
  in
  let s_plain = Pnc_util.Stats.std (estimates false) in
  let s_anti = Pnc_util.Stats.std (estimates true) in
  Alcotest.(check bool)
    (Printf.sprintf "antithetic std %.5f < plain %.5f" s_anti s_plain)
    true (s_anti < s_plain)

let test_antithetic_same_mean () =
  let net = Network.create ~hidden:3 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let model = Pnc_core.Model.Circuit net in
  let x = T.uniform (rng ()) ~rows:10 ~cols:12 ~lo:(-1.) ~hi:1. in
  let labels = Array.init 10 (fun i -> i mod 2) in
  let mean antithetic =
    Pnc_util.Stats.mean
      (Array.init 60 (fun seed ->
           Mc_loss.expected_value ~antithetic ~rng:(Rng.create ~seed:(seed * 7))
             ~spec:(Variation.uniform 0.2) ~n:2 model ~x ~labels))
  in
  Alcotest.(check bool) "estimators agree in mean" true
    (Float.abs (mean true -. mean false) < 0.02)

(* Tensor fast path ------------------------------------------------------------------ *)

let test_fast_path_parity_circuit () =
  (* No-grad logits must be bit-identical to the Var-path logits under
     the same variation draw, for both circuit architectures. *)
  List.iter
    (fun arch ->
      let net = Network.create (rng ()) arch ~inputs:1 ~classes:3 in
      let x = T.uniform (rng ()) ~rows:5 ~cols:24 ~lo:(-1.) ~hi:1. in
      let spec = Variation.uniform 0.1 in
      let d_var = Variation.make_draw (Rng.create ~seed:42) spec in
      let d_fast = Variation.make_draw (Rng.create ~seed:42) spec in
      let var_logits = Var.value (Network.forward ~draw:d_var net x) in
      let fast_logits = Network.forward_t ~draw:d_fast net x in
      Alcotest.(check bool)
        (Network.arch_name arch ^ " bit-identical logits")
        true
        (T.equal_eps ~eps:0. var_logits fast_logits);
      (* Deterministic draw too (exercises the eps = 1 branches). *)
      let model = Model.Circuit net in
      Alcotest.(check bool)
        (Network.arch_name arch ^ " deterministic parity")
        true
        (T.equal_eps ~eps:0.
           (Var.value (Model.logits model x))
           (Model.logits_t model x)))
    [ Network.Ptpnc; Network.Adapt ]

let test_fast_path_parity_reference () =
  let m = Elman.create (rng ()) ~inputs:1 ~classes:3 in
  let x = T.uniform (rng ()) ~rows:5 ~cols:24 ~lo:(-1.) ~hi:1. in
  Alcotest.(check bool) "elman bit-identical logits" true
    (T.equal_eps ~eps:0. (Var.value (Elman.forward m x)) (Elman.forward_t m x));
  let model = Model.Reference m in
  Alcotest.(check bool) "model dispatch parity" true
    (T.equal_eps ~eps:0. (Var.value (Model.logits model x)) (Model.logits_t model x))

let test_fast_path_readouts_parity () =
  let net = Network.create (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let x = T.uniform (rng ()) ~rows:4 ~cols:16 ~lo:(-1.) ~hi:1. in
  List.iter
    (fun readout ->
      let d1 = Variation.make_draw (Rng.create ~seed:9) (Variation.uniform 0.1) in
      let d2 = Variation.make_draw (Rng.create ~seed:9) (Variation.uniform 0.1) in
      Alcotest.(check bool) "readout parity" true
        (T.equal_eps ~eps:0.
           (Var.value (Network.forward_readout ~readout ~draw:d1 net x))
           (Network.forward_readout_t ~readout ~draw:d2 net x)))
    [ Network.Integrated; Network.Last_step ]

let test_expected_value_matches_var_path () =
  (* The pure-tensor MC estimate consumes the same random stream and
     computes (up to the fused-loss value trick, an ulp) the same
     number as the Var-graph estimate. *)
  let net = Network.create (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let x = T.uniform (rng ()) ~rows:6 ~cols:12 ~lo:(-1.) ~hi:1. in
  let labels = [| 0; 1; 0; 1; 0; 1 |] in
  List.iter
    (fun antithetic ->
      let v_var =
        T.get_scalar
          (Var.value
             (Mc_loss.expected ~antithetic ~rng:(Rng.create ~seed:11)
                ~spec:(Variation.uniform 0.1) ~n:3 model ~x ~labels))
      in
      let v_fast =
        Mc_loss.expected_value ~antithetic ~rng:(Rng.create ~seed:11)
          ~spec:(Variation.uniform 0.1) ~n:3 model ~x ~labels
      in
      Alcotest.(check bool)
        (Printf.sprintf "mc estimate agrees (antithetic=%b)" antithetic)
        true
        (Float.abs (v_var -. v_fast) <= 1e-12))
    [ false; true ]

let test_expected_value_reseed_regression () =
  (* Re-seeding reproduces the whole sequential draw sequence exactly:
     the per-draw child streams come from indexed splitting, so the MC
     estimate is a pure function of the seed — repeated runs, and runs
     interleaved with unrelated rng activity, give the identical bits.
     Guards the reproducibility contract the pool parity tests build on. *)
  let net = Network.create (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let x = T.uniform (rng ()) ~rows:5 ~cols:10 ~lo:(-1.) ~hi:1. in
  let labels = [| 0; 1; 0; 1; 1 |] in
  let eval () =
    Mc_loss.expected_value ~rng:(Rng.create ~seed:23) ~spec:(Variation.uniform 0.15) ~n:6 model
      ~x ~labels
  in
  let v1 = eval () in
  (* Unrelated global-ish rng noise between runs must not leak in. *)
  let noise = Rng.create ~seed:999 in
  for _ = 1 to 100 do
    ignore (Rng.gaussian noise)
  done;
  let v2 = eval () in
  Alcotest.(check bool)
    (Printf.sprintf "re-seeded run identical (%.17g vs %.17g)" v1 v2)
    true (v1 = v2);
  (* And the Var-graph objective is equally a pure function of the seed. *)
  let tr seed =
    T.get_scalar
      (Var.value
         (Mc_loss.expected ~rng:(Rng.create ~seed) ~spec:(Variation.uniform 0.15) ~n:4 model ~x
            ~labels))
  in
  Alcotest.(check bool) "Var path re-seeded run identical" true (tr 29 = tr 29)

let test_fast_path_allocates_no_var_nodes () =
  let net = Network.create (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let x = T.uniform (rng ()) ~rows:4 ~cols:12 ~lo:(-1.) ~hi:1. in
  let labels = [| 0; 1; 0; 1 |] in
  let before = Var.nodes_created () in
  let _ = Model.predict model x in
  let _ =
    Mc_loss.expected_value ~rng:(Rng.create ~seed:3) ~spec:(Variation.uniform 0.1) ~n:4 model
      ~x ~labels
  in
  let d = Variation.make_draw (Rng.create ~seed:4) (Variation.uniform 0.1) in
  let _ = Model.predict ~draw:d model x in
  Alcotest.(check int) "zero Var nodes allocated" before (Var.nodes_created ())

(* Hardware -------------------------------------------------------------------------- *)

let test_hardware_counts_shape () =
  let rng_ = rng () in
  let base = Network.create rng_ Network.Ptpnc ~inputs:1 ~classes:2 in
  let adapt = Network.create rng_ Network.Adapt ~inputs:1 ~classes:2 in
  let cb = Hardware.of_network base and ca = Hardware.of_network adapt in
  Alcotest.(check bool) "adapt needs more devices" true (Hardware.total ca > Hardware.total cb);
  Alcotest.(check bool) "adapt has >= 2x caps" true (ca.Hardware.capacitors >= 2 * cb.Hardware.capacitors);
  (* first-order: one cap per filter channel (hidden + classes), plus
     one output integrator per class *)
  Alcotest.(check int) "baseline caps" (Network.hidden base + 2 + 2) cb.Hardware.capacitors;
  Alcotest.(check int) "adapt caps" ((2 * (Network.hidden adapt + 2)) + 2) ca.Hardware.capacitors

let test_hardware_power_ordering () =
  let rng_ = rng () in
  let base = Network.create rng_ Network.Ptpnc ~inputs:1 ~classes:2 in
  let adapt = Network.create rng_ Network.Adapt ~inputs:1 ~classes:2 in
  let pb = Hardware.power_mw base and pa = Hardware.power_mw adapt in
  Alcotest.(check bool) "both positive" true (pb > 0. && pa > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "adapt uses less power (%.4f vs %.4f mW)" pa pb)
    true (pa < pb);
  (* the paper reports ~91%% saving; require at least 2x here *)
  Alcotest.(check bool) "substantial saving" true (pa < pb /. 2.)

let test_hardware_unprinted_weights_cost_nothing () =
  let net = Network.create ~hidden:2 (rng ()) Network.Ptpnc ~inputs:1 ~classes:2 in
  let before = Hardware.of_network net in
  (* zero out one crossbar weight: one resistor disappears *)
  (match Network.layers net with
  | (cb, _, _) :: _ -> (
      match Crossbar.params cb with
      | [ th; _ ] -> T.set (Var.value th) 0 0 0.
      | _ -> Alcotest.fail "params")
  | [] -> Alcotest.fail "layers");
  let after = Hardware.of_network net in
  Alcotest.(check bool) "fewer resistors" true (after.Hardware.resistors < before.Hardware.resistors)

let test_hardware_counts_monotone_in_width () =
  let small = Network.create ~hidden:2 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let large = Network.create ~hidden:8 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  Alcotest.(check bool) "wider nets cost more" true
    (Hardware.total (Hardware.of_network large) > Hardware.total (Hardware.of_network small))

(* Sensitivity -------------------------------------------------------------------------- *)

let small_test_set () =
  let raw = Pnc_data.Registry.load ~seed:9 ~n:40 "GPOVY" in
  let split = Pnc_data.Dataset.preprocess (Rng.create ~seed:10) raw in
  split.Pnc_data.Dataset.test

let test_sensitivity_rows () =
  let net = Network.create ~hidden:3 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let rows =
    Pnc_core.Sensitivity.analyze ~rng:(rng ()) ~level:0.1 ~draws:3 net (small_test_set ())
  in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "accuracy in range" true
        (r.Pnc_core.Sensitivity.accuracy >= 0. && r.Pnc_core.Sensitivity.accuracy <= 1.))
    rows

let test_sensitivity_zero_level_no_drop () =
  let net = Network.create ~hidden:3 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let rows =
    Pnc_core.Sensitivity.analyze ~rng:(rng ()) ~level:0. ~draws:2 net (small_test_set ())
  in
  (* With zero variation only V0/mu sampling remains; crossbar and eta
     rows must show no drop at all (their draws are exactly nominal
     except v0/mu which only affect the filter path). *)
  let row f = List.find (fun r -> r.Pnc_core.Sensitivity.family = f) rows in
  Alcotest.(check bool) "theta-only no large drop" true
    (Float.abs (row Pnc_core.Sensitivity.Crossbar_conductances).Pnc_core.Sensitivity.drop < 0.2)

(* Discretize ---------------------------------------------------------------------------- *)

let test_quantize_value () =
  let q = Pnc_core.Discretize.quantize_value ~levels:2 in
  check_f "below threshold -> 0" 0. (q 0.001);
  check_f "snaps low" Printed.theta_print_threshold (q 0.02);
  check_f "snaps high" 1. (q 0.8);
  check_f "sign preserved" (-1.) (q (-0.9));
  (* many levels approximate identity *)
  let q64 = Pnc_core.Discretize.quantize_value ~levels:64 in
  Alcotest.(check bool) "fine grid close" true (Float.abs (q64 0.5 -. 0.5) < 0.01)

let test_quantize_idempotent () =
  let q = Pnc_core.Discretize.quantize_value ~levels:5 in
  let xs = [ 0.03; 0.2; 0.55; 0.99; -0.4 ] in
  List.iter (fun x -> check_f ~eps:1e-12 "idempotent" (q x) (q (q x))) xs

let test_with_quantized_restores () =
  let net = Network.create ~hidden:2 (rng ()) Network.Ptpnc ~inputs:1 ~classes:2 in
  let before =
    List.map (fun (cb, _, _) -> Crossbar.theta_values cb) (Network.layers net)
  in
  let inside =
    Pnc_core.Discretize.with_quantized ~levels:2 net (fun () ->
        List.map (fun (cb, _, _) -> Crossbar.theta_values cb) (Network.layers net))
  in
  let after = List.map (fun (cb, _, _) -> Crossbar.theta_values cb) (Network.layers net) in
  Alcotest.(check bool) "changed inside" false
    (List.for_all2 (T.equal_eps ~eps:0.) before inside);
  Alcotest.(check bool) "restored after" true (List.for_all2 (T.equal_eps ~eps:0.) before after)

let test_accuracy_ladder_shape () =
  let net = Network.create ~hidden:2 (rng ()) Network.Ptpnc ~inputs:1 ~classes:2 in
  let ladder =
    Pnc_core.Discretize.accuracy_ladder ~levels_list:[ 2; 8; 32 ] net (small_test_set ())
  in
  Alcotest.(check int) "three entries" 3 (List.length ladder);
  List.iter (fun (_, acc) -> Alcotest.(check bool) "acc range" true (acc >= 0. && acc <= 1.)) ladder

(* Coupling ---------------------------------------------------------------------------- *)

let test_mu_extraction_matches_theory () =
  List.iter
    (fun (r, c, r_load) ->
      let e = Coupling.extract ~r ~c ~r_load () in
      let theory = Coupling.mu_theory ~c ~r_load in
      if Float.abs (e.Coupling.mu -. theory) > 0.05 then
        Alcotest.failf "r=%g c=%g rl=%g: extracted %f vs theory %f" r c r_load e.Coupling.mu
          theory)
    [ (1000., 1e-6, 6_800.); (330., 1e-5, 33_000.); (1000., 1e-5, 100_000.) ]

let test_mu_survey_range () =
  let xs = Coupling.survey () in
  let lo, hi = Coupling.mu_range xs in
  (* The effective mu is an empirical fit (the paper also determines it
     empirically); weak-coupling configurations can dip a hair below 1
     from discretization bias of the first-order fit. *)
  Alcotest.(check bool) (Printf.sprintf "mu range [%.3f, %.3f] in paper band" lo hi) true
    (lo >= 0.95 && hi <= 1.35);
  Alcotest.(check bool) "non-trivial coupling observed" true (hi > 1.2)

let test_mu_fit_quality () =
  let e = Coupling.extract ~r:500. ~c:5e-5 ~r_load:10_000. () in
  Alcotest.(check bool) "first-order fit is good" true (e.Coupling.fit_rms < 0.02)

(* Ptanh circuit ----------------------------------------------------------------------- *)

let test_ptanh_circuit_transfer_shape () =
  let v_in = Pnc_util.Vec.linspace (-1.) 1. 41 in
  let v_out = Pnc_core.Ptanh_circuit.transfer ~v_in () in
  (* monotone decreasing (common-source stage inverts) with a real swing *)
  for i = 1 to 40 do
    if v_out.(i) > v_out.(i - 1) +. 1e-9 then Alcotest.failf "not monotone at %d" i
  done;
  Alcotest.(check bool) "swings" true (v_out.(0) -. v_out.(40) > 0.5);
  Alcotest.(check bool) "within rails" true
    (Array.for_all (fun v -> v >= -0.01 && v <= Printed.v_supply +. 0.01) v_out)

let test_fit_eta_recovers_exact () =
  let truth = { Pnc_core.Ptanh_circuit.eta1 = 0.2; eta2 = 0.7; eta3 = -0.1; eta4 = 2.5 } in
  let v_in = Pnc_util.Vec.linspace (-1.) 1. 60 in
  let v_out = Array.map (Pnc_core.Ptanh_circuit.eval_eta truth) v_in in
  let e, rms = Pnc_core.Ptanh_circuit.fit_eta ~v_in ~v_out in
  Alcotest.(check bool) (Printf.sprintf "rms tiny (%.5f)" rms) true (rms < 1e-3);
  List.iter2
    (fun name (got, expected) ->
      if Float.abs (got -. expected) > 0.05 then
        Alcotest.failf "%s: %.3f vs %.3f" name got expected)
    [ "eta1"; "eta2"; "eta3"; "eta4" ]
    [
      (e.Pnc_core.Ptanh_circuit.eta1, truth.Pnc_core.Ptanh_circuit.eta1);
      (e.Pnc_core.Ptanh_circuit.eta2, truth.Pnc_core.Ptanh_circuit.eta2);
      (e.Pnc_core.Ptanh_circuit.eta3, truth.Pnc_core.Ptanh_circuit.eta3);
      (e.Pnc_core.Ptanh_circuit.eta4, truth.Pnc_core.Ptanh_circuit.eta4);
    ]

let test_characterize_fits_circuit () =
  let e, rms = Pnc_core.Ptanh_circuit.characterize () in
  Alcotest.(check bool) (Printf.sprintf "good fit (rms %.4f)" rms) true (rms < 0.02);
  Alcotest.(check bool) "positive gain after inverter" true (e.Pnc_core.Ptanh_circuit.eta2 > 0.);
  (* the fitted steepness must land inside the training window of Ptanh *)
  Alcotest.(check bool) "eta4 in [0.5, 6]" true
    (Float.abs e.Pnc_core.Ptanh_circuit.eta4 >= 0.5 && Float.abs e.Pnc_core.Ptanh_circuit.eta4 <= 6.01)

(* Calibrate ------------------------------------------------------------------------- *)

let test_chip_replays_same_instance () =
  let chip = Pnc_core.Calibrate.chip ~seed:5 (Variation.uniform 0.2) in
  let e1 = Variation.eps_for (chip ()) ~rows:2 ~cols:3 in
  let e2 = Variation.eps_for (chip ()) ~rows:2 ~cols:3 in
  Alcotest.(check bool) "same chip, same epsilons" true (T.equal_eps ~eps:0. e1 e2);
  let other = Pnc_core.Calibrate.chip ~seed:6 (Variation.uniform 0.2) in
  Alcotest.(check bool) "different chip differs" false
    (T.equal_eps ~eps:0. e1 (Variation.eps_for (other ()) ~rows:2 ~cols:3))

let test_bias_params_subset () =
  let net = Network.create ~hidden:3 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let biases = Pnc_core.Calibrate.bias_params net in
  Alcotest.(check int) "one bias row per layer" 2 (List.length biases);
  List.iter (fun p -> Alcotest.(check int) "row vector" 1 (T.rows (Var.value p))) biases

let test_trim_moves_only_biases () =
  let net = Network.create ~hidden:3 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let split = Pnc_data.Dataset.preprocess (Rng.create ~seed:4)
      (Pnc_data.Registry.load ~seed:3 ~n:40 "GPOVY") in
  let theta_before =
    List.map (fun (cb, _, _) -> Crossbar.theta_values cb) (Network.layers net)
  in
  let bias_before =
    List.map (fun p -> T.copy (Var.value p)) (Pnc_core.Calibrate.bias_params net)
  in
  let chip = Pnc_core.Calibrate.chip ~seed:9 (Variation.uniform 0.2) in
  Pnc_core.Calibrate.trim ~epochs:10 ~chip net split.Pnc_data.Dataset.valid;
  let theta_after =
    List.map (fun (cb, _, _) -> Crossbar.theta_values cb) (Network.layers net)
  in
  Alcotest.(check bool) "weights untouched" true
    (List.for_all2 (T.equal_eps ~eps:0.) theta_before theta_after);
  let bias_after = List.map (fun p -> T.copy (Var.value p)) (Pnc_core.Calibrate.bias_params net) in
  Alcotest.(check bool) "biases moved" false (List.for_all2 (T.equal_eps ~eps:0.) bias_before bias_after)

let test_evaluate_restores_design () =
  let net = Network.create ~hidden:3 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let split = Pnc_data.Dataset.preprocess (Rng.create ~seed:4)
      (Pnc_data.Registry.load ~seed:3 ~n:40 "GPOVY") in
  let bias_before = List.map (fun p -> T.copy (Var.value p)) (Pnc_core.Calibrate.bias_params net) in
  let chip = Pnc_core.Calibrate.chip ~seed:9 (Variation.uniform 0.2) in
  let outcome =
    Pnc_core.Calibrate.evaluate ~epochs:10 ~chip net
      ~calibration:split.Pnc_data.Dataset.valid ~test:split.Pnc_data.Dataset.test
  in
  Alcotest.(check bool) "accuracies in range" true
    (outcome.Pnc_core.Calibrate.before >= 0. && outcome.Pnc_core.Calibrate.after <= 1.);
  let bias_after = List.map (fun p -> T.copy (Var.value p)) (Pnc_core.Calibrate.bias_params net) in
  Alcotest.(check bool) "design restored" true
    (List.for_all2 (T.equal_eps ~eps:0.) bias_before bias_after)

(* Properties ----------------------------------------------------------------------- *)

let prop_crossbar_bounded_under_variation =
  QCheck.Test.make ~count:50 ~name:"crossbar output stays bounded under any 30% draw"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = Rng.create ~seed in
      let cb = Crossbar.create r ~inputs:(1 + Rng.int r 5) ~outputs:(1 + Rng.int r 4) in
      let x = T.uniform r ~rows:3 ~cols:(Crossbar.inputs cb) ~lo:(-1.) ~hi:1. in
      let draw = Variation.make_draw r (Variation.uniform 0.3) in
      let out = Var.value (Crossbar.forward ~draw cb (Var.const x)) in
      T.max_abs out <= 1.5 && Float.is_finite (T.sum out))

let prop_filter_realization_stable =
  QCheck.Test.make ~count:50 ~name:"realized filter coefficients stable for any draw"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = Rng.create ~seed in
      let fl = Filter_layer.create r Filter_layer.Second ~features:1 in
      let draw = Variation.make_draw r (Variation.uniform 0.3) in
      (* Run a long constant input; divergence would blow past any bound. *)
      let out = run_filter_layer fl ~draw (Array.make 300 1.) in
      Array.for_all (fun v -> Float.is_finite v && Float.abs v <= 2.) out)

let prop_network_deterministic_forward =
  QCheck.Test.make ~count:20 ~name:"deterministic forward is a pure function"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = Rng.create ~seed in
      let net = Network.create ~hidden:3 r Network.Adapt ~inputs:1 ~classes:2 in
      let x = T.uniform r ~rows:2 ~cols:12 ~lo:(-1.) ~hi:1. in
      let a = Var.value (Network.forward ~draw:Variation.deterministic net x) in
      let b = Var.value (Network.forward ~draw:Variation.deterministic net x) in
      T.equal_eps ~eps:0. a b)

(* Fused layer node vs the per-step tape oracle ---------------------------- *)

(* [Network.forward] trains through one tape node per (layer, draw) with a
   hand-written adjoint. Its logits, loss and every parameter gradient
   must equal the per-step tape reference in [Layer_oracle] bit for bit:
   the adjoint mirrors each per-step node's backward expression and the
   tape's accumulation order. *)

type fused_case = {
  fc_seed : int;
  fc_arch : Network.arch;
  fc_readout : Network.readout;
  fc_inputs : int;
  fc_batch : int;
  fc_time : int;
  fc_ste : bool;
  fc_antithetic : bool;
  fc_corr : bool;
}

let show_fused_case c =
  Printf.sprintf "{seed=%d %s %s inputs=%d batch=%d T=%d ste=%b antithetic=%b corr=%b}" c.fc_seed
    (Network.arch_name c.fc_arch)
    (match c.fc_readout with Network.Integrated -> "integrated" | Network.Last_step -> "last-step")
    c.fc_inputs c.fc_batch c.fc_time c.fc_ste c.fc_antithetic c.fc_corr

let gen_fused_case =
  let open Qgen in
  fun rng ->
    let fc_seed = int_range 0 100_000 rng in
    let fc_arch = oneof [ Network.Ptpnc; Network.Adapt ] rng in
    (* The multivariate entry point reads out by integration only. *)
    let fc_inputs = int_range 1 2 rng in
    let fc_readout =
      if fc_inputs = 1 then oneof [ Network.Integrated; Network.Last_step ] rng
      else Network.Integrated
    in
    let fc_batch = int_range 1 5 rng in
    let fc_time = int_range 3 9 rng in
    let fc_ste = bool rng in
    let fc_antithetic = bool rng in
    let fc_corr = bool rng in
    { fc_seed; fc_arch; fc_readout; fc_inputs; fc_batch; fc_time; fc_ste; fc_antithetic; fc_corr }

let shrink_fused_case c =
  List.filter_map Fun.id
    [
      (if c.fc_batch > 1 then Some { c with fc_batch = c.fc_batch - 1 } else None);
      (if c.fc_time > 3 then Some { c with fc_time = c.fc_time - 1 } else None);
      (if c.fc_antithetic then Some { c with fc_antithetic = false } else None);
      (if c.fc_corr then Some { c with fc_corr = false } else None);
      (if c.fc_ste then Some { c with fc_ste = false } else None);
    ]

let bits_equal a b =
  T.rows a = T.rows b
  && T.cols a = T.cols b
  &&
  let ok = ref true in
  for r = 0 to T.rows a - 1 do
    for c = 0 to T.cols a - 1 do
      if Int64.bits_of_float (T.get a r c) <> Int64.bits_of_float (T.get b r c) then ok := false
    done
  done;
  !ok

(* Loss (summed over the case's draws), logits and parameter gradients of
   one backward pass through [forward]. The draws replay from one saved
   stream state, so both forwards see the same physical instances. *)
let fused_case_run c net ~steps ~x ~labels forward =
  let spec =
    if c.fc_corr then
      Variation.correlated
        ~drift:{ Variation.temp_c = 60.; age_hours = 1000. }
        ~rho:0.6 ~clen:1.5 (Variation.uniform 0.2)
    else Variation.uniform 0.1
  in
  let rng = Rng.create ~seed:(c.fc_seed + 1) in
  let draws =
    if c.fc_antithetic then
      let d1, d2 = Variation.antithetic_pair ~ste:c.fc_ste rng spec in
      [ d1; d2 ]
    else [ Variation.make_draw ~ste:c.fc_ste rng spec ]
  in
  let params = Network.params net in
  List.iter Var.zero_grad params;
  let logits = List.map (fun draw -> forward ~draw ~steps ~x) draws in
  let losses = List.map (fun l -> Pnc_autodiff.Loss.softmax_cross_entropy ~logits:l ~labels) logits in
  let loss = List.fold_left Var.add (List.hd losses) (List.tl losses) in
  Var.backward loss;
  (Var.value loss :: List.map Var.value logits, List.map (fun p -> T.copy (Var.grad p)) params)

let fused_matches_tape c =
  let rng = Rng.create ~seed:c.fc_seed in
  let classes = 2 + Rng.int rng 2 and hidden = 2 + Rng.int rng 3 in
  let net = Network.create ~hidden rng c.fc_arch ~inputs:c.fc_inputs ~classes in
  let steps =
    Array.init c.fc_time (fun _ ->
        T.uniform rng ~rows:c.fc_batch ~cols:c.fc_inputs ~lo:(-1.) ~hi:1.)
  in
  let x = T.init ~rows:c.fc_batch ~cols:c.fc_time (fun r t -> T.get steps.(t) r 0) in
  let labels = Array.init c.fc_batch (fun _ -> Rng.int rng classes) in
  let readout = c.fc_readout in
  let fused =
    fused_case_run c net ~steps ~x ~labels (fun ~draw ~steps ~x ->
        if c.fc_inputs = 1 then Network.forward_readout ~readout ~draw net x
        else Network.forward_multi ~draw net steps)
  in
  let tape =
    fused_case_run c net ~steps ~x ~labels (fun ~draw ~steps ~x:_ ->
        Layer_oracle.Network.reference_multi ~readout ~draw_crossbar:draw ~draw_filter:draw
          ~draw_act:draw net steps)
  in
  List.for_all2 bits_equal (fst fused) (fst tape) && List.for_all2 bits_equal (snd fused) (snd tape)

let prop_fused_matches_tape =
  Qgen.test_case ~count:60 ~pp:show_fused_case ~shrink:shrink_fused_case
    "fused layer node = per-step tape (logits, loss, every gradient)" gen_fused_case
    fused_matches_tape

let test_fused_matches_tape_at_paper_shape () =
  (* One case at the trained shape's sequence length (64 steps), where
     the per-step accumulation order matters most. *)
  let c =
    {
      fc_seed = 5;
      fc_arch = Network.Adapt;
      fc_readout = Network.Integrated;
      fc_inputs = 1;
      fc_batch = 6;
      fc_time = 64;
      fc_ste = false;
      fc_antithetic = true;
      fc_corr = false;
    }
  in
  Alcotest.(check bool) "bit-identical" true (fused_matches_tape c)

(* Many rows at the paper's sequence length: the adjoint's column sums
   add 48 rows per step, so a wrong row order or a wrong step order in
   the fold shows in the last bits. Both filter orders, both read-outs. *)
let test_fused_matches_tape_many_rows () =
  List.iter
    (fun (fc_arch, fc_readout) ->
      let c =
        {
          fc_seed = 11;
          fc_arch;
          fc_readout;
          fc_inputs = 1;
          fc_batch = 48;
          fc_time = 64;
          fc_ste = false;
          fc_antithetic = false;
          fc_corr = false;
        }
      in
      Alcotest.(check bool) (show_fused_case c) true (fused_matches_tape c))
    [
      (Network.Ptpnc, Network.Integrated);
      (Network.Ptpnc, Network.Last_step);
      (Network.Adapt, Network.Integrated);
      (Network.Adapt, Network.Last_step);
    ]

(* Per-call tape cost of the MC objective must not grow with the sequence
   length: every layer of every draw is one node, whatever T is. *)
let test_mc_loss_nodes_independent_of_length () =
  let model =
    Model.Circuit (Network.create ~hidden:4 (Rng.create ~seed:3) Network.Adapt ~inputs:1 ~classes:3)
  in
  let labels = [| 0; 1; 2; 0; 1 |] in
  let cost ~time =
    let x = T.uniform (Rng.create ~seed:4) ~rows:5 ~cols:time ~lo:(-1.) ~hi:1. in
    let n0 = Var.nodes_created () and t0 = Var.tape_recorded () in
    ignore
      (Mc_loss.expected ~antithetic:true ~rng:(Rng.create ~seed:5) ~spec:(Variation.uniform 0.1)
         ~n:2 model ~x ~labels);
    (Var.nodes_created () - n0, Var.tape_recorded () - t0)
  in
  let n8, t8 = cost ~time:8 and n64, t64 = cost ~time:64 in
  Alcotest.(check int) "nodes created, T = 8 vs 64" n8 n64;
  Alcotest.(check int) "tape nodes recorded, T = 8 vs 64" t8 t64

(* The adjoint allocates nothing per time step: the words one backward
   pass of the MC objective allocates must not grow with T, for either
   filter order. *)
let test_backward_alloc_independent_of_length () =
  List.iter
    (fun arch ->
      let model =
        Model.Circuit (Network.create ~hidden:4 (Rng.create ~seed:3) arch ~inputs:1 ~classes:3)
      in
      let labels = [| 0; 1; 2; 0; 1 |] in
      let words ~time =
        let x = T.uniform (Rng.create ~seed:4) ~rows:5 ~cols:time ~lo:(-1.) ~hi:1. in
        let loss =
          Mc_loss.expected ~antithetic:true ~rng:(Rng.create ~seed:5) ~spec:(Variation.uniform 0.1)
            ~n:2 model ~x ~labels
        in
        (* Start from an empty minor heap: a minor collection inside the
           window skews the minor-word count. *)
        Gc.minor ();
        let minor0, promoted0, major0 = Gc.counters () in
        Var.backward loss;
        let minor1, promoted1, major1 = Gc.counters () in
        List.iter Var.zero_grad (Model.params model);
        (minor1 -. minor0) +. (major1 -. major0) -. (promoted1 -. promoted0)
      in
      let w8 = words ~time:8 and w64 = words ~time:64 in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s: words allocated by backward, T = 8 vs 64" (Network.arch_name arch))
        w8 w64)
    [ Network.Ptpnc; Network.Adapt ]

let () =
  Alcotest.run "pnc_core"
    [
      ("printed", [ Alcotest.test_case "ranges+clamps" `Quick test_printed_ranges ]);
      ( "variation",
        [
          Alcotest.test_case "none is ones" `Quick test_variation_none;
          Alcotest.test_case "uniform bounds" `Quick test_variation_uniform_bounds;
          Alcotest.test_case "mean one" `Quick test_variation_mean_one;
          Alcotest.test_case "mu and v0" `Quick test_variation_mu_v0;
          Alcotest.test_case "deterministic draw" `Quick test_draw_deterministic;
          Alcotest.test_case "gmm spread" `Quick test_variation_gmm_spread;
        ] );
      ( "crossbar",
        [
          Alcotest.test_case "Eq. 1 closed form" `Quick test_crossbar_closed_form;
          Alcotest.test_case "output bounded" `Quick test_crossbar_output_bounded;
          Alcotest.test_case "variation perturbs" `Quick test_crossbar_variation_changes_output;
          Alcotest.test_case "gradients (FD)" `Quick test_crossbar_gradients;
          Alcotest.test_case "clamp" `Quick test_crossbar_clamp;
        ] );
      ( "ptanh",
        [
          Alcotest.test_case "formula" `Quick test_ptanh_shape_and_formula;
          Alcotest.test_case "monotone" `Quick test_ptanh_monotone;
          Alcotest.test_case "clamp" `Quick test_ptanh_clamp;
        ] );
      ( "filter-layer",
        [
          Alcotest.test_case "first order = theory" `Quick test_filter_first_order_matches_theory;
          Alcotest.test_case "second order = cascade" `Quick test_filter_second_order_matches_theory;
          Alcotest.test_case "gradients (FD)" `Quick test_filter_gradients;
          Alcotest.test_case "mu reduces gain" `Quick test_filter_mu_reduces_gain;
          Alcotest.test_case "param counts" `Quick test_filter_params_count;
          Alcotest.test_case "state-init semantics" `Quick test_filter_state_init_semantics;
          Alcotest.test_case "clamp to printable" `Quick test_filter_clamp_and_ranges;
          Alcotest.test_case "cutoffs sane" `Quick test_filter_cutoffs_positive;
        ] );
      ( "network",
        [
          Alcotest.test_case "shapes" `Quick test_network_shapes;
          Alcotest.test_case "deterministic repeatable" `Quick test_network_deterministic_repeatable;
          Alcotest.test_case "variation perturbs" `Quick test_network_variation_perturbs;
          Alcotest.test_case "param counts" `Quick test_network_param_counts;
          Alcotest.test_case "outputs bounded" `Quick test_network_outputs_bounded;
          Alcotest.test_case "multivariate inputs" `Quick test_network_multivariate;
          Alcotest.test_case "readout variants" `Quick test_readout_variants;
          Alcotest.test_case "model dispatch" `Quick test_model_dispatch;
        ] );
      ( "elman",
        [
          Alcotest.test_case "shapes" `Quick test_elman_shapes;
          Alcotest.test_case "sequence dependence" `Quick test_elman_depends_on_sequence;
          Alcotest.test_case "multivariate" `Quick test_elman_multivariate;
          Alcotest.test_case "BPTT gradients (FD)" `Quick test_elman_gradients;
        ] );
      ( "mc-loss",
        [
          Alcotest.test_case "no-variation consistency" `Quick test_mc_loss_reduces_without_variation;
          Alcotest.test_case "positive finite" `Quick test_mc_loss_positive;
          Alcotest.test_case "antithetic mirrors" `Quick test_antithetic_mirror_mirrors;
          Alcotest.test_case "antithetic variance" `Quick test_antithetic_reduces_variance;
          Alcotest.test_case "antithetic mean" `Quick test_antithetic_same_mean;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "circuit parity" `Quick test_fast_path_parity_circuit;
          Alcotest.test_case "reference parity" `Quick test_fast_path_parity_reference;
          Alcotest.test_case "readout parity" `Quick test_fast_path_readouts_parity;
          Alcotest.test_case "mc value agrees" `Quick test_expected_value_matches_var_path;
          Alcotest.test_case "re-seeded run identical" `Quick test_expected_value_reseed_regression;
          Alcotest.test_case "zero Var allocation" `Quick test_fast_path_allocates_no_var_nodes;
        ] );
      ( "fused-vs-tape",
        [
          prop_fused_matches_tape;
          Alcotest.test_case "64 steps bit-identical" `Quick test_fused_matches_tape_at_paper_shape;
          Alcotest.test_case "48 rows x 64 steps bit-identical" `Quick
            test_fused_matches_tape_many_rows;
          Alcotest.test_case "tape nodes independent of T" `Quick
            test_mc_loss_nodes_independent_of_length;
          Alcotest.test_case "backward allocation independent of T" `Quick
            test_backward_alloc_independent_of_length;
        ] );
      ( "hardware",
        [
          Alcotest.test_case "counts shape" `Quick test_hardware_counts_shape;
          Alcotest.test_case "power ordering" `Quick test_hardware_power_ordering;
          Alcotest.test_case "unprinted weights free" `Quick test_hardware_unprinted_weights_cost_nothing;
          Alcotest.test_case "monotone in width" `Quick test_hardware_counts_monotone_in_width;
          Alcotest.test_case "g_scale ratio" `Quick test_hardware_g_scale;
          Alcotest.test_case "deterministic predict" `Quick test_predict_with_draw_varies;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "rows" `Quick test_sensitivity_rows;
          Alcotest.test_case "zero level" `Quick test_sensitivity_zero_level_no_drop;
        ] );
      ( "discretize",
        [
          Alcotest.test_case "quantize value" `Quick test_quantize_value;
          Alcotest.test_case "idempotent" `Quick test_quantize_idempotent;
          Alcotest.test_case "with_quantized restores" `Quick test_with_quantized_restores;
          Alcotest.test_case "accuracy ladder" `Quick test_accuracy_ladder_shape;
        ] );
      ( "coupling",
        [
          Alcotest.test_case "mu matches theory" `Quick test_mu_extraction_matches_theory;
          Alcotest.test_case "survey in paper band" `Quick test_mu_survey_range;
          Alcotest.test_case "fit quality" `Quick test_mu_fit_quality;
        ] );
      ( "ptanh-circuit",
        [
          Alcotest.test_case "transfer shape" `Quick test_ptanh_circuit_transfer_shape;
          Alcotest.test_case "fit recovers exact" `Quick test_fit_eta_recovers_exact;
          Alcotest.test_case "characterize" `Quick test_characterize_fits_circuit;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "chip replays" `Quick test_chip_replays_same_instance;
          Alcotest.test_case "bias subset" `Quick test_bias_params_subset;
          Alcotest.test_case "trim scope" `Quick test_trim_moves_only_biases;
          Alcotest.test_case "evaluate restores" `Quick test_evaluate_restores_design;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_crossbar_bounded_under_variation;
            prop_filter_realization_stable;
            prop_network_deterministic_forward;
          ] );
    ]
