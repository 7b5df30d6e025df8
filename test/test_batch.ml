(* Differential-oracle battery for the batched no-grad inference
   engine: every [eval] must be bit-identical (eps 0) to its
   whole-batch oracle for every block size — 1, primes, a ragged final
   block, the whole split, past the split — because the variation draw
   is realized once per forward and every kernel is row-independent.
   The dune rules re-run this binary under POOL_SIZE=1/4 crossed with
   ADAPT_PNC_BATCH settings, so the parity claims hold under the
   multicore pool and the env knob alike.

   The battery's own sensitivity is verified at the end: a locally
   reimplemented tiled matmul with a classic off-by-one (the ragged
   final tile dropped) must diverge from the library kernel at eps 0 —
   if an eps-0 comparison could not see that bug, none of the parity
   checks above would mean anything. *)

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Pool = Pnc_util.Pool
module Batch = Pnc_core.Batch
module Variation = Pnc_core.Variation
module Network = Pnc_core.Network
module Elman = Pnc_core.Elman
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Mc_loss = Pnc_core.Mc_loss

let env_pool_size =
  match Sys.getenv_opt "POOL_SIZE" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 4)
  | None -> 4

let eq0 = T.equal_eps ~eps:0.
let draw_of ~seed ~level = Variation.make_draw (Rng.create ~seed) (Variation.uniform level)

(* Block sizes to exercise for a batch of [rows]: 1, small primes (a
   ragged final block whenever they don't divide [rows]), an
   almost-whole block, the whole batch, and past the end. *)
let block_sizes rows =
  List.sort_uniq compare
    (List.filter (fun b -> b >= 1) [ 1; 2; 3; 5; 7; rows - 1; rows; rows + 3 ])

(* End-to-end twins ------------------------------------------------------ *)

let model_case rng =
  let classes = 2 + Rng.int rng 3 in
  let rows = 2 + Rng.int rng 22 in
  let time = 4 + Rng.int rng 9 in
  let seed = Rng.int rng 10_000 in
  let model =
    match Rng.int rng 3 with
    | 0 -> Model.Reference (Elman.create ~hidden:(2 + Rng.int rng 5) rng ~inputs:1 ~classes)
    | 1 ->
        Model.Circuit (Network.create ~hidden:(2 + Rng.int rng 4) rng Network.Ptpnc ~inputs:1 ~classes)
    | _ ->
        Model.Circuit (Network.create ~hidden:(2 + Rng.int rng 4) rng Network.Adapt ~inputs:1 ~classes)
  in
  let x = T.uniform rng ~rows ~cols:time ~lo:(-1.) ~hi:1. in
  (model, x, seed)

let pp_model_case (model, x, seed) =
  Printf.sprintf "%s rows=%d time=%d seed=%d" (Model.label model) (T.rows x) (T.cols x) seed

(* The oracle: the whole batch as one block, whatever the environment
   says. *)
let whole ~draw model x = Model.eval ~batch_size:(T.rows x) ~draw model x

let test_logits_batch_twin () =
  Qgen.check ~count:30 ~name:"eval by blocks = whole batch" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      (* Two draws from the same seed consume identical streams: one
         for the oracle, one per batched evaluation. *)
      let oracle = whole ~draw:(draw_of ~seed ~level:0.1) model x in
      List.for_all
        (fun bs ->
          eq0 oracle (Model.eval ~batch_size:bs ~draw:(draw_of ~seed ~level:0.1) model x))
        (block_sizes (T.rows x)))

let test_predict_batch_twin () =
  Qgen.check ~count:20 ~name:"classes by blocks = whole batch" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      let oracle = T.argmax_rows (whole ~draw:(draw_of ~seed ~level:0.1) model x) in
      List.for_all
        (fun bs ->
          T.argmax_rows (Model.eval ~batch_size:bs ~draw:(draw_of ~seed ~level:0.1) model x)
          = oracle)
        (block_sizes (T.rows x)))

(* The env knob: under ADAPT_PNC_BATCH (set by the dune rules) the
   default-resolved path must still match the oracle, and explicit
   arguments must win over the environment. *)
let test_env_knob_parity () =
  Qgen.check ~count:10 ~name:"ADAPT_PNC_BATCH parity" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      let oracle = whole ~draw:(draw_of ~seed ~level:0.1) model x in
      eq0 oracle (Model.eval ~draw:(draw_of ~seed ~level:0.1) model x))

(* The one block loop behind every [eval]: consecutive blocks from row
   0, each of the resolved size except a ragged last one, and every
   returned block copied into its own rows. *)
let test_eval_blocks_tiling () =
  List.iter
    (fun rows ->
      List.iter
        (fun bs ->
          let seen = ref [] in
          let out =
            Batch.eval_blocks ~batch_size:bs ~rows ~cols:2 (fun ~row ~len ->
                seen := (row, len) :: !seen;
                T.init ~rows:len ~cols:2 (fun r c -> float_of_int ((10 * (row + r)) + c)))
          in
          let expected = List.init ((rows + bs - 1) / bs) (fun i -> (i * bs, min bs (rows - (i * bs)))) in
          let label = Printf.sprintf "rows %d, batch_size %d" rows bs in
          Alcotest.(check (list (pair int int))) (label ^ ": blocks") expected (List.rev !seen);
          Alcotest.(check bool) (label ^ ": rows in place") true
            (eq0 (T.init ~rows ~cols:2 (fun r c -> float_of_int ((10 * r) + c))) out))
        (block_sizes rows))
    [ 1; 2; 7; 12 ]

(* Filter initial states are drawn for the whole batch before chunking,
   so every [state_init] — including the per-row Gaussian stream — is
   invariant in the block size. *)
let circuit_case rng =
  let classes = 2 + Rng.int rng 3 in
  let rows = 2 + Rng.int rng 22 in
  let time = 4 + Rng.int rng 9 in
  let arch = if Rng.bool rng then Network.Ptpnc else Network.Adapt in
  let net = Network.create ~hidden:(2 + Rng.int rng 4) rng arch ~inputs:1 ~classes in
  (Model.Circuit net, T.uniform rng ~rows ~cols:time ~lo:(-1.) ~hi:1., Rng.int rng 10_000)

let state_init_parity name state_init () =
  Qgen.check ~count:15 ~name:("state_init " ^ name ^ " by blocks") ~pp:pp_model_case circuit_case
    (fun (model, x, seed) ->
      let eval bs =
        Model.eval ~batch_size:bs ~state_init:(state_init seed) ~draw:(draw_of ~seed ~level:0.1)
          model x
      in
      let oracle = eval (T.rows x) in
      List.for_all (fun bs -> eq0 oracle (eval bs)) (block_sizes (T.rows x)))

(* Three distinct family draws are each realized once per call, not per
   block. *)
let test_family_draws_parity () =
  Qgen.check ~count:15 ~name:"family draws by blocks" ~pp:pp_model_case circuit_case
    (fun (model, x, seed) ->
      let net = match model with Model.Circuit n -> n | Model.Reference _ -> assert false in
      let steps = T.columns x in
      let eval bs =
        let draws =
          {
            Network.crossbar = draw_of ~seed ~level:0.1;
            filter = draw_of ~seed:(seed + 1) ~level:0.1;
            act = draw_of ~seed:(seed + 2) ~level:0.1;
          }
        in
        Network.eval ~batch_size:bs ~draws net steps
      in
      let oracle = eval (T.rows x) in
      List.for_all (fun bs -> eq0 oracle (eval bs)) (block_sizes (T.rows x)))

(* Multi-input steps (the multisensor path) through both families. *)
let test_multivariate_parity () =
  Qgen.check ~count:15 ~name:"multivariate eval by blocks"
    ~pp:(fun (_, steps, seed) ->
      Printf.sprintf "rows=%d time=%d seed=%d" (T.rows steps.(0)) (Array.length steps) seed)
    (fun rng ->
      let inputs = 2 + Rng.int rng 2 in
      let rows = 2 + Rng.int rng 22 in
      let time = 4 + Rng.int rng 9 in
      let model =
        match Rng.int rng 3 with
        | 0 -> Model.Reference (Elman.create ~hidden:3 rng ~inputs ~classes:3)
        | 1 -> Model.Circuit (Network.create ~hidden:3 rng Network.Ptpnc ~inputs ~classes:3)
        | _ -> Model.Circuit (Network.create ~hidden:3 rng Network.Adapt ~inputs ~classes:3)
      in
      let steps = Array.init time (fun _ -> T.uniform rng ~rows ~cols:inputs ~lo:(-1.) ~hi:1.) in
      (model, steps, Rng.int rng 10_000))
    (fun (model, steps, seed) ->
      let rows = T.rows steps.(0) in
      let eval bs =
        match model with
        | Model.Reference e -> Elman.eval ~batch_size:bs e steps
        | Model.Circuit net ->
            Network.eval ~batch_size:bs ~draws:(Network.shared (draw_of ~seed ~level:0.1)) net
              steps
      in
      let oracle = eval rows in
      List.for_all (fun bs -> eq0 oracle (eval bs)) (block_sizes rows))

let test_resolve_precedence () =
  (* Explicit argument beats the environment, which beats whole-split;
     everything is clamped to [1, n]. *)
  let env = Batch.env_default () in
  Alcotest.(check int) "explicit wins" 4 (Batch.resolve ~batch_size:4 ~n:10 ());
  Alcotest.(check int) "clamped to n" 10 (Batch.resolve ~batch_size:64 ~n:10 ());
  (* An explicit non-positive block size is a caller bug, not a request
     for the default: it must be rejected, not silently whole-split. *)
  Alcotest.check_raises "non-positive arg rejected"
    (Invalid_argument "Batch.resolve: batch_size must be positive (got -3)") (fun () ->
      ignore (Batch.resolve ~batch_size:(-3) ~n:10 ()));
  Alcotest.check_raises "zero arg rejected"
    (Invalid_argument "Batch.resolve: batch_size must be positive (got 0)") (fun () ->
      ignore (Batch.resolve ~batch_size:0 ~n:10 ()));
  (match env with
  | Some b -> Alcotest.(check int) "env wins over default" (min b 10) (Batch.resolve ~n:10 ())
  | None -> Alcotest.(check int) "default = whole split" 10 (Batch.resolve ~n:10 ()));
  Alcotest.(check int) "n floor" 1 (Batch.resolve ~n:0 ())

(* Consumers ------------------------------------------------------------- *)

let small_dataset ~classes ~batch ~time rng =
  {
    Pnc_data.Dataset.name = "synthetic";
    x = Array.init batch (fun _ -> Array.init time (fun _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.));
    y = Array.init batch (fun i -> i mod classes);
    n_classes = classes;
  }

let test_accuracy_batch_invariance () =
  Qgen.check ~count:8 ~name:"accuracy invariant in batch size" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      ignore x;
      let rng = Rng.create ~seed in
      let classes =
        match model with
        | Model.Circuit net -> Network.classes net
        | Model.Reference e -> Elman.classes e
      in
      let ds = small_dataset ~classes ~batch:(5 + Rng.int rng 15) ~time:8 rng in
      let oracle = Train.accuracy model ds in
      List.for_all (fun bs -> Train.accuracy ~batch_size:bs model ds = oracle)
        (block_sizes (Array.length ds.Pnc_data.Dataset.x)))

let test_accuracy_under_variation_pool_batch_invariance () =
  Qgen.check ~count:6 ~name:"accuracy under variation: pool x batch invariant"
    ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      ignore x;
      let rng = Rng.create ~seed in
      let classes =
        match model with
        | Model.Circuit net -> Network.classes net
        | Model.Reference e -> Elman.classes e
      in
      let ds = small_dataset ~classes ~batch:(5 + Rng.int rng 10) ~time:8 rng in
      let spec = Variation.uniform 0.1 in
      let oracle =
        Train.accuracy_under_variation ~rng:(Rng.create ~seed) ~spec ~draws:4 model ds
      in
      Pool.with_pool ~size:env_pool_size (fun pool ->
          List.for_all
            (fun bs ->
              Train.accuracy_under_variation ~batch_size:bs ~pool ~rng:(Rng.create ~seed) ~spec
                ~draws:4 model ds
              = oracle)
            [ 1; 3; Array.length ds.Pnc_data.Dataset.x ]))

let test_mc_loss_batch_invariance () =
  Qgen.check ~count:8 ~name:"expected_value invariant in batch size" ~pp:pp_model_case
    model_case
    (fun (model, x, seed) ->
      let classes =
        match model with
        | Model.Circuit net -> Network.classes net
        | Model.Reference e -> Elman.classes e
      in
      let labels = Array.init (T.rows x) (fun i -> i mod classes) in
      let spec = Variation.uniform 0.1 in
      let value ?batch_size ?pool () =
        Mc_loss.expected_value ?batch_size ?pool ~rng:(Rng.create ~seed) ~spec ~n:3 model ~x
          ~labels
      in
      let oracle = value () in
      List.for_all (fun bs -> value ~batch_size:bs () = oracle) (block_sizes (T.rows x))
      && Pool.with_pool ~size:env_pool_size (fun pool ->
             value ~pool ~batch_size:2 () = oracle))

(* Kernel oracle --------------------------------------------------------- *)

(* The parity tests above compare two paths that share the blocked
   matmul, so a tiling bug inside the kernel itself would cancel out of
   them. This check pins the kernel to an independent naive triple loop
   at shapes past the 32x32 block size with ragged row- and k-tails.
   Bit-equality is exact because the blocked kernel accumulates k in
   ascending order, the same order as the naive loop. *)
let naive_matmul a b =
  let m = T.rows a and kk = T.cols a and n = T.cols b in
  T.init ~rows:m ~cols:n (fun r c ->
      let acc = ref 0. in
      for k = 0 to kk - 1 do
        acc := !acc +. (T.get a r k *. T.get b k c)
      done;
      !acc)

let test_blocked_matmul_vs_naive () =
  Qgen.check ~count:25 ~name:"blocked matmul = naive oracle"
    ~pp:(fun (m, k, n, seed) -> Printf.sprintf "m=%d k=%d n=%d seed=%d" m k n seed)
    (fun rng ->
      (* Straddle the 32-wide blocks: full tiles, ragged tails, and the
         degenerate kk=1 fast path all come up. *)
      let m = 1 + Rng.int rng 70 in
      let k = 1 + Rng.int rng 70 in
      let n = 1 + Rng.int rng 10 in
      (m, k, n, Rng.int rng 10_000))
    (fun (m, k, n, seed) ->
      let rng = Rng.create ~seed in
      let a = T.uniform rng ~rows:m ~cols:k ~lo:(-1.) ~hi:1. in
      let b = T.uniform rng ~rows:k ~cols:n ~lo:(-1.) ~hi:1. in
      eq0 (T.matmul a b) (naive_matmul a b))

(* Battery sensitivity --------------------------------------------------- *)

(* A tiled matmul with the canonical blocking bug: the loop walks only
   FULL k-tiles, silently dropping the ragged final tile. The tile size
   is deliberately small so ordinary test shapes exercise the bug. *)
let buggy_tile = 4

let buggy_tiled_matmul a b =
  let m = T.rows a and kk = T.cols a and n = T.cols b in
  let out = T.zeros ~rows:m ~cols:n in
  let k0 = ref 0 in
  while !k0 + buggy_tile <= kk do
    (* off-by-one: `<=` should be a ragged-tail `<` + clamp *)
    for r = 0 to m - 1 do
      for k = !k0 to !k0 + buggy_tile - 1 do
        let av = T.get a r k in
        for c = 0 to n - 1 do
          T.set out r c (T.get out r c +. (av *. T.get b k c))
        done
      done
    done;
    k0 := !k0 + buggy_tile
  done;
  out

let test_battery_catches_tiling_bug () =
  Qgen.check ~count:20 ~name:"eps-0 diff catches dropped ragged tile"
    ~pp:(fun (m, k, n, seed) -> Printf.sprintf "m=%d k=%d n=%d seed=%d" m k n seed)
    (fun rng ->
      let m = 1 + Rng.int rng 8 in
      (* inner dimension NOT a multiple of the tile: a ragged tail exists *)
      let k = (buggy_tile * (1 + Rng.int rng 3)) + 1 + Rng.int rng (buggy_tile - 1) in
      let n = 1 + Rng.int rng 8 in
      (m, k, n, Rng.int rng 10_000))
    (fun (m, k, n, seed) ->
      let rng = Rng.create ~seed in
      let a = T.uniform rng ~rows:m ~cols:k ~lo:0.5 ~hi:1.5 in
      let b = T.uniform rng ~rows:k ~cols:n ~lo:0.5 ~hi:1.5 in
      (* Strictly positive entries: the dropped tail contribution cannot
         cancel, so the eps-0 comparison MUST see the divergence. *)
      not (eq0 (T.matmul a b) (buggy_tiled_matmul a b)))

let () =
  Alcotest.run "pnc_batch"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "eval by blocks = whole batch" `Quick test_logits_batch_twin;
          Alcotest.test_case "classes by blocks = whole batch" `Quick test_predict_batch_twin;
          Alcotest.test_case "ADAPT_PNC_BATCH parity" `Quick test_env_knob_parity;
          Alcotest.test_case "resolve precedence" `Quick test_resolve_precedence;
          Alcotest.test_case "eval_blocks tiling" `Quick test_eval_blocks_tiling;
          Alcotest.test_case "state_init V0 by blocks" `Quick (state_init_parity "V0" (fun _ -> `V0));
          Alcotest.test_case "state_init Zero by blocks" `Quick
            (state_init_parity "Zero" (fun _ -> `Zero));
          Alcotest.test_case "state_init Gaussian by blocks" `Quick
            (state_init_parity "Gaussian" (fun seed -> `Gaussian (Rng.create ~seed, 0.2)));
          Alcotest.test_case "family draws by blocks" `Quick test_family_draws_parity;
          Alcotest.test_case "multivariate eval by blocks" `Quick test_multivariate_parity;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "Train.accuracy" `Quick test_accuracy_batch_invariance;
          Alcotest.test_case "accuracy under variation, pool x batch" `Quick
            test_accuracy_under_variation_pool_batch_invariance;
          Alcotest.test_case "Mc_loss.expected_value" `Quick test_mc_loss_batch_invariance;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "blocked matmul = naive oracle" `Quick
            test_blocked_matmul_vs_naive;
          Alcotest.test_case "injected tiling off-by-one diverges" `Quick
            test_battery_catches_tiling_bug;
        ] );
    ]
