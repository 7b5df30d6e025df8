(* The four workloads. Each is a closed loop (one caller waits for each
   reply) over the fixture of {!Setup}, fed inputs drawn from the
   workload seed. An instance runs its operation untraced for the
   end-to-end metrics, or re-drives the same work through the public
   call of each layer, with a span around every call, for the per-layer
   ones. *)

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Optimizer = Pnc_optim.Optimizer
module Scheduler = Pnc_optim.Scheduler
module Rng = Pnc_util.Rng
module Dataset = Pnc_data.Dataset
module Augment = Pnc_augment.Augment
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Mc_loss = Pnc_core.Mc_loss
module Variation = Pnc_core.Variation
module Persist = Pnc_core.Persist
module Online = Pnc_stream.Online
module Scenario = Pnc_stream.Scenario
module Client = Pnc_serve.Serve.Client
module Json = Pnc_obs.Obs.Json

(* Timings of one run. *)
type timing = {
  lat : float array;  (** seconds per unit, one entry per operation *)
  per_s : float;  (** units per second *)
}

type instance = {
  per_op : int;  (** units per operation (epochs, windows); 1 elsewhere *)
  warmup : unit -> unit;  (** one untimed operation; keeps its results as the reference *)
  run : seconds:float -> timing;  (** untraced operations *)
  run_traced : seconds:float -> unit;
      (** re-driven operations, each an ["op"] root span over layer spans *)
  finish : unit -> float;  (** final output checks; returns the workload's accuracy *)
  shapes : Probe.shapes;
  queue : Probe.shapes -> float * float * float;
      (** serving queue wait p50 and p99 (seconds) and mean batch fill,
          serving the workload's model *)
  rss_mb : unit -> float;  (** peak RSS of the process doing the work *)
  close : unit -> unit;
  named : timing -> (string * float * string) list;
      (** the workload's own names for its end-to-end figures *)
}

let ms q lat = 1000. *. Measure.quantile lat q

(* A sequential workload: [op i] is one operation of [per_op] units;
   its latency is split evenly over them. *)
let sequential ~per_op op ~seconds =
  let t_end = Measure.now () +. seconds in
  let lat = ref [] and i = ref 0 in
  while Measure.now () < t_end do
    incr i;
    let (), dt = Measure.time (fun () -> op !i) in
    lat := (dt /. float_of_int per_op) :: !lat
  done;
  let lat = Array.of_list (List.rev !lat) in
  { lat; per_s = float_of_int (Array.length lat) /. Measure.sum lat }

(* The traced twin of [sequential]: every operation is an "op" root
   span. *)
let traced_loop traced_op =
  let i = ref 0 in
  fun ~seconds ->
    let t_end = Measure.now () +. seconds in
    while Measure.now () < t_end do
      Span.with_ ~item:!i "op" (fun () -> traced_op !i);
      incr i
    done

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

(* A drifting, perturbed stream of [windows] 16-sample windows over
   [dataset]: labels rotate at the midpoint, with noise bursts, dropouts
   and baseline wander. *)
let drifting_stream ~dataset ~seed ~windows =
  let n = windows * Online.default_protocol.Online.width in
  Scenario.realize
    (Scenario.make ~dataset ~n_samples:n ~seed:(seed + 8000)
       ~drift:{ Scenario.drift_at = n / 2; kind = Scenario.Abrupt; shift = 1 }
       ~perturb:
         {
           Scenario.no_perturb with
           burst_rate = 0.2;
           burst_sigma = 0.3;
           dropout_rate = 0.05;
           wander_amp = 0.1;
         }
       ())

(* Serving queue profile of a running daemon: two closed-loop clients
   posting [block] for [seconds]; the daemon's own histograms, read
   through GET /metrics before and after. *)
let queue_profile ~port ~(block : Dataset.t) ~seconds =
  let q0 = Daemon.histogram ~port "serve.queue_wait_seconds"
  and f0 = Daemon.histogram ~port "serve.batch_fill" in
  ignore
    (Daemon.closed_loop ~port ~conns:2 ~seconds
       ~send:(fun c _ -> Client.logits_batch c block.Dataset.x)
       ~check:(fun _ r -> Check.expect (Result.is_ok r) "serve request failed"));
  let q = Daemon.diff (Daemon.histogram ~port "serve.queue_wait_seconds") q0
  and fc, fs, _ = Daemon.diff (Daemon.histogram ~port "serve.batch_fill") f0 in
  (Daemon.hist_quantile q 0.5, Daemon.hist_quantile q 0.99, fs /. fc /. float_of_int Probe.max_batch)

let checkpoint_path ~seed =
  Filename.concat (Setup.out_dir ()) (Printf.sprintf "model-%d-%d.ckpt" seed (Unix.getpid ()))

(* Queue profile for the in-process workloads: their model, served by
   a daemon of its own for a second. *)
let spawned_queue_profile ~exe ~seed (sh : Probe.shapes) =
  let ckpt = checkpoint_path ~seed in
  Persist.save_model ~path:ckpt sh.Probe.model;
  let d = Daemon.spawn ~exe ~ckpt ~max_batch:Probe.max_batch in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Sys.remove ckpt)
    (fun () -> queue_profile ~port:d.Daemon.port ~block:sh.Probe.block ~seconds:1.0)

let self_rss () = Measure.peak_rss_mb ()

let shapes ~model ~(split : Dataset.split) ~eval_set ~train_set ~mc ~stream =
  {
    Probe.model;
    eval_set;
    train_set;
    valid_set = split.Dataset.valid;
    mc;
    stream;
    block = Setup.cycle split.Dataset.test Probe.max_batch;
  }

(* train ------------------------------------------------------------------ *)

(* Fixed-epoch, variation-aware training of the Full variant on CBF.
   The training run is part of the fixture (its Monte-Carlo stream
   too): after 5 epochs the model is still near chance, where a
   different stream moves the accuracy by more than any bound could
   tolerate. The seed draws the evaluation of the trained model. *)
let train_epochs = 5

let train ~seed ~exe =
  let split, classes = Setup.data ~dataset:"CBF" in
  let model = Span.with_ "setup.model" (fun () -> Setup.model ~classes) in
  let init = Online.snapshot_params model in
  let tcfg = Setup.fixed_epochs train_epochs in
  let reference = ref [||] in
  let op _ =
    Online.restore_params model init;
    let h = Train.train ~rng:(Rng.create ~seed:(Setup.fixture_seed + 3000)) tcfg model split in
    let c = h.Train.train_loss_curve in
    Check.expect
      (Check.finite c && Check.finite h.Train.val_loss_curve
      && Array.length c = train_epochs
      && c.(train_epochs - 1) < c.(0))
      "train: losses not finite, or the final loss is not below the first";
    if !reference = [||] then reference := c
  in
  (* Train.train's loop, one call per layer. *)
  let traced_op _ =
    Online.restore_params model init;
    let x, labels = Train.to_xy split.Dataset.train and xv, lv = Train.to_xy split.Dataset.valid in
    let opt =
      Optimizer.adamw ~weight_decay:tcfg.Train.weight_decay ~params:(Model.params model) ()
    in
    let sched =
      Scheduler.plateau ~factor:tcfg.Train.lr_factor ~patience:tcfg.Train.patience
        ~min_lr:tcfg.Train.min_lr ~init_lr:tcfg.Train.lr ()
    in
    let rng = Rng.create ~seed:(Setup.fixture_seed + 3000) in
    let best = ref infinity in
    let best_snap = ref (Span.with_ "core.snapshot" (fun () -> Online.snapshot_params model)) in
    let curve =
      Array.init train_epochs (fun _ ->
          Span.with_ "optim.step" (fun () -> Optimizer.zero_grads opt);
          let loss =
            Span.with_ "autodiff.fwd" (fun () ->
                Mc_loss.expected ~antithetic:tcfg.Train.antithetic ~ni:tcfg.Train.noise_injection
                  ~rng ~spec:tcfg.Train.variation ~n:tcfg.Train.mc_samples model ~x ~labels)
          in
          Span.with_ "autodiff.bwd" (fun () -> Var.backward loss);
          Span.with_ "optim.step" (fun () ->
              Option.iter (fun m -> Optimizer.clip_grad_norm opt ~max_norm:m) tcfg.Train.grad_clip;
              Optimizer.step opt ~lr:(Scheduler.lr sched);
              Model.clamp model);
          let v =
            Span.with_ "core.val" (fun () ->
                Mc_loss.expected_value ~antithetic:tcfg.Train.antithetic ~rng
                  ~spec:tcfg.Train.variation ~n:tcfg.Train.mc_samples_val model ~x:xv ~labels:lv)
          in
          if v < !best then begin
            best := v;
            best_snap := Span.with_ "core.snapshot" (fun () -> Online.snapshot_params model)
          end;
          ignore (Scheduler.observe sched v);
          T.get_scalar (Var.value loss))
    in
    Span.with_ "core.snapshot" (fun () -> Online.restore_params model !best_snap);
    Check.expect (same_bits curve !reference) "train: re-driven loss curve differs from Train.train"
  in
  {
    per_op = train_epochs;
    warmup = (fun () -> Span.with_ "setup.boot" (fun () -> op 0));
    run = sequential ~per_op:train_epochs op;
    run_traced = traced_loop traced_op;
    finish =
      (fun () ->
        let acc =
          Train.accuracy_under_variation ~rng:(Rng.create ~seed:(seed + 4000)) ~spec:Setup.iid
            ~draws:Setup.cfg.Pnc_exp.Config.eval_draws model split.Dataset.test
        in
        Check.expect (Float.is_finite acc && acc >= 0. && acc <= 1.) "train: accuracy out of range";
        acc);
    shapes =
      shapes ~model ~split ~eval_set:split.Dataset.test ~train_set:split.Dataset.train
        ~mc:tcfg.Train.mc_samples
        ~stream:(drifting_stream ~dataset:"CBF" ~seed ~windows:8);
    queue = spawned_queue_profile ~exe ~seed;
    rss_mb = self_rss;
    close = ignore;
    named =
      (fun t ->
        [
          ("epochs_per_s", t.per_s, "1/s");
          ("epoch_ms_p50", ms 0.5 t.lat, "ms");
          ("epoch_ms_p90", ms 0.9 t.lat, "ms");
        ]);
  }

(* mc-eval ---------------------------------------------------------------- *)

(* A grid cell's post-training evaluation: the three i.i.d. protocols
   (test, augmented test, perturbed test) and the correlated one at 4x
   draws, on a Full Symbols model; every cell draws fresh seeds. *)
let mc_eval_setup_epochs = 8
let cells_per_op = 4

let mc_eval ~seed ~exe =
  let split, classes = Setup.data ~dataset:"Symbols" in
  let model = Setup.trained ~split ~classes ~epochs:mc_eval_setup_epochs in
  let test = split.Dataset.test in
  let aug_test, pert_test =
    Span.with_ "setup.data" (fun () ->
        let prng = Rng.create ~seed:(seed + 5000) in
        let aug = Dataset.concat test (Augment.perturb_dataset prng Augment.default_policy test) in
        (aug, Augment.perturb_dataset prng Augment.default_policy test))
  in
  let draws = Setup.cfg.Pnc_exp.Config.eval_draws in
  let protocols =
    [| (Setup.iid, draws, test); (Setup.iid, draws, aug_test); (Setup.iid, draws, pert_test);
       (Setup.corr, 4 * draws, test) |]
  in
  let draws_per_cell = Array.fold_left (fun a (_, d, _) -> a + d) 0 protocols in
  (* The i.i.d. protocols share one stream, consumed in order; the
     correlated one has its own (the grid's layout). *)
  let streams i =
    let iid = Rng.create ~seed:(seed + 4000 + (7919 * i)) in
    let corr = Rng.create ~seed:(seed + 7000 + (7919 * i)) in
    fun k -> if k < 3 then iid else corr
  in
  let cell ?pool i =
    let rng = streams i in
    Array.mapi
      (fun k (spec, draws, d) -> Train.accuracy_under_variation ?pool ~rng:(rng k) ~spec ~draws model d)
      protocols
  in
  let reference = ref [||] in
  (* One operation evaluates [cells_per_op] cells, so that every
     operation spans the same share of the collector's cycle; a single
     cell's time is bimodal. *)
  let each_cell i f =
    for j = 0 to cells_per_op - 1 do
      f ((i * cells_per_op) + j)
    done
  in
  let op i =
    each_cell i @@ fun c ->
    let accs = cell c in
    Check.expect
      (Array.for_all (fun a -> Float.is_finite a && a >= 0. && a <= 1.) accs)
      "mc-eval: accuracy out of range";
    if c = 0 then reference := accs
  in
  let traced_op i =
    each_cell i @@ fun i ->
    let rng = streams i in
    let accs =
      Array.mapi
        (fun k (spec, draws, d) ->
          Span.with_ "core.eval" (fun () ->
              let rngs = Rng.split_n (rng k) draws in
              let accs =
                Array.init draws (fun j ->
                    Span.with_ "core.draw" (fun () ->
                        Train.accuracy ~draw:(Variation.make_draw rngs.(j) spec) model d))
              in
              Array.fold_left ( +. ) 0. accs /. float_of_int draws))
        protocols
    in
    if i = 0 then
      Check.expect (same_bits accs !reference) "mc-eval: re-driven cell differs from the library's"
  in
  {
    per_op = cells_per_op;
    warmup = (fun () -> Span.with_ "setup.boot" (fun () -> op 0));
    run = sequential ~per_op:cells_per_op op;
    run_traced = traced_loop traced_op;
    finish =
      (fun () ->
        let pooled = Pnc_util.Pool.with_pool ~size:2 (fun pool -> cell ~pool 0) in
        Check.expect (same_bits pooled !reference)
          "mc-eval: pool-of-2 result differs from the sequential one";
        Measure.sum !reference /. float_of_int (Array.length !reference));
    shapes =
      shapes ~model ~split ~eval_set:test ~train_set:split.Dataset.train
        ~mc:Setup.cfg.Pnc_exp.Config.train_va.Train.mc_samples
        ~stream:(drifting_stream ~dataset:"Symbols" ~seed ~windows:8);
    queue = spawned_queue_profile ~exe ~seed;
    rss_mb = self_rss;
    close = ignore;
    named =
      (fun t ->
        [
          ("draws_per_s", t.per_s *. float_of_int draws_per_cell, "1/s");
          ("eval_ms_p50", ms 0.5 t.lat, "ms");
          ("eval_ms_p90", ms 0.9 t.lat, "ms");
        ]);
  }

(* stream ----------------------------------------------------------------- *)

(* Test-then-train over a drifting, perturbed GPOVY stream: every
   window is scored, then the whole model adapts on it. *)
let stream_windows = 48
let stream_setup_epochs = 10

let stream ~seed ~exe =
  let split, classes = Setup.data ~dataset:"GPOVY" in
  let model = Setup.trained ~split ~classes ~epochs:stream_setup_epochs in
  let rz =
    Span.with_ "setup.data" (fun () ->
        drifting_stream ~dataset:"GPOVY" ~seed ~windows:stream_windows)
  in
  let protocol = { Online.default_protocol with Online.adapt = Online.All } in
  let width = protocol.Online.width in
  let init = Online.snapshot_params model in
  let eval ?batch_size protocol =
    let r =
      Online.eval ?batch_size ~spec:Setup.iid ~rng:(Rng.create ~seed:(seed + 6000)) protocol model rz
    in
    Online.restore_params model init;
    r
  in
  let reference = ref None in
  let op _ =
    let r = eval protocol in
    match !reference with
    | None ->
        Check.expect (Float.is_finite r.Online.overall_acc) "stream: accuracy not finite";
        reference := Some r
    | Some r0 ->
        Check.expect (r.Online.points = r0.Online.points) "stream: adapted run is not repeatable"
  in
  let window w =
    Dataset.make ~name:"window" ~n_classes:rz.Scenario.n_classes
      ~x:(Array.sub rz.Scenario.x (w * width) width)
      ~y:(Array.sub rz.Scenario.y (w * width) width)
  in
  let windows = Array.init stream_windows window in
  (* Per window: score on the no-grad engine under the stream's single
     physical instance, then [adapt_steps] tape steps at the window
     shape. *)
  let traced_op i =
    let instance = (Rng.split_n (Rng.create ~seed:(seed + 6000)) 2).(0) in
    let step_rng = Rng.create ~seed:(seed + 6100 + i) in
    let opt = Optimizer.adamw ~params:(Model.params model) () in
    Array.iter
      (fun d ->
        Span.with_ "stream.score" (fun () ->
            ignore
              (Train.accuracy ~draw:(Variation.make_draw (Rng.copy instance) Setup.iid) model d));
        let x, labels = Train.to_xy d in
        for _ = 1 to protocol.Online.adapt_steps do
          Span.with_ "optim.step" (fun () -> Optimizer.zero_grads opt);
          let loss =
            Span.with_ "autodiff.fwd" (fun () ->
                Mc_loss.expected ~rng:step_rng ~spec:Setup.iid ~n:1 model ~x ~labels)
          in
          Span.with_ "autodiff.bwd" (fun () -> Var.backward loss);
          Span.with_ "optim.step" (fun () ->
              Optimizer.clip_grad_norm opt ~max_norm:5.;
              Optimizer.step opt ~lr:protocol.Online.adapt_lr;
              Model.clamp model)
        done)
      windows;
    Online.restore_params model init
  in
  {
    per_op = stream_windows;
    warmup = (fun () -> Span.with_ "setup.boot" (fun () -> op 0));
    run = sequential ~per_op:stream_windows op;
    run_traced = traced_loop traced_op;
    finish =
      (fun () ->
        let frozen = { protocol with Online.adapt = Online.Off } in
        let one = eval ~batch_size:1 frozen and whole = eval frozen in
        Check.expect
          (one.Online.points = whole.Online.points)
          "stream: frozen pass differs between batch size 1 and the whole batch";
        match !reference with Some r -> r.Online.overall_acc | None -> nan);
    shapes =
      shapes ~model ~split ~eval_set:windows.(0) ~train_set:windows.(0) ~mc:1
        ~stream:(drifting_stream ~dataset:"GPOVY" ~seed ~windows:8);
    queue = spawned_queue_profile ~exe ~seed;
    rss_mb = self_rss;
    close = ignore;
    named = (fun t -> [ ("windows_per_s", t.per_s, "1/s") ]);
  }

(* serve ------------------------------------------------------------------ *)

(* The daemon in its own process on a checkpoint written in set-up; two
   keep-alive connections post max_batch-row batches in a closed loop. *)
let serve_setup_epochs = 5
let serve_batches = 5

let serve ~seed ~exe =
  let split, classes = Setup.data ~dataset:"CBF" in
  let model = Setup.trained ~split ~classes ~epochs:serve_setup_epochs in
  let ckpt = checkpoint_path ~seed in
  Span.with_ "setup.model" (fun () -> Persist.save_model ~path:ckpt model);
  let d =
    Span.with_ "setup.boot" (fun () -> Daemon.spawn ~exe ~ckpt ~max_batch:Probe.max_batch)
  in
  let port = d.Daemon.port in
  (* Distinct request rows: the test split and augmented copies of it. *)
  let rows =
    Span.with_ "setup.data" (fun () ->
        let pool =
          Augment.augment_dataset (Rng.create ~seed:(seed + 5000)) Augment.default_policy
            ~copies:7 split.Dataset.test
        in
        Setup.cycle pool (serve_batches * Probe.max_batch))
  in
  let batches =
    Array.init serve_batches (fun b ->
        Array.sub rows.Dataset.x (b * Probe.max_batch) Probe.max_batch)
  in
  let reference = Array.make serve_batches [||] in
  let expect_reply k = function
    | Ok (_, got) ->
        let want = reference.(k mod serve_batches) in
        Check.expect
          (Array.length got = Array.length want && Array.for_all2 same_bits got want)
          "serve: a repeated input returned different logits"
    | Error e -> Check.expect false ("serve: request failed: " ^ e)
  in
  let warmup () =
    let c = Client.connect ~port () in
    Array.iteri
      (fun b x ->
        match Client.logits_batch c x with
        | Ok (_, got) ->
            Check.expect
              (Array.length got = Probe.max_batch
              && Array.for_all (fun r -> Array.length r = classes && Check.finite r) got)
              "serve: reply has the wrong shape or non-finite logits";
            reference.(b) <- got
        | Error e -> Check.expect false ("serve: request failed: " ^ e))
      batches;
    Client.close c
  in
  let run ~seconds =
    let l =
      Daemon.closed_loop ~port ~conns:2 ~seconds
        ~send:(fun c k -> Client.logits_batch c batches.(k mod serve_batches))
        ~check:expect_reply
    in
    { lat = l.Daemon.lat; per_s = float_of_int l.Daemon.requests /. l.Daemon.elapsed }
  in
  (* Per request: encode the body, the HTTP round trip, decode the
     reply; timed in the client threads and recorded as spans. *)
  let run_traced ~seconds =
    ignore
      (Daemon.closed_loop ~port ~conns:2 ~seconds
         ~send:(fun c k ->
           let t0 = Measure.now () in
           let body = Daemon.batch_body batches.(k mod serve_batches) in
           let t1 = Measure.now () in
           let r = Client.request c ~meth:"POST" ~path:"/v1/logits" ~body () in
           let t2 = Measure.now () in
           let j = Json.parse r.Client.body in
           let t3 = Measure.now () in
           let root = Span.add ~parent:(-1) ~item:k "op" ~start:t0 ~stop:t3 in
           ignore (Span.add ~parent:root ~item:k "wire.encode" ~start:t0 ~stop:t1);
           ignore (Span.add ~parent:root ~item:k "serve.roundtrip" ~start:t1 ~stop:t2);
           ignore (Span.add ~parent:root ~item:k "wire.decode" ~start:t2 ~stop:t3);
           (r.Client.status, j))
         ~check:(fun k (status, j) ->
           let logits =
             match Json.member "logits" j with
             | Some (Json.List rows) when status = 200 ->
                 Ok
                   ( 0,
                     Array.of_list
                       (List.map
                          (function
                            | Json.List vs -> Array.of_list (List.map Json.to_float vs)
                            | _ -> [||])
                          rows) )
             | _ -> Error (Printf.sprintf "status %d" status)
           in
           expect_reply k logits))
  in
  {
    per_op = 1;
    warmup;
    run;
    run_traced;
    finish =
      (fun () ->
        (* Served argmax against Train.accuracy on the same rows. *)
        let argmax r =
          let best = ref 0 in
          Array.iteri (fun i v -> if v > r.(!best) then best := i) r;
          !best
        in
        let served = Array.concat (Array.to_list reference) in
        let correct = ref 0 in
        Array.iteri (fun i r -> if argmax r = rows.Dataset.y.(i) then incr correct) served;
        let acc = float_of_int !correct /. float_of_int (Array.length served) in
        Check.expect (acc = Train.accuracy model rows)
          "serve: served accuracy differs from Train.accuracy on the same rows";
        acc);
    shapes =
      shapes ~model ~split ~eval_set:split.Dataset.test ~train_set:split.Dataset.train
        ~mc:Setup.cfg.Pnc_exp.Config.train_va.Train.mc_samples
        ~stream:(drifting_stream ~dataset:"CBF" ~seed ~windows:8);
    queue = (fun sh -> queue_profile ~port ~block:sh.Probe.block ~seconds:1.0);
    rss_mb = (fun () -> Daemon.peak_rss_mb d);
    close =
      (fun () ->
        Daemon.stop d;
        if Sys.file_exists ckpt then Sys.remove ckpt);
    named =
      (fun t ->
        [
          ("req_per_s", t.per_s, "1/s");
          ("req_ms_p50", ms 0.5 t.lat, "ms");
          ("req_ms_p99", ms 0.99 t.lat, "ms");
        ]);
  }

let all = [ ("train", train); ("mc-eval", mc_eval); ("stream", stream); ("serve", serve) ]
