(* Load generator for the model-serving daemon (the `bench.serve`
   section CI uploads as an artifact).

   Boots an in-process daemon over a fresh checkpoint, then hammers it
   from hundreds of concurrent keep-alive connections for a fixed wall
   window, swapping the checkpoint mid-run to exercise hot reload under
   load. Every response is parity-checked bit-for-bit against offline
   [Model.eval] for the model version the daemon echoed; any
   mismatch makes the process exit non-zero, so CI fails loudly.

   Knobs (environment):
     SERVE_BENCH_CONNS     concurrent connections        (default 512)
     SERVE_BENCH_SECONDS   measured load window, seconds (default 4.0)
     ADAPT_PNC_JOBS        server pool size              (default cores-1)
     ADAPT_PNC_SERVE_BATCH server max_batch              (default 64)
     BENCH_OUT             JSONL sink (same contract as bench/main.ml) *)

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Obs = Pnc_obs.Obs
module Model = Pnc_core.Model
module Network = Pnc_core.Network
module Persist = Pnc_core.Persist
module Serve = Pnc_serve.Serve

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some v when v > 0 -> v | _ -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match float_of_string_opt (String.trim s) with Some v when v > 0. -> v | _ -> default)
  | None -> default

let conns = env_int "SERVE_BENCH_CONNS" 512
let window_s = env_float "SERVE_BENCH_SECONDS" 4.0
let pool_size = env_int "ADAPT_PNC_JOBS" (Pnc_util.Pool.default_size ())
let max_batch = env_int "ADAPT_PNC_SERVE_BATCH" 64
let cols = 16
let classes = 3
let n_inputs = 32

let make_model seed =
  Model.Circuit
    (Network.create ~hidden:6 (Rng.create ~seed) Network.Adapt ~inputs:1 ~classes)

(* One logits row per input row via the offline batched engine — the
   truth the daemon must reproduce bit-for-bit. *)
let offline model rows =
  let y = Model.eval model (T.of_rows rows) in
  Array.init (T.rows y) (fun i -> T.row y i)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

type worker_stats = {
  mutable requests : int;
  mutable lat : float list;  (* per-request seconds *)
  mutable parity_failures : int;
  mutable transport_failures : int;
  mutable reload_seen : bool;
}

let run () =
  let ckpt =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_bench_%d.ckpt" (Unix.getpid ()))
  in
  let model_a = make_model 1001 in
  let model_b = make_model 1002 in
  Persist.save_model ~path:ckpt model_a;
  let inputs =
    let rng = Rng.create ~seed:2025 in
    Array.init n_inputs (fun _ -> Array.init cols (fun _ -> Rng.uniform rng ~lo:(-1.5) ~hi:1.5))
  in
  (* expected.(version - 1).(input index): the daemon serves version 1
     (model A) until the mid-run swap bumps it to 2 (model B). *)
  let expected = [| offline model_a inputs; offline model_b inputs |] in
  let config =
    {
      Serve.default_config with
      port = 0;
      max_batch;
      max_delay_s = 2e-3;
      pool_size;
      reload_every_s = 0.05;
    }
  in
  let srv =
    match Serve.create ~config ~checkpoint:ckpt () with
    | Ok s -> s
    | Error msg ->
        Printf.eprintf "serve_bench: %s\n" msg;
        exit 1
  in
  let port = Serve.port srv in
  let server_th = Thread.create (fun () -> Serve.run ~handle_signals:false srv) () in
  Printf.printf
    "serve_bench: %d connections for %.1fs against 127.0.0.1:%d (max_batch %d, pool %d)\n%!"
    conns window_s port max_batch pool_size;

  (* Warm up: one connection, a handful of requests outside the window. *)
  (let c = Serve.Client.connect ~port () in
   for i = 0 to 7 do
     ignore (Serve.Client.logits c inputs.(i))
   done;
   Serve.Client.close c);

  let stats =
    Array.init conns (fun _ ->
        { requests = 0; lat = []; parity_failures = 0; transport_failures = 0; reload_seen = false })
  in
  let start_gate = ref false in
  let gate_mu = Mutex.create () in
  let gate_cv = Condition.create () in
  let deadline = ref infinity in
  let worker wi =
    let st = stats.(wi) in
    (* Stagger dials a little so [conns] SYNs do not land in one burst. *)
    Thread.delay (float_of_int (wi mod 64) *. 0.002);
    let c = Serve.Client.connect ~port () in
    Mutex.lock gate_mu;
    while not !start_gate do
      Condition.wait gate_cv gate_mu
    done;
    Mutex.unlock gate_mu;
    let k = ref wi in
    while Unix.gettimeofday () < !deadline do
      let input_i = !k mod n_inputs in
      incr k;
      let t0 = Unix.gettimeofday () in
      (match Serve.Client.logits c inputs.(input_i) with
      | exception _ -> st.transport_failures <- st.transport_failures + 1
      | Error _ -> st.transport_failures <- st.transport_failures + 1
      | Ok (version, got) ->
          st.lat <- (Unix.gettimeofday () -. t0) :: st.lat;
          st.requests <- st.requests + 1;
          if version >= 2 then st.reload_seen <- true;
          if version < 1 || version > 2 then st.parity_failures <- st.parity_failures + 1
          else
            let expect = expected.(version - 1).(input_i) in
            if Array.length expect <> Array.length got then
              st.parity_failures <- st.parity_failures + 1
            else
              Array.iteri
                (fun j e ->
                  if Int64.bits_of_float e <> Int64.bits_of_float got.(j) then
                    st.parity_failures <- st.parity_failures + 1)
                expect);
      ()
    done;
    Serve.Client.close c
  in
  let ths = Array.init conns (fun wi -> Thread.create worker wi) in
  (* Give every dial its stagger slot, then open the gate and start the
     measured window. *)
  Thread.delay 0.3;
  let t_start = Unix.gettimeofday () in
  deadline := t_start +. window_s;
  Mutex.lock gate_mu;
  start_gate := true;
  Condition.broadcast gate_cv;
  Mutex.unlock gate_mu;
  (* Swap the checkpoint mid-window: the reload poller must pick up
     model B while the fleet is in full flight. *)
  Thread.delay (window_s /. 2.);
  Persist.save_model ~path:ckpt model_b;
  Array.iter Thread.join ths;
  let elapsed = Unix.gettimeofday () -. t_start in
  Serve.stop srv;
  Thread.join server_th;
  Sys.remove ckpt;

  let requests = Array.fold_left (fun a s -> a + s.requests) 0 stats in
  let parity_failures = Array.fold_left (fun a s -> a + s.parity_failures) 0 stats in
  let transport_failures = Array.fold_left (fun a s -> a + s.transport_failures) 0 stats in
  let reload_seen = Array.exists (fun s -> s.reload_seen) stats in
  let lat = Array.of_list (Array.fold_left (fun a s -> List.rev_append s.lat a) [] stats) in
  Array.sort compare lat;
  let p50 = percentile lat 0.50
  and p90 = percentile lat 0.90
  and p99 = percentile lat 0.99 in
  let mean =
    if Array.length lat = 0 then nan
    else Array.fold_left ( +. ) 0. lat /. float_of_int (Array.length lat)
  in
  let throughput = float_of_int requests /. elapsed in
  let fmt = Pnc_util.Timer.fmt_seconds in
  Printf.printf "  requests answered            %8d (%.1f req/s sustained)\n" requests throughput;
  Printf.printf "  latency p50 / p90 / p99      %s / %s / %s (mean %s)\n" (fmt p50) (fmt p90)
    (fmt p99) (fmt mean);
  Printf.printf "  hot reload observed          %b (final model version %d)\n" reload_seen
    (Serve.model_version srv);
  Printf.printf "  parity                       %s\n"
    (if parity_failures = 0 then "ok (bit-identical to offline engine)"
     else Printf.sprintf "%d VIOLATIONS" parity_failures);
  if transport_failures > 0 then
    Printf.printf "  transport failures           %d\n" transport_failures;
  if Obs.enabled () then
    Obs.emit "bench.serve"
      [
        ("section", Obs.Str "serve");
        ("connections", Obs.Int conns);
        ("window_seconds", Obs.Float window_s);
        ("elapsed_seconds", Obs.Float elapsed);
        ("requests", Obs.Int requests);
        ("requests_per_s", Obs.Float throughput);
        ("latency_p50_s", Obs.Float p50);
        ("latency_p90_s", Obs.Float p90);
        ("latency_p99_s", Obs.Float p99);
        ("latency_mean_s", Obs.Float mean);
        ("max_batch", Obs.Int max_batch);
        ("pool_size", Obs.Int pool_size);
        ("final_model_version", Obs.Int (Serve.model_version srv));
        ("reload_observed", Obs.Str (if reload_seen then "yes" else "no"));
        ("parity", Obs.Str (if parity_failures = 0 then "ok" else "VIOLATION"));
        ("parity_failures", Obs.Int parity_failures);
        ("transport_failures", Obs.Int transport_failures);
      ];
  Obs.emit_metrics ();
  if parity_failures > 0 || requests = 0 then exit 1;
  print_endline "done."

(* Same JSONL contract as bench/main.ml: BENCH_OUT=path streams every
   section (and the final metrics snapshot) alongside the report. *)
let () =
  match Sys.getenv_opt "BENCH_OUT" with
  | Some path when String.trim path <> "" -> Obs.with_jsonl ~path run
  | _ -> run ()
