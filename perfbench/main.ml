(* The repository benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --server PATH [--commit ID] [--source DIGEST]

   Untraced (--trace 0), it sets the workload up several times, warms
   it up, runs it for S seconds and prints the end-to-end metrics.
   Traced (--trace 1), it sets up once, runs the workload for S seconds
   in alternating slices, untraced and re-driven with spans, profiles every
   layer at the workload's shapes, and prints the per-layer metrics,
   the reconciliation of the spans against the untraced time, and the
   tracing overhead; the spans go to perfbench/out/. Output checks run
   either way. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. The exit code is 1
   when any check failed. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload train|mc-eval|stream|serve --seed N --seconds S --trace 0|1 \
     --server PATH [--commit ID] [--source DIGEST]";
  exit 2

let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  fun ?default k ->
    match (Hashtbl.find_opt tbl k, default) with
    | Some v, _ | None, Some v -> v
    | None, None -> usage ()

let workload = args "workload"
let seed = int_of_string (args "seed")
let seconds = float_of_string (args "seconds")
let traced = args "trace" = "1"
let server = args "server"

let make =
  match List.assoc_opt workload Workloads.all with Some w -> w | None -> usage ()

let provenance =
  [
    ("workload", workload);
    ("seed", string_of_int seed);
    ("seconds", Printf.sprintf "%g" seconds);
    ("run", if traced then "traced" else "untraced");
    ("commit", args ~default:"unknown" "commit");
    ("source", args ~default:"unknown" "source");
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("scale", "fast");
  ]

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

(* Lines printed under the provenance header, before the metrics. *)
let notes : string list ref = ref []

let report metrics =
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) provenance;
  List.iter (Printf.printf "# %s\n") !notes;
  List.iter (fun x -> Printf.printf "%-34s %.6g %s\n" x.name x.value x.unit_) metrics;
  let all_finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  Check.expect all_finite "a metric is not a finite number";
  let json_metrics =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
             (if Float.is_finite x.value then x.value else 0.)
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!Check.failed = 0) (max 1 !Check.attempted) !Check.failed json_metrics;
  exit (if !Check.failed = 0 then 0 else 1)

(* An untraced run sets the workload up at least [min_setups] times and
   until [setup_budget_s] have passed (at most [max_setups]); the
   median is reported. *)
let min_setups = 3
let max_setups = 50
let setup_budget_s = 1.0

let untraced () =
  let rec setups acc spent =
    let inst, dt = Measure.time (fun () -> make ~seed ~exe:server) in
    let n = List.length acc + 1 in
    let spent = spent +. dt in
    if n >= max_setups || (n >= min_setups && spent >= setup_budget_s) then (inst, dt :: acc)
    else begin
      inst.Workloads.close ();
      setups (dt :: acc) spent
    end
  in
  let inst, setup_times = setups [] 0. in
  let setup_times = Array.of_list setup_times in
  let metrics =
    Fun.protect ~finally:inst.Workloads.close (fun () ->
        inst.Workloads.warmup ();
        let t = inst.Workloads.run ~seconds in
        let acc = inst.Workloads.finish () in
        let ok =
          float_of_int (!Check.attempted - !Check.failed) /. float_of_int (max 1 !Check.attempted)
        in
        notes :=
          [
            Printf.sprintf "set-ups: %d; operations timed: %d" (Array.length setup_times)
              (Array.length t.Workloads.lat);
            Printf.sprintf "%s.failed_frac: %.6g frac" workload (1. -. ok);
          ]
          @ List.map
              (fun (n, v, u) -> Printf.sprintf "%s.%s: %.6g %s" workload n v u)
              (inst.Workloads.named t);
        [
          m "setup_s" (Measure.median setup_times) "s";
          m "peak_rss_mb" (inst.Workloads.rss_mb ()) "MB";
          m "ok_frac" ok "frac";
          m "acc" acc "frac";
          m "ops_per_s" t.Workloads.per_s "1/s";
          m "op_ms_p50" (Workloads.ms 0.5 t.Workloads.lat) "ms";
          m "op_ms_p90" (Workloads.ms 0.9 t.Workloads.lat) "ms";
        ])
  in
  report metrics

let traced_run () =
  Span.on := true;
  let inst = Span.with_ "setup" (fun () -> make ~seed ~exe:server) in
  let metrics =
    Fun.protect ~finally:inst.Workloads.close (fun () ->
        inst.Workloads.warmup ();
        (* Untraced and traced slices alternate, so that the machine's
           drift falls on both alike. *)
        let slices = 8 in
        let slice_s = seconds /. float_of_int (2 * slices) in
        let lat =
          Array.concat
            (List.init slices (fun _ ->
                 Span.on := false;
                 let t = inst.Workloads.run ~seconds:slice_s in
                 Span.on := true;
                 inst.Workloads.run_traced ~seconds:slice_s;
                 t.Workloads.lat))
        in
        let counts = Probe.run ~seed inst.Workloads.shapes in
        let q50, q99, fill = inst.Workloads.queue inst.Workloads.shapes in
        ignore (inst.Workloads.finish ());
        let spans = Span.all () in
        let self = Span.self_times spans in
        let per_op = float_of_int inst.Workloads.per_op in
        let t_u = Measure.median lat in
        let roots = List.filter (fun (s, _) -> s.Span.name = "op") self in
        let traced_unit =
          Array.of_list (List.map (fun (s, _) -> Span.dur s /. per_op) roots)
        in
        let covered =
          Array.of_list (List.map (fun (s, own) -> (Span.dur s -. own) /. per_op) roots)
        in
        (* Path profile: self time per unit of every span name inside
           the re-driven operations (any depth below an "op" root). *)
        let by_id = Hashtbl.create 1024 in
        List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
        let rec under_op s =
          match Hashtbl.find_opt by_id s.Span.parent with
          | Some p -> p.Span.name = "op" || under_op p
          | None -> false
        in
        let path = Hashtbl.create 16 in
        List.iter
          (fun (s, own) ->
            if under_op s then
              Hashtbl.replace path s.Span.name
                (own +. Option.value (Hashtbl.find_opt path s.Span.name) ~default:0.))
          self;
        let n_ops = float_of_int (max 1 (List.length roots)) in
        let note fmt = Printf.ksprintf (fun l -> notes := !notes @ [ l ]) fmt in
        note "re-driven operations: %d (untraced: %d)" (List.length roots) (Array.length lat);
        List.iter
          (fun (name, total) ->
            let per_unit = total /. n_ops /. per_op in
            note "path %-20s %10.4f ms self per unit, %5.1f%% of the untraced time" name
              (1000. *. per_unit) (100. *. per_unit /. t_u))
          (List.sort compare (List.of_seq (Hashtbl.to_seq path)));
        let med name = Measure.median (Span.durations ~under:"probe" name spans) in
        let total name = Measure.sum (Span.durations name spans) in
        let windows = Probe.windows inst.Workloads.shapes in
        let reconcile = Measure.median covered /. t_u in
        note "reconciliation: layer self times sum to %.1f%% of the untraced time (%s)"
          (100. *. reconcile)
          (if Float.abs (reconcile -. 1.) <= 0.15 then "within 15%" else "OUTSIDE 15%");
        Span.write
          ~path:
            (Filename.concat (Setup.out_dir ()) (Printf.sprintf "trace-%s-%d.jsonl" workload seed))
          ~header:
            (Pnc_obs.Obs.Json.Obj
               (List.map (fun (k, v) -> (k, Pnc_obs.Obs.Json.String v)) provenance))
          spans;
        [
          m "setup.data_s" (total "setup.data") "s";
          m "setup.model_s" (total "setup.model") "s";
          m "setup.boot_s" (total "setup.boot") "s";
          m "variation.realize_us_per_draw" (1e6 *. med "variation.realize") "us";
          m "variation.realize_corr_us_per_draw" (1e6 *. med "variation.realize_corr") "us";
          m "tensor.matmul_us_per_draw" (1e6 *. med "tensor.matmul") "us";
          m "core.kernel_us_per_draw" (1e6 *. (med "core.draw" -. med "variation.realize")) "us";
          m "eval.flops_per_draw" counts.Probe.flops_per_draw "count";
          m "eval.bytes_per_draw" counts.Probe.bytes_per_draw "count";
          m "eval.alloc_mw_per_draw" counts.Probe.alloc_mw_per_draw "Mword";
          m "pool.speedup_w2" (med "pool.seq" /. med "pool.w2") "x";
          m "autodiff.fwd_ms_per_step" (1000. *. med "autodiff.fwd") "ms";
          m "autodiff.bwd_ms_per_step" (1000. *. med "autodiff.bwd") "ms";
          m "autodiff.nodes_per_step" counts.Probe.nodes_per_step "count";
          m "autodiff.alloc_mw_per_step" counts.Probe.alloc_mw_per_step "Mword";
          m "optim.step_ms_per_step" (1000. *. med "optim.step") "ms";
          m "core.val_ms_per_step" (1000. *. med "core.val") "ms";
          m "stream.score_ms_per_window" (1000. *. med "stream.frozen" /. windows) "ms";
          m "stream.adapt_ms_per_window"
            (1000. *. (med "stream.adapted" -. med "stream.frozen") /. windows)
            "ms";
          m "serve.parse_us" (1e6 *. med "serve.parse") "us";
          m "serve.encode_us" (1e6 *. med "serve.encode") "us";
          m "serve.compute_us" (1e6 *. med "serve.compute") "us";
          m "serve.queue_wait_ms_p50" (1000. *. q50) "ms";
          m "serve.queue_wait_ms_p99" (1000. *. q99) "ms";
          m "serve.batch_fill" fill "frac";
          m "trace.overhead" ((Measure.median traced_unit /. t_u) -. 1.) "frac";
          m "trace.reconcile" reconcile "ratio";
        ])
  in
  report metrics

let () =
  if traced then traced_run () else untraced ()
