(* Batch-size resolution and telemetry for the batched no-grad
   evaluation path (see docs/BATCHING.md).

   The block size is a pure performance knob: every evaluation
   realizes the variation draw once and then chunks the batch through
   row views, so results are bit-identical for any block size. That is
   why the knob deliberately stays out of Config.fingerprint — grid
   cache entries remain valid whatever ADAPT_PNC_BATCH is set to. *)

module T = Pnc_tensor.Tensor
module Obs = Pnc_obs.Obs
module Clock = Pnc_obs.Clock

let samples_counter = Obs.Counter.make "eval.batch.samples"
let blocks_counter = Obs.Counter.make "eval.batch.blocks"
let seconds_hist = Obs.Histogram.make "eval.batch_seconds"

(* A malformed ADAPT_PNC_BATCH used to be ignored silently, which made
   typos indistinguishable from the default whole-split resolution.
   Warn once per process; the knob still falls back to the default. *)
let env_warned = ref false

let env_default () =
  match Sys.getenv_opt "ADAPT_PNC_BATCH" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> Some n
      | _ ->
          if not !env_warned then begin
            env_warned := true;
            Printf.eprintf
              "adapt-pnc: ignoring malformed ADAPT_PNC_BATCH=%S (want a positive integer)\n%!"
              s
          end;
          None)

let resolve ?batch_size ~n () =
  match batch_size with
  | Some b when b <= 0 ->
      (* An explicit argument is a caller decision, not an environment
         default: reject it instead of silently running whole-split. *)
      invalid_arg
        (Printf.sprintf "Batch.resolve: batch_size must be positive (got %d)" b)
  | Some b -> Stdlib.min b (Stdlib.max 1 n)
  | None -> (
      match env_default () with
      | Some b -> Stdlib.min b (Stdlib.max 1 n)
      | None -> Stdlib.max 1 n)

(* Precision-tier resolution for entry points (CLI, serve, bench,
   Config.from_env). Unlike the batch-size knob, precision CAN change
   results (`Fast deviates by up to 1e-7 per tanh), so the environment
   variable is read only here at the boundary — library functions
   default to `Exact plainly, never to the environment. That keeps the
   eps-0 parity tests honest under a CI run with
   ADAPT_PNC_PRECISION=fast exported, and it forces every Fast run to
   flow through a Config/flag that records the tier in the
   fingerprint. *)

type precision = [ `Exact | `Fast ]

let precision_name = function `Exact -> "exact" | `Fast -> "fast"

let precision_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "exact" -> Some `Exact
  | "fast" -> Some `Fast
  | _ -> None

let precision_env_warned = ref false

let precision_env_default () =
  match Sys.getenv_opt "ADAPT_PNC_PRECISION" with
  | None -> None
  | Some s -> (
      match precision_of_string s with
      | Some p -> Some p
      | None ->
          if not !precision_env_warned then begin
            precision_env_warned := true;
            Printf.eprintf
              "adapt-pnc: ignoring malformed ADAPT_PNC_PRECISION=%S (want exact|fast)\n%!"
              s
          end;
          None)

let resolve_precision ?precision () =
  match precision with
  | Some p -> p
  | None -> ( match precision_env_default () with Some p -> p | None -> `Exact)

(* Each block's logits land in their rows of the result; the telemetry
   accounts the whole call. *)
let eval_blocks ?batch_size ~rows ~cols f =
  let block = resolve ?batch_size ~n:rows () in
  let t0 = if Obs.enabled () then Clock.now () else 0. in
  let out = T.zeros ~rows ~cols in
  let blocks = ref 0 and row = ref 0 in
  while !row < rows do
    let len = Stdlib.min block (rows - !row) in
    T.blit_into ~dst:(T.rows_view out ~row:!row ~len) (f ~row:!row ~len);
    incr blocks;
    row := !row + len
  done;
  Obs.Counter.add samples_counter rows;
  Obs.Counter.add blocks_counter !blocks;
  if Obs.enabled () then begin
    let dt = Clock.elapsed t0 in
    Obs.Histogram.observe seconds_hist dt;
    Obs.emit "eval.batch"
      [
        ("batch_size", Obs.Int block);
        ("rows", Obs.Int rows);
        ("blocks", Obs.Int !blocks);
        ("seconds", Obs.Float dt);
        ("rows_per_s", Obs.Float (float_of_int rows /. Float.max dt 1e-9));
      ]
  end;
  out
