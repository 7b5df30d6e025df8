(** Batch-size resolution, the block loop and telemetry for the
    no-grad evaluation path.

    Every model's [eval] takes a [?batch_size] knob resolved here:
    an explicit argument wins, otherwise the [ADAPT_PNC_BATCH]
    environment variable (a positive integer), otherwise the whole
    split runs as one block. The knob only chooses how many rows each
    kernel call carries — the variation draw is realized once per
    forward and shared across blocks, so results are bit-identical for
    every block size (enforced by test/test_batch.ml). It is therefore
    deliberately excluded from {!Pnc_exp.Config.fingerprint}. *)

val env_default : unit -> int option
(** [ADAPT_PNC_BATCH] parsed as a positive block size, if set. A set
    but malformed value (not a positive integer) resolves to [None] and
    prints one warning per process to [stderr] instead of being
    silently indistinguishable from "unset". *)

val resolve : ?batch_size:int -> n:int -> unit -> int
(** Effective block size for a batch of [n] rows: [batch_size] if
    given, else {!env_default}, else [n]; clamped to [1, max 1 n].
    An explicit non-positive [batch_size] is a caller error and raises
    [Invalid_argument] (the environment fallback still degrades
    silently — only the explicit argument is rejected). *)

type precision = [ `Exact | `Fast ]
(** Activation tier for the batched no-grad kernels. [`Exact] is
    [Stdlib.tanh] — bit-identical to the autodiff path. [`Fast] is
    {!Pnc_tensor.Fast_math.tanh} (≤1e-7 absolute tanh error). *)

val precision_name : precision -> string
(** ["exact"] / ["fast"] — the wire/CLI spelling. *)

val precision_of_string : string -> precision option
(** Case-insensitive inverse of {!precision_name}. *)

val precision_env_default : unit -> precision option
(** [ADAPT_PNC_PRECISION] parsed as a tier, if set. A set but malformed
    value resolves to [None] with one warning per process on
    [stderr]. *)

val resolve_precision : ?precision:precision -> unit -> precision
(** Entry-point resolution: explicit argument, else
    {!precision_env_default}, else [`Exact]. Unlike the batch-size
    knob, precision can change results, so ONLY entry points (CLI,
    serve, bench, [Config.from_env]) may consult the environment —
    library functions default to [`Exact] unconditionally, and every
    Fast run is recorded in {!Pnc_exp.Config.fingerprint}. *)

val eval_blocks :
  ?batch_size:int ->
  rows:int ->
  cols:int ->
  (row:int -> len:int -> Pnc_tensor.Tensor.t) ->
  Pnc_tensor.Tensor.t
(** [eval_blocks ?batch_size ~rows ~cols f] is the block loop of every
    [eval]: it resolves the block size ({!resolve}), calls [f ~row ~len]
    once per consecutive row block (the final block may be ragged),
    copies each returned [len x cols] result into its rows of a fresh
    [rows x cols] tensor, and accounts the call — it bumps the
    [eval.batch.samples] / [eval.batch.blocks] counters (always) and,
    with an enabled sink, observes [eval.batch_seconds] and emits an
    [eval.batch] event with the throughput. *)
