(** Sliding-window streaming evaluation with optional online test-time
    adaptation (prequential, test-then-train).

    The stream is cut into windows ({!Window.slice}); each window is
    scored on the no-grad batched path ({!Pnc_core.Model.eval})
    and, when adaptation is on, the model then takes a few optimizer
    steps on that window's (x, y) buffer through the tape engine before
    the next window arrives.

    {b Determinism contract.} [rng] is split once: child 0 is the
    physical-instance stream — the variation draw is replayed from a
    {!Pnc_util.Rng.copy} of it for {e every} window (and every
    adaptation step), so the whole stream runs on one physical circuit
    instance, and an offline comparator that builds
    [Variation.make_draw] from a copy of the same child sees logits
    bit-identical to the streaming ones. Child 1 is pre-split into one
    state stream per window, so [`Randomized] initial filter states
    depend on the window index alone. Consequences, pinned by
    [test/test_stream.ml]: results are invariant to the pool size and
    to [?batch_size]/[ADAPT_PNC_BATCH], and with [adapt = Off],
    [stride = width] and [state_init = `V0] the overall streaming
    accuracy equals offline {!Pnc_core.Train.accuracy} on
    {!Scenario.to_dataset} at eps 0. *)

type adapt =
  | Off  (** frozen baseline (the ablation reference) *)
  | Filters  (** adapt only the learnable filter R/C parameters *)
  | All  (** adapt every trainable parameter *)

val adapt_tag : adapt -> string
val adapt_of_tag : string -> adapt option

type state_init = [ `V0 | `Zero | `Randomized of float ]
(** Filter initial-voltage semantics per window — [`Randomized sigma]
    draws fresh V[0] ~ N(0, sigma²) per (window, row, channel) from
    the window's own pre-split stream, the sliding-window regime of
    the exemplar LearnableFilter. *)

type protocol = {
  width : int;  (** window width, in samples *)
  stride : int;  (** window stride; [= width] partitions the stream *)
  state_init : state_init;
  adapt : adapt;
  adapt_lr : float;
  adapt_steps : int;  (** optimizer steps per window *)
  detect_baseline : int;  (** windows averaged into the reference level *)
  detect_drop : float;  (** accuracy drop that fires the detector *)
}

val default_protocol : protocol
(** width 16, stride 16, [`V0], adaptation off (lr 0.05, 2 steps when
    enabled), detector: 3 baseline windows, 0.25 drop. *)

val fingerprint : protocol -> string
(** Canonical text over every result-affecting knob (window geometry,
    state init, adaptation, detector thresholds). Chunking and pool
    knobs are result-invariant and deliberately absent. *)

type point = { w : int; start : int; len : int; correct : int; acc : float }

type result = {
  points : point array;  (** the accuracy-over-time curve *)
  overall_acc : float;  (** total correct / total scored samples *)
  pre_drift_acc : float option;  (** mean acc over fully-pre-drift windows *)
  post_drift_acc : float option;  (** mean acc over post-drift windows *)
  first_drift_window : int option;
  detected_at : int option;  (** window where the detector fired *)
  detect_latency : int option;  (** windows between drift and detection *)
}

val eval :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  ?pool:Pnc_util.Pool.t ->
  ?spec:Pnc_core.Variation.spec ->
  ?v0_sigma:float ->
  rng:Pnc_util.Rng.t ->
  protocol ->
  Pnc_core.Model.t ->
  Scenario.realized ->
  result
(** Runs the protocol over the realized stream. [spec] fixes one
    physical instance under component variation (absent = the
    deterministic nominal circuit). With [pool] and a frozen model the
    windows evaluate in parallel, bit-identically to the sequential
    run; with adaptation on, the loop is inherently sequential and the
    pool is unused. {b Adaptation mutates the model's parameters in
    place} — snapshot first ({!snapshot_params}) if the trained weights
    must survive. Emits [stream.window] / [stream.drift] /
    [stream.done] events and bumps the [stream.*] counters. *)

val snapshot_params : Pnc_core.Model.t -> Pnc_tensor.Tensor.t list
val restore_params : Pnc_core.Model.t -> Pnc_tensor.Tensor.t list -> unit
(** Deep-copy / restore every trainable parameter tensor — the frozen /
    adapted ablation runs the same trained model twice via these. *)
