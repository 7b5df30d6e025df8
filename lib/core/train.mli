(** Training and evaluation harness (Sec. IV-A3).

    The paper's procedure: AdamW with default settings, full-batch
    training, initial learning rate 0.1 halved after [patience] epochs
    without validation improvement, stop when the learning rate falls
    below 1e-5, repeated over random seeds. Variation-aware models
    optimize the Monte-Carlo objective of {!Mc_loss}; the weights that
    achieved the best validation loss are restored at the end. *)

type config = {
  lr : float;
  lr_factor : float;
  patience : int;
  min_lr : float;
  max_epochs : int;  (** hard cap on top of the schedule-driven stop *)
  mc_samples : int;  (** N of Eq. 13 (ignored by the reference RNN) *)
  mc_samples_val : int;  (** draws for the validation objective *)
  variation : Variation.spec;  (** training-time variation *)
  grad_clip : float option;
  weight_decay : float;
  noise_injection : bool;
      (** train through perturbed realizations with straight-through
          gradients to the clean parameters ({!Mc_loss.expected}'s [ni]
          mode); forward/loss values are unchanged, only gradients *)
  antithetic : bool;
      (** draw the Monte-Carlo samples as mirrored pairs
          ({!Variation.antithetic_pair}) in both the training and the
          validation objective — a same-cost variance reduction that
          matters most under correlated variation, where whole regions
          of the ε field move coherently *)
}

val paper_config : config
(** The paper's exact budget (patience 100, lr 0.1 → 1e-5). Long. *)

val fast_config : config
(** Reduced budget used by the benchmark harness so the full table
    regenerates in minutes: patience 12, max 260 epochs. *)

val smoke_config : config
(** Tiny budget for unit tests. *)

type history = {
  epochs_run : int;
  final_lr : float;
  best_val_loss : float;
  train_loss_curve : float array;
  val_loss_curve : float array;
}

val to_xy : Pnc_data.Dataset.t -> Pnc_tensor.Tensor.t * int array
(** Dataset to ([batch x time] tensor, labels). *)

exception Killed of int
(** Raised by [train] right after writing the checkpoint for epoch [e]
    when called with [~die_at_epoch:e] — a deterministic crash point
    for the fault-injection tests and the resume demo. *)

val train :
  ?rng:Pnc_util.Rng.t ->
  ?checkpoint_every:int ->
  ?checkpoint_path:string ->
  ?resume_from:string ->
  ?die_at_epoch:int ->
  config ->
  Model.t ->
  Pnc_data.Dataset.split ->
  history
(** Trains in place (the model's parameter tensors are mutated);
    restores the best-validation snapshot before returning.

    With [checkpoint_path], a ["train"] checkpoint is written
    atomically every [checkpoint_every] epochs (default 1) and always
    at the final epoch. With [resume_from], the loop state — including
    the RNG stream position — is restored from that checkpoint before
    the first epoch, and the run continues bit-identically with the
    uninterrupted one: same per-epoch losses, same final parameters,
    and a [history] covering the run from epoch 1. Raises
    {!Pnc_ckpt.Ckpt.Error} if the resume checkpoint is corrupt or was
    written for a different model. [die_at_epoch] raises {!Killed}
    after that epoch's checkpoint is written. *)

val accuracy :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  ?draw:Variation.draw ->
  Model.t ->
  Pnc_data.Dataset.t ->
  float
(** Deterministic accuracy unless a draw is supplied. Runs on the
    batched no-grad path; [batch_size] (default: whole split, or
    [ADAPT_PNC_BATCH]) only chunks the evaluation — the result is
    identical for every value. [precision] selects the activation tier
    (default [`Exact]). *)

val accuracy_under_variation :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  ?pool:Pnc_util.Pool.t ->
  rng:Pnc_util.Rng.t ->
  spec:Variation.spec ->
  draws:int ->
  Model.t ->
  Pnc_data.Dataset.t ->
  float
(** Mean accuracy over [draws] independent physical instances — the
    paper's "tested under ±10 % variation" protocol. Each instance owns
    a pre-split child stream; with [pool] the instances evaluate in
    parallel with a result identical to the sequential one. Each
    instance evaluates on the batched path; like the pool size,
    [batch_size] never changes the result ([precision] can — [`Fast]
    uses the bounded fast tanh). *)

val step :
  opt:Pnc_optim.Optimizer.t ->
  lr:float ->
  rng:Pnc_util.Rng.t ->
  config ->
  Model.t ->
  x:Pnc_tensor.Tensor.t ->
  labels:int array ->
  float
(** One optimizer step of {!train}: zero the gradients, take the
    Monte-Carlo objective over [cfg.mc_samples] draws from [rng] (with
    [cfg]'s antithetic and noise-injection settings), backpropagate,
    clip to [cfg.grad_clip], apply [opt] at [lr], and clamp the model to
    its printable windows. Returns the objective's value. *)

val epoch_seconds : ?rng:Pnc_util.Rng.t -> config -> Model.t -> Pnc_data.Dataset.split -> float
(** Wall-clock seconds of one epoch of {!train} — {!step} on the
    training split plus the validation objective — used for the runtime
    comparison (Table II). Mutates the model like training does. *)
