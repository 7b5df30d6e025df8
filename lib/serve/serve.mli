(** Long-lived model-serving daemon with dynamic micro-batching.

    This is the "millions of users" front-end over the batched no-grad
    inference engine: a TCP (HTTP/1.1 over [Unix]) daemon that admits
    concurrent JSON requests into a shared queue, coalesces them into
    blocks for {!Pnc_core.Model.eval} (flushing when the
    queued row count reaches [max_batch] {e or} when the oldest queued
    request has waited [max_delay_s]), and fans the compute out over
    {!Pnc_util.Pool} worker domains.

    {b Parity contract.} Serving never changes a number: the logits
    returned over the wire are bit-identical (eps 0) to an offline
    [Model.eval] call on the same checkpoint, whatever the
    flush size, micro-batch grouping, worker count or kernel block
    size. Micro-batching only groups rows, and every row's computation
    is independent of its neighbours (the blocked kernels guarantee
    this; see docs/BATCHING.md); floats travel as [%.17g] decimal,
    which round-trips every finite double exactly. Enforced by
    [test/test_serve.ml] and the load generator's parity check.

    {b Hot reload.} When [reload_every_s > 0], a background thread
    polls the checkpoint file (inode/mtime/size) and atomically swaps
    in a freshly loaded model on change ({!Pnc_core.Persist.load_model}
    — the checkpoint writer's temp+rename discipline means a reader
    never sees a partial file). Every response echoes the
    [model_version] (1 for the initial load, +1 per successful reload)
    that produced it; a failed reload keeps the old model serving.

    {b Shutdown.} SIGINT/SIGTERM (or {!stop}) stop admission, drain
    every in-flight request, answer it, then close connections and
    join all threads. SIGPIPE is ignored so a client hanging up
    mid-response never kills the daemon.

    {b Protocol} (see docs/SERVING.md for the full spec):
    - [POST /v1/logits]  body [{"series":[…]}] or [{"batch":[[…],…]}]
      → [{"model_version":v,"logits":…}] (a row per input row)
    - [POST /v1/predict] same bodies → [{"model_version":v,"classes":…}]
    - [GET /healthz]     → [{"status":"ok","model":…,"model_version":v}]
    - [GET /metrics]     → current {!Pnc_obs.Obs} metrics as one JSON
      object.

    Malformed input — bad HTTP framing, bad JSON (including invalid
    [\u] escapes), wrong shapes, non-finite numbers, oversized bodies —
    is answered with a 4xx JSON error and never crashes the daemon. *)

type config = {
  host : string;  (** bind address (default ["127.0.0.1"]) *)
  port : int;  (** TCP port; [0] picks an ephemeral port (see {!port}) *)
  max_batch : int;  (** flush the queue at this many coalesced rows *)
  max_delay_s : float;
      (** flush when the oldest queued request has waited this long,
          even if the batch is not full — the latency bound under light
          load *)
  batch_size : int option;
      (** kernel block size forwarded to [Model.eval]
          ([None] = whole coalesced block; a pure throughput knob) *)
  precision : Pnc_core.Batch.precision;
      (** activation tier for batch compute (default [`Exact]); the
          tier is echoed as a ["precision"] field in every /v1 response
          and in /healthz so clients can tell a [`Fast] deployment's
          logits carry the ≤1e-7 approximation *)
  pool_size : int;
      (** worker domains for batch compute ([<= 1] computes inline on
          the batcher thread) *)
  reload_every_s : float;
      (** checkpoint poll period for hot reload ([<= 0] disables it) *)
  max_body : int;  (** request body size cap, bytes *)
  max_rows : int;  (** rows accepted per single request *)
}

val default_config : config
(** [127.0.0.1:8080], [max_batch = 64], [max_delay_s = 2e-3],
    [batch_size = None], [precision = `Exact], [pool_size = 0],
    [reload_every_s = 0.5], [max_body = 4 MiB], [max_rows = 1024]. *)

type t

val create : ?config:config -> checkpoint:string -> unit -> (t, string) result
(** Load the model from [checkpoint] ({!Pnc_core.Persist.load_model};
    kind ["model"] or ["train"]), bind and listen. No thread is started
    until {!run}. [Error] carries a printable reason (unreadable
    checkpoint, bind failure). *)

val port : t -> int
(** The bound port — the kernel-assigned one when [config.port = 0]. *)

val model_version : t -> int
(** Version of the currently served model (1 after {!create}). *)

val model_label : t -> string

val run : ?handle_signals:bool -> t -> unit
(** Serve until {!stop} is called (or, with [handle_signals], until
    SIGINT/SIGTERM). Blocks the calling thread: it becomes the accept
    loop, with one handler thread per connection, one batcher thread
    and (if enabled) one reload thread. Returns after the graceful
    drain completes; every thread is joined and every socket closed.
    [handle_signals] (default [true]) also ignores SIGPIPE and maps
    SIGINT/SIGTERM to {!stop}; pass [false] when embedding the server
    in a test harness (SIGPIPE is still ignored). *)

val stop : t -> unit
(** Request a graceful shutdown: stop accepting, answer everything
    in flight, then return from {!run}. Safe to call from any thread
    and idempotent. *)

(** {1 Client}

    A minimal blocking HTTP/1.1 client for the protocol above — the
    load generator, the differential tests and the CI smoke job all
    speak to the daemon through this, so wire-level behaviour is
    exercised by every consumer. *)

module Client : sig
  type conn

  val connect : ?host:string -> port:int -> unit -> conn
  (** Open one keep-alive connection. Raises [Unix.Unix_error] when the
      daemon is unreachable. *)

  val close : conn -> unit

  type response = { status : int; body : string }

  val request : conn -> meth:string -> path:string -> ?body:string -> unit -> response
  (** One request/response exchange on the connection. Raises
      [Failure] on a malformed response and [Unix.Unix_error] /
      [End_of_file] on transport errors. *)

  val logits : conn -> float array -> (int * float array, string) result
  (** [logits c series] posts [{"series":…}] and returns
      [(model_version, logits)]. [Error] carries the HTTP error body
      for non-200 answers. *)

  val logits_batch : conn -> float array array -> (int * float array array, string) result
  (** Multi-row twin of {!logits} ([{"batch":…}]; one logits row per
      input row, all computed under one model version). *)

  val predict : conn -> float array -> (int * int, string) result
  (** [(model_version, argmax class)]. *)

  val health : conn -> (int * string, string) result
  (** [(model_version, model label)] from [GET /healthz]. *)
end
