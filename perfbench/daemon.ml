(* The serving daemon under test, run as its own process
   ([adapt_pnc serve]), and a closed-loop load generator for it. *)

module Client = Pnc_serve.Serve.Client
module Json = Pnc_obs.Obs.Json

type t = { pid : int; port : int; out : in_channel; boot_s : float }

let spawn ~exe ~ckpt ~max_batch =
  let t0 = Measure.now () in
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [|
      exe; "serve"; "--load"; ckpt; "--port"; "0"; "--max-batch"; string_of_int max_batch;
      "--reload-every-ms"; "0";
    |]
  in
  let pid = Unix.create_process exe args Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  (* First line: "serving <model> ... on http://HOST:PORT". *)
  let line = input_line out in
  let port =
    let i = String.rindex line ':' in
    int_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
  in
  let rec healthy tries =
    let ok =
      match Client.connect ~port () with
      | c ->
          let r = Client.health c in
          Client.close c;
          Result.is_ok r
      | exception Unix.Unix_error _ -> false
    in
    if not ok then
      if tries = 0 then failwith "serve daemon did not become healthy"
      else begin
        Thread.delay 0.005;
        healthy (tries - 1)
      end
  in
  healthy 2000;
  { pid; port; out; boot_s = Measure.now () -. t0 }

let peak_rss_mb d = Measure.peak_rss_mb ~pid:(string_of_int d.pid) ()

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  close_in_noerr d.out

(* GET /metrics: (count, sum, [(upper bound, count)]) of a histogram. *)
let histogram ~port name =
  let c = Client.connect ~port () in
  let r = Client.request c ~meth:"GET" ~path:"/metrics" () in
  Client.close c;
  match Json.member name (Json.parse r.Client.body) with
  | Some (Json.Obj fields) ->
      let num k = match List.assoc_opt k fields with Some v -> Json.to_float v | None -> 0. in
      let buckets =
        List.filter_map
          (fun (k, v) ->
            if String.length k > 3 && String.sub k 0 3 = "le_" then
              Some (float_of_string (String.sub k 3 (String.length k - 3)), Json.to_float v)
            else None)
          fields
      in
      (num "count", num "sum", buckets)
  | _ -> (0., 0., [])

(* Difference of two snapshots of one histogram. *)
let diff (c1, s1, b1) (c0, s0, b0) =
  ( c1 -. c0,
    s1 -. s0,
    List.map (fun (ub, n) -> (ub, n -. Option.value (List.assoc_opt ub b0) ~default:0.)) b1 )

(* Quantile of a log2-bucketed histogram, interpolated linearly by rank
   inside the bucket [ub/2, ub). *)
let hist_quantile (count, _, buckets) q =
  let target = q *. count in
  let rec go acc = function
    | [] -> nan
    | (ub, n) :: rest ->
        if n > 0. && acc +. n >= target then ub /. 2. *. (1. +. ((target -. acc) /. n))
        else go (acc +. n) rest
  in
  go 0. (List.sort compare buckets)

type load = {
  lat : float array;  (** seconds per answered request *)
  requests : int;
  elapsed : float;
}

(* [conns] closed-loop clients, each on its own keep-alive connection,
   each sending [send c k] for k = its index, its index + conns, ...
   until [seconds] pass. A request's latency is the duration of [send];
   [check k reply] runs after it, outside the timing. *)
let closed_loop ~port ~conns ~seconds ~send ~check =
  let lats = Array.make conns [] in
  let t_end = Measure.now () +. seconds in
  let worker wi =
    let c = Client.connect ~port () in
    let k = ref wi in
    while Measure.now () < t_end do
      let t0 = Measure.now () in
      let reply = send c !k in
      lats.(wi) <- (Measure.now () -. t0) :: lats.(wi);
      check !k reply;
      k := !k + conns
    done;
    Client.close c
  in
  let t0 = Measure.now () in
  let ths = List.init conns (fun wi -> Thread.create worker wi) in
  List.iter Thread.join ths;
  let elapsed = Measure.now () -. t0 in
  let lat = Array.concat (Array.to_list (Array.map Array.of_list lats)) in
  { lat; requests = Array.length lat; elapsed }

let batch_body rows =
  Json.render
    (Json.Obj
       [ ("batch", Json.List (Array.to_list (Array.map (fun r ->
             Json.List (Array.to_list (Array.map (fun v -> Json.Num v) r))) rows))) ])
