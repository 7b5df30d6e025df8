(* Timing, statistics and memory helpers. *)

let now = Pnc_obs.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolation quantile (Hyndman-Fan type 7) of an unsorted
   sample; nan on an empty one. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5
let sum xs = Array.fold_left ( +. ) 0. xs

(* Words allocated by this domain so far: the exact minor-heap count
   plus direct major-heap allocations (large tensors), promotions not
   double-counted. *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Peak resident set size in MB (VmHWM) of a process, from procfs. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) go in
  float_of_int kb /. 1024.
