(* In-memory span recorder for the traced run.

   A span is one call into a layer, recorded from the benchmark's own
   code around a public entry point: name, start, end, the span that
   caused it, and the item (operation) it belongs to. Spans are kept in
   memory and written out once, when the run ends. With recording off,
   [with_] is exactly [f ()]. *)

type t = { id : int; name : string; parent : int; item : int; start : float; stop : float }

let on = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let mu = Mutex.create ()

(* Nesting stack of (span id, item) for spans opened with [with_]; only
   the main thread opens nested spans. *)
let stack : (int * int) list ref = ref []

let fresh_id () =
  Mutex.lock mu;
  let id = !next_id in
  incr next_id;
  Mutex.unlock mu;
  id

let push s =
  Mutex.lock mu;
  recorded := s :: !recorded;
  Mutex.unlock mu

let with_ ?item name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent, inherited = match !stack with (p, it) :: _ -> (p, it) | [] -> (-1, -1) in
    let item = Option.value item ~default:inherited in
    stack := (id, item) :: !stack;
    let start = Measure.now () in
    let finish () =
      let stop = Measure.now () in
      stack := List.tl !stack;
      push { id; name; parent; item; start; stop }
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Record a span timed elsewhere (the load generator's threads time
   their own requests); [parent] is -1 for a root. Returns its id. *)
let add ~parent ~item name ~start ~stop =
  let id = fresh_id () in
  if !on then push { id; name; parent; item; start; stop };
  id

let all () = List.rev !recorded
let dur s = s.stop -. s.start

(* Self time of every span: its duration minus the part its direct
   children cover. *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  List.map (fun s -> (s, dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.)) spans

(* Durations of the spans named [name] whose parent is named [under]. *)
let durations ?under name spans =
  let names = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace names s.id s.name) spans;
  List.filter_map
    (fun s ->
      let parent_ok =
        match under with
        | None -> true
        | Some u -> Hashtbl.find_opt names s.parent = Some u
      in
      if s.name = name && parent_ok then Some (dur s) else None)
    spans
  |> Array.of_list

let write ~path ~header spans =
  let module J = Pnc_obs.Obs.Json in
  let oc = open_out path in
  output_string oc (J.render header);
  output_char oc '\n';
  List.iter
    (fun s ->
      output_string oc
        (J.render
           (J.Obj
              [
                ("id", J.Num (float_of_int s.id));
                ("name", J.String s.name);
                ("parent", J.Num (float_of_int s.parent));
                ("item", J.Num (float_of_int s.item));
                ("start_s", J.Num s.start);
                ("end_s", J.Num s.stop);
              ]));
      output_char oc '\n')
    spans;
  close_out oc
