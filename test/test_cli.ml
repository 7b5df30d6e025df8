(* CLI contract tests for failure modes that must not train.

   These run the real binary ([../bin/adapt_pnc.exe] relative to the
   test's build directory) and pin the exit codes and messages of the
   --resume / --checkpoint-dir error paths. Both bugs being pinned here
   were silent: --resume with a missing train.ckpt used to fall through
   to a fresh training run (overwriting the directory the user asked to
   resume from), and a checkpoint dir with a missing parent surfaced as
   an uncaught Sys_error backtrace. *)

let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/adapt_pnc.exe"

type outcome = { code : int; stdout : string; stderr : string }

let slurp path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_cli (args : string list) : outcome =
  let out = Filename.temp_file "cli_out" ".txt" in
  let err = Filename.temp_file "cli_err" ".txt" in
  let argv = Array.of_list (exe :: args) in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid = Unix.create_process exe argv Unix.stdin fd_out fd_err in
  Unix.close fd_out;
  Unix.close fd_err;
  let _, status = Unix.waitpid [] pid in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s -> 128 + s
    | Unix.WSTOPPED s -> 128 + s
  in
  let r = { code; stdout = slurp out; stderr = slurp err } in
  Sys.remove out;
  Sys.remove err;
  r

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let fresh_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "adapt_pnc_cli_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir d 0o755;
  d

(* --resume with an existing checkpoint dir but no train.ckpt must exit
   2 with a pointer at the missing file — never train from scratch. *)
let test_resume_missing_checkpoint () =
  let dir = fresh_dir () in
  let r =
    run_cli [ "train"; "-d"; "PowerCons"; "--scale"; "smoke"; "--checkpoint-dir"; dir; "--resume" ]
  in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool)
    "names the missing checkpoint" true
    (contains ~needle:(Filename.concat dir "train.ckpt") r.stderr);
  Alcotest.(check bool) "says nothing to resume" true (contains ~needle:"nothing to resume" r.stderr);
  Alcotest.(check bool) "did not start training" false (contains ~needle:"training" r.stdout);
  Sys.rmdir dir

(* --resume is meaningless without --checkpoint-dir: exit 2, say so. *)
let test_resume_requires_dir () =
  let r = run_cli [ "train"; "-d"; "PowerCons"; "--scale"; "smoke"; "--resume" ] in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool)
    "explains the pairing" true
    (contains ~needle:"--resume requires --checkpoint-dir" r.stderr)

(* A checkpoint dir whose parent does not exist must fail with a usable
   message, not an uncaught Sys_error backtrace. *)
let test_mkdir_missing_parent () =
  let missing =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "no_such_parent_%d/ckpt" (Random.bits ()))
  in
  let r =
    run_cli [ "train"; "-d"; "PowerCons"; "--scale"; "smoke"; "--checkpoint-dir"; missing ]
  in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool)
    "clean diagnostic" true
    (contains ~needle:"cannot create checkpoint directory" r.stderr);
  Alcotest.(check bool) "no uncaught exception" false (contains ~needle:"Fatal error" r.stderr)

(* grid subcommands: exit-code contract against the real binary. The
   crash/corruption fault battery lives in test_grid.ml; here we pin
   the user-error paths and the status arithmetic. *)

let missing_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "no_such_grid_cache_%d" (Random.bits ()))

(* status/merge must not invent an empty grid when the cache dir does
   not exist: exit 2 and name the directory. *)
let test_grid_status_missing_dir () =
  let dir = missing_dir () in
  let r = run_cli [ "grid"; "status"; "--cache-dir"; dir; "--scale"; "smoke" ] in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool) "names the directory" true (contains ~needle:dir r.stderr)

let test_grid_merge_missing_dir () =
  let dir = missing_dir () in
  let r = run_cli [ "grid"; "merge"; "--cache-dir"; dir; "--scale"; "smoke" ] in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool) "names the directory" true (contains ~needle:dir r.stderr)

let test_grid_run_bad_shards () =
  let dir = fresh_dir () in
  let r = run_cli [ "grid"; "run"; "--cache-dir"; dir; "--shards"; "0"; "--scale"; "smoke" ] in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool) "explains the bound" true (contains ~needle:"--shards" r.stderr);
  Sys.rmdir dir

let test_grid_bad_variant_set () =
  let dir = fresh_dir () in
  let r =
    run_cli [ "grid"; "run"; "--cache-dir"; dir; "--scale"; "smoke"; "--variants"; "table9" ]
  in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool) "lists the valid sets" true (contains ~needle:"all|table1|fig7" r.stderr);
  Sys.rmdir dir

(* A half-done grid must report the exact done/pending split, in both
   the table and the JSONL renderings, and merge must refuse it with
   exit 3 listing the missing cells. *)
let test_grid_status_half_done () =
  let dir = fresh_dir () in
  let args = [ "--cache-dir"; dir; "--scale"; "smoke"; "-d"; "GPOVY"; "--variants"; "table1" ] in
  let r = run_cli ([ "grid"; "run"; "--shards"; "1" ] @ args) in
  Alcotest.(check int) "grid run exits 0" 0 r.code;
  (* drop two of the three cells *)
  let cells =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun e -> Filename.check_suffix e ".ckpt")
    |> List.sort compare
  in
  Alcotest.(check int) "table1 x GPOVY is three cells" 3 (List.length cells);
  List.iteri (fun i e -> if i < 2 then Sys.remove (Filename.concat dir e)) cells;
  let st = run_cli ([ "grid"; "status" ] @ args) in
  Alcotest.(check int) "status exits 0" 0 st.code;
  Alcotest.(check bool) "reports done 1 / pending 2" true
    (contains ~needle:"done 1, claimed 0, stale 0, pending 2" st.stdout);
  let js = run_cli ([ "grid"; "status"; "--json" ] @ args) in
  Alcotest.(check int) "status --json exits 0" 0 js.code;
  Alcotest.(check bool) "summary line agrees" true
    (contains ~needle:{|"total":3,"done":1,"claimed":0,"stale":0,"pending":2|} js.stdout);
  let m = run_cli ([ "grid"; "merge" ] @ args) in
  Alcotest.(check int) "merge on a half-done grid exits 3" 3 m.code;
  Alcotest.(check bool) "lists missing cells" true (contains ~needle:"2 cells missing" m.stderr)

(* `stream --cache-dir` takes its model from the grid's own cell: over
   a directory `grid run` already filled, it trains and writes nothing
   and prints what a plain, uncached `stream` prints. *)
let test_stream_reuses_grid_cell () =
  let dir = fresh_dir () in
  let r =
    run_cli
      [
        "grid"; "run"; "--shards"; "1"; "--cache-dir"; dir; "--scale"; "smoke"; "-d"; "GPOVY";
        "--variants"; "table1";
      ]
  in
  Alcotest.(check int) "grid run exits 0" 0 r.code;
  let cells () =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun e -> String.starts_with ~prefix:"cell-" e)
    |> List.sort compare
  in
  let before = cells () in
  Alcotest.(check int) "table1 x GPOVY is three cells" 3 (List.length before);
  let stream = [ "stream"; "-d"; "GPOVY"; "-m"; "adapt"; "--scale"; "smoke" ] in
  let metrics = Filename.concat dir "stream.jsonl" in
  let cached = run_cli (stream @ [ "--cache-dir"; dir; "--metrics-out"; metrics ]) in
  Alcotest.(check int) "cached stream exits 0" 0 cached.code;
  Alcotest.(check (list string)) "no new cell file" before (cells ());
  Alcotest.(check bool) "trained nothing" false
    (contains ~needle:{|"event":"train.done"|} (slurp metrics));
  let plain = run_cli stream in
  Alcotest.(check int) "plain stream exits 0" 0 plain.code;
  Alcotest.(check string) "same output as an uncached stream" plain.stdout cached.stdout;
  Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  Random.self_init ();
  Alcotest.run "cli"
    [
      ( "train-errors",
        [
          Alcotest.test_case "--resume w/o train.ckpt exits 2" `Quick test_resume_missing_checkpoint;
          Alcotest.test_case "--resume w/o --checkpoint-dir exits 2" `Quick test_resume_requires_dir;
          Alcotest.test_case "mkdir missing parent is clean" `Quick test_mkdir_missing_parent;
        ] );
      ( "grid",
        [
          Alcotest.test_case "status w/o cache dir exits 2" `Quick test_grid_status_missing_dir;
          Alcotest.test_case "merge w/o cache dir exits 2" `Quick test_grid_merge_missing_dir;
          Alcotest.test_case "--shards 0 exits 2" `Quick test_grid_run_bad_shards;
          Alcotest.test_case "bad --variants exits 2" `Quick test_grid_bad_variant_set;
          Alcotest.test_case "half-done grid: status counts, merge exits 3" `Quick
            test_grid_status_half_done;
          Alcotest.test_case "stream --cache-dir reuses the grid's cell" `Quick
            test_stream_reuses_grid_cell;
        ] );
    ]
