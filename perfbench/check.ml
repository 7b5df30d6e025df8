(* Output checks. Every checked operation counts as attempted; a
   failing one counts as failed and is reported on stderr. *)

let attempted = ref 0
let failed = ref 0

let expect ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let finite xs = Array.for_all Float.is_finite xs
