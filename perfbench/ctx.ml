(* One benchmark run: its arguments, its scratch directory, the op and
   failure counts, and the metrics it reports. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  dir : string; (* scratch space inside the checkout, removed at exit *)
  dvrun : string; (* the built dvrun binary *)
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list; (* failure reasons, newest first *)
  mutable broken : string option; (* the benchmark itself went wrong *)
  mutable metrics : (string * float * string) list;
}

(* Count one op; [result] is the oracle's verdict. *)
let op t result =
  t.attempted <- t.attempted + 1;
  match result with
  | None -> ()
  | Some why ->
    t.failed <- t.failed + 1;
    if List.length t.notes < 20 then t.notes <- why :: t.notes

let break t why = if t.broken = None then t.broken <- Some why

(* Later settings of a metric replace earlier ones. *)
let metric t name unit value =
  t.metrics <- (name, value, unit) :: List.filter (fun (n, _, _) -> n <> name) t.metrics

let ms s = s *. 1e3

let scratch t name = Filename.concat t.dir name
