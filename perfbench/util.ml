(* Clocks, order statistics, files and child processes for the benchmark. *)

external now : unit -> (float[@unboxed])
  = "perfbench_now" "perfbench_now_unboxed"
[@@noalloc]

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics over float samples --- *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* The highest percentile that still has at least ten samples beyond it:
   the value with exactly ten larger samples. Returns (value, percentile,
   sample count); with eleven samples or fewer it is the minimum, and the
   caller reports the percentile it got. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, 0., 0)
  else
    let i = max 0 (n - 11) in
    (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n, n)

(* Run passes of [f] until [until]; at least [min] of them. *)
let passes ?(min = 3) ~until f =
  let rec go i acc =
    if i >= min && now () >= until then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* --- files --- *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

(* Peak resident set of this process, in MiB. *)
let self_peak_rss_mb () =
  let kb =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
          | Some _ -> go ()
        in
        go ())
  in
  float_of_int kb /. 1024.

(* --- child processes --- *)

external wait4 : int -> int * int = "perfbench_wait4"

type exit_info = { code : int; maxrss_kb : int; stdout : string }

(* Run [prog args] to completion with stdin from /dev/null and stderr
   discarded; returns its exit code, peak RSS and captured stdout. *)
let run_process prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out_w)
      (fun () ->
        Unix.create_process prog
          (Array.of_list (prog :: args))
          devnull out_w devnull)
  in
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr out_r in
  let stdout = In_channel.input_all ic in
  close_in ic;
  let code, maxrss_kb = wait4 pid in
  { code; maxrss_kb; stdout }

(* Start a long-lived child (the farm server) with stdout/stderr sent to
   [log]; the caller stops it with [stop_process]. *)
let spawn_process prog args ~log =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv = Array.of_list (prog :: args) in
  let pid = Unix.create_process prog argv devnull fd fd in
  Unix.close fd;
  Unix.close devnull;
  pid

let stop_process pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait4 pid

(* --- seeds --- *)

(* A stream of environment seeds derived from the benchmark's seed: the
   programs see only these. *)
let seeds ~seed n =
  let st = Random.State.make [| 0x5eed; seed |] in
  List.init n (fun _ -> 1 + Random.State.int st 1_000_000)
