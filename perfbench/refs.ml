(* The correctness oracle. During setup every (program, seed) gets a
   reference: an observed in-memory roundtrip, which must pass DejaVu's own
   accuracy check, and an observed streamed recording whose bytes must equal
   the in-memory trace's. Timed ops are then judged against the reference;
   a check returns [Some reason] when the op failed. *)

module Trace = Dejavu.Trace

type entry = Workloads.Registry.entry

type t = {
  entry : entry;
  seed : int;
  path : string; (* the reference trace file *)
  md5 : string;
  bytes : int;
  sizes : Trace.sizes;
  status : string;
  output : string;
  state : int;
  n_instr : int;
  n_yield : int;
  n_switch : int;
  events : int * int; (* digest and length of the event sequence *)
}

exception Bad_reference of string

let status_of (r : Dejavu.run) = Vm.string_of_status r.Dejavu.status

let build ~dir (entry : entry) ~seed =
  let natives = entry.natives in
  let rt = Dejavu.verify_roundtrip ~natives ~seed entry.program in
  if not (Dejavu.ok rt) then
    raise
      (Bad_reference
         (Fmt.str "%s seed %d: %a" entry.name seed Dejavu.pp_roundtrip rt));
  let path = Filename.concat dir (Fmt.str "ref-%s-%d.trace" entry.name seed) in
  let run, sizes = Dejavu.record_to ~natives ~seed ~path entry.program in
  let data = Util.read_file path in
  if not (String.equal data (Trace.to_bytes rt.trace)) then
    raise
      (Bad_reference
         (Fmt.str "%s seed %d: streamed trace differs from in-memory trace"
            entry.name seed));
  if run.Dejavu.state_digest <> rt.recorded.state_digest then
    raise
      (Bad_reference
         (Fmt.str "%s seed %d: streamed record state differs" entry.name seed));
  let st = Vm.stats rt.recorded.vm in
  {
    entry;
    seed;
    path;
    md5 = Digest.to_hex (Digest.string data);
    bytes = String.length data;
    sizes;
    status = status_of rt.recorded;
    output = rt.recorded.output;
    state = rt.recorded.state_digest;
    n_instr = st.n_instr;
    n_yield = st.n_yield;
    n_switch = st.n_switch;
    events = (rt.recorded.obs_digest, rt.recorded.obs_count);
  }

let fail fmt = Fmt.kstr (fun s -> Some s) fmt

let first_failure checks = List.find_map (fun c -> c ()) checks

let events_of (run : Dejavu.run) = (run.obs_digest, run.obs_count)

(* A timed record: the file it wrote must be the reference, byte for byte,
   and the run must have gone through the same events ([events] is false
   for a run made without the event observer). *)
let check_record ?(events = true) r ~(run : Dejavu.run) ~path =
  let st = Vm.stats run.vm in
  first_failure
    [
      (fun () ->
        let md5 = Digest.to_hex (Digest.file path) in
        if md5 <> r.md5 then fail "%s: trace bytes differ" r.entry.name
        else None);
      (fun () ->
        if status_of run <> r.status then
          fail "%s: record status %s, want %s" r.entry.name (status_of run)
            r.status
        else None);
      (fun () ->
        if st.n_instr <> r.n_instr || st.n_yield <> r.n_yield
           || st.n_switch <> r.n_switch
        then fail "%s: record counters differ" r.entry.name
        else None);
      (fun () ->
        if events && events_of run <> r.events then
          fail "%s: record event sequence differs" r.entry.name
        else None);
    ]

(* A timed replay must reproduce the recorded run: same status, output,
   state digest, counters and event sequence, with every tape drained. *)
let check_replay ?(events = true) r ~(run : Dejavu.run) ~leftovers =
  let st = Vm.stats run.vm in
  first_failure
    [
      (fun () ->
        if leftovers <> [] then
          fail "%s: replay left %s" r.entry.name (String.concat "; " leftovers)
        else None);
      (fun () ->
        if status_of run <> r.status then
          fail "%s: replay status %s, want %s" r.entry.name (status_of run)
            r.status
        else None);
      (fun () ->
        if not (String.equal run.output r.output) then
          fail "%s: replay output differs" r.entry.name
        else None);
      (fun () ->
        if run.state_digest <> r.state then
          fail "%s: replay state digest differs" r.entry.name
        else None);
      (fun () ->
        if st.n_instr <> r.n_instr || st.n_switch <> r.n_switch then
          fail "%s: replay counters differ" r.entry.name
        else None);
      (fun () ->
        if events && events_of run <> r.events then
          fail "%s: replay event sequence differs" r.entry.name
        else None);
    ]

(* What [dvrun replay] must print for this reference. *)
let cli_replay_stdout r =
  Fmt.str "--- output ---\n%s--- status: %s ---\n" r.output r.status

(* The farm's record digest is the MD5 of the trace file; its replay digest
   is the VM state digest in 16 hex digits. *)
let state_hex r = Fmt.str "%016x" (r.state land max_int)

(* Replay through the streaming reader under the oracle, as a timed replay
   op does. *)
let replay_file r path =
  let run, leftovers =
    Dejavu.replay_from ~natives:r.entry.natives ~path r.entry.program
  in
  check_replay r ~run ~leftovers

(* Planted bad traces: the oracle must count both as failed, or the
   benchmark cannot be trusted to see a broken replay. One trace has a
   switches-tape value moved by one yield point; the other was recorded
   under a different seed. Returns the number the oracle caught (of 2). *)
let planted ~dir r =
  let t = Trace.load r.path in
  let n = Array.length t.switches in
  if n = 0 then raise (Bad_reference (r.entry.name ^ ": no switches to perturb"));
  let switches = Array.copy t.switches in
  let i = n / 2 in
  switches.(i) <- (if switches.(i) > 1 then switches.(i) - 1 else switches.(i) + 1);
  let bumped = Filename.concat dir "planted-switch.trace" in
  Trace.save bumped { t with switches };
  let wrong = Filename.concat dir "planted-seed.trace" in
  let rec record_other seed =
    ignore
      (Dejavu.record_to ~natives:r.entry.natives ~seed ~observe:false
         ~path:wrong r.entry.program);
    if Digest.file wrong = Digest.from_hex r.md5 then record_other (seed + 1)
  in
  record_other (r.seed + 1);
  let caught =
    List.length
      (List.filter
         (fun p ->
           match replay_file r p with
           | Some _ -> true
           | None -> false
           | exception (Trace.Format_error _ | Dejavu.Divergence _) -> true)
         [ bumped; wrong ])
  in
  Sys.remove bumped;
  Sys.remove wrong;
  caught
