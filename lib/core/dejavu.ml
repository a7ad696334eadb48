(* DejaVu — deterministic replay for the simulated Jalapeño VM.

   [record] runs a program with recording instrumentation and returns the
   trace; [replay] re-runs it, substituting every non-deterministic result
   from the trace; [verify_roundtrip] checks the paper's accuracy criterion:
   identical event sequences and identical program states. *)

module Trace = Trace
module Tape = Trace.Tape
module Ring = Ring
module Session = Session
module Figure2 = Figure2
module Recorder = Recorder
module Replayer = Replayer
module Audit = Audit
module Symmetry = Symmetry

exception Divergence = Session.Divergence

type run = {
  vm : Vm.t;
  status : Vm.Rt.status;
  output : string;
  state_digest : int;
  obs_digest : int; (* digest of the full event sequence *)
  obs_count : int;
  session : Session.t option; (* None when the trace was rejected outright *)
}

let finish_run vm session observer =
  {
    vm;
    status = Vm.status vm;
    output = Vm.output vm;
    state_digest = Vm.digest vm;
    obs_digest =
      (match observer with Some o -> Vm.Observer.digest o | None -> 0);
    obs_count =
      (match observer with Some o -> Vm.Observer.count o | None -> 0);
    session = Some session;
  }

let seeded (config : Vm.Rt.config) seed =
  { config with Vm.Rt.env_cfg = { config.Vm.Rt.env_cfg with Vm.Env.seed } }

(* Run a program in record mode. The environment (seed) supplies the
   non-determinism being captured. [observe] attaches the event-sequence
   digest observer the roundtrip check compares. It installs no hook: the
   VM folds the digest itself, once per register-region segment and once
   per stack-tier instruction, so the run stays on the register tier and
   the cost is a few multiplies per segment. Overhead measurements that want
   the recording instrumentation alone turn it off. *)
let record ?(config = Vm.Rt.default_config) ?(natives = []) ?(inputs = [])
    ?(seed = 1) ?limit ?(observe = true) program : run * Trace.t =
  let vm = Vm.create ~config:(seeded config seed) ~natives ~inputs program in
  let session = Recorder.attach vm in
  let observer = if observe then Some (Vm.Observer.attach_digest vm) else None in
  ignore (Vm.run ?limit vm);
  let run = finish_run vm session observer in
  (run, Recorder.finish session)

(* The one replay body, behind [replay], [replay_from] and the farm's
   replay jobs: [attach], then [drive] the VM. A divergence — the trace
   refused at attach (wrong program or audit) or departing mid-run —
   becomes the VM's [Fatal] replay-divergence status, and so does a
   picks-bearing trace steering dispatch to a thread that is not ready
   here (the schedule does not fit this program or state). [Error msg]
   when the trace was refused at attach. *)
let replay_attached (vm : Vm.t) ~attach ~drive : (Session.t, string) result =
  let diverged msg =
    vm.Vm.Rt.status <- Vm.Rt.Fatal ("replay divergence: " ^ msg)
  in
  match attach vm with
  | exception Session.Divergence msg ->
    diverged msg;
    Error msg
  | session ->
    (try drive vm
     with Session.Divergence msg | Vm.Sched.Sched_error msg -> diverged msg);
    Ok session

let replay_run ?limit ~observe vm attach : run * string list =
  let observer = ref None in
  match
    replay_attached vm ~attach ~drive:(fun vm ->
        if observe then observer := Some (Vm.Observer.attach_digest vm);
        ignore (Vm.run ?limit vm))
  with
  | Ok session ->
    (finish_run vm session !observer, Replayer.check_complete session)
  | Error msg ->
    ( {
        vm;
        status = Vm.status vm;
        output = "";
        state_digest = 0;
        obs_digest = 0;
        obs_count = 0;
        session = None;
      },
      [ msg ] )

(* Replay a trace. The seed deliberately defaults to something different
   from any recording seed: replay must not depend on the environment. It
   cannot: the replayer takes clock values, inputs and native outcomes
   from the trace and switches the per-instruction virtual clock off, so
   the seeded streams are never drawn from ([env.ticks] stays 0). *)
let replay ?(config = Vm.Rt.default_config) ?(natives = []) ?(seed = 424242)
    ?limit ?(observe = true) program (trace : Trace.t) : run * string list =
  let vm = Vm.create ~config:(seeded config seed) ~natives program in
  replay_run ?limit ~observe vm (fun vm -> Replayer.attach vm trace)

(* Record straight into a trace file through the streaming writer: bounded
   recorder-side memory, temp-file + atomic-rename on finish, and abort on
   any error — a crashed or cancelled recording leaves nothing behind. *)
let record_to ?(config = Vm.Rt.default_config) ?(natives = []) ?(inputs = [])
    ?(seed = 1) ?limit ?(observe = true) ?buf_words ~path program :
    run * Trace.sizes =
  let vm = Vm.create ~config:(seeded config seed) ~natives ~inputs program in
  let writer = Trace.Writer.create ?buf_words path in
  match
    let session = Recorder.attach_stream vm writer in
    let observer =
      if observe then Some (Vm.Observer.attach_digest vm) else None
    in
    ignore (Vm.run ?limit vm);
    (finish_run vm session observer, Recorder.finish_stream session writer)
  with
  | result -> result
  | exception e ->
    Trace.Writer.abort writer;
    raise e

(* Replay from a trace file through the streaming reader: O(chunk) replay-
   side trace memory. Raises Trace.Format_error on a malformed file;
   divergences are reported like [replay]. *)
let replay_from ?(config = Vm.Rt.default_config) ?(natives = [])
    ?(seed = 424242) ?limit ?(observe = true) ?chunk_words ~path program :
    run * string list =
  let vm = Vm.create ~config:(seeded config seed) ~natives program in
  let reader = Trace.Reader.open_file ?chunk_words path in
  Fun.protect
    ~finally:(fun () -> Trace.Reader.close reader)
    (fun () ->
      replay_run ?limit ~observe vm (fun vm ->
          Replayer.attach_stream vm reader))

type roundtrip = {
  recorded : run;
  replayed : run;
  trace : Trace.t;
  outputs_equal : bool;
  states_equal : bool;
  events_equal : bool;
  replay_complete : bool;
  leftovers : string list;
}

let ok rt =
  rt.outputs_equal && rt.states_equal && rt.events_equal && rt.replay_complete

(* Record with [seed], replay with an unrelated seed, compare everything. *)
let verify_roundtrip ?config ?natives ?inputs ?(seed = 1) ?limit program :
    roundtrip =
  let recorded, trace = record ?config ?natives ?inputs ~seed ?limit program in
  let replayed, leftovers =
    replay ?config ?natives ~seed:(seed + 99991) ?limit program trace
  in
  {
    recorded;
    replayed;
    trace;
    outputs_equal = String.equal recorded.output replayed.output;
    states_equal = recorded.state_digest = replayed.state_digest;
    events_equal =
      recorded.obs_digest = replayed.obs_digest
      && recorded.obs_count = replayed.obs_count;
    replay_complete = leftovers = [];
    leftovers;
  }

let pp_roundtrip ppf rt =
  Fmt.pf ppf
    "events: %s (%d vs %d) output: %s state: %s trace-consumed: %s status: %s/%s"
    (if rt.events_equal then "EQUAL" else "DIFFER")
    rt.recorded.obs_count rt.replayed.obs_count
    (if rt.outputs_equal then "EQUAL" else "DIFFER")
    (if rt.states_equal then "EQUAL" else "DIFFER")
    (if rt.replay_complete then "yes" else String.concat "; " rt.leftovers)
    (Vm.string_of_status rt.recorded.status)
    (Vm.string_of_status rt.replayed.status)
