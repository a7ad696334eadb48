(* The timed operations on in-process programs. Untraced, each is one call
   to the public entry point with the defaults dvrun uses, the event-digest
   observer included. Traced, the same work is spelled out call by call,
   with a span around each layer; the oracle checks that both give the same
   bytes, states and event sequences. *)

module Trace = Dejavu.Trace

let config_for seed =
  let c = Vm.Rt.default_config in
  { c with Vm.Rt.env_cfg = { c.Vm.Rt.env_cfg with Vm.Env.seed } }

(* Dejavu.replay's fixed replay seed: replay must not depend on it. *)
let replay_seed = 424242

let observe vm =
  Span.with_ "observer.attach_digest" (fun () -> Vm.Observer.attach_digest vm)

let record_to ~traced (r : Refs.t) path : Dejavu.run =
  let e = r.entry in
  if not traced then
    fst
      (Dejavu.record_to ~natives:e.natives ~seed:r.seed ~path e.program)
  else
    Span.with_ "op.record" (fun () ->
        let vm =
          Span.with_ "vm.create" (fun () ->
              Vm.create ~config:(config_for r.seed) ~natives:e.natives
                e.program)
        in
        let writer =
          Span.with_ "trace.writer.create" (fun () -> Trace.Writer.create path)
        in
        match
          let session =
            Span.with_ "recorder.attach_stream" (fun () ->
                Dejavu.Recorder.attach_stream vm writer)
          in
          let observer = observe vm in
          ignore (Span.with_ "vm.run" (fun () -> Vm.run vm));
          ignore
            (Span.with_ "recorder.finish_stream" (fun () ->
                 Dejavu.Recorder.finish_stream session writer));
          Dejavu.finish_run vm session (Some observer)
        with
        | run -> run
        | exception ex ->
          Trace.Writer.abort writer;
          raise ex)

let divergent (vm : Vm.t) msg =
  vm.Vm.Rt.status <- Vm.Rt.Fatal ("replay divergence: " ^ msg)

let replay_from ~traced (r : Refs.t) path : Dejavu.run * string list =
  let e = r.entry in
  if not traced then
    Dejavu.replay_from ~natives:e.natives ~path e.program
  else
    Span.with_ "op.replay" (fun () ->
        let vm =
          Span.with_ "vm.create" (fun () ->
              Vm.create ~config:(config_for replay_seed) ~natives:e.natives
                e.program)
        in
        let reader =
          Span.with_ "trace.reader.open" (fun () -> Trace.Reader.open_file path)
        in
        Fun.protect
          ~finally:(fun () ->
            Span.with_ "trace.reader.close" (fun () -> Trace.Reader.close reader))
          (fun () ->
            let session =
              Span.with_ "replayer.attach_stream" (fun () ->
                  Dejavu.Replayer.attach_stream vm reader)
            in
            let observer = observe vm in
            (try ignore (Span.with_ "vm.run" (fun () -> Vm.run vm)) with
            | Dejavu.Divergence msg | Vm.Sched.Sched_error msg ->
              divergent vm msg);
            let leftovers =
              Span.with_ "replayer.check_complete" (fun () ->
                  Dejavu.Replayer.check_complete session)
            in
            (Dejavu.finish_run vm session (Some observer), leftovers)))

(* A timed record then replay of one program, checked by the oracle. *)
let roundtrip ctx ~traced (r : Refs.t) path =
  let run, rec_s = Util.timed (fun () -> record_to ~traced r path) in
  Ctx.op ctx (Refs.check_record r ~run ~path);
  let (run, leftovers), rep_s =
    Util.timed (fun () -> replay_from ~traced r path)
  in
  Ctx.op ctx (Refs.check_replay r ~run ~leftovers);
  (rec_s, rep_s)

(* --- systematic exploration --- *)

type explore_ref = {
  x_entry : Workloads.Registry.entry;
  x_seed : int;
  x_schedules : int; (* schedules the reference search explored *)
  x_summary : string; (* the first line dvrun explore prints *)
}

(* The search must find a fault whose emitted trace replays to the same
   failure, as [dvrun explore --expect-failure] demands. *)
let explore_ok (rp : Explore.Driver.report) =
  List.exists
    (fun (f : Explore.Driver.failure) ->
      f.fl_kind = Explore.Driver.Fault && f.fl_replay_ok = Some true)
    rp.rp_failures

let explore_run ~out (e : Workloads.Registry.entry) ~seed =
  Util.rm_rf out;
  let rp =
    Span.with_ "explore.driver.run" (fun () -> Explore.Driver.run ~seed ~out e)
  in
  Util.rm_rf out;
  rp

let explore_ref ~out name ~seed =
  let e = Option.get (Workloads.Registry.find name) in
  let rp = explore_run ~out e ~seed in
  if not (explore_ok rp) then
    raise (Refs.Bad_reference (name ^ ": exploration found no replayable fault"));
  {
    x_entry = e;
    x_seed = seed;
    x_schedules = rp.rp_explored;
    x_summary =
      List.hd (String.split_on_char '\n' (Fmt.str "%a" Explore.Driver.pp_report rp));
  }

let explore ctx ~out x =
  let rp, s = Util.timed (fun () -> explore_run ~out x.x_entry ~seed:x.x_seed) in
  Ctx.op ctx
    (if not (explore_ok rp) then
       Refs.fail "explore %s: no replay-verified fault" x.x_entry.name
     else if rp.rp_explored <> x.x_schedules then
       Refs.fail "explore %s: %d schedules, reference %d" x.x_entry.name
         rp.rp_explored x.x_schedules
     else None);
  (rp, s)

(* The two seeded bugs every workload's exploration pass searches for. *)
let explore_targets = [ "atomicity"; "lock-cycle" ]
