(* DejaVu record/replay: the paper's accuracy criterion (identical event
   sequences and states), precision (record mode behaves like live mode),
   symmetry, trace integrity, and divergence detection. *)

open Tutil

let roundtrip ?config ?seed (e : Workloads.Registry.entry) =
  Dejavu.verify_roundtrip ?config ~natives:e.natives ?seed e.program

let entry name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no workload %s" name

let check_rt name rt =
  if not (Dejavu.ok rt) then
    Alcotest.failf "%s: %s" name (Fmt.str "%a" Dejavu.pp_roundtrip rt)

(* --- accuracy across the whole catalogue ------------------------------- *)

let test_all_workloads_roundtrip () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed -> check_rt (Fmt.str "%s/seed%d" e.name seed) (roundtrip ~seed e))
        [ 1; 5 ])
    (Lazy.force Workloads.Registry.all)

let test_roundtrip_under_gc_pressure () =
  let e = entry "gc-churn" in
  let config = { Vm.Rt.default_config with heap_words = 6000 } in
  let rt = roundtrip ~config ~seed:3 e in
  check_rt "gc-churn small heap" rt;
  Alcotest.(check bool) "collections happened" true
    ((Vm.stats rt.recorded.vm).n_gc > 0)

let test_deadlock_replays () =
  (* record a deadlocked execution; replay must deadlock identically *)
  let e = entry "philosophers-deadlock" in
  let seed =
    let rec find s =
      if s > 200 then None
      else
        let _, st = run ~seed:s e.program in
        if st = Vm.Rt.Deadlocked then Some s else find (s + 1)
    in
    find 1
  in
  match seed with
  | None -> () (* no deadlocking seed found: nothing to check *)
  | Some seed ->
    let rt = roundtrip ~seed e in
    check_rt "deadlock roundtrip" rt;
    Alcotest.check status_testable "recorded deadlock" Vm.Rt.Deadlocked
      rt.recorded.status;
    Alcotest.check status_testable "replayed deadlock" Vm.Rt.Deadlocked
      rt.replayed.status

(* --- precision: record mode behaves like live mode --------------------- *)

let test_record_matches_live () =
  List.iter
    (fun name ->
      let e = entry name in
      let vm_live = Vm.create ~natives:e.natives e.program in
      let obs_live = Vm.Observer.attach_digest vm_live in
      ignore (Vm.run vm_live);
      let rec_run, _trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
      Alcotest.(check string)
        (name ^ ": outputs equal")
        (Vm.output vm_live) rec_run.Dejavu.output;
      Alcotest.(check int)
        (name ^ ": event streams equal")
        (Vm.Observer.digest obs_live)
        rec_run.Dejavu.obs_digest)
    [ "fig1ab"; "racy-counter"; "producer-consumer"; "timed"; "bank" ]

(* --- determinism of replay itself --------------------------------------- *)

let test_replay_twice_identical () =
  let e = entry "bank" in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:4 e.program in
  let r1, _ = Dejavu.replay ~natives:e.natives ~seed:111 e.program trace in
  let r2, _ = Dejavu.replay ~natives:e.natives ~seed:999 e.program trace in
  Alcotest.(check string) "outputs" r1.Dejavu.output r2.Dejavu.output;
  Alcotest.(check int) "digests" r1.Dejavu.state_digest r2.Dejavu.state_digest;
  Alcotest.(check int) "events" r1.Dejavu.obs_digest r2.Dejavu.obs_digest

let test_different_seeds_diverge () =
  let e = entry "racy-counter" in
  let outs =
    List.map
      (fun seed ->
        let vm, _ = run ~seed e.program in
        Vm.output vm)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "some difference" true
    (List.length (List.sort_uniq compare outs) > 1)

(* --- trace contents ------------------------------------------------------ *)

let test_trace_contents_switches_only () =
  let e = entry "primes" in
  let run_, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let s = Dejavu.Trace.sizes trace in
  Alcotest.(check int) "no clock reads" 0 s.Dejavu.Trace.n_clock_reads;
  Alcotest.(check int) "no inputs" 0 s.Dejavu.Trace.n_inputs;
  Alcotest.(check int) "no natives" 0 s.Dejavu.Trace.n_native_words;
  Alcotest.(check bool) "some switches" true (s.Dejavu.Trace.n_switches > 0);
  Alcotest.(check bool) "bounded by preempt requests" true
    (s.Dejavu.Trace.n_switches <= (Vm.stats run_.Dejavu.vm).n_preempt_req)

let test_trace_records_inputs_and_natives () =
  let e = entry "native" in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let s = Dejavu.Trace.sizes trace in
  Alcotest.(check bool) "native words" true (s.Dejavu.Trace.n_native_words > 0);
  let e2 = entry "bank" in
  let _, trace2 = Dejavu.record ~natives:e2.natives ~seed:1 e2.program in
  Alcotest.(check int) "bank inputs" 450
    (Dejavu.Trace.sizes trace2).Dejavu.Trace.n_inputs

let test_switch_deltas_match_yieldpoints () =
  let e = entry "fig1ab" in
  let run_, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let sum = Array.fold_left ( + ) 0 trace.Dejavu.Trace.switches in
  Alcotest.(check bool) "sum <= yields" true
    (sum <= (Vm.stats run_.Dejavu.vm).n_yield);
  Alcotest.(check bool) "all deltas positive" true
    (Array.for_all (fun d -> d > 0) trace.Dejavu.Trace.switches)

(* --- divergence detection ------------------------------------------------ *)

let test_wrong_program_rejected () =
  let e1 = entry "fig1ab" and e2 = entry "fig1cd" in
  let _, trace = Dejavu.record ~natives:e1.natives ~seed:1 e1.program in
  let r, _ = Dejavu.replay ~natives:e2.natives e2.program trace in
  match r.Dejavu.status with
  | Vm.Rt.Fatal msg ->
    Alcotest.(check bool) "mentions divergence" true (contains msg "divergence")
  | st -> Alcotest.failf "accepted wrong program: %s" (Vm.string_of_status st)

let test_tampered_clock_detected () =
  let e = entry "fig1cd" in
  let rec_run, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let clocks = Array.copy trace.Dejavu.Trace.clocks in
  if Array.length clocks >= 2 then clocks.(1) <- clocks.(1) + 13;
  let tampered = { trace with Dejavu.Trace.clocks } in
  let rep, leftovers = Dejavu.replay ~natives:e.natives e.program tampered in
  let detected =
    (match rep.Dejavu.status with Vm.Rt.Fatal _ -> true | _ -> false)
    || leftovers <> []
    || rep.Dejavu.output <> rec_run.Dejavu.output
    || rep.Dejavu.state_digest <> rec_run.Dejavu.state_digest
  in
  Alcotest.(check bool) "tampering visible" true detected

let test_truncated_switch_tape () =
  (* removing a switch from the middle of the tape shifts every later
     switch: the replayed event sequence cannot match the recording *)
  let e = entry "racy-counter" in
  let rec_run, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let sw = trace.Dejavu.Trace.switches in
  let n = Array.length sw in
  if n > 4 then begin
    let k = n / 2 in
    let dropped =
      Array.append (Array.sub sw 0 k) (Array.sub sw (k + 1) (n - k - 1))
    in
    let tampered = { trace with Dejavu.Trace.switches = dropped } in
    let rep, _ = Dejavu.replay ~natives:e.natives e.program tampered in
    Alcotest.(check bool) "event stream differs" true
      (rep.Dejavu.obs_digest <> rec_run.Dejavu.obs_digest
      ||
      match rep.Dejavu.status with Vm.Rt.Fatal _ -> true | _ -> false)
  end

(* --- symmetry -------------------------------------------------------------- *)

let test_symmetric_state_digests () =
  let rt = roundtrip ~seed:2 (entry "producer-consumer") in
  Alcotest.(check int) "state digest incl. instrumentation heap"
    rt.recorded.state_digest rt.replayed.state_digest

let test_asymmetry_is_visible () =
  (* negative control for section 2.4: an instrumentation side effect that
     happens in one mode only (here: an extra replay-side allocation before
     attaching) keeps outputs equal — the GC is transparent — but the
     machine states are no longer bit-identical, which is exactly the
     guarantee symmetry buys *)
  let e = entry "gc-churn" in
  let config = { Vm.Rt.default_config with heap_words = 6000 } in
  let rec_run, trace =
    Dejavu.record ~config ~natives:e.natives ~seed:3 e.program
  in
  let vm = Vm.create ~config ~natives:e.natives e.program in
  (* the asymmetric side effect: a pinned (live) allocation, like a class
     loaded by the instrumentation in one mode only *)
  ignore (Vm.Heap.pin vm (Vm.Heap.alloc_array vm ~elem_ref:false ~len:32));
  let session = Dejavu.Replayer.attach vm trace in
  let observer = Vm.Observer.attach_digest vm in
  ignore (Vm.run vm);
  ignore session;
  Alcotest.(check string) "outputs still equal" rec_run.Dejavu.output
    (Vm.output vm);
  Alcotest.(check int) "event streams still equal" rec_run.Dejavu.obs_digest
    (Vm.Observer.digest observer);
  Alcotest.(check bool) "but states differ (symmetry broken)" true
    (Vm.digest vm <> rec_run.Dejavu.state_digest)

let test_ring_is_pinned () =
  let config = { Vm.Rt.default_config with heap_words = 5000 } in
  check_rt "pinned ring" (roundtrip ~config ~seed:7 (entry "gc-churn"))

(* --- persistence ------------------------------------------------------------ *)

let test_trace_file_roundtrip () =
  let e = entry "fig1cd" in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:3 e.program in
  let path = Filename.temp_file "dv" ".trace" in
  Dejavu.Trace.save path trace;
  let loaded = Dejavu.Trace.load path in
  Sys.remove path;
  let r1, _ = Dejavu.replay ~natives:e.natives e.program trace in
  let r2, _ = Dejavu.replay ~natives:e.natives e.program loaded in
  Alcotest.(check int) "same replay" r1.Dejavu.state_digest r2.Dejavu.state_digest

(* --- clockless replay ----------------------------------------------------- *)

(* Replay takes every clock value from the trace and switches threads on
   the logical clock alone, so attaching a replayer switches the
   per-instruction virtual clock off. Each replay path below must give the
   same run as a replay that forces the clock back on right after attach,
   and must end with [env.ticks = 0] and no timer fire — a noise-free
   counter showing the draws were skipped. *)

type leg = {
  l_status : string;
  l_output : string;
  l_state : int;
  l_events : int;
  l_count : int;
  l_instr : int;
  l_switch : int;
  l_leftovers : string list;
}

let leg (vm : Vm.t) ~events ~count leftovers =
  {
    l_status = Vm.string_of_status (Vm.status vm);
    l_output = Vm.output vm;
    l_state = Vm.digest vm;
    l_events = events;
    l_count = count;
    l_instr = (Vm.stats vm).Vm.Rt.n_instr;
    l_switch = (Vm.stats vm).Vm.Rt.n_switch;
    l_leftovers = leftovers;
  }

let leg_of vm observer =
  leg vm ~events:(Vm.Observer.digest observer)
    ~count:(Vm.Observer.count observer)

let leg_of_run (r : Dejavu.run) =
  leg r.Dejavu.vm ~events:r.Dejavu.obs_digest ~count:r.Dejavu.obs_count

let check_leg ctx ~expect got =
  Alcotest.(check string) (ctx ^ "status") expect.l_status got.l_status;
  Alcotest.(check string) (ctx ^ "output") expect.l_output got.l_output;
  Alcotest.(check int) (ctx ^ "state digest") expect.l_state got.l_state;
  Alcotest.(check int) (ctx ^ "event digest") expect.l_events got.l_events;
  Alcotest.(check int) (ctx ^ "event count") expect.l_count got.l_count;
  Alcotest.(check int) (ctx ^ "n_instr") expect.l_instr got.l_instr;
  Alcotest.(check int) (ctx ^ "n_switch") expect.l_switch got.l_switch;
  Alcotest.(check (list string))
    (ctx ^ "leftovers") expect.l_leftovers got.l_leftovers

let check_clockless ctx (vm : Vm.t) =
  Alcotest.(check bool) (ctx ^ "clock off") false vm.Vm.Rt.clock_on;
  Alcotest.(check int) (ctx ^ "env.ticks") 0 vm.Vm.Rt.env.Vm.Env.ticks;
  Alcotest.(check int) (ctx ^ "timer fires") 0 vm.Vm.Rt.env.Vm.Env.timer_fires

(* The clock really ran on the reference leg. *)
let check_clocked ctx (vm : Vm.t) =
  Alcotest.(check int)
    (ctx ^ "clock-on ticks = n_instr")
    (Vm.stats vm).Vm.Rt.n_instr vm.Vm.Rt.env.Vm.Env.ticks

let replay_config =
  {
    Vm.Rt.default_config with
    Vm.Rt.env_cfg = { Vm.Rt.default_config.Vm.Rt.env_cfg with Vm.Env.seed = 424242 };
  }

(* [Dejavu.replay] spelled out, with the clock forced back on. *)
let replay_clock_on ctx (e : Workloads.Registry.entry) trace =
  let vm = Vm.create ~config:replay_config ~natives:e.natives e.program in
  let session = Dejavu.Replayer.attach vm trace in
  vm.Vm.Rt.clock_on <- true;
  let observer = Vm.Observer.attach_digest vm in
  ignore (Vm.run vm);
  check_clocked ctx vm;
  leg_of vm observer (Dejavu.Replayer.check_complete session)

let farm_ctx =
  { Server.Dispatcher.shard = 0; seq = 0; should_stop = (fun () -> ()) }

let test_clockless_dejavu_replays () =
  let warm = Server.Job.runner ~shards:1 () in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed ->
          let ctx = Fmt.str "%s/seed%d: " e.name seed in
          let _, trace = Dejavu.record ~natives:e.natives ~seed e.program in
          let expect = replay_clock_on ctx e trace in
          (* in memory *)
          let r, leftovers = Dejavu.replay ~natives:e.natives e.program trace in
          check_leg (ctx ^ "replay: ") ~expect (leg_of_run r leftovers);
          check_clockless (ctx ^ "replay: ") r.Dejavu.vm;
          let path = Filename.temp_file "dvclock" ".trace" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Dejavu.Trace.save path trace;
              (* streamed from the file *)
              let r, leftovers =
                Dejavu.replay_from ~natives:e.natives ~path e.program
              in
              check_leg (ctx ^ "replay_from: ") ~expect (leg_of_run r leftovers);
              check_clockless (ctx ^ "replay_from: ") r.Dejavu.vm;
              (* the farm's replay job, cold and on a warm pool slot (the
                 second warm replay is a baseline reset) *)
              let spec = Server.Job.Replay { workload = e.name; trace = path } in
              let check_job what (o : Server.Job.output) =
                Alcotest.(check string)
                  (ctx ^ what ^ " status") expect.l_status o.Server.Job.o_status;
                Alcotest.(check string)
                  (ctx ^ what ^ " state digest")
                  (Fmt.str "%016x" (expect.l_state land max_int))
                  o.Server.Job.o_digest;
                Alcotest.(check int)
                  (ctx ^ what ^ " leftovers")
                  (List.length expect.l_leftovers)
                  o.Server.Job.o_words
              in
              check_job "cold job" (Server.Job.run farm_ctx spec);
              check_job "warm job" (warm.Server.Job.run farm_ctx spec);
              check_job "reset job" (warm.Server.Job.run farm_ctx spec)))
        [ 1; 3 ])
    (Lazy.force Workloads.Registry.all)

(* The baselines' replays attach through the same [Replayer.attach_io]. *)
let baseline_legs ctx (e : Workloads.Registry.entry) ~seed ~record ~replay =
  let cfg s =
    {
      Vm.Rt.default_config with
      Vm.Rt.env_cfg = { Vm.Rt.default_config.Vm.Rt.env_cfg with Vm.Env.seed = s };
    }
  in
  let vm = Vm.create ~config:(cfg seed) ~natives:e.natives e.program in
  let recorded = record vm in
  ignore (Vm.run vm);
  let trace = recorded () in
  let replay_leg ~clock =
    let vm = Vm.create ~config:(cfg (seed + 77777)) ~natives:e.natives e.program in
    replay vm trace;
    if clock then vm.Vm.Rt.clock_on <- true;
    let observer = Vm.Observer.attach_digest vm in
    ignore (Vm.run vm);
    (vm, leg_of vm observer [])
  in
  let vm_on, expect = replay_leg ~clock:true in
  check_clocked ctx vm_on;
  let vm, got = replay_leg ~clock:false in
  check_leg ctx ~expect got;
  check_clockless ctx vm

let test_clockless_baseline_replays () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let digest = Bytecode.Decl.digest e.program in
      List.iter
        (fun seed ->
          let ctx what = Fmt.str "%s/seed%d %s: " e.name seed what in
          baseline_legs (ctx "icount") e ~seed
            ~record:(fun vm ->
              let b = Baselines.Icount.attach_record vm in
              fun () ->
                (Dejavu.Session.to_trace b.session digest, Baselines.Icount.deltas_array b))
            ~replay:(fun vm (trace, deltas) ->
              ignore (Baselines.Icount.attach_replay vm trace deltas));
          baseline_legs (ctx "switch-map") e ~seed
            ~record:(fun vm ->
              let b = Baselines.Switch_map.attach_record vm in
              fun () ->
                ( Dejavu.Session.to_trace b.session digest,
                  Baselines.Switch_map.entries_array b ))
            ~replay:(fun vm (trace, entries) ->
              ignore (Baselines.Switch_map.attach_replay vm trace entries)))
        [ 1; 3 ])
    (Lazy.force Workloads.Registry.all)

let () =
  Alcotest.run "dejavu"
    [
      ( "accuracy",
        [
          quick "all workloads roundtrip" test_all_workloads_roundtrip;
          quick "roundtrip under GC pressure" test_roundtrip_under_gc_pressure;
          quick "deadlock replays" test_deadlock_replays;
        ] );
      ( "precision",
        [
          quick "record matches live" test_record_matches_live;
          quick "replay is deterministic" test_replay_twice_identical;
          quick "seeds do diverge" test_different_seeds_diverge;
        ] );
      ( "trace",
        [
          quick "compute workload: switches only" test_trace_contents_switches_only;
          quick "inputs and natives recorded" test_trace_records_inputs_and_natives;
          quick "switch deltas vs yield points" test_switch_deltas_match_yieldpoints;
          quick "file roundtrip" test_trace_file_roundtrip;
        ] );
      ( "divergence",
        [
          quick "wrong program rejected" test_wrong_program_rejected;
          quick "tampered clock detected" test_tampered_clock_detected;
          quick "truncated switches detected" test_truncated_switch_tape;
        ] );
      ( "symmetry",
        [
          quick "state digests symmetric" test_symmetric_state_digests;
          quick "asymmetry is visible" test_asymmetry_is_visible;
          quick "ring pinned across GC" test_ring_is_pinned;
        ] );
      ( "clockless replay",
        [
          quick "replay, replay_from and farm jobs" test_clockless_dejavu_replays;
          quick "icount and switch-map baselines" test_clockless_baseline_replays;
        ] );
    ]
