(* The experiment harness: regenerates every figure-level result of the
   paper (E1–E4) and the quantitative claims it makes in prose and in the
   related-work comparison (E5–E9). See DESIGN.md section 4 for the index
   and EXPERIMENTS.md for paper-claim vs measured.

   Run:  dune exec bench/main.exe            (all experiments)
         dune exec bench/main.exe -- E7 E9   (a subset)
         dune exec bench/main.exe -- micro   (bechamel microbenchmarks) *)

let section id title =
  Fmt.pr "@.=== %s: %s ===@." id title

let entry name = Option.get (Workloads.Registry.find name)

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* instructions per CPU second of a run *)
let rate instrs secs = if secs <= 0. then 0. else float_of_int instrs /. secs

(* ---------------------------------------------------------------- E1/E2 *)

let e1 () =
  section "E1" "Figure 1 (A)/(B): schedule-dependent outcome + exact replay";
  let e = entry "fig1ab" in
  Fmt.pr "%-6s %-10s %-28s %s@." "seed" "printed" "record=replay?" "trace";
  List.iter
    (fun seed ->
      let rt = Dejavu.verify_roundtrip ~natives:e.natives ~seed e.program in
      Fmt.pr "%-6d %-10s %-28s %d bytes@." seed
        (String.trim rt.recorded.output)
        (if Dejavu.ok rt then "yes (events+output+state)" else "NO")
        (Dejavu.Trace.sizes rt.trace).total_bytes)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  let outs =
    List.map
      (fun seed ->
        let vm, _ = Vm.execute ~seed e.program in
        Vm.output vm)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Fmt.pr "distinct outcomes across seeds: %d (paper: printed value depends on the thread switch)@."
    (List.length (List.sort_uniq compare outs))

let e2 () =
  section "E2" "Figure 1 (C)/(D): wall-clock-dependent branch + wait/notify";
  let e = entry "fig1cd" in
  Fmt.pr "%-6s %-16s %-12s %s@." "seed" "printed" "clock-reads" "replay ok?";
  List.iter
    (fun seed ->
      let rt = Dejavu.verify_roundtrip ~natives:e.natives ~seed e.program in
      Fmt.pr "%-6d %-16s %-12d %s@." seed
        (String.concat "," (String.split_on_char '\n' (String.trim rt.recorded.output)))
        (Dejavu.Trace.sizes rt.trace).n_clock_reads
        (if Dejavu.ok rt then "yes" else "NO"))
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------- E3 *)

let e3 () =
  section "E3" "Figure 2: symmetric instrumentation (record vs replay)";
  (* "timed" exercises every event kind: preemptions, scheduler clock
     reads, idle advances — so the symmetric ring buffer sees writes *)
  let e = entry "timed" in
  let rec_run, trace = Dejavu.record ~natives:e.natives ~seed:2 e.program in
  let rep_run, leftovers = Dejavu.replay ~natives:e.natives e.program trace in
  let s_rec = Option.get rec_run.Dejavu.session in
  let s_rep = Option.get rep_run.Dejavu.session in
  Fmt.pr "%-34s %-12s %-12s@." "" "record" "replay";
  Fmt.pr "%-34s %-12d %-12d@." "yield points seen by Figure-2 hook"
    s_rec.yieldpoints_seen s_rep.yieldpoints_seen;
  Fmt.pr "%-34s %-12d %-12d@." "thread switches performed"
    s_rec.switches_done s_rep.switches_done;
  Fmt.pr "%-34s %-12d %-12d@." "ring-buffer writes (symmetric alloc)"
    (Dejavu.Ring.writes s_rec.ring)
    (Dejavu.Ring.writes s_rep.ring);
  Fmt.pr "%-34s %-12d %-12d@." "state digest (incl. DejaVu heap)"
    (rec_run.Dejavu.state_digest land 0xffffff)
    (rep_run.Dejavu.state_digest land 0xffffff);
  Fmt.pr "trace fully consumed at replay end: %s@."
    (if leftovers = [] then "yes" else String.concat "; " leftovers)

(* ------------------------------------------------------------------- E4 *)

let e4 () =
  section "E4" "Figures 3/4: remote reflection is perturbation-free";
  let e = entry "gc-churn" in
  let rec_run, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  ignore rec_run;
  (* replay and pause midway; inspect heavily through both interfaces *)
  let d = Debugger.Session.start ~natives:e.natives e.program trace in
  ignore (Debugger.Session.step d 5000);
  let before = Debugger.Session.state_digest d in
  let sp = Debugger.Session.space d in
  let module RR = (val Remote_reflection.Remote_object.reflection sp) in
  let module RL = (val Remote_reflection.Local_object.reflection d.vm) in
  let queries = [ ("Churn", "total"); ("Churn", "survivor"); ("Churn", "lock") ] in
  let agree =
    List.for_all
      (fun (c, f) ->
        RR.render_value ~depth:3 (RR.get_static c f)
        = RL.render_value ~depth:3 (RL.get_static c f))
      queries
  in
  List.iter
    (fun (c, f) ->
      Fmt.pr "  %s.%s = %s@." c f (RR.render_value ~depth:2 (RR.get_static c f)))
    queries;
  let frames = Remote_reflection.Remote_frames.frames sp 1 in
  Fmt.pr "  remote stack of thread 1: %s@."
    (String.concat " <- "
       (List.map
          (fun (f : Remote_reflection.Remote_frames.frame) -> f.rf_meth.rm_name)
          frames));
  Fmt.pr "remote == in-process reflection on all queries: %b@." agree;
  Fmt.pr "remote word reads performed: %d@." sp.reads;
  Fmt.pr "application-VM digest unchanged by inspection: %b@."
    (before = Debugger.Session.state_digest d);
  (* and the replay still completes identically *)
  ignore (Debugger.Session.continue_ d);
  Fmt.pr "resumed replay matches recording: %b@."
    (Debugger.Session.output d = rec_run.Dejavu.output
    && Debugger.Session.state_digest d = rec_run.Dejavu.state_digest)

(* ------------------------------------------------------------------- E5 *)

let e5 () =
  section "E5" "Replay accuracy across the workload suite";
  Fmt.pr "%-24s %-6s %-10s %-8s %-8s %-8s %-10s@." "workload" "seed" "events"
    "output" "state" "trace" "status";
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed ->
          let rt = Dejavu.verify_roundtrip ~natives:e.natives ~seed e.program in
          Fmt.pr "%-24s %-6d %-10s %-8s %-8s %-8s %-10s@." e.name seed
            (if rt.events_equal then Fmt.str "=%d" rt.recorded.obs_count else "DIFFER")
            (if rt.outputs_equal then "equal" else "DIFFER")
            (if rt.states_equal then "equal" else "DIFFER")
            (if rt.replay_complete then "drained" else "LEFT")
            (Vm.string_of_status rt.recorded.status))
        [ 1; 2 ])
    (Lazy.force Workloads.Registry.all)

(* ------------------------------------------------------------------- E6 *)

let overhead_workloads =
  [ ("primes", entry "primes"); ("parsum", entry "parsum");
    ("racy-counter", entry "racy-counter"); ("gc-churn", entry "gc-churn");
    ("producer-consumer", entry "producer-consumer") ]

(* Measure one workload's live / record / replay rates. Record and replay
   run WITHOUT the event-sequence digest observer: it is a verification
   artifact (a hash fold per region segment or stack-tier instruction)
   rather than part of the replay instrumentation, so including it would
   overstate the overhead the paper talks about. [reps] runs are taken and the fastest kept. *)
let measure_modes ?(reps = 9) ~natives ~program () =
  (* one untimed run first: a program's first execution in this process
     pays page faults, allocator growth, and cold branch history — up to
     2x on sub-millisecond workloads, a trend best-of alone can't dodge.
     Best-of-9 after that: on this 1-CPU box single runs of the same
     build swing several percent, and 5 samples were not enough for the
     best-of to converge *)
  ignore (Vm.execute ~natives ~seed:1 program);
  let best f =
    let r = ref infinity in
    let instrs = ref 0 in
    for _ = 1 to reps do
      let (n : int), t = time f in
      instrs := n;
      if t < !r then r := t
    done;
    (!instrs, !r)
  in
  let live =
    best (fun () ->
        let vm, _ = Vm.execute ~natives ~seed:1 program in
        (Vm.stats vm).n_instr)
  in
  let record =
    best (fun () ->
        let run, _ =
          Dejavu.record ~natives ~seed:1 ~observe:false program
        in
        (Vm.stats run.Dejavu.vm).n_instr)
  in
  let _, trace = Dejavu.record ~natives ~seed:1 ~observe:false program in
  let replay =
    best (fun () ->
        let run, _ =
          Dejavu.replay ~natives ~observe:false program trace
        in
        (Vm.stats run.Dejavu.vm).n_instr)
  in
  (live, record, replay, Dejavu.Trace.sizes trace)

let e6 () =
  section "E6" "Record/replay overhead vs uninstrumented execution";
  Fmt.pr "%-20s %-12s %-12s %-12s %-10s %-10s@." "workload" "live Mi/s"
    "record Mi/s" "replay Mi/s" "rec ovhd" "rep ovhd";
  List.iter
    (fun (name, (e : Workloads.Registry.entry)) ->
      let (live_instrs, live_t), (rec_instrs, rec_t), (rep_instrs, rep_t), _ =
        measure_modes ~natives:e.natives ~program:e.program ()
      in
      let mips n t = rate n t /. 1e6 in
      Fmt.pr "%-20s %-12.2f %-12.2f %-12.2f %-10.3f %-10.3f@." name
        (mips live_instrs live_t) (mips rec_instrs rec_t)
        (mips rep_instrs rep_t)
        (rec_t /. live_t) (rep_t /. live_t))
    overhead_workloads;
  Fmt.pr "(verification observer excluded; timings include VM setup)@."

(* ------------------------------------------------------------------- E7 *)

let e7 () =
  section "E7" "Trace size: DejaVu vs the section-5 comparators (words)";
  Fmt.pr "%-20s %-10s %-12s %-12s %-12s %-10s@." "workload" "dejavu"
    "switch-map" "read-log" "crew" "dv bytes";
  List.iter
    (fun (name, (e : Workloads.Registry.entry)) ->
      let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
      let dv = Dejavu.Trace.sizes trace in
      let sm =
        let vm = Vm.create ~natives:e.natives e.program in
        let b = Baselines.Switch_map.attach_record vm in
        ignore (Vm.run vm);
        (Baselines.Switch_map.sizes b).trace_words
      in
      let crew =
        (Baselines.Runner.record_crew ~natives:e.natives ~seed:1 e.program)
          .trace_words
      in
      let rl =
        (Baselines.Runner.record_read_log ~natives:e.natives ~seed:1 e.program)
          .trace_words
      in
      Fmt.pr "%-20s %-10d %-12d %-12d %-12d %-10d@." name dv.total_words sm rl
        crew dv.total_bytes)
    overhead_workloads;
  Fmt.pr "(expected shape: dejavu < switch-map << read-log <= crew)@."

(* ------------------------------------------------------------------- E8 *)

let e8 () =
  section "E8" "Instruction counting vs yield-point counting (section 2.3)";
  (* The substrate-independent measure is how many counter updates each
     identification scheme performs: yield points touch a few percent of
     instructions, instruction counting touches all of them. (Wall-clock
     times are also shown, but our interpreted substrate pays tens of ns
     per instruction anyway, which compresses the gap that is prohibitive
     for compiled code.) *)
  Fmt.pr "%-16s %-12s %-14s %-8s %-10s %-10s %-10s@." "workload"
    "yp updates" "icount updates" "ratio" "dejavu s" "icount s" "replay ok";
  List.iter
    (fun (name, (e : Workloads.Registry.entry)) ->
      let best f =
        let r = ref infinity in
        let v = ref None in
        for _ = 1 to 3 do
          let x, t = time f in
          v := Some x;
          if t < !r then r := t
        done;
        (Option.get !v, !r)
      in
      let dv_stats, dv_t =
        best (fun () ->
            let run, _ = Dejavu.record ~natives:e.natives ~seed:1 e.program in
            Vm.stats run.Dejavu.vm)
      in
      let ic_stats, ic_t =
        best (fun () ->
            let vm = Vm.create ~natives:e.natives e.program in
            ignore (Baselines.Icount.attach_record vm);
            ignore (Vm.run vm);
            Vm.stats vm)
      in
      let rt =
        Baselines.Runner.roundtrip_icount ~natives:e.natives ~seed:1 e.program
      in
      Fmt.pr "%-16s %-12d %-14d %-8.1f %-10.4f %-10.4f %-10b@." name
        dv_stats.n_yield ic_stats.n_instr
        (float_of_int ic_stats.n_instr /. float_of_int (max 1 dv_stats.n_yield))
        dv_t ic_t
        (Baselines.Runner.ok rt))
    [ ("primes", entry "primes"); ("parsum", entry "parsum");
      ("racy-counter", entry "racy-counter") ]

(* ------------------------------------------------------------------- E9 *)

let e9 () =
  section "E9" "Ablations: scheduling quantum and thread-count scaling";
  Fmt.pr "-- quantum sweep (racy-counter, seed 1) --@.";
  Fmt.pr "%-10s %-12s %-12s %-12s %-10s@." "quantum" "switches" "trace bytes"
    "outcome" "replay ok";
  List.iter
    (fun quantum ->
      let config =
        {
          Vm.Rt.default_config with
          env_cfg = { Vm.Env.default_config with quantum; quantum_jitter = quantum / 8 };
        }
      in
      let e = entry "racy-counter" in
      let rt = Dejavu.verify_roundtrip ~config ~natives:e.natives ~seed:1 e.program in
      Fmt.pr "%-10d %-12d %-12d %-12s %-10b@." quantum
        (Dejavu.Trace.sizes rt.trace).n_switches
        (Dejavu.Trace.sizes rt.trace).total_bytes
        (String.trim rt.recorded.output)
        (Dejavu.ok rt))
    [ 1000; 2000; 4000; 8000; 16000 ];
  Fmt.pr "-- thread scaling (counter with t threads, 1200/t increments) --@.";
  Fmt.pr "%-10s %-12s %-12s %-12s %-10s@." "threads" "switches" "trace bytes"
    "outcome" "replay ok";
  List.iter
    (fun threads ->
      let p = Workloads.Counters.racy ~threads ~increments:(1200 / threads) () in
      let rt = Dejavu.verify_roundtrip ~seed:1 p in
      Fmt.pr "%-10d %-12d %-12d %-12s %-10b@." threads
        (Dejavu.Trace.sizes rt.trace).n_switches
        (Dejavu.Trace.sizes rt.trace).total_bytes
        (String.trim rt.recorded.output)
        (Dejavu.ok rt))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ E10 *)

let e10 () =
  section "E10" "Checkpoint-accelerated time travel (extension; paper sec. 5)";
  let e = entry "racy-counter" in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let open_session interval =
    Debugger.Session.start ~natives:e.natives ~checkpoint_interval:interval
      e.program trace
  in
  let with_ck = open_session 20_000 in
  let without_ck = open_session 0 in
  ignore (Debugger.Session.step with_ck 250_000);
  ignore (Debugger.Session.step without_ck 250_000);
  Fmt.pr "%-12s %-16s %-16s %-10s@." "goto step" "checkpointed s"
    "from-scratch s" "same state";
  List.iter
    (fun target ->
      let (), t_ck = time (fun () -> ignore (Debugger.Session.goto_step with_ck target)) in
      let (), t_raw =
        time (fun () -> ignore (Debugger.Session.goto_step without_ck target))
      in
      Fmt.pr "%-12d %-16.4f %-16.4f %-10b@." target t_ck t_raw
        (Debugger.Session.state_digest with_ck
        = Debugger.Session.state_digest without_ck))
    [ 240_000; 150_000; 60_000; 239_000; 5_000 ];
  Fmt.pr "checkpoints kept: %d; restores used: %d@."
    (List.length with_ck.checkpoints)
    with_ck.restores

(* ------------------------------------------------------------------ E11 *)

let e11 () =
  section "E11" "Symmetry ablation (negative control for section 2.4)";
  (* replay with one extra replay-side allocation before attaching: the
     event sequence and output still reproduce (the GC is transparent), but
     the machine states are no longer bit-identical — the property the
     paper's symmetric instrumentation exists to protect *)
  let e = entry "gc-churn" in
  let config = { Vm.Rt.default_config with heap_words = 6000 } in
  let rec_run, trace =
    Dejavu.record ~config ~natives:e.natives ~seed:3 e.program
  in
  let replay_with_extra_alloc n =
    let vm = Vm.create ~config ~natives:e.natives e.program in
    (* pinned = live, like a class loaded by one mode only *)
    if n > 0 then
      ignore (Vm.Heap.pin vm (Vm.Heap.alloc_array vm ~elem_ref:false ~len:n));
    ignore (Dejavu.Replayer.attach vm trace);
    let observer = Vm.Observer.attach_digest vm in
    ignore (Vm.run vm);
    (Vm.output vm, Vm.Observer.digest observer, Vm.digest vm)
  in
  Fmt.pr "%-26s %-10s %-10s %-12s@." "replay variant" "output" "events"
    "state";
  List.iter
    (fun (label, extra) ->
      let out, obs, st = replay_with_extra_alloc extra in
      Fmt.pr "%-26s %-10s %-10s %-12s@." label
        (if out = rec_run.Dejavu.output then "equal" else "DIFFER")
        (if obs = rec_run.Dejavu.obs_digest then "equal" else "DIFFER")
        (if st = rec_run.Dejavu.state_digest then "equal" else "DIFFER"))
    [ ("symmetric (DejaVu)", 0); ("asymmetric (+32w alloc)", 32);
      ("asymmetric (+1w alloc)", 1) ]

(* ------------------------------------------------- bechamel micro bench *)

let micro () =
  section "MICRO" "bechamel microbenchmarks (ns per whole-program run)";
  let open Bechamel in
  let open Toolkit in
  let e = entry "fig1cd" in
  let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
  let mk name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"dejavu"
      [
        mk "live-run" (fun () -> ignore (Vm.execute ~natives:e.natives ~seed:1 e.program));
        mk "record-run" (fun () -> ignore (Dejavu.record ~natives:e.natives ~seed:1 e.program));
        mk "replay-run" (fun () -> ignore (Dejavu.replay ~natives:e.natives e.program trace));
        mk "crew-record" (fun () ->
            let vm = Vm.create ~natives:e.natives e.program in
            ignore (Baselines.Crew.attach vm);
            ignore (Vm.run vm));
        mk "icount-record" (fun () ->
            let vm = Vm.create ~natives:e.natives e.program in
            ignore (Baselines.Icount.attach_record vm);
            ignore (Vm.run vm));
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Fmt.pr "%-24s %12.0f ns/run@." name est
          | _ -> Fmt.pr "%-24s (no estimate)@." name)
        tbl)
    results

(* ------------------------------------------------------------------ E12 *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* Replay-farm throughput: record the whole registry under increasing shard
   counts and compare wall clock. The aggregate digest must not change with
   the shard count OR with warm reuse — sharding and VM recycling alter
   scheduling, never results. *)
let batch_under ?(warm = false) ?(rounds = 1) shards =
  let out_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "dv-bench-batch-%d-%d-%b" (Unix.getpid ()) shards warm)
  in
  let rep = Server.Batch.run_registry ~shards ~warm ~rounds ~out_dir () in
  rm_rf out_dir;
  rep

(* Steady-state warm throughput: one untimed warm-up round boots every
   pool VM, then [rounds] timed rounds run entirely on baseline resets.
   Quantiles are exact (sorted per-job latencies), not histogram bounds. *)
let warm_sustained ~shards ~rounds =
  Server.Job.preload ();
  let out_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "dv-bench-sus-%d-%d" (Unix.getpid ()) shards)
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let stats = Server.Stats.create () in
  let runner = Server.Job.runner ~stats ~shards () in
  let d =
    Server.Dispatcher.create ~shards ~place:runner.Server.Job.place ~stats
      ~run:runner.Server.Job.run ()
  in
  let names = Workloads.Registry.names () in
  let submit_round r =
    List.iter
      (fun n ->
        ignore
          (Server.Dispatcher.submit d
             (Server.Job.Record
                {
                  workload = n;
                  seed = 1;
                  out = Filename.concat out_dir (Fmt.str "%s-%d.trace" n r);
                })))
      names
  in
  submit_round 0;
  for _ = 1 to List.length names do
    ignore (Server.Dispatcher.next d)
  done;
  let t0 = Unix.gettimeofday () in
  let lats = ref [] in
  for r = 1 to rounds do
    submit_round r
  done;
  for _ = 1 to rounds * List.length names do
    match Server.Dispatcher.next d with
    | Some r -> lats := r.Server.Dispatcher.r_latency :: !lats
    | None -> ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  ignore (Server.Dispatcher.drain d);
  rm_rf out_dir;
  let sorted = Array.of_list (List.sort compare !lats) in
  let q p =
    if Array.length sorted = 0 then 0.
    else
      sorted.(min
                (Array.length sorted - 1)
                (int_of_float (p *. float_of_int (Array.length sorted))))
  in
  let jobs = rounds * List.length names in
  ( (if wall > 0. then float_of_int jobs /. wall else 0.),
    q 0.50 *. 1e3,
    q 0.99 *. 1e3,
    wall,
    runner.Server.Job.warm_stats () )

let e12 () =
  section "E12"
    "Replay farm: batch record throughput vs shard count, cold vs warm";
  let base = batch_under ~warm:false 1 in
  Fmt.pr "%-8s %12s %12s %12s %10s %10s@." "shards" "cold jobs/s"
    "warm jobs/s" "sustained" "p50 ms" "p99 ms";
  let sus1 = ref 0. and sus4 = ref 0. in
  List.iter
    (fun shards ->
      let cold = if shards = 1 then base else batch_under ~warm:false shards in
      let w = batch_under ~warm:true shards in
      let sus_jps, p50, p99, _, _ = warm_sustained ~shards ~rounds:3 in
      if shards = 1 then sus1 := sus_jps;
      if shards = 4 then sus4 := sus_jps;
      Fmt.pr "%-8d %12.1f %12.1f %12.1f %10.1f %10.1f%s@." shards
        cold.Server.Batch.jobs_per_s w.Server.Batch.jobs_per_s sus_jps p50 p99
        (if
           w.Server.Batch.aggregate = base.Server.Batch.aggregate
           && cold.Server.Batch.aggregate = base.Server.Batch.aggregate
         then "  (digest = sequential)"
         else "  AGGREGATE MISMATCH"))
    [ 1; 2; 4 ];
  Fmt.pr "warm sustained speedup 4v1: %.2f@."
    (if !sus1 > 0. then !sus4 /. !sus1 else 0.)

(* Sustained-load serving: an open-loop multi-client driver against a live
   [dvrun serve] farm. Each client domain paces its submissions at a fixed
   arrival rate — independent of completions, so queueing delay shows up in
   the latency tail instead of throttling the offered load — and the
   reported p50/p99 are exact quantiles over server-side job latencies. *)
let serve_load ~shards ~clients ~per_client ~rate_hz =
  Server.Job.preload ();
  let tmp = Filename.get_temp_dir_name () in
  let sock = Filename.concat tmp (Fmt.str "dv-bench-%d.sock" (Unix.getpid ())) in
  let out_dir = Filename.concat tmp (Fmt.str "dv-bench-serve-%d" (Unix.getpid ())) in
  let srv = Server.Serve.create ~shards ~socket_path:sock ~out_dir () in
  let server = Domain.spawn (fun () -> Server.Serve.serve ~max_conns:clients srv) in
  let names = Array.of_list (Workloads.Registry.names ()) in
  let gap = 1. /. rate_hz in
  let t0 = Unix.gettimeofday () in
  let client i =
    Domain.spawn (fun () ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            for k = 0 to per_client - 1 do
              Server.Protocol.write_request oc
                (Server.Protocol.Submit
                   {
                     q_op = Server.Protocol.Op_record;
                     q_workload = names.(((i * 7) + k) mod Array.length names);
                     q_seed = 1;
                     q_trace = "";
                     q_deadline_ms = 0;
                     q_max_retries = 0;
                   });
              flush oc;
              Unix.sleepf gap
            done;
            Server.Protocol.write_request oc Server.Protocol.Finish;
            let rec collect acc =
              match Server.Protocol.read_reply ic with
              | None -> List.rev acc
              | Some r -> collect (r :: acc)
            in
            collect []))
  in
  let doms = List.init clients client in
  let replies = List.concat_map Domain.join doms in
  let wall = Unix.gettimeofday () -. t0 in
  Server.Serve.shutdown srv;
  Domain.join server;
  rm_rf out_dir;
  let lats =
    List.map (fun (r : Server.Protocol.reply) -> r.p_latency_us) replies
  in
  let sorted = Array.of_list (List.sort compare lats) in
  let q p =
    if Array.length sorted = 0 then 0.
    else
      float_of_int
        sorted.(min
                  (Array.length sorted - 1)
                  (int_of_float (p *. float_of_int (Array.length sorted))))
      /. 1e3
  in
  let done_ =
    List.length
      (List.filter (fun (r : Server.Protocol.reply) -> r.p_outcome = 0) replies)
  in
  ( (if wall > 0. then float_of_int (List.length replies) /. wall else 0.),
    q 0.50,
    q 0.99,
    done_,
    List.length replies )

let e13 () =
  section "E13" "Sustained-load serving: open-loop multi-client driver";
  let jps, p50, p99, done_, total =
    serve_load ~shards:4 ~clients:3 ~per_client:21 ~rate_hz:400.
  in
  Fmt.pr
    "3 clients x 21 record jobs at 400 Hz offered, 4 shards:@\n\
     %d/%d done, %.1f jobs/s, p50 %.1f ms, p99 %.1f ms@."
    done_ total jps p50 p99

(* CI gate: the 2-shard warm aggregate must equal the 1-shard one (and
   every job must succeed) — the cheap end-to-end proof that sharding plus
   warm reuse never changes results. *)
let farm_smoke () =
  section "farm-smoke" "2-shard vs 1-shard aggregate digest (warm, 2 rounds)";
  let b1 = batch_under ~warm:true ~rounds:2 1 in
  let b2 = batch_under ~warm:true ~rounds:2 2 in
  let ok =
    b1.Server.Batch.ok && b2.Server.Batch.ok
    && b1.Server.Batch.aggregate = b2.Server.Batch.aggregate
  in
  Fmt.pr "1 shard : %s (%s)@\n2 shards: %s (%s)@\n%s@." b1.Server.Batch.aggregate
    (if b1.Server.Batch.ok then "all done" else "FAILURES")
    b2.Server.Batch.aggregate
    (if b2.Server.Batch.ok then "all done" else "FAILURES")
    (if ok then "farm-smoke PASS" else "farm-smoke FAIL");
  if not ok then exit 1

(* Replay runs without the per-instruction virtual clock: the default
   replay of [trace] must draw nothing ([env.ticks = 0], no timer fire) and
   still equal a replay with the clock forced back on right after attach —
   status, output, state and event digests, instruction and switch counts,
   leftovers. *)
let clockless_parity (e : Workloads.Registry.entry) trace =
  let r, leftovers = Dejavu.replay ~natives:e.natives e.program trace in
  let config =
    {
      Vm.Rt.default_config with
      Vm.Rt.env_cfg =
        { Vm.Rt.default_config.Vm.Rt.env_cfg with Vm.Env.seed = 424242 };
    }
  in
  let vm = Vm.create ~config ~natives:e.natives e.program in
  let session = Dejavu.Replayer.attach vm trace in
  vm.Vm.Rt.clock_on <- true;
  let observer = Vm.Observer.attach_digest vm in
  ignore (Vm.run vm);
  let env = r.Dejavu.vm.Vm.Rt.env and st = Vm.stats r.Dejavu.vm in
  env.Vm.Env.ticks = 0
  && env.Vm.Env.timer_fires = 0
  && vm.Vm.Rt.env.Vm.Env.ticks = (Vm.stats vm).n_instr
  && r.Dejavu.status = Vm.status vm
  && String.equal r.Dejavu.output (Vm.output vm)
  && r.Dejavu.state_digest = Vm.digest vm
  && r.Dejavu.obs_digest = Vm.Observer.digest observer
  && r.Dejavu.obs_count = Vm.Observer.count observer
  && st.n_instr = (Vm.stats vm).n_instr
  && st.n_switch = (Vm.stats vm).n_switch
  && leftovers = Dejavu.Replayer.check_complete session

(* CI gate: the register tier must be invisible — byte-identical traces,
   identical state digests, and identical event sequences vs the stack
   tier, across the whole registry — and it must pay for itself: any
   workload long enough to time reliably (>= 200k instructions) must run
   at >= 0.95x of the stack tier's live throughput. The recordings carry
   the event digest, which the register tier folds once per region
   segment and the stack tier once per instruction, so the event-digest
   comparison also gates region-fold parity. The monitor-heavy
   workloads additionally cross-replay: a trace recorded under one tier
   must replay to the same digests under the other. Every workload's
   trace must also pass [clockless_parity]. *)
let regir_smoke () =
  section "regir-smoke"
    "register vs stack tier: trace/digest identity + speedup floor; \
     clockless replay parity";
  let noregir = { Vm.Rt.default_config with Vm.Rt.regir = false } in
  let failures = ref 0 in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let r_on, t_on = Dejavu.record ~natives:e.natives ~seed:1 e.program in
      let r_off, t_off =
        Dejavu.record ~config:noregir ~natives:e.natives ~seed:1 e.program
      in
      let traces_eq =
        String.equal (Dejavu.Trace.to_bytes t_on) (Dejavu.Trace.to_bytes t_off)
      in
      let clockless = clockless_parity e t_on in
      let ok =
        traces_eq
        && r_on.Dejavu.state_digest = r_off.Dejavu.state_digest
        && r_on.Dejavu.obs_digest = r_off.Dejavu.obs_digest
        && r_on.Dejavu.obs_count = r_off.Dejavu.obs_count
        && clockless
      in
      (* live on/off speedup, best of 3 interleaved reps so slow phases
         of the bench process hit both tiers alike *)
      let one ?config () =
        time (fun () ->
            let vm, _ =
              Vm.execute ?config ~natives:e.natives ~seed:1 e.program
            in
            (Vm.stats vm).n_instr)
      in
      let best_on = ref infinity and best_off = ref infinity and n = ref 0 in
      for _ = 1 to 3 do
        let (i : int), on_t = one () in
        let _, off_t = one ~config:noregir () in
        n := i;
        if on_t < !best_on then best_on := on_t;
        if off_t < !best_off then best_off := off_t
      done;
      let speedup = if !best_on > 0. then !best_off /. !best_on else 1. in
      let timed = !n >= 200_000 in
      let slow = timed && speedup < 0.95 in
      if not ok || slow then incr failures;
      Fmt.pr "%-24s %s  %s@." e.name
        (if ok then "identical, clockless replay equal"
         else
           Fmt.str "DIFFER (trace %b, state %b, events %b, %d vs %d, clockless %b)"
             traces_eq
             (r_on.Dejavu.state_digest = r_off.Dejavu.state_digest)
             (r_on.Dejavu.obs_digest = r_off.Dejavu.obs_digest)
             r_on.Dejavu.obs_count r_off.Dejavu.obs_count clockless)
        (if not timed then Fmt.str "%.2fx (untimed, %d instrs)" speedup !n
         else if slow then Fmt.str "%.2fx SLOW (< 0.95x floor)" speedup
         else Fmt.str "%.2fx" speedup))
    (Lazy.force Workloads.Registry.all);
  (* cross-tier replay on the monitor-heavy workloads: monitor-spanning
     regions must not leak into the trace in either direction *)
  List.iter
    (fun name ->
      match Workloads.Registry.find name with
      | None -> ()
      | Some e ->
        let check ~rec_cfg ~rep_cfg label =
          let r, trace =
            Dejavu.record ~config:rec_cfg ~natives:e.natives ~seed:1 e.program
          in
          let rp, leftovers =
            Dejavu.replay ~config:rep_cfg ~natives:e.natives e.program trace
          in
          let ok =
            leftovers = []
            && r.Dejavu.state_digest = rp.Dejavu.state_digest
            && r.Dejavu.obs_digest = rp.Dejavu.obs_digest
            && r.Dejavu.obs_count = rp.Dejavu.obs_count
          in
          if not ok then incr failures;
          Fmt.pr "cross-replay %-18s %-14s %s@." e.name label
            (if ok then "ok"
             else
               Fmt.str "FAIL (drained %b, state %b, events %b)"
                 (leftovers = [])
                 (r.Dejavu.state_digest = rp.Dejavu.state_digest)
                 (r.Dejavu.obs_digest = rp.Dejavu.obs_digest))
        in
        check ~rec_cfg:Vm.Rt.default_config ~rep_cfg:noregir "regir->stack";
        check ~rec_cfg:noregir ~rep_cfg:Vm.Rt.default_config "stack->regir")
    [ "producer-consumer"; "lock-cycle" ];
  Fmt.pr "%s@."
    (if !failures = 0 then "regir-smoke PASS" else "regir-smoke FAIL");
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ E14 *)

(* Systematic schedule exploration (lib/explore): DFS throughput, the
   DPOR pruning ratio against the unpruned bounded search, and time to
   the first fault. Wall-clock, not CPU time — a search is a sequence of
   whole-VM runs and the headline number a user waits on. *)
let wall_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let explore_measure (e : Workloads.Registry.entry) =
  (* the oracle is memoized per workload; build it outside the timers *)
  ignore (Explore.Oracle.for_entry e);
  let on, t_on =
    wall_time (fun () -> Explore.Driver.run ~pb:2 ~db:1 ~dpor:true e)
  in
  let off, t_off =
    wall_time (fun () -> Explore.Driver.run ~pb:2 ~db:1 ~dpor:false e)
  in
  let _, t_first =
    wall_time (fun () ->
        Explore.Driver.run ~pb:2 ~db:1 ~dpor:true ~stop_on_failure:true e)
  in
  (on, t_on, off, t_off, t_first)

let cut_ratio (on : Explore.Driver.report) (off : Explore.Driver.report) =
  1.
  -. float_of_int on.Explore.Driver.rp_explored
     /. float_of_int (max 1 off.Explore.Driver.rp_explored)

let e14 () =
  section "E14" "Systematic schedule exploration: DPOR vs unpruned DFS";
  List.iter
    (fun name ->
      let on, t_on, off, t_off, t_first = explore_measure (entry name) in
      Fmt.pr
        "%-12s dpor %4d schedules (%5d pruned) %.2fs | unpruned %4d %.2fs \
         (%.0f%% cut) | first fault #%s in %.0f ms, outcomes %d vs %d@."
        name on.Explore.Driver.rp_explored on.Explore.Driver.rp_pruned t_on
        off.Explore.Driver.rp_explored t_off
        (100. *. cut_ratio on off)
        (match on.Explore.Driver.rp_first_failure_at with
        | Some k -> string_of_int k
        | None -> "-")
        (t_first *. 1e3) on.Explore.Driver.rp_digests
        off.Explore.Driver.rp_digests)
    [ "atomicity"; "lock-cycle" ]

(* ---------------------------------------------------------------- json *)

(* Machine-readable perf trajectory: per-workload instrs/sec for live,
   record, and replay plus trace sizes, kept in BENCH_interp.json so a
   checked-in history of dispatch-loop performance accumulates PR over PR.
   The file is a JSON array of {pr, date, workloads} points; each --json
   run APPENDS a point rather than overwriting the history (a pre-history
   single-object file is wrapped as point 1 on first append). The pr number
   is inferred from the number of existing points, or forced with --pr=N.
   The registry workloads match E6 (short runs, VM setup included); the
   -XL entries are scaled up so the steady-state dispatch rate dominates
   setup noise. No JSON library in the tree — the writer is hand-rolled. *)
let json_out = "BENCH_interp.json"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The text of the existing points (everything between the outer brackets),
   or [None] for no/empty history. A legacy single-object file — the format
   before the trajectory became an array — is wrapped as point 1, dated by
   the PR-1 commit. *)
let prior_points () =
  if not (Sys.file_exists json_out) then None
  else
    let s = String.trim (read_file json_out) in
    let len = String.length s in
    if len = 0 then None
    else if s.[0] = '[' then Some (String.trim (String.sub s 1 (len - 2)))
    else
      (* "{ body }" -> "{ pr/date, body }" *)
      let body = String.sub s 1 (len - 2) in
      Some (Fmt.str "{\n  \"pr\": 1,\n  \"date\": \"2026-08-05\",%s}" body)

let count_points s =
  (* one "pr" key per point *)
  let n = ref 0 in
  let key = "\"pr\":" in
  let klen = String.length key in
  for i = 0 to String.length s - klen do
    if String.sub s i klen = key then incr n
  done;
  !n

let json_workloads () =
  let xl name program = (name, program, []) in
  List.map
    (fun (name, (e : Workloads.Registry.entry)) -> (name, e.program, e.natives))
    overhead_workloads
  @ [
      xl "primes-XL" (Workloads.Compute.primes ~n:30000 ());
      xl "parsum-XL" (Workloads.Compute.parsum ~threads:4 ~size:200000 ());
    ]

let json () =
  section "json" ("perf trajectory -> " ^ json_out);
  let prior = prior_points () in
  let pr =
    let forced =
      Array.fold_left
        (fun acc a ->
          match acc with
          | Some _ -> acc
          | None ->
            if String.length a > 5 && String.sub a 0 5 = "--pr=" then
              int_of_string_opt (String.sub a 5 (String.length a - 5))
            else None)
        None Sys.argv
    in
    match forced with
    | Some n -> n
    | None -> (match prior with None -> 1 | Some s -> count_points s + 1)
  in
  let date =
    let t = Unix.localtime (Unix.time ()) in
    Fmt.str "%04d-%02d-%02d" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
      t.Unix.tm_mday
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Fmt.str "{\n  \"pr\": %d,\n  \"date\": %S,\n" pr date);
  Buffer.add_string buf "  \"bench\": \"interp-dispatch\",\n";
  Buffer.add_string buf "  \"units\": \"instructions_per_cpu_second\",\n";
  Buffer.add_string buf "  \"observer\": \"detached\",\n  \"workloads\": {\n";
  let n_total = List.length (json_workloads ()) in
  List.iteri
    (fun i (name, program, natives) ->
      let (live_n, live_t), (rec_n, rec_t), (rep_n, rep_t), sizes =
        measure_modes ~natives ~program ()
      in
      (* static race-audit cost, from scratch (the recorder itself hits the
         memoized Dejavu.Audit cache, so recording pays this only once) *)
      let report, lint_t = time (fun () -> Analysis.run ~name program) in
      Fmt.pr
        "%-14s live %.2f record %.2f replay %.2f Mi/s lint %.1f ms (mhp %.1f \
         dl %.1f) conflicts %d@."
        name
        (rate live_n live_t /. 1e6)
        (rate rec_n rec_t /. 1e6)
        (rate rep_n rep_t /. 1e6)
        (lint_t *. 1e3) report.Analysis.Report.mhp_ms
        report.Analysis.Report.deadlock_ms
        report.Analysis.Report.n_conflict_pairs;
      Buffer.add_string buf
        (Fmt.str
           "    %S: {\n\
           \      \"n_instr\": %d,\n\
           \      \"live_ips\": %.0f,\n\
           \      \"record_ips\": %.0f,\n\
           \      \"replay_ips\": %.0f,\n\
           \      \"lint_ms\": %.2f,\n\
           \      \"mhp_ms\": %.2f,\n\
           \      \"deadlock_ms\": %.2f,\n\
           \      \"conflict_pairs\": %d,\n\
           \      \"deadlock_cycles\": %d,\n\
           \      \"trace_words\": %d,\n\
           \      \"trace_bytes\": %d\n\
           \    }%s\n"
           name live_n (rate live_n live_t) (rate rec_n rec_t)
           (rate rep_n rep_t) (lint_t *. 1e3) report.Analysis.Report.mhp_ms
           report.Analysis.Report.deadlock_ms
           report.Analysis.Report.n_conflict_pairs
           (List.length report.Analysis.Report.deadlocks)
           sizes.Dejavu.Trace.total_words sizes.Dejavu.Trace.total_bytes
           (if i = n_total - 1 then "" else ",")))
    (json_workloads ());
  Buffer.add_string buf "  },\n";
  (* replay-farm batch throughput: whole registry recorded under 1 and 4
     shards, cold (a VM per job — comparable with the PR-4/5 trajectory)
     and warm (shard pools of baseline-reset VMs). The headline
     speedup_4v1 is the warm steady-state ratio (untimed warm-up round,
     then timed rounds on resets only, exact quantiles); the cold ratio is
     kept alongside it. *)
  let batch_json ?(warm = false) shards =
    let rep = batch_under ~warm shards in
    Fmt.pr
      "batch %d shard(s)%s: %.1f jobs/s (p50 <= %.1f ms, p99 <= %.1f ms)@."
      shards
      (if warm then " warm" else "")
      rep.Server.Batch.jobs_per_s
      (rep.Server.Batch.stats.Server.Stats.v_p50 *. 1e3)
      (rep.Server.Batch.stats.Server.Stats.v_p99 *. 1e3);
    rep
  in
  let b1 = batch_json 1 in
  let b4 = batch_json 4 in
  let w1 = batch_json ~warm:true 1 in
  let w4 = batch_json ~warm:true 4 in
  let s1_jps, s1_p50, s1_p99, _, _ = warm_sustained ~shards:1 ~rounds:6 in
  let s4_jps, s4_p50, s4_p99, _, _ = warm_sustained ~shards:4 ~rounds:6 in
  Fmt.pr "warm sustained: 1 shard %.1f jobs/s, 4 shards %.1f jobs/s@." s1_jps
    s4_jps;
  let sv_jps, sv_p50, sv_p99, sv_done, sv_total =
    serve_load ~shards:4 ~clients:3 ~per_client:21 ~rate_hz:400.
  in
  Fmt.pr "serve load: %d/%d done, %.1f jobs/s@." sv_done sv_total sv_jps;
  let batch_field key (rep : Server.Batch.report) last =
    Buffer.add_string buf
      (Fmt.str
         "    %S: {\n\
         \      \"jobs\": %d,\n\
         \      \"wall_s\": %.3f,\n\
         \      \"jobs_per_s\": %.2f,\n\
         \      \"p50_ms\": %.2f,\n\
         \      \"p99_ms\": %.2f\n\
         \    }%s\n"
         key (List.length rep.Server.Batch.rows) rep.Server.Batch.wall_s
         rep.Server.Batch.jobs_per_s
         (rep.Server.Batch.stats.Server.Stats.v_p50 *. 1e3)
         (rep.Server.Batch.stats.Server.Stats.v_p99 *. 1e3)
         (if last then "" else ","))
  in
  let sustained_field key (jps, p50, p99) last =
    Buffer.add_string buf
      (Fmt.str
         "    %S: { \"jobs_per_s\": %.2f, \"p50_ms\": %.2f, \"p99_ms\": \
          %.2f }%s\n"
         key jps p50 p99
         (if last then "" else ","))
  in
  Buffer.add_string buf "  \"batch\": {\n";
  batch_field "shards_1" b1 false;
  batch_field "shards_4" b4 false;
  batch_field "warm_shards_1" w1 false;
  batch_field "warm_shards_4" w4 false;
  sustained_field "warm_sustained_1" (s1_jps, s1_p50, s1_p99) false;
  sustained_field "warm_sustained_4" (s4_jps, s4_p50, s4_p99) false;
  Buffer.add_string buf
    (Fmt.str
       "    \"speedup_4v1\": %.2f,\n\
       \    \"speedup_4v1_cold\": %.2f,\n\
       \    \"warm_vs_cold_1shard\": %.2f,\n\
       \    \"digests_equal\": %b\n"
       (if s1_jps > 0. then s4_jps /. s1_jps else 0.)
       (if b4.Server.Batch.wall_s > 0. then
          b1.Server.Batch.wall_s /. b4.Server.Batch.wall_s
        else 0.)
       (if b1.Server.Batch.jobs_per_s > 0. then
          w1.Server.Batch.jobs_per_s /. b1.Server.Batch.jobs_per_s
        else 0.)
       (b1.Server.Batch.aggregate = b4.Server.Batch.aggregate
       && b1.Server.Batch.aggregate = w1.Server.Batch.aggregate
       && b1.Server.Batch.aggregate = w4.Server.Batch.aggregate));
  Buffer.add_string buf "  },\n";
  (* register-tier differential: live throughput with the tier off (the
     on-numbers are the workloads block above) and the fraction of
     instructions the register tier executed when on *)
  let noregir = { Vm.Rt.default_config with Vm.Rt.regir = false } in
  (* on/off reps are interleaved so slow phases of the (long-running)
     bench process hit both tiers alike instead of biasing one *)
  let live_pair ~natives program =
    let one ?config () =
      time (fun () ->
          let vm, _ = Vm.execute ?config ~natives ~seed:1 program in
          (Vm.stats vm).n_instr)
    in
    (* untimed warmup pairs first (see measure_modes), then best-of with
       extra reps for the short monitor-heavy workloads: they run well
       under a millisecond, so the ratio needs more samples to shake
       phase noise *)
    let (n0 : int), _ = one () in
    ignore (one ~config:noregir ());
    for _ = 1 to 2 do
      ignore (one ());
      ignore (one ~config:noregir ())
    done;
    let reps = if n0 < 50_000 then 15 else 9 in
    let best_on = ref infinity and best_off = ref infinity and n = ref 0 in
    for _ = 1 to reps do
      let (i : int), t_on = one () in
      let _, t_off = one ~config:noregir () in
      n := i;
      if t_on < !best_on then best_on := t_on;
      if t_off < !best_off then best_off := t_off
    done;
    (rate !n !best_on, rate !n !best_off)
  in
  let regir_rows =
    List.map
      (fun (name, (e : Workloads.Registry.entry)) ->
        let on, off = live_pair ~natives:e.natives e.program in
        let vm, _ = Vm.execute ~natives:e.natives ~seed:1 e.program in
        let s = Vm.stats vm in
        let frac =
          float_of_int s.Vm.Rt.n_regir_instr /. float_of_int (max 1 s.n_instr)
        in
        let mon_frac =
          float_of_int s.Vm.Rt.n_regir_mon
          /. float_of_int (max 1 s.Vm.Rt.n_monitor_ops)
        in
        Fmt.pr
          "regir %-20s on %.2f off %.2f Mi/s (%.2fx, %.0f%% covered, %.0f%% \
           mon-in-region, %d inline)@."
          name (on /. 1e6) (off /. 1e6)
          (if on > 0. then on /. off else 0.)
          (frac *. 100.) (mon_frac *. 100.) s.Vm.Rt.n_regir_inline;
        (name, on, off, frac, mon_frac, s.Vm.Rt.n_regir_inline))
      overhead_workloads
  in
  let geo f =
    exp
      (List.fold_left (fun acc r -> acc +. log (f r)) 0. regir_rows
      /. float_of_int (List.length regir_rows))
  in
  (* isolated clock cost: a tight single-threaded loop with the virtual
     clock compiled out vs on — (t_on - t_off) / instrs. The no-clock
     mode is a bench-only probe; nothing observable runs under it. *)
  let clock_ns =
    let e = entry "primes" in
    let noclock = { Vm.Rt.default_config with Vm.Rt.clock = false } in
    let one ?config () =
      time (fun () ->
          let vm, _ = Vm.execute ?config ~natives:e.natives ~seed:1 e.program in
          (Vm.stats vm).n_instr)
    in
    let b_on = ref infinity and b_off = ref infinity and n = ref 0 in
    for _ = 1 to 5 do
      let (i : int), t_on = one () in
      let _, t_off = one ~config:noclock () in
      n := i;
      if t_on < !b_on then b_on := t_on;
      if t_off < !b_off then b_off := t_off
    done;
    Float.max 0. ((!b_on -. !b_off) /. float_of_int (max 1 !n) *. 1e9)
  in
  Fmt.pr "regir clock cost: %.3f ns/instr (primes, clock on vs compiled out)@."
    clock_ns;
  Buffer.add_string buf "  \"regir\": {\n";
  Buffer.add_string buf
    (Fmt.str "    \"clock_ns_per_instr\": %.3f,\n" clock_ns);
  List.iter
    (fun (name, on, off, frac, mon_frac, inl) ->
      Buffer.add_string buf
        (Fmt.str
           "    %S: { \"live_ips_off\": %.0f, \"speedup\": %.3f, \
            \"coverage\": %.3f, \"mon_region_frac\": %.3f, \
            \"inline_splices\": %d },\n"
           name off
           (if off > 0. then on /. off else 0.)
           frac mon_frac inl))
    regir_rows;
  Buffer.add_string buf
    (Fmt.str
       "    \"geomean_speedup\": %.3f,\n    \"geomean_coverage\": %.3f\n  },\n"
       (geo (fun (_, on, off, _, _, _) -> if off > 0. then on /. off else 1.))
       (geo (fun (_, _, _, frac, _, _) -> Float.max frac 1e-9)));
  (* schedule-exploration trajectory: throughput and DPOR efficiency of
     the bounded DFS on the seeded atomicity bug (pb 2, db 1) *)
  let ex_on, ex_t_on, ex_off, _, ex_t_first =
    explore_measure (entry "atomicity")
  in
  Fmt.pr
    "explore atomicity: %d schedules (%d pruned, %.0f%% cut), first fault in \
     %.0f ms@."
    ex_on.Explore.Driver.rp_explored ex_on.Explore.Driver.rp_pruned
    (100. *. cut_ratio ex_on ex_off)
    (ex_t_first *. 1e3);
  Buffer.add_string buf
    (Fmt.str
       "  \"explore\": {\n\
       \    \"workload\": \"atomicity\",\n\
       \    \"pb\": 2,\n\
       \    \"db\": 1,\n\
       \    \"schedules\": %d,\n\
       \    \"schedules_nodpor\": %d,\n\
       \    \"pruned\": %d,\n\
       \    \"schedules_per_s\": %.1f,\n\
       \    \"pruned_ratio\": %.3f,\n\
       \    \"first_failure_at\": %d,\n\
       \    \"time_to_first_failure_ms\": %.2f\n\
       \  },\n"
       ex_on.Explore.Driver.rp_explored ex_off.Explore.Driver.rp_explored
       ex_on.Explore.Driver.rp_pruned
       (if ex_t_on > 0. then
          float_of_int ex_on.Explore.Driver.rp_explored /. ex_t_on
        else 0.)
       (cut_ratio ex_on ex_off)
       (match ex_on.Explore.Driver.rp_first_failure_at with
       | Some k -> k
       | None -> -1)
       (ex_t_first *. 1e3));
  Buffer.add_string buf
    (Fmt.str
       "  \"serve_load\": {\n\
       \    \"shards\": 4,\n\
       \    \"clients\": 3,\n\
       \    \"offered_hz\": 400,\n\
       \    \"jobs\": %d,\n\
       \    \"done\": %d,\n\
       \    \"jobs_per_s\": %.2f,\n\
       \    \"p50_ms\": %.2f,\n\
       \    \"p99_ms\": %.2f\n\
       \  }\n\
        }"
       sv_total sv_done sv_jps sv_p50 sv_p99);
  let point = Buffer.contents buf in
  let oc = open_out json_out in
  (match prior with
  | None -> output_string oc (Fmt.str "[\n%s\n]\n" point)
  | Some pts -> output_string oc (Fmt.str "[\n%s,\n%s\n]\n" pts point));
  close_out oc;
  Fmt.pr "appended point %d (pr %d) to %s@."
    (match prior with None -> 1 | Some s -> count_points s + 1)
    pr json_out

(* -------------------------------------------------------------- driver *)

let all : (string * string * (unit -> unit)) list =
  [
    ("E1", "figure 1 A/B", e1);
    ("E2", "figure 1 C/D", e2);
    ("E3", "figure 2 symmetry", e3);
    ("E4", "remote reflection", e4);
    ("E5", "replay accuracy", e5);
    ("E6", "overhead", e6);
    ("E7", "trace size", e7);
    ("E8", "instruction counting", e8);
    ("E9", "ablations", e9);
    ("E10", "time travel", e10);
    ("E11", "symmetry ablation", e11);
    ("E12", "replay farm batch throughput, cold vs warm", e12);
    ("E13", "sustained-load serving (open-loop clients)", e13);
    ("E14", "systematic schedule exploration (DPOR vs unpruned)", e14);
    ("micro", "bechamel microbenches", micro);
    ("farm-smoke", "CI: sharded+warm aggregate digest equality", farm_smoke);
    ("regir-smoke",
     "CI: register vs stack tier trace/digest identity, clockless replay",
     regir_smoke);
    ("--json", "write the BENCH_interp.json perf trajectory", json);
  ]

let () =
  let want = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  let selected =
    if want = [] then
      List.filter
        (fun (id, _, _) ->
          id <> "micro" && id <> "--json" && id <> "farm-smoke"
          && id <> "regir-smoke")
        all
    else List.filter (fun (id, _, _) -> List.mem id want) all
  in
  if selected = [] then begin
    Fmt.epr "unknown experiment; available: %s@."
      (String.concat " " (List.map (fun (id, _, _) -> id) all));
    exit 2
  end;
  Fmt.pr "DejaVu reproduction experiments (see DESIGN.md section 4)@.";
  List.iter (fun (_, _, f) -> f ()) selected
