(* Dispatch checks: the interpreter enters register regions when no
   per-instruction hook is attached and runs every instruction on the
   stack tier while [h_instr] is (the "observed" runs below, driven by the
   collecting observer), and the two must be semantically
   indistinguishable — same outputs, same state digests, same recorded
   traces, same event sequences. The event digest itself runs on the
   register tier (folded per region segment), so its parity with the
   collecting observer's per-event fold is checked here too. *)

open Tutil

let all () = Lazy.force Workloads.Registry.all

let seeded seed =
  {
    Vm.Rt.default_config with
    Vm.Rt.env_cfg = { Vm.Rt.default_config.Vm.Rt.env_cfg with Vm.Env.seed };
  }

(* Live run with an observer attached before booting: the event digest
   (register tier) or, given [max_events], a collecting observer (an
   [h_instr] hook, so stack tier only). *)
let run_observed ?config ?max_events ~natives ~seed program =
  let config = match config with Some c -> c | None -> seeded seed in
  let vm = Vm.create ~config ~natives program in
  let obs =
    match max_events with
    | None -> Vm.Observer.attach_digest vm
    | Some m -> Vm.Observer.attach_collect ~max_events:m vm
  in
  ignore (Vm.run vm);
  (vm, obs)

(* Record or replay observed: a collecting observer that keeps nothing
   still hooks [h_instr], so every instruction runs one at a time on the
   stack tier with a hook call before it. *)
let record_observed ~natives ~seed program =
  let vm = Vm.create ~config:(seeded seed) ~natives program in
  let session = Dejavu.Recorder.attach vm in
  let obs = Vm.Observer.attach_collect ~max_events:0 vm in
  ignore (Vm.run vm);
  (vm, obs, Dejavu.Recorder.finish session)

let replay_observed ~natives program trace =
  let vm = Vm.create ~config:(seeded 424242) ~natives program in
  let session = Dejavu.Replayer.attach vm trace in
  let obs = Vm.Observer.attach_collect ~max_events:0 vm in
  ignore (Vm.run vm);
  (vm, obs, Dejavu.Replayer.check_complete session)

(* Register tier vs observed: a hook that only reads events must not
   change the execution it observes. The event digest is one fold however
   it is driven — per region segment on the register tier, per
   instruction under the collecting observer's [h_instr], per instruction
   on the stack tier alone ([regir = false]), and across many tiny slices
   that end regions early — so every leg must also give the same digest
   and count, and the count is the instruction count. *)
let test_fast_vs_observed_live () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed ->
          let ctx what = Fmt.str "%s/%d %s" e.name seed what in
          let plain, plain_st = run ~natives:e.natives ~seed e.program in
          let fast_vm, fast = run_observed ~natives:e.natives ~seed e.program in
          let col_vm, col =
            run_observed ~max_events:0 ~natives:e.natives ~seed e.program
          in
          let stack_vm, stack =
            run_observed
              ~config:{ (seeded seed) with Vm.Rt.regir = false }
              ~natives:e.natives ~seed e.program
          in
          let slice_vm =
            Vm.create ~config:(seeded seed) ~natives:e.natives e.program
          in
          let slice = Vm.Observer.attach_digest slice_vm in
          while Vm.run_slice ~fuel:7 slice_vm = Vm.Rt.Running_ do
            ()
          done;
          List.iter
            (fun (what, vm, obs) ->
              Alcotest.check status_testable
                (ctx (what ^ " status"))
                plain_st (Vm.status vm);
              Alcotest.(check string)
                (ctx (what ^ " output"))
                (Vm.output plain) (Vm.output vm);
              Alcotest.(check int)
                (ctx (what ^ " state digest"))
                (Vm.digest plain) (Vm.digest vm);
              Alcotest.(check int)
                (ctx (what ^ " event digest"))
                (Vm.Observer.digest col) (Vm.Observer.digest obs);
              Alcotest.(check int)
                (ctx (what ^ " event count"))
                (Vm.Observer.count col) (Vm.Observer.count obs);
              Alcotest.(check int)
                (ctx (what ^ " one event per instruction"))
                (Vm.stats vm).n_instr (Vm.Observer.count obs))
            [
              ("fast", fast_vm, fast);
              ("observed", col_vm, col);
              ("stack tier", stack_vm, stack);
              ("7-instruction slices", slice_vm, slice);
            ];
          Alcotest.(check bool)
            (ctx "unhooked run ran regions")
            true
            ((Vm.stats fast_vm).n_regir_instr > 0))
        [ 1; 3 ])
    (all ())

(* Record/replay with the event digest (register regions) and observed
   (collecting observer, stack tier): each roundtrip's event digests must
   agree, and the two roundtrips must see the same events. *)
let test_roundtrip_digests_observed () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let rt = Dejavu.verify_roundtrip ~natives:e.natives ~seed:3 e.program in
      Alcotest.(check bool)
        (e.name ^ " events equal")
        true rt.Dejavu.events_equal;
      Alcotest.(check bool) (e.name ^ " roundtrip ok") true (Dejavu.ok rt);
      let rec_vm, rec_obs, trace =
        record_observed ~natives:e.natives ~seed:3 e.program
      in
      let rep_vm, rep_obs, leftovers =
        replay_observed ~natives:e.natives e.program trace
      in
      let ctx what = e.name ^ " observed " ^ what in
      Alcotest.(check (list string)) (ctx "trace consumed") [] leftovers;
      Alcotest.check status_testable (ctx "status") (Vm.status rec_vm)
        (Vm.status rep_vm);
      Alcotest.(check string) (ctx "output") (Vm.output rec_vm)
        (Vm.output rep_vm);
      Alcotest.(check int) (ctx "state digest") (Vm.digest rec_vm)
        (Vm.digest rep_vm);
      Alcotest.(check int) (ctx "events equal") (Vm.Observer.digest rec_obs)
        (Vm.Observer.digest rep_obs);
      Alcotest.(check int) (ctx "event count") (Vm.Observer.count rec_obs)
        (Vm.Observer.count rep_obs);
      Alcotest.(check int)
        (ctx "events vs digested record")
        rt.recorded.obs_digest (Vm.Observer.digest rec_obs))
    (all ())

(* Cross-tier recording: a trace recorded with no observer, one recorded
   with the event digest (both on the register tier), and one recorded
   observed (stack tier) must be byte-identical, and replaying
   the observer-free trace with the digest on must reproduce the observed
   recording's event digest. *)
let test_fast_recorded_trace_matches () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let _, obs, obs_trace =
        record_observed ~natives:e.natives ~seed:1 e.program
      in
      let dig_run, dig_trace =
        Dejavu.record ~natives:e.natives ~seed:1 e.program
      in
      let fast_run, fast_trace =
        Dejavu.record ~natives:e.natives ~seed:1 ~observe:false e.program
      in
      let fast_bytes = Dejavu.Trace.to_bytes fast_trace in
      Alcotest.(check string)
        (e.name ^ " trace bytes vs observed")
        (Dejavu.Trace.to_bytes obs_trace)
        fast_bytes;
      Alcotest.(check string)
        (e.name ^ " trace bytes vs digested")
        (Dejavu.Trace.to_bytes dig_trace)
        fast_bytes;
      Alcotest.(check int)
        (e.name ^ " fast record leaves no digest")
        0 fast_run.Dejavu.obs_count;
      Alcotest.(check int)
        (e.name ^ " digested record vs observed record")
        (Vm.Observer.digest obs) dig_run.Dejavu.obs_digest;
      let replayed, leftovers =
        Dejavu.replay ~natives:e.natives e.program fast_trace
      in
      Alcotest.(check (list string)) (e.name ^ " trace consumed") [] leftovers;
      Alcotest.(check int)
        (e.name ^ " replay digest vs observed record")
        (Vm.Observer.digest obs) replayed.Dejavu.obs_digest;
      Alcotest.(check int)
        (e.name ^ " replay count vs observed record")
        (Vm.Observer.count obs) replayed.Dejavu.obs_count)
    (all ())

(* Register tier vs stack tier: [cfg.regir] only decides whether verified
   methods additionally carry register-IR regions and whether the fast
   loop dispatches into them; every observable — status, output, state
   digest, instruction count, trace bytes, event digests — must be
   identical across the whole catalogue, and traces recorded under one
   tier must replay under the other. *)
let noregir = { Vm.Rt.default_config with Vm.Rt.regir = false }

let test_regir_vs_stack_live () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun seed ->
          let r, r_st = run ~natives:e.natives ~seed e.program in
          let s, s_st = run ~config:noregir ~natives:e.natives ~seed e.program in
          let ctx = Fmt.str "%s/%d" e.name seed in
          Alcotest.check status_testable (ctx ^ " status") s_st r_st;
          Alcotest.(check string) (ctx ^ " output") (Vm.output s) (Vm.output r);
          Alcotest.(check int) (ctx ^ " state digest") (Vm.digest s)
            (Vm.digest r);
          Alcotest.(check int)
            (ctx ^ " instruction count")
            (Vm.stats s).n_instr (Vm.stats r).n_instr;
          Alcotest.(check int)
            (ctx ^ " stack tier ran no regir")
            0
            (Vm.stats s).n_regir_instr)
        [ 1; 3 ])
    (all ())

let test_regir_vs_stack_traces () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let rr, rt = Dejavu.record ~natives:e.natives ~seed:1 e.program in
      let sr, st =
        Dejavu.record ~config:noregir ~natives:e.natives ~seed:1 e.program
      in
      Alcotest.(check string)
        (e.name ^ " trace bytes")
        (Dejavu.Trace.to_bytes st) (Dejavu.Trace.to_bytes rt);
      Alcotest.(check int) (e.name ^ " event digest") sr.Dejavu.obs_digest
        rr.Dejavu.obs_digest;
      Alcotest.(check int) (e.name ^ " event count") sr.Dejavu.obs_count
        rr.Dejavu.obs_count;
      (* cross-replay: a trace recorded on the register tier replays on the
         stack tier, and back *)
      let rep_s, left_s =
        Dejavu.replay ~config:noregir ~natives:e.natives e.program rt
      in
      Alcotest.(check (list string))
        (e.name ^ " regir->stack consumed")
        [] left_s;
      Alcotest.(check int)
        (e.name ^ " regir->stack events")
        rr.Dejavu.obs_digest rep_s.Dejavu.obs_digest;
      let rep_r, left_r = Dejavu.replay ~natives:e.natives e.program st in
      Alcotest.(check (list string))
        (e.name ^ " stack->regir consumed")
        [] left_r;
      Alcotest.(check int)
        (e.name ^ " stack->regir events")
        sr.Dejavu.obs_digest rep_r.Dejavu.obs_digest;
      Alcotest.(check int)
        (e.name ^ " replay state digest")
        rep_s.Dejavu.state_digest rep_r.Dejavu.state_digest)
    (all ())

(* [cfg.clock = false], the run perfbench times to price the clock, draws
   nothing from the environment clock in either tier. A single-threaded
   program, which no timer fire can reschedule, still runs the same
   instructions to the same status and output. *)
let test_clock_off_live () =
  let e = Option.get (Workloads.Registry.find "primes") in
  let vm, st = run ~natives:e.natives e.program in
  Alcotest.(check int)
    "clock on ticks every instruction" (Vm.stats vm).n_instr
    vm.Vm.Rt.env.Vm.Env.ticks;
  List.iter
    (fun (tier, config) ->
      let v, v_st =
        run ~config:{ config with Vm.Rt.clock = false } ~natives:e.natives
          e.program
      in
      Alcotest.check status_testable (tier ^ " status") st v_st;
      Alcotest.(check string) (tier ^ " output") (Vm.output vm) (Vm.output v);
      Alcotest.(check int)
        (tier ^ " instruction count")
        (Vm.stats vm).n_instr (Vm.stats v).n_instr;
      Alcotest.(check int) (tier ^ " no ticks") 0 v.Vm.Rt.env.Vm.Env.ticks;
      Alcotest.(check int)
        (tier ^ " no timer fires") 0 v.Vm.Rt.env.Vm.Env.timer_fires)
    [ ("register tier", Vm.Rt.default_config); ("stack tier", noregir) ]

(* One virtual call site in a loop over receivers cycling through [k]
   classes: the site's inline cache transitions mono -> poly (k = 3) or
   mono -> poly -> megamorphic (k = 6) mid-run, and the transitions must
   be invisible to recording — the IC lives outside the heap, digest, and
   trace. *)
let poly_prog k iters =
  let shape n =
    A.method_ ~static:false ~args:[ I.Tobj "Shape" ] ~ret:I.Tint ~nlocals:1
      "id"
      [ i (I.Const n); i I.Retv ]
  in
  let cname j = if j = 0 then "Shape" else Fmt.str "Shape%d" j in
  let extra =
    D.cdecl "Shape" [ shape 0 ]
    :: List.init (k - 1) (fun j ->
           D.cdecl ~super:"Shape" (cname (j + 1)) [ shape (j + 1) ])
  in
  let fills =
    List.concat
      (List.init k (fun j ->
           [
             i (I.Load 0); i (I.Const j); i (I.New (cname j)); i I.Astore;
           ]))
  in
  main_prog ~nlocals:3 ~extra_classes:extra
    ([ i (I.Const k); i (I.Newarray (I.Tobj "Shape")); i (I.Store 0) ]
    @ fills
    @ [
        i (I.Const 0); i (I.Store 1); i (I.Const 0); i (I.Store 2);
        l "loop";
        i (I.Load 1); i (I.Const iters); i (I.If (I.Ge, "end"));
        i (I.Load 2);
        i (I.Load 0); i (I.Load 1); i (I.Const k); i I.Rem; i I.Aload;
        i (I.Invoke ("Shape", "id"));
        i I.Add; i (I.Store 2);
        i (I.Load 1); i (I.Const 1); i I.Add; i (I.Store 1);
        i (I.Goto "loop");
        l "end";
        i (I.Load 2); i I.Print; i I.Ret;
      ])

(* The IC cell of main's one virtual call site (shared between the
   canonical stream and the register-IR region that ends at the call). *)
let main_ic (vm : Vm.t) =
  let found = ref None in
  Array.iter
    (fun (m : Vm.Rt.rmethod) ->
      if m.Vm.Rt.rm_name = "main" then
        match m.Vm.Rt.rm_compiled with
        | Some c ->
          Array.iter
            (fun ci ->
              match ci with
              | Vm.Rt.KInvokevirtual (_, _, _, ic) -> found := Some ic
              | _ -> ())
            c.Vm.Rt.k_code
        | None -> ())
    vm.Vm.Rt.methods;
  match !found with
  | Some ic -> ic
  | None -> Alcotest.fail "no virtual call site in main"

let test_poly_ic_transition () =
  let iters = 600 in
  (* k = 3: the site ends polymorphic (2..poly_limit entries) *)
  let p3 = poly_prog 3 iters in
  let vm3, st3 = run ~seed:1 p3 in
  Alcotest.check status_testable "k=3 finished" Vm.Rt.Finished st3;
  Alcotest.(check string)
    "k=3 output"
    (Fmt.str "%d\n" (iters / 3 * 3))
    (Vm.output vm3);
  let ic3 = main_ic vm3 in
  Alcotest.(check bool)
    "k=3 site is polymorphic" true
    (ic3.Vm.Rt.ic_n >= 2 && ic3.Vm.Rt.ic_n <= Vm.Rt.poly_limit);
  (* k = 6: past poly_limit, the site goes megamorphic *)
  let p6 = poly_prog 6 iters in
  let vm6, st6 = run ~seed:1 p6 in
  Alcotest.check status_testable "k=6 finished" Vm.Rt.Finished st6;
  Alcotest.(check string)
    "k=6 output"
    (Fmt.str "%d\n" (iters / 6 * 15))
    (Vm.output vm6);
  let ic6 = main_ic vm6 in
  Alcotest.(check int) "k=6 site is megamorphic" (-1) ic6.Vm.Rt.ic_n;
  (* the transitions happen mid-trace; recording must not see them *)
  List.iter
    (fun (name, p) ->
      let rr, rt = Dejavu.record ~seed:1 p in
      let sr, st = Dejavu.record ~config:noregir ~seed:1 p in
      Alcotest.(check string)
        (name ^ " trace bytes")
        (Dejavu.Trace.to_bytes st) (Dejavu.Trace.to_bytes rt);
      Alcotest.(check int)
        (name ^ " event digest")
        sr.Dejavu.obs_digest rr.Dejavu.obs_digest;
      Alcotest.(check int)
        (name ^ " state digest")
        sr.Dejavu.state_digest rr.Dejavu.state_digest)
    [ ("poly", p3); ("mega", p6) ]

(* Tiny-callee inlining: a hot loop over a 4-instruction static helper
   must splice the callee into the caller's region (the registry's
   helpers are all too big, synchronized, or polymorphic, so this
   directed program guards the mechanism), and the splice must be
   invisible to recording. *)
let tiny_call_prog iters =
  let inc =
    A.method_ ~args:[ I.Tint ] ~ret:I.Tint ~nlocals:1 "inc"
      [ i (I.Load 0); i (I.Const 1); i I.Add; i I.Retv ]
  in
  let main =
    A.method_ ~nlocals:2 "main"
      [
        i (I.Const 0); i (I.Store 0); i (I.Const 0); i (I.Store 1);
        l "loop";
        i (I.Load 1); i (I.Const iters); i (I.If (I.Ge, "end"));
        i (I.Load 0); i (I.Invoke ("T", "inc")); i (I.Store 0);
        i (I.Load 1); i (I.Const 1); i I.Add; i (I.Store 1);
        i (I.Goto "loop");
        l "end";
        i (I.Load 0); i I.Print; i I.Ret;
      ]
  in
  D.program ~main_class:"T" [ D.cdecl "T" [ inc; main ] ]

let test_tiny_callee_inlined () =
  let iters = 5000 in
  let p = tiny_call_prog iters in
  let live, st = run ~seed:1 p in
  Alcotest.check status_testable "finished" Vm.Rt.Finished st;
  Alcotest.(check string) "output" (Fmt.str "%d\n" iters) (Vm.output live);
  Alcotest.(check int)
    "every call spliced" iters
    (Vm.stats live).Vm.Rt.n_regir_inline;
  let rr, rt = Dejavu.record ~seed:1 p in
  let sr, st' = Dejavu.record ~config:noregir ~seed:1 p in
  Alcotest.(check string) "trace bytes" (Dejavu.Trace.to_bytes st')
    (Dejavu.Trace.to_bytes rt);
  Alcotest.(check int) "state digest" sr.Dejavu.state_digest
    rr.Dejavu.state_digest;
  Alcotest.(check int) "event digest" sr.Dejavu.obs_digest rr.Dejavu.obs_digest

(* The splice predicate must be exact, not merely safe: a call the
   lowering treats as spliceable but whose callee can never splice (its
   region 0 does not cover the whole body — a loop, a conditional) exits
   the caller's region at the call, and the return continuation then runs
   mid-region on the stack tier. After running every registry workload
   (plus the directed tiny-callee program, so the check is never vacuous),
   every inline site's callee must be compiled to one whole-body region.
   racy-counter's hot loop calls such a helper (the [spin] loop), so its
   coverage is pinned too, as an exact instruction-count ratio. *)
let inline_sites (vm : Vm.Rt.t) =
  Array.fold_left
    (fun acc (m : Vm.Rt.rmethod) ->
      match m.rm_compiled with
      | None -> acc
      | Some c ->
        Array.fold_left
          (fun acc r ->
            match r with
            | None -> acc
            | Some (r : Vm.Rt.region) ->
              Array.fold_left
                (fun acc op ->
                  match op with
                  | Vm.Rt.RInlineStatic (callee, pc, _) ->
                    (m, pc, callee) :: acc
                  | Vm.Rt.RInlineVirtual (_, _, ic, pc, _) ->
                    (m, pc, ic.Vm.Rt.ic_meth) :: acc
                  | _ -> acc)
                acc r.Vm.Rt.r_ops)
          acc c.k_regions)
    [] vm.Vm.Rt.methods

let test_inline_sites_splice () =
  let programs =
    ("tiny-call", [], tiny_call_prog 100)
    :: List.map
         (fun (e : Workloads.Registry.entry) -> (e.name, e.natives, e.program))
         (all ())
  in
  let checked = ref 0 in
  List.iter
    (fun (name, natives, program) ->
      let vm, _ = run ~natives ~seed:1 program in
      List.iter
        (fun ((m : Vm.Rt.rmethod), pc, (callee : Vm.Rt.rmethod)) ->
          let ctx =
            Fmt.str "%s: %s@%d -> %s" name m.rm_name pc callee.rm_name
          in
          match callee.rm_compiled with
          | None -> Alcotest.failf "%s: callee never compiled" ctx
          | Some kc ->
            incr checked;
            let whole =
              match kc.k_regions.(0) with
              | Some r -> r.r_n = Array.length kc.k_code
              | None -> false
            in
            Alcotest.(check bool) (ctx ^ " whole-body region") true whole)
        (inline_sites vm))
    programs;
  Alcotest.(check bool) "some inline site checked" true (!checked > 0);
  let e =
    match Workloads.Registry.find "racy-counter" with
    | Some e -> e
    | None -> Alcotest.fail "racy-counter workload missing"
  in
  let vm, _ = run ~natives:e.natives ~seed:1 e.program in
  let s = Vm.stats vm in
  let coverage = float s.n_regir_instr /. float s.n_instr in
  if coverage < 0.9 then
    Alcotest.failf "racy-counter regir coverage %d/%d = %.3f < 0.9"
      s.n_regir_instr s.n_instr coverage

(* A region that unwinds still credits the instructions it retired.
   overflow's recursive splices end in a caught StackOverflowError; the
   directed loop below chains region to region inside one region call for
   its whole run, then divides by zero. Nearly every instruction of both
   runs in regions. *)
let div_loop_prog iters =
  main_prog ~nlocals:2
    [
      i (I.Const 0); i (I.Store 0); i (I.Const 0); i (I.Store 1);
      l "loop";
      i (I.Load 0); i (I.Const 100); i (I.Const iters); i (I.Load 1); i I.Sub;
      i I.Div; i I.Add; i (I.Store 0);
      i (I.Load 1); i (I.Const 1); i I.Add; i (I.Store 1);
      i (I.Goto "loop");
    ]

let test_unwinding_region_credited () =
  let overflow =
    match Workloads.Registry.find "overflow" with
    | Some e -> e
    | None -> Alcotest.fail "overflow workload missing"
  in
  List.iter
    (fun (name, natives, program) ->
      let vm, _ = run ~natives ~seed:1 program in
      let s = Vm.stats vm in
      Alcotest.(check bool) (name ^ " unwound") true (s.n_exceptions > 0);
      let coverage = float s.n_regir_instr /. float s.n_instr in
      if coverage < 0.9 then
        Alcotest.failf "%s regir coverage %d/%d = %.3f < 0.9" name
          s.n_regir_instr s.n_instr coverage)
    [
      ("overflow", overflow.natives, overflow.program);
      ("div-loop", [], div_loop_prog 3000);
    ]

(* Interrupts arriving mid-region at a monitor op: a tiny timer quantum
   lands preemption requests on monitorenter/monitorexit constantly, so
   the region fast path's continue-only-while-running guard is exercised
   at both ops (an enter that parks, an exit whose handoff readies a
   waiter, a preemption granted at the segment boundary). The register
   tier must stay invisible — same trace bytes, state digest, and event
   sequence — and its regions must actually cover the monitor ops. *)
let small_quantum seed =
  {
    Vm.Rt.default_config with
    Vm.Rt.env_cfg =
      {
        Vm.Rt.default_config.Vm.Rt.env_cfg with
        Vm.Env.seed;
        quantum = 60;
        quantum_jitter = 20;
      };
  }

let monitor_pingpong iters =
  let work =
    A.method_ ~nlocals:1 "work"
      [
        i (I.Const 0); i (I.Store 0);
        l "loop";
        i (I.Load 0); i (I.Const iters); i (I.If (I.Ge, "end"));
        i (I.Getstatic ("T", "r0")); i I.Monitorenter;
        i (I.Getstatic ("T", "s0")); i (I.Const 1); i I.Add;
        i (I.Putstatic ("T", "s0"));
        i (I.Getstatic ("T", "r0")); i I.Monitorexit;
        i (I.Load 0); i (I.Const 1); i I.Add; i (I.Store 0);
        i (I.Goto "loop");
        l "end"; i I.Ret;
      ]
  in
  let main =
    A.method_ ~nlocals:3 "main"
      [
        i (I.New "Object"); i (I.Putstatic ("T", "r0"));
        i (I.Spawn ("T", "work")); i (I.Store 1);
        i (I.Spawn ("T", "work")); i (I.Store 2);
        i (I.Invoke ("T", "work"));
        i (I.Load 1); i I.Join;
        i (I.Load 2); i I.Join;
        i (I.Getstatic ("T", "s0")); i I.Print; i I.Ret;
      ]
  in
  D.program ~main_class:"T"
    [
      D.cdecl "T"
        ~statics:[ D.field "s0"; D.field ~ty:I.Tref "r0" ]
        [ work; main ];
    ]

let test_interrupt_at_monitor_op () =
  let iters = 150 in
  let p = monitor_pingpong iters in
  List.iter
    (fun seed ->
      let cfg = small_quantum seed in
      let nocfg = { cfg with Vm.Rt.regir = false } in
      let ctx = Fmt.str "seed %d" seed in
      let rr, rt = Dejavu.record ~config:cfg ~seed p in
      let sr, st = Dejavu.record ~config:nocfg ~seed p in
      (* the lock serializes the increments: the sum is exact *)
      Alcotest.(check string)
        (ctx ^ " output")
        (Fmt.str "%d\n" (3 * iters))
        rr.Dejavu.output;
      (* the digested recording itself runs on the register tier *)
      let stats = Vm.stats rr.Dejavu.vm in
      Alcotest.(check bool)
        (ctx ^ " preemptions arrived")
        true
        (stats.Vm.Rt.n_preempt_req > 0);
      Alcotest.(check bool)
        (ctx ^ " regions covered monitor ops")
        true
        (stats.Vm.Rt.n_regir_mon > 0);
      Alcotest.(check string)
        (ctx ^ " trace bytes")
        (Dejavu.Trace.to_bytes st) (Dejavu.Trace.to_bytes rt);
      Alcotest.(check int)
        (ctx ^ " state digest")
        sr.Dejavu.state_digest rr.Dejavu.state_digest;
      Alcotest.(check int)
        (ctx ^ " event digest")
        sr.Dejavu.obs_digest rr.Dejavu.obs_digest;
      Alcotest.(check int)
        (ctx ^ " event count")
        sr.Dejavu.obs_count rr.Dejavu.obs_count;
      (* cross-replay under the opposite tier *)
      let rep_s, left_s = Dejavu.replay ~config:nocfg p rt in
      Alcotest.(check (list string)) (ctx ^ " regir->stack consumed") [] left_s;
      Alcotest.(check int)
        (ctx ^ " regir->stack events")
        rr.Dejavu.obs_digest rep_s.Dejavu.obs_digest;
      let rep_r, left_r = Dejavu.replay ~config:cfg p st in
      Alcotest.(check (list string)) (ctx ^ " stack->regir consumed") [] left_r;
      Alcotest.(check int)
        (ctx ^ " stack->regir events")
        sr.Dejavu.obs_digest rep_r.Dejavu.obs_digest)
    [ 1; 2; 5 ]

(* Collecting and digesting observers fold the same hash; the collection
   cap bounds retention only, never the digest or the true count. *)
let test_collect_matches_digest () =
  let e =
    match Workloads.Registry.find "ring" with
    | Some e -> e
    | None -> Alcotest.fail "ring workload missing"
  in
  let _, dig = run_observed ~natives:e.natives ~seed:2 e.program in
  let _, col = run_observed ~max_events:max_int ~natives:e.natives ~seed:2 e.program in
  Alcotest.(check int) "digest" (Vm.Observer.digest dig)
    (Vm.Observer.digest col);
  Alcotest.(check int) "count" (Vm.Observer.count dig) (Vm.Observer.count col);
  Alcotest.(check int) "nothing dropped" 0 (Vm.Observer.dropped col);
  Alcotest.(check int) "kept all events" (Vm.Observer.count col)
    (List.length (Vm.Observer.events col))

let test_collect_cap_semantics () =
  let e =
    match Workloads.Registry.find "ring" with
    | Some e -> e
    | None -> Alcotest.fail "ring workload missing"
  in
  let _, dig = run_observed ~natives:e.natives ~seed:2 e.program in
  let cap = 100 in
  let _, col = run_observed ~max_events:cap ~natives:e.natives ~seed:2 e.program in
  let total = Vm.Observer.count dig in
  Alcotest.(check bool) "workload exceeds cap" true (total > cap);
  Alcotest.(check int) "digest exact past cap" (Vm.Observer.digest dig)
    (Vm.Observer.digest col);
  Alcotest.(check int) "true count past cap" total (Vm.Observer.count col);
  Alcotest.(check int) "dropped = count - kept" (total - cap)
    (Vm.Observer.dropped col);
  Alcotest.(check int) "kept exactly the cap" cap
    (List.length (Vm.Observer.events col))

(* The fold is order-sensitive: recomputing it over a collected event
   sequence reproduces the digest, and transposing two distinct events
   anywhere in the sequence changes it. *)
let test_fold_order_sensitive () =
  let e =
    match Workloads.Registry.find "ring" with
    | Some e -> e
    | None -> Alcotest.fail "ring workload missing"
  in
  let _, col =
    run_observed ~max_events:max_int ~natives:e.natives ~seed:2 e.program
  in
  let evs = Array.of_list (Vm.Observer.events col) in
  let fold evs =
    Array.fold_left
      (fun h (o : Vm.Rt.obs) ->
        Vm.Rt.ev_fold h
          (Vm.Rt.ev_key_frame o.o_tid o.o_uid)
          o.o_pc o.o_tag)
      Vm.Rt.ev_seed evs
  in
  let h = fold evs in
  Alcotest.(check int) "refold = digest" (Vm.Observer.digest col) h;
  let n = Array.length evs in
  let checked = ref 0 in
  let transpose i j =
    if evs.(i) <> evs.(j) then begin
      let ev' = Array.copy evs in
      ev'.(i) <- evs.(j);
      ev'.(j) <- evs.(i);
      incr checked;
      if fold ev' = h then
        Alcotest.failf "transposing events %d and %d leaves the digest" i j
    end
  in
  for k = 0 to 199 do
    let i = k * (n - 1) / 200 in
    transpose i (i + 1);
    transpose i (n - 1 - (i / 2))
  done;
  Alcotest.(check bool) "some transpositions checked" true (!checked > 100)

(* [Regir.check] recomputes every RTick's digest constants from the code:
   a tampered constant is rejected, the lowered table passes. *)
let test_audit_rejects_tampered_tick () =
  let vm, _ =
    run ~config:{ Vm.Rt.default_config with Vm.Rt.audit = true } ~seed:1
      (tiny_call_prog 10)
  in
  let main =
    match
      Array.find_opt
        (fun (m : Vm.Rt.rmethod) -> m.rm_name = "main")
        vm.Vm.Rt.methods
    with
    | Some m -> m
    | None -> Alcotest.fail "no main"
  in
  let c = Vm.Rt.compiled main in
  let check regions =
    Vm.Regir.check main c.k_code c.k_handlers c.k_maps
      ~nlocals:main.rm_nlocals ~max_stack:c.k_max_stack regions
  in
  check c.k_regions;
  let tamper f =
    let hit = ref false in
    Array.map
      (Option.map (fun (r : Vm.Rt.region) ->
           {
             r with
             r_ops =
               Array.map
                 (fun op ->
                   match op with
                   | Vm.Rt.RTick { n; mn; sn; kc } when not !hit ->
                     hit := true;
                     f n mn sn kc
                   | op -> op)
                 r.r_ops;
           }))
      c.k_regions
  in
  List.iter
    (fun (what, regions) ->
      match check regions with
      | () -> Alcotest.failf "audit accepted a tampered %s" what
      | exception Vm.Regir.Error msg ->
        Alcotest.(check bool) (what ^ ": names the digest constants") true
          (contains msg "digest constants"))
    [
      ( "folded key",
        tamper (fun n mn sn kc -> Vm.Rt.RTick { n; mn; sn; kc = kc + 1 }) );
      ( "power",
        tamper (fun n mn sn kc -> Vm.Rt.RTick { n; mn = mn * 3; sn; kc }) );
      ( "sum",
        tamper (fun n mn sn kc -> Vm.Rt.RTick { n; mn; sn = sn - 1; kc }) );
    ]

let () =
  Alcotest.run "dispatch"
    [
      ( "loops",
        [
          quick "fast vs observed live" test_fast_vs_observed_live;
          quick "roundtrip digests (observed)" test_roundtrip_digests_observed;
          quick "fast-recorded trace matches" test_fast_recorded_trace_matches;
        ] );
      ( "regir",
        [
          quick "register vs stack live" test_regir_vs_stack_live;
          quick "register vs stack traces" test_regir_vs_stack_traces;
          quick "clock off draws nothing" test_clock_off_live;
          quick "poly-IC transition mid-trace" test_poly_ic_transition;
          quick "tiny callee inlined into region" test_tiny_callee_inlined;
          quick "inline sites splice whole callees" test_inline_sites_splice;
          quick "unwinding region credited" test_unwinding_region_credited;
          quick "interrupt at a monitor op mid-region"
            test_interrupt_at_monitor_op;
        ] );
      ( "observer",
        [
          quick "collect matches digest" test_collect_matches_digest;
          quick "cap: digest, count, dropped" test_collect_cap_semantics;
          quick "fold is order-sensitive" test_fold_order_sensitive;
          quick "audit rejects a tampered RTick"
            test_audit_rejects_tampered_tick;
        ] );
    ]
