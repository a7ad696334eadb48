(* The per-layer probes of the traced run. Each times, from outside, calls
   into one layer's public functions on the workload's own programs, with
   a span around every call, and derives the layer metrics from the spans.
   Work counters come from the VM's stats and must repeat exactly from rep
   to rep: a mismatch is a nondeterminism bug and fails the run. *)

module Trace = Dejavu.Trace
module J = Server.Job
module D = Server.Dispatcher

(* Median duration (seconds) of the spans named [name] with op ids in
   [ops]. *)
let span_median name ops =
  Util.median
    (List.filter_map
       (fun (s : Span.t) -> if List.mem s.op ops then Some (Span.duration s) else None)
       (Span.named name))

(* One program's counters from a live run; they must not change. *)
type counts = {
  instr : int;
  yields : int;
  switches : int;
  monitor_ops : int;
  gcs : int;
  alloc_words : int;
  regir_instr : int;
  regir_mon : int;
  regir_inline : int;
  methods : int;
  minor_words : float; (* OCaml words allocated by a streamed record *)
}

type program_probe = {
  r : Refs.t;
  mutable ops : int list; (* op id of every rep's spans *)
  mutable counts : counts option;
}

let create (r : Refs.t) f =
  Vm.create ~config:(f (Ops.config_for r.seed)) ~natives:r.entry.natives
    r.entry.program

(* One rep over one program: one op, whose spans are the layer calls. *)
let rep (ctx : Ctx.t) (p : program_probe) =
  let r = p.r and e = p.r.entry in
  Span.with_ ("probe." ^ e.name) (fun () ->
      p.ops <- Span.current_op () :: p.ops;
      let vm = Span.with_ "vm.create" (fun () -> create r Fun.id) in
      ignore (Span.with_ "vm.run" (fun () -> Vm.run vm));
      let st = Vm.stats vm in
      let vm_nc = create r (fun c -> { c with clock = false }) in
      ignore (Span.with_ "vm.run[clock=off]" (fun () -> Vm.run vm_nc));
      let vm_st = create r (fun c -> { c with regir = false }) in
      ignore (Span.with_ "vm.run[regir=off]" (fun () -> Vm.run vm_st));
      let vm_c = create r Fun.id in
      let methods =
        Span.with_ "vm.compile" (fun () ->
            Array.fold_left
              (fun n m ->
                match Vm.Compile.compile vm_c m with
                | _ -> n + 1
                | exception Vm.Compile.Error _ -> n)
              0 vm_c.Vm.Rt.methods)
      in
      ignore (Span.with_ "analysis.run" (fun () -> Analysis.run e.program));
      let _, trace =
        Span.with_ "dejavu.record" (fun () ->
            Dejavu.record ~natives:e.natives ~seed:r.seed ~observe:false e.program)
      in
      let run, leftovers =
        Span.with_ "dejavu.replay" (fun () ->
            Dejavu.replay ~natives:e.natives ~observe:false e.program trace)
      in
      Ctx.op ctx (Refs.check_replay ~events:false r ~run ~leftovers);
      let bytes = Span.with_ "trace.to_bytes" (fun () -> Trace.to_bytes trace) in
      let back = Span.with_ "trace.of_bytes" (fun () -> Trace.of_bytes bytes) in
      Ctx.op ctx
        (if Digest.string bytes <> Digest.from_hex r.md5 || back <> trace then
           Refs.fail "%s: codec roundtrip differs" e.name
         else None);
      let path = Ctx.scratch ctx "probe.trace" in
      let m0 = Gc.minor_words () in
      let run =
        Span.with_ "dejavu.record_to" (fun () ->
            fst
              (Dejavu.record_to ~natives:e.natives ~seed:r.seed ~observe:false ~path
                 e.program))
      in
      let minor_words = Gc.minor_words () -. m0 in
      Ctx.op ctx (Refs.check_record ~events:false r ~run ~path);
      let run, leftovers =
        Span.with_ "dejavu.replay_from" (fun () ->
            Dejavu.replay_from ~natives:e.natives ~observe:false ~path e.program)
      in
      Ctx.op ctx (Refs.check_replay ~events:false r ~run ~leftovers);
      Util.rm_rf path;
      let c =
        {
          instr = st.n_instr;
          yields = st.n_yield;
          switches = st.n_switch;
          monitor_ops = st.n_monitor_ops;
          gcs = st.n_gc;
          alloc_words = st.n_alloc_words;
          regir_instr = st.n_regir_instr;
          regir_mon = st.n_regir_mon;
          regir_inline = st.n_regir_inline;
          methods;
          minor_words;
        }
      in
      match p.counts with
      | None -> p.counts <- Some c
      | Some c0 when c0 = c -> ()
      | Some _ ->
        Ctx.break ctx (Fmt.str "%s: work counters changed between reps" e.name))

(* Probe the workload's programs for about [seconds] (at least two reps,
   the first untimed so every later rep runs warm). *)
let programs (ctx : Ctx.t) (refs : Refs.t list) ~seconds =
  let ps = List.map (fun r -> { r; ops = []; counts = None }) refs in
  List.iter (fun p -> rep ctx p) ps;
  List.iter (fun p -> p.ops <- []) ps;
  let until = Util.now () +. seconds in
  ignore (Util.passes ~min:2 ~until (fun _ -> List.iter (rep ctx) ps));
  let m = Ctx.metric ctx in
  let total f = Util.sum (List.map f ps) in
  let t name = total (fun p -> span_median name p.ops) in
  let c f = total (fun p -> float_of_int (f (Option.get p.counts))) in
  let instr = c (fun c -> c.instr) in
  let per_instr_ns s = s /. instr *. 1e9 in
  let live = t "vm.create" +. t "vm.run" in
  let yields = c (fun c -> c.yields) in
  m "create_ms" "ms" (Ctx.ms (t "vm.create"));
  m "compile_ms" "ms" (Ctx.ms (t "vm.compile"));
  m "compiled_methods" "count" (c (fun c -> c.methods));
  m "audit_ms" "ms" (Ctx.ms (t "analysis.run"));
  m "dispatch_ns_per_instr" "ns" (per_instr_ns (t "vm.run"));
  m "dispatch_stack_ns_per_instr" "ns" (per_instr_ns (t "vm.run[regir=off]"));
  m "clock_ns_per_instr" "ns" (per_instr_ns (t "vm.run" -. t "vm.run[clock=off]"));
  m "instructions" "count" instr;
  m "regir_coverage" "fraction" (c (fun c -> c.regir_instr) /. instr);
  m "regir_mon_frac" "fraction"
    (c (fun c -> c.regir_mon) /. Float.max 1. (c (fun c -> c.monitor_ops)));
  m "regir_inline" "count" (c (fun c -> c.regir_inline));
  m "gc_count" "count" (c (fun c -> c.gcs));
  m "alloc_words_per_kinstr" "words" (c (fun c -> c.alloc_words) /. instr *. 1e3);
  m "minor_words_per_instr" "words"
    (total (fun p -> (Option.get p.counts).minor_words) /. instr);
  m "yields_per_kinstr" "count" (yields /. instr *. 1e3);
  m "switches_per_minstr" "count" (c (fun c -> c.switches) /. instr *. 1e6);
  m "monitor_ops_per_kinstr" "count" (c (fun c -> c.monitor_ops) /. instr *. 1e3);
  m "record_overhead" "fraction" ((t "dejavu.record" /. live) -. 1.);
  m "record_hook_ns_per_yield" "ns"
    ((t "dejavu.record" -. live) /. Float.max 1. yields *. 1e9);
  m "replay_overhead" "fraction" ((t "dejavu.replay" /. live) -. 1.);
  m "replay_hook_ns_per_yield" "ns"
    ((t "dejavu.replay" -. live) /. Float.max 1. yields *. 1e9);
  let sz f = Util.sum (List.map (fun (r : Refs.t) -> float_of_int (f r.sizes)) refs) in
  m "tape_words_switches" "words" (sz (fun s -> s.Trace.n_switches));
  m "tape_words_clocks" "words" (sz (fun s -> 2 * s.Trace.n_clock_reads));
  m "tape_words_inputs" "words" (sz (fun s -> s.Trace.n_inputs));
  m "tape_words_natives" "words" (sz (fun s -> s.Trace.n_native_words));
  m "tape_words_picks" "words" (sz (fun s -> s.Trace.n_picks));
  let words = Float.max 1. (sz (fun s -> s.Trace.total_words)) in
  m "encode_ns_per_word" "ns" (t "trace.to_bytes" /. words *. 1e9);
  m "decode_ns_per_word" "ns" (t "trace.of_bytes" /. words *. 1e9);
  m "stream_write_ms" "ms" (Ctx.ms (t "dejavu.record_to" -. t "dejavu.record"));
  m "stream_read_ms" "ms" (Ctx.ms (t "dejavu.replay_from" -. t "dejavu.replay"));
  (* what one in-process record and replay of every program costs, for the
     cli closure *)
  (t "dejavu.record_to", t "dejavu.replay_from", t "analysis.run")

(* --- exploration --- *)

let explore (ctx : Ctx.t) (xs : Ops.explore_ref list) =
  let reps =
    List.init 3 (fun _ ->
        List.map (fun x -> Ops.explore ctx ~out:(Ctx.scratch ctx "explore") x) xs)
  in
  let one = List.hd reps in
  let schedules =
    List.fold_left (fun a ((rp : Explore.Driver.report), _) -> a + rp.rp_explored) 0 one
  in
  let pruned =
    List.fold_left (fun a ((rp : Explore.Driver.report), _) -> a + rp.rp_pruned) 0 one
  in
  let s = Util.median (List.map (fun r -> Util.sum (List.map snd r)) reps) in
  Ctx.metric ctx "schedules" "count" (float_of_int schedules);
  Ctx.metric ctx "pruned" "count" (float_of_int pruned);
  Ctx.metric ctx "schedule_ms" "ms" (Ctx.ms s /. float_of_int (max 1 schedules))

(* --- process start and registry build --- *)

let proc_start (ctx : Ctx.t) =
  let times =
    List.init 7 (fun _ ->
        let (x : Util.exit_info), s =
          Span.with_ "proc.dvrun_list" (fun () ->
              Util.timed (fun () -> Util.run_process ctx.dvrun [ "list" ]))
        in
        if x.code <> 0 then Ctx.break ctx "dvrun list failed";
        s)
  in
  let s = Util.median times in
  Ctx.metric ctx "proc_start_ms" "ms" (Ctx.ms s);
  s

(* --- the farm's server-side layers --- *)

(* Warm.acquire on a fresh pool boots; on the same entry again, after the
   VM has run the program, it resets the VM to its baseline. *)
let warm (ctx : Ctx.t) (refs : Refs.t array) =
  let boots = ref [] and resets = ref [] in
  for _ = 1 to 3 do
    let pool = Server.Warm.create () in
    Array.iter
      (fun (r : Refs.t) ->
        let acquire () =
          let vm, s =
            Util.timed (fun () ->
                Span.with_ "warm.acquire" (fun () ->
                    Server.Warm.acquire pool r.entry ~seed:r.seed))
          in
          ignore (Vm.run vm);
          s
        in
        boots := acquire () :: !boots;
        for _ = 1 to 3 do
          resets := acquire () :: !resets
        done)
      refs
  done;
  Ctx.metric ctx "warm_boot_us" "us" (Util.median !boots *. 1e6);
  Ctx.metric ctx "warm_reset_us" "us" (Util.median !resets *. 1e6)

let spec_of (ctx : Ctx.t) i (op : Server.Protocol.op) (r : Refs.t) =
  let workload = r.entry.name in
  match op with
  | Server.Protocol.Op_record ->
    J.Record { workload; seed = r.seed; out = Ctx.scratch ctx (Fmt.str "disp-%d.trace" i) }
  | Server.Protocol.Op_replay -> J.Replay { workload; trace = r.path }
  | _ -> J.Roundtrip { workload; seed = r.seed }

let check_output (r : Refs.t) (spec : J.spec) (o : J.output) =
  match spec with
  | J.Record { out; _ } ->
    Util.rm_rf out;
    if o.o_digest <> r.md5 then Refs.fail "dispatcher record %s: digest" r.entry.name
    else None
  | J.Replay _ ->
    if o.o_digest <> Refs.state_hex r || o.o_words <> 0 then
      Refs.fail "dispatcher replay %s: %s" r.entry.name o.o_status
    else None
  | _ ->
    if o.o_status <> "ok" || o.o_digest <> r.md5 then
      Refs.fail "dispatcher roundtrip %s: %s" r.entry.name o.o_status
    else None

(* An in-process dispatcher over the warm runner, fed the farm's job mix
   at the farm's rate the way [dvrun serve] feeds it one-job connections:
   each job is submitted when due, or when the one before it completes if
   that is later. The run callback is timed per job, so a job's dispatcher
   latency splits into exec and queue wait. *)
let dispatcher (ctx : Ctx.t) (refs : Refs.t array) ~seconds =
  let shards = Farm.shards () in
  let stats = Server.Stats.create () in
  let runner = J.runner ~stats ~shards () in
  let exec = Hashtbl.create 256 and mu = Mutex.create () in
  let run (c : D.ctx) spec =
    let o, s = Util.timed (fun () -> runner.run c spec) in
    Mutex.protect mu (fun () -> Hashtbl.replace exec c.seq s);
    o
  in
  let d = D.create ~shards ~place:runner.place ~stats ~run () in
  let by_name = Hashtbl.create 32 in
  Array.iter (fun (r : Refs.t) -> Hashtbl.replace by_name r.entry.name r) refs;
  let i = ref 0 in
  let submit op r =
    ignore (D.submit d (spec_of ctx !i op r));
    incr i
  in
  (* warm-up: every job kind once on every program *)
  Array.iter (fun op -> Array.iter (submit op) refs) Farm.ops;
  let n_warm = !i in
  for _ = 1 to n_warm do
    ignore (D.next d)
  done;
  let results = ref [] in
  let v0 = Server.Stats.view stats in
  let rs = Random.State.make [| 0xd15; ctx.seed |] in
  let next_job = Farm.job_stream rs refs in
  let t0 = Util.now () and due = ref 0. and late = ref [] in
  while !due < seconds do
    due := !due +. (1. /. Farm.rate);
    let wait = t0 +. !due -. Util.now () in
    if wait > 0. then Unix.sleepf wait;
    late := (Util.now () -. t0 -. !due) :: !late;
    let op, r = next_job () in
    submit op r;
    results := Option.get (D.next d) :: !results
  done;
  ignore (D.drain d);
  let results = !results in
  let v1 = Server.Stats.view stats in
  let execs = ref [] and waits = ref [] in
  List.iter
    (fun (res : (J.spec, J.output) D.result) ->
      let spec = res.r_payload in
      let r = Hashtbl.find by_name (J.workload_of spec) in
      (match res.r_outcome with
      | D.Done o -> Ctx.op ctx (check_output r spec o)
      | _ -> Ctx.op ctx (Refs.fail "dispatcher %s: not done" (J.describe spec)));
      let e = Hashtbl.find exec res.r_seq in
      execs := e :: !execs;
      waits := (res.r_latency -. e) :: !waits)
    results;
  let m = Ctx.metric ctx in
  m "exec_ms" "ms" (Ctx.ms (Util.median !execs));
  m "queue_wait_p50_ms" "ms" (Ctx.ms (Util.median !waits));
  let v, _, _ = Util.tail !waits in
  m "queue_wait_tail_ms" "ms" (Ctx.ms v);
  let hits = v1.v_warm_hits - v0.v_warm_hits
  and misses = v1.v_warm_misses - v0.v_warm_misses in
  m "warm_hit_frac" "fraction" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  m "gen_late_ms" "ms" (Ctx.ms (Util.median !late));
  (* the mean server-side job, for the farm closure *)
  Util.mean (List.map2 ( +. ) !execs !waits)

(* Client round trip minus the server's own latency, one job per
   connection, jobs one after another. Returns each answered job's round
   trip and server latency, in seconds. *)
let wire (ctx : Ctx.t) (refs : Refs.t array) =
  let srv = Farm.start_server ctx in
  Fun.protect
    ~finally:(fun () -> Farm.stop_server srv)
    (fun () ->
      let samples =
        List.concat_map
          (fun op ->
            List.filter_map
              (fun (r : Refs.t) ->
                let replies, s =
                  Util.timed (fun () -> Farm.submit srv [ Farm.req op r ])
                in
                match replies with
                | [ p ] ->
                  Ctx.op ctx (Farm.check srv r p);
                  Some (s, float_of_int p.p_latency_us /. 1e6)
                | _ ->
                  Ctx.op ctx (Refs.fail "farm %s: no reply" r.entry.name);
                  None)
              (Array.to_list refs))
          (Array.to_list Farm.ops)
      in
      Ctx.metric ctx "wire_ms" "ms"
        (Ctx.ms (Util.median (List.map (fun (rtt, lat) -> rtt -. lat) samples)));
      samples)
