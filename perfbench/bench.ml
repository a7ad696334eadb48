(* perfbench: the repository's end-to-end benchmark. See README.md.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --dir SCRATCH --dvrun PATH

   Prints progress on stderr and, as the last line of stdout, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 a separate traced
   run gives the per-layer ones. *)

let die fmt = Fmt.kstr (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  dir : string;
  dvrun : string;
}

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | x :: _ -> die "unexpected argument %S" x
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k =
    match Hashtbl.find_opt tbl k with Some v -> v | None -> die "missing --%s" k
  in
  let int k =
    match int_of_string_opt (get k) with Some n -> n | None -> die "--%s: not an integer" k
  in
  let seconds = int "seconds" in
  if seconds < 1 then die "--seconds must be at least 1";
  {
    workload = get "workload";
    seed = int "seed";
    seconds = float_of_int seconds;
    trace =
      (match get "trace" with
      | "0" -> false
      | "1" -> true
      | _ -> die "--trace takes 0 or 1");
    dir = get "dir";
    dvrun = get "dvrun";
  }

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* The metrics BENCHMARK.json declares, in its order. *)
let end_to_end =
  [ "setup_s"; "record_s"; "replay_s"; "explore_s"; "trace_bytes";
    "job_p50_ms"; "job_tail_ms"; "jobs_per_s"; "peak_rss_mb" ]

let per_layer =
  [ "proc_start_ms"; "registry_build_ms"; "create_ms"; "compile_ms";
    "compiled_methods"; "audit_ms"; "dispatch_ns_per_instr";
    "dispatch_stack_ns_per_instr"; "clock_ns_per_instr"; "instructions";
    "regir_coverage"; "regir_mon_frac"; "regir_inline"; "gc_count";
    "alloc_words_per_kinstr"; "minor_words_per_instr"; "yields_per_kinstr";
    "switches_per_minstr"; "monitor_ops_per_kinstr"; "record_overhead";
    "record_hook_ns_per_yield"; "replay_overhead"; "replay_hook_ns_per_yield";
    "tape_words_switches"; "tape_words_clocks"; "tape_words_inputs";
    "tape_words_natives"; "tape_words_picks"; "encode_ns_per_word";
    "decode_ns_per_word"; "stream_write_ms"; "stream_read_ms";
    "warm_reset_us"; "warm_boot_us"; "warm_hit_frac"; "exec_ms";
    "queue_wait_p50_ms"; "queue_wait_tail_ms"; "wire_ms"; "schedules";
    "pruned"; "schedule_ms"; "gen_late_ms"; "tracing_overhead_frac";
    "unaccounted_frac"; "farm_unaccounted_frac" ]

(* End-to-end timings are reported at the reference box speed (see
   Speed); layer metrics as measured. *)
let scaled ~traced (_, v, unit) =
  if traced then v
  else
    match unit with
    | "s" | "ms" -> v *. Speed.factor ()
    | "1/s" -> v /. Speed.factor ()
    | _ -> v

let print_result (ctx : Ctx.t) =
  let names = if ctx.traced then per_layer else end_to_end in
  if not ctx.traced then
    Fmt.epr "box speed: kernel median %.3f ms over %d samples, factor %.4f@."
      (Ctx.ms (Util.median !Speed.samples))
      (List.length !Speed.samples) (Speed.factor ());
  let metrics =
    List.filter_map
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) ctx.metrics with
        | Some ((_, v, unit) as m) when Float.is_finite v ->
          if not ctx.traced then Fmt.epr "raw %s = %g %s@." name v unit;
          Some (name, scaled ~traced:ctx.traced m, unit)
        | _ ->
          Ctx.break ctx ("no value for " ^ name);
          None)
      names
  in
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  List.iter (fun n -> Fmt.epr "failed op: %s@." n) (List.rev ctx.notes);
  Option.iter (fun b -> Fmt.epr "benchmark error: %s@." b) ctx.broken;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (ctx.broken = None) ctx.attempted ctx.failed
    (String.concat ", " metrics)

(* Set up [n] times and keep the last; the median set-up time (including
   the untimed warm-up pass) is the workload's setup_s. *)
let setup_median (ctx : Ctx.t) ~n ~setup ~warm ~teardown =
  let rec go k times =
    Speed.sample ();
    let st, s =
      Util.timed (fun () ->
          let st = setup () in
          warm st;
          st)
    in
    if k = n then (st, Util.median (s :: times))
    else begin
      teardown st;
      go (k + 1) (s :: times)
    end
  in
  let st, s = go 1 [] in
  Ctx.metric ctx "setup_s" "s" s;
  st

(* Alternate untraced and traced passes until [until]; returns both. *)
let split_passes ~until f =
  let ps =
    Util.passes ~min:4 ~until (fun i ->
        let traced = i mod 2 = 1 in
        Span.enabled := traced;
        let p = f ~traced in
        Span.enabled := true;
        (traced, p))
  in
  ( List.filter_map (fun (t, p) -> if t then None else Some p) ps,
    List.filter_map (fun (t, p) -> if t then Some p else None) ps )

(* References for every registry program, for the farm-layer probes of the
   workloads whose own programs are not in the registry. *)
let registry_refs (ctx : Ctx.t) =
  let entries = Lazy.force Workloads.Registry.all in
  let seeds = Util.seeds ~seed:(ctx.seed + 1) (List.length entries) in
  List.map2 (fun e s -> Refs.build ~dir:ctx.dir e ~seed:s) entries seeds

(* The probes every traced run makes; returns the in-process record and
   replay cost of [refs], their audit cost and dvrun's start-up cost. *)
let probes (ctx : Ctx.t) ~refs ~registry ~explores ~seconds =
  let costs = Layers.programs ctx refs ~seconds in
  Layers.explore ctx explores;
  let start = Layers.proc_start ctx in
  let registry = Array.of_list registry in
  Layers.warm ctx registry;
  let in_process = Layers.dispatcher ctx registry ~seconds:1.5 in
  let served = Layers.wire ctx registry in
  (* one farm job: the round trip is the wire plus the server's latency,
     which the in-process dispatcher splits into exec and queue wait *)
  Ctx.metric ctx "farm_unaccounted_frac" "fraction"
    ((Util.mean (List.map snd served) -. in_process)
    /. Util.mean (List.map fst served));
  (costs, start)

(* One run of a workload. Untraced, it times passes for --seconds and
   reports the end-to-end metrics. Traced, it spends half the time on
   alternating untraced and traced passes, the other half on the layer
   probes, and [closure] turns what it measured into unaccounted_frac. *)
let run (ctx : Ctx.t) ~setup ~pass ~teardown ~report ~refs ~explores ~registry
    ~closure =
  let st =
    setup_median ctx ~n:5 ~setup
      ~warm:(fun st -> ignore (pass st ~traced:false))
      ~teardown
  in
  let t0 = Util.now () in
  if not ctx.traced then begin
    let ps =
      Speed.passes ~until:(t0 +. ctx.seconds) (fun _ -> pass st ~traced:false)
    in
    report st ps ~wall:(Util.now () -. t0)
  end
  else begin
    let half = ctx.seconds /. 2. in
    let untraced, traced = split_passes ~until:(t0 +. half) (pass st) in
    let median ps = Util.median (List.map Pass.total ps) in
    Ctx.metric ctx "tracing_overhead_frac" "fraction"
      ((median traced /. median untraced) -. 1.);
    let costs =
      probes ctx ~refs:(refs st) ~registry:(registry st) ~explores:(explores st)
        ~seconds:half
    in
    Ctx.metric ctx "unaccounted_frac" "fraction"
      (closure st ~untraced:(median untraced) costs)
  end;
  teardown st

(* The share of a traced record or replay no layer span covers. *)
let span_closure _ ~untraced:_ _ =
  let ops = Span.roots "op." in
  Util.sum (List.map Span.self ops) /. Util.sum (List.map Span.duration ops)

(* A dvrun record or replay = process start and registry build (dvrun
   list) + the in-process record_to or replay_from + the audit, which a
   fresh process cannot take from a cache. *)
let cli_closure (st : Cli.state) ~untraced ((rec_to, rep_from, audit), start) =
  let n = float_of_int (List.length st.refs) in
  1. -. (((2. *. n *. start) +. rec_to +. rep_from +. (2. *. audit)) /. untraced)

let rr (ctx : Ctx.t) kind =
  run ctx
    ~setup:(fun () -> Rr.setup ctx kind)
    ~pass:(Rr.pass ctx) ~teardown:Rr.teardown ~report:(Rr.report ctx)
    ~refs:(fun (st : Rr.state) -> st.refs)
    ~explores:(fun (st : Rr.state) -> st.explores)
    ~registry:(fun _ -> registry_refs ctx)
    ~closure:span_closure

let cli (ctx : Ctx.t) =
  run ctx
    ~setup:(fun () -> Cli.setup ctx)
    ~pass:(fun st ~traced:_ -> Cli.pass ctx st)
    ~teardown:Cli.teardown ~report:(Cli.report ctx)
    ~refs:(fun (st : Cli.state) -> st.refs)
    ~explores:(fun (st : Cli.state) -> st.explores)
    ~registry:(fun (st : Cli.state) -> st.refs)
    ~closure:cli_closure

let () =
  let a = parse_args () in
  let ctx : Ctx.t =
    {
      workload = a.workload;
      seed = a.seed;
      seconds = a.seconds;
      traced = a.trace;
      dir = a.dir;
      dvrun = a.dvrun;
      attempted = 0;
      failed = 0;
      notes = [];
      broken = None;
      metrics = [];
    }
  in
  Util.mkdir_p ctx.dir;
  let (), registry_s = Util.timed (fun () -> ignore (Lazy.force Workloads.Registry.all)) in
  Ctx.metric ctx "registry_build_ms" "ms" (Ctx.ms registry_s);
  Span.enabled := ctx.traced;
  let workload =
    match a.workload with
    | "rr-compute" -> fun () -> rr ctx `Compute
    | "rr-sync" -> fun () -> rr ctx `Sync
    | "cli" -> fun () -> cli ctx
    | w -> die "unknown workload %S" w
  in
  (* a program that cannot even produce its references (say, a replay that
     no longer matches its recording) is a failed run, not a crash *)
  (try workload () with
  | e ->
    let why = "workload aborted: " ^ Printexc.to_string e in
    Ctx.op ctx (Some why);
    Ctx.break ctx why);
  if ctx.traced then begin
    let path =
      Filename.concat (Filename.dirname ctx.dir)
        (Fmt.str "spans-%s-seed%d.tsv" ctx.workload ctx.seed)
    in
    Span.write path;
    Fmt.epr "spans: %s@." path
  end;
  Util.rm_rf ctx.dir;
  print_result ctx
