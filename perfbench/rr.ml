(* The in-process record/replay workloads.

   rr-compute: long compute-bound programs. Dispatch, the virtual clock,
   the register tier and the GC do nearly all the work; the trace is a few
   words per thousand instructions and set-up is a rounding error, so a
   trace-codec or start-up change should leave these numbers alone.

   rr-sync: synchronization- and input-heavy programs at the default VM
   config. Tapes, the recorder and replayer hooks, Trace.Reader refills,
   the scheduler and monitor paths and the register tier's region
   fallbacks all carry measurable work, and record (Writer) sits beside
   replay (Reader), so a change that speeds one and slows the other shows.
   Five programs and two explorations make an odd count of jobs per pass,
   so the median job is one job's time and never the mean of two. *)

module R = Workloads

let entry name program = Workloads.Registry.entry name "perfbench" program

let programs = function
  | `Compute ->
    [
      entry "primes-n14000" (R.Compute.primes ~n:14000 ());
      entry "parsum-s100000" (R.Compute.parsum ~size:100000 ());
      entry "gc-churn-r200" (R.Gc_churn.program ~rounds:200 ());
    ]
  | `Sync ->
    [
      entry "bank-t5000" (R.Bank.program ~transfers:5000 ());
      entry "webserver-r6000" (R.Webserver.program ~requests:6000 ());
      entry "producer-consumer-i5000"
        (R.Producer_consumer.program ~items:5000 ());
      entry "racy-counter-i10000" (R.Counters.racy ~increments:10000 ());
      entry "ring-l2000" (R.Ring_actors.program ~laps:2000 ());
    ]

type state = {
  refs : Refs.t list;
  explores : Ops.explore_ref list;
}

(* Program construction, references, the planted-trace self-check and the
   exploration references. *)
let setup (ctx : Ctx.t) kind =
  let entries = programs kind in
  let seeds = Util.seeds ~seed:ctx.seed (List.length entries + 3) in
  let refs =
    List.mapi
      (fun i e -> Refs.build ~dir:ctx.dir e ~seed:(List.nth seeds i))
      entries
  in
  let bank =
    Refs.build ~dir:ctx.dir
      (Option.get (Workloads.Registry.find "bank"))
      ~seed:(List.nth seeds (List.length entries))
  in
  let caught = Refs.planted ~dir:ctx.dir bank in
  Sys.remove bank.path;
  if caught <> 2 then
    Ctx.break ctx (Fmt.str "oracle caught %d of 2 planted bad traces" caught);
  let explores =
    List.mapi
      (fun i name ->
        Ops.explore_ref ~out:(Ctx.scratch ctx "explore") name
          ~seed:(List.nth seeds (List.length entries + 1 + i)))
      Ops.explore_targets
  in
  { refs; explores }

let teardown st = List.iter (fun (r : Refs.t) -> Util.rm_rf r.path) st.refs

let pass (ctx : Ctx.t) st ~traced : Pass.t =
  let path = Ctx.scratch ctx "op.trace" in
  let rts = List.map (fun r -> Ops.roundtrip ctx ~traced r path) st.refs in
  Util.rm_rf path;
  let explores =
    List.map
      (fun x -> snd (Ops.explore ctx ~out:(Ctx.scratch ctx "explore") x))
      st.explores
  in
  { rts; explores; jobs = List.map (fun (a, b) -> a +. b) rts @ explores; rss_kb = 0 }

let report (ctx : Ctx.t) st passes ~wall =
  Pass.report ctx st.refs passes ~jobs:"jobs (roundtrips and explorations)" ~wall
    ~peak_rss_mb:(Util.self_peak_rss_mb ())
