(* The cli workload: the shipped dvrun binary, one process per op. Every
   registry program at its default size goes through [dvrun record] and
   then [dvrun replay], each under its own seed, and [dvrun explore
   --expect-failure] searches the two seeded bugs. Process start, the
   registry build, linking, compile/verify/lower and the audit stamp are
   most of each op's time and dispatch is a small part: the reverse of
   rr-compute. *)

type state = { refs : Refs.t list; explores : Ops.explore_ref list }

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let explore_args (x : Ops.explore_ref) ~out =
  [ "explore"; x.x_entry.name; "--seed"; string_of_int x.x_seed;
    "--expect-failure"; "--out"; out ]

let setup (ctx : Ctx.t) =
  let entries = Lazy.force Workloads.Registry.all in
  let seeds = Util.seeds ~seed:ctx.seed (List.length entries + 2) in
  let refs =
    List.mapi (fun i e -> Refs.build ~dir:ctx.dir e ~seed:(List.nth seeds i)) entries
  in
  let explores =
    List.mapi
      (fun i name ->
        Ops.explore_ref ~out:(Ctx.scratch ctx "explore") name
          ~seed:(List.nth seeds (List.length entries + i)))
      Ops.explore_targets
  in
  { refs; explores }

let teardown st = List.iter (fun (r : Refs.t) -> Util.rm_rf r.path) st.refs

let dvrun (ctx : Ctx.t) args =
  Span.with_ "proc.dvrun" (fun () ->
      Util.timed (fun () -> Util.run_process ctx.dvrun args))

let pass (ctx : Ctx.t) st : Pass.t =
  let path = Ctx.scratch ctx "op.trace" in
  let rss = ref 0 in
  let jobs = ref [] in
  let run args check =
    let (x : Util.exit_info), s = dvrun ctx args in
    rss := max !rss x.maxrss_kb;
    jobs := s :: !jobs;
    Ctx.op ctx
      (if x.code <> 0 then Refs.fail "dvrun %s: exit %d" (List.hd args) x.code
       else check x.stdout);
    s
  in
  let rts =
    List.map
      (fun (r : Refs.t) ->
        let rec_s =
          run
            [ "record"; r.entry.name; "-o"; path; "--seed"; string_of_int r.seed ]
            (fun _ ->
              if Digest.to_hex (Digest.file path) <> r.md5 then
                Refs.fail "%s: trace bytes differ" r.entry.name
              else None)
        in
        let rep_s =
          run
            [ "replay"; r.entry.name; "-i"; path ]
            (fun out ->
              if out <> Refs.cli_replay_stdout r then
                Refs.fail "%s: dvrun replay printed %S" r.entry.name out
              else None)
        in
        (rec_s, rep_s))
      st.refs
  in
  Util.rm_rf path;
  let out = Ctx.scratch ctx "explore" in
  let explores =
    List.map
      (fun (x : Ops.explore_ref) ->
        Util.rm_rf out;
        let s =
          run (explore_args x ~out) (fun o ->
              if first_line o <> x.x_summary then
                Refs.fail "explore %s: %S" x.x_entry.name (first_line o)
              else None)
        in
        Util.rm_rf out;
        s)
      st.explores
  in
  { rts; explores; jobs = !jobs; rss_kb = !rss }

let report (ctx : Ctx.t) st (passes : Pass.t list) ~wall =
  Pass.report ctx st.refs passes ~jobs:"dvrun processes" ~wall
    ~peak_rss_mb:
      (Util.median (List.map (fun (p : Pass.t) -> float_of_int p.rss_kb /. 1024.) passes))
