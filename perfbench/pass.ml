(* One timed pass over a workload's programs, and the end-to-end metrics of
   a run of passes. *)

type t = {
  rts : (float * float) list; (* per program: record and replay seconds *)
  explores : float list; (* per exploration target, seconds *)
  jobs : float list; (* the pass's job latencies, seconds *)
  rss_kb : int; (* largest child process, 0 when none ran *)
}

(* Record and replay wall of one pass, for the tracing-overhead ratio. *)
let total p = Util.sum (List.map (fun (a, b) -> a +. b) p.rts)

(* A phase of the workload, one op per program: the sum over programs of
   each program's median op, so one slow op moves one term, not the sum. *)
let phase (f : t -> float list) (passes : t list) =
  match passes with
  | [] -> nan
  | p :: _ ->
    Util.sum
      (List.mapi
         (fun i _ -> Util.median (List.map (fun p -> List.nth (f p) i) passes))
         (f p))

let report (ctx : Ctx.t) (refs : Refs.t list) (passes : t list) ~jobs ~wall
    ~peak_rss_mb =
  let m = Ctx.metric ctx in
  List.iteri
    (fun i (r : Refs.t) ->
      let col f =
        Ctx.ms (Util.median (List.map (fun p -> f (List.nth p.rts i)) passes))
      in
      Fmt.epr "%-26s %9d instr %7d trace bytes  record %7.2f ms  replay %7.2f ms@."
        r.entry.name r.n_instr r.bytes (col fst) (col snd))
    refs;
  m "record_s" "s" (phase (fun p -> List.map fst p.rts) passes);
  m "replay_s" "s" (phase (fun p -> List.map snd p.rts) passes);
  m "explore_s" "s" (phase (fun p -> p.explores) passes);
  m "trace_bytes" "bytes"
    (float_of_int (List.fold_left (fun acc (r : Refs.t) -> acc + r.bytes) 0 refs));
  let all = List.concat_map (fun p -> p.jobs) passes in
  m "job_p50_ms" "ms" (Ctx.ms (Util.median all));
  let v, pct, n = Util.tail all in
  m "job_tail_ms" "ms" (Ctx.ms v);
  Fmt.epr "job tail: p%.1f of %d %s@." pct n jobs;
  m "jobs_per_s" "1/s" (float_of_int (List.length all) /. wall);
  m "peak_rss_mb" "MiB" peak_rss_mb
