(* Record mode: the live hooks are wrapped so that every non-deterministic
   operation's result is captured on its tape while execution proceeds
   exactly as it would have live. Deterministic operations — including every
   synchronization outcome and scheduler decision — are deliberately NOT
   recorded: replaying the thread package reproduces them for free (the
   paper's cross-optimization payoff). *)

(* Install the clock/input/native capture only (every replay scheme needs
   this part — the paper's footnote 7); the yield-point instrumentation is
   installed separately so baseline schemes can substitute their own. *)
let attach_io (vm : Vm.Rt.t) (s : Session.t) =
  vm.hooks.h_clock <-
    (fun vm reason ->
      let v =
        match reason with
        | Vm.Rt.Cidle earliest -> Vm.Env.idle_until vm.env earliest
        | Vm.Rt.Capp | Vm.Rt.Csched -> Vm.Env.read_clock vm.env
      in
      Trace.Tape.push s.clocks (Trace.tag_of_reason reason);
      Trace.Tape.push s.clocks v;
      Ring.put s.ring v;
      v);
  vm.hooks.h_input <-
    (fun vm ->
      let v = Vm.Env.read_input vm.env in
      Trace.Tape.push s.inputs v;
      Ring.put s.ring v;
      v);
  vm.hooks.h_native <-
    (fun vm nat args ->
      let outcome = nat.nat_fn vm args in
      Trace.push_native_outcome s.natives nat.nat_id outcome;
      Ring.put s.ring nat.nat_id;
      outcome)

(* The full DejaVu record attachment over a session's tapes: fresh
   growable ones ([attach]) or the writer's bounded buffers
   ([attach_stream]), which keep recorder-side trace memory O(buffer) no
   matter how long the run is. *)
let attach_session (vm : Vm.Rt.t) (s : Session.t) =
  attach_io vm s;
  vm.hooks.h_yieldpoint <- Figure2.record s;
  s

let attach vm = attach_session vm (Session.for_record vm)

let attach_stream vm w =
  attach_session vm (Session.create vm Session.Record (Trace.Writer.tapes w))

(* Finish a recording: produce the trace, stamped with the program digest
   and the static race audit's fingerprint (memoized per program, so
   repeated recordings of one program pay for the analysis once). *)
let finish (s : Session.t) : Trace.t =
  Session.to_trace s
    ~analysis_hash:(Audit.hash_for s.vm.program)
    (Bytecode.Decl.digest s.vm.program)

(* Seal a streamed recording into its destination file; the writer aborts
   itself on any failure, so no partial trace is left behind. *)
let finish_stream (s : Session.t) (w : Trace.Writer.t) : Trace.sizes =
  Trace.Writer.finish w
    ~program_digest:(Bytecode.Decl.digest s.vm.program)
    ~analysis_hash:(Audit.hash_for s.vm.program)
