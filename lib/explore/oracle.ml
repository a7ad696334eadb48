(* The explorer's static conflict oracle: the race audit's branch points,
   resolved to executable program points.

   `dvrun lint` already computes, for every field with at least one
   conflicting access pair, the set of access sites involved — the
   (site, field) "branch points" a systematic explorer must enumerate
   (Report.branch_points). This module turns those site strings
   ("Class.method:source-pc") into per-method bitmaps over *compiled* pcs,
   so the controlled scheduler can ask, one array index per heap access,
   "is this access at a conflict site?".

   The bitmap is resolved against a live VM because compiled pcs only
   exist after the JIT runs; [Rt.compiled.k_src_pc] maps them back to the
   source pcs the analysis named. Method uids are assigned at link time
   from the program's declaration order, so a bitmap computed against one
   VM is valid for every VM of the same program — callers may cache per
   uid across runs (Control keeps such a cache per exploration).

   Time sensitivity: the segment-commutation argument behind DPOR pruning
   (see Control) breaks when a program reads the environment clock — the
   clock ticks per instruction, so even a pure spin segment changes what a
   *later* clock read in another thread returns. If the program contains
   any time-observing instruction we mark the oracle time-sensitive and
   the scheduler treats every segment as conflicting (pruning off, search
   still bounded). *)

module Report = Analysis.Report

type t = {
  sites : (string, unit) Hashtbl.t; (* "Class.method:srcpc" *)
  n_sites : int;
  time_sensitive : bool;
  report : Report.t;
}

let time_sensitive_instr (ins : Bytecode.Instr.t) =
  match ins with
  | Bytecode.Instr.Sleep | Bytecode.Instr.Timedwait
  | Bytecode.Instr.Currenttime ->
    true
  | _ -> false

let program_time_sensitive (p : Bytecode.Decl.program) =
  List.exists
    (fun (c : Bytecode.Decl.cdecl) ->
      List.exists
        (fun (m : Bytecode.Decl.mdecl) ->
          Array.exists time_sensitive_instr m.Bytecode.Decl.m_code)
        c.Bytecode.Decl.cd_methods)
    p.Bytecode.Decl.classes

(* Build the oracle from a (possibly memoized) audit report. *)
let of_report (report : Report.t) (program : Bytecode.Decl.program) : t =
  let sites = Hashtbl.create 16 in
  List.iter
    (fun (site, _field) -> Hashtbl.replace sites site ())
    (Report.branch_points report);
  {
    sites;
    n_sites = Hashtbl.length sites;
    time_sensitive = program_time_sensitive program;
    report;
  }

let build ~name (program : Bytecode.Decl.program) : t =
  of_report (Analysis.run ~name program) program

(* Oracles are shared read-only across farm shards; memoize per workload
   name under a mutex so concurrent jobs build each one exactly once. *)
let memo : (string, t) Hashtbl.t = Hashtbl.create 8
let memo_mu = Mutex.create ()

let for_entry (e : Workloads.Registry.entry) : t =
  Mutex.lock memo_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock memo_mu)
    (fun () ->
      match Hashtbl.find_opt memo e.name with
      | Some o -> o
      | None ->
        let o = build ~name:e.name e.program in
        Hashtbl.add memo e.name o;
        o)

(* Per-method conflict bitmap over compiled pcs, resolved against [vm]'s
   compiled tier for method [uid]. Returns [||] for uncompiled methods
   (the interpreter compiles on first call, so a method being executed is
   always compiled by the time a heap-access hook fires inside it). *)
let bitmap (o : t) (vm : Vm.Rt.t) (uid : int) : bool array =
  let m = Vm.Rt.the_method vm uid in
  match m.Vm.Rt.rm_compiled with
  | None -> [||]
  | Some c ->
    let cls = vm.Vm.Rt.classes.(m.Vm.Rt.rm_cid) in
    let key = cls.Vm.Rt.rc_name ^ "." ^ m.Vm.Rt.rm_name in
    Array.map
      (fun src -> Hashtbl.mem o.sites (key ^ ":" ^ string_of_int src))
      c.Vm.Rt.k_src_pc
