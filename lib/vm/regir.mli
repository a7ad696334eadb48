(** Register-IR lowering: translates verified stack bytecode into
    straight-line regions of register operations ([Rt.rop]) dispatched by
    the fast interpreter loop. Regions preserve canonical pc numbering,
    tick accounting, and every observable operand-stack write (DESIGN.md
    sections 7 and 10). *)

exception Error of string

(** Build the region table for a verified method body. Indexed by entry
    pc; [None] everywhere a region does not start. Regions never cross
    branch targets, handler boundaries, or excluded instructions, and
    only cover runs of at least two instructions. [inline] is the
    compiler's tiny-callee predicate: a call instruction it maps to
    [Some callee] is spliced mid-region ([Rt.RInlineStatic] /
    [Rt.RInlineVirtual]) instead of ending it; the returned method is
    the statically predicted target, used only for its arity and return
    shape — the runtime still dispatches through the shared inline
    cache. *)
val lower :
  ?inline:(Rt.cinstr -> Rt.rmethod option) ->
  nlocals:int ->
  max_stack:int ->
  Rt.cinstr array ->
  Rt.rhandler array ->
  Rt.refmap array ->
  Rt.region option array

(** Static audit of a lowered region table against the canonical code,
    run by the compiler when [cfg.audit] is on. Checks extents, tick
    totals, slot bounds, fault-time sp slots against the reference maps,
    operand agreement with [k_code], and physical sharing of inline-cache
    cells. Raises [Error] on any violation. *)
val check :
  Rt.rmethod ->
  Rt.cinstr array ->
  Rt.rhandler array ->
  Rt.refmap array ->
  nlocals:int ->
  max_stack:int ->
  Rt.region option array ->
  unit
