(* The box-speed reference. On a shared VM the same binary's speed drifts by
   20-30% over tens of seconds, and most of that drift is common to any
   interpreter-shaped code. The benchmark times this fixed kernel, which
   no change to the repository can touch, between its passes, and reports
   its end-to-end timings scaled by [nominal / median kernel time]:
   seconds on a box where the kernel takes [nominal]. The raw figures and
   the factor go to stderr. *)

type op =
  | Const of int | Load of int | Store of int | Add | Sub | Mul | Lt
  | Jmp of int | Jz of int | Call of int | Ret | Dup | New of int
  | SetF of int | Hput | Xor | Shl | Shr | Halt

(* fib 21 by recursion, then a loop that allocates records and hashes
   them: dispatch through a large match, calls, allocation, a hash table *)
let program =
  [|
    Const 21; Call 32; Store 0; Const 0; Store 1;
    (* 5: while i < 3000 *)
    Load 1; Const 3000; Lt; Jz 31;
    Const 3; New 3; Dup; Load 1; SetF 0; Load 1; Const 7919; Mul; Hput;
    Load 1; Const 1; Add; Store 1;
    Load 0; Load 1; Xor; Const 3; Shl; Const 2; Shr; Store 0;
    Jmp 5;
    (* 31 *)
    Halt;
    (* 32: fib n *)
    Load 0; Const 2; Lt; Jz 38; Load 0; Ret;
    (* 38 *)
    Load 0; Const 1; Sub; Call 32; Load 0; Const 2; Sub; Call 32; Add; Ret;
  |]

type frame = { locals : int array; ret : int }

let kernel () =
  let stack = Array.make 4096 0 and sp = ref 0 in
  let table = Hashtbl.create 1024 in
  let objs = ref [||] and nobj = ref 0 in
  let push v =
    stack.(!sp) <- v;
    incr sp
  in
  let pop () =
    decr sp;
    stack.(!sp)
  in
  let frames = ref [ { locals = Array.make 4 0; ret = -1 } ] in
  let pc = ref 0 and running = ref true in
  while !running do
    let f = List.hd !frames in
    let i = program.(!pc) in
    incr pc;
    match i with
    | Const n -> push n
    | Load k -> push f.locals.(k)
    | Store k -> f.locals.(k) <- pop ()
    | Add -> let b = pop () in push (pop () + b)
    | Sub -> let b = pop () in push (pop () - b)
    | Mul -> let b = pop () in push (pop () * b)
    | Lt -> let b = pop () in push (if pop () < b then 1 else 0)
    | Xor -> let b = pop () in push (pop () lxor b)
    | Shl -> let b = pop () in push (pop () lsl b)
    | Shr -> let b = pop () in push (pop () asr b)
    | Jmp t -> pc := t
    | Jz t -> if pop () = 0 then pc := t
    | Call t ->
      let locals = Array.make 4 0 in
      locals.(0) <- pop ();
      frames := { locals; ret = !pc } :: !frames;
      pc := t
    | Ret ->
      frames := List.tl !frames;
      pc := f.ret
    | Dup -> let a = pop () in push a; push a
    | New n ->
      ignore (pop ());
      if !nobj >= Array.length !objs then
        objs := Array.append !objs (Array.make (max 16 !nobj) [||]);
      !objs.(!nobj) <- Array.make n 0;
      push !nobj;
      incr nobj
    | SetF k -> let v = pop () in !objs.(pop ()).(k) <- v
    | Hput -> let v = pop () in Hashtbl.replace table (pop ()) v
    | Halt -> running := false
  done;
  Hashtbl.length table

(* The kernel's time on a quiet box. *)
let nominal = 0.005

let samples = ref []

let sample () =
  let t0 = Util.now () in
  ignore (Sys.opaque_identity (kernel ()));
  samples := (Util.now () -. t0) :: !samples

(* What a time measured in this run is multiplied by. *)
let factor () = nominal /. Util.median !samples

(* [Util.passes], with a kernel sample before every pass. *)
let passes ?min ~until f =
  Util.passes ?min ~until (fun i ->
      sample ();
      f i)
