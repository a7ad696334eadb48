(* Layer spans for the traced run. A span is recorded around each call the
   benchmark makes into a layer's public function: name, start, end, the
   enclosing span and the op it belongs to. Spans stay in memory and are
   written out once, at exit. With tracing off, [with_] is a plain call. *)

type t = {
  id : int;
  name : string;
  parent : int; (* -1 for an op's root span *)
  op : int;
  t0 : float;
  mutable t1 : float;
  mutable child : float; (* summed duration of direct children *)
}

let enabled = ref false

let spans : t list ref = ref []

let stack : t list ref = ref []

let next_id = ref 0

let next_op = ref 0

let with_ name f =
  if not !enabled then f ()
  else begin
    let parent, op =
      match !stack with
      | p :: _ -> (p.id, p.op)
      | [] ->
        incr next_op;
        (-1, !next_op)
    in
    let s =
      { id = !next_id; name; parent; op; t0 = Util.now (); t1 = 0.; child = 0. }
    in
    incr next_id;
    stack := s :: !stack;
    let finish () =
      s.t1 <- Util.now ();
      stack := List.tl !stack;
      (match !stack with
      | p :: _ -> p.child <- p.child +. (s.t1 -. s.t0)
      | [] -> ());
      spans := s :: !spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* The op the innermost open span belongs to; -1 outside any span. *)
let current_op () = match !stack with s :: _ -> s.op | [] -> -1

let duration s = s.t1 -. s.t0

let self s = duration s -. s.child

let named name = List.filter (fun s -> s.name = name) !spans

(* Root spans whose name starts with [prefix]: the ops themselves. *)
let roots prefix =
  let n = String.length prefix in
  List.filter
    (fun s ->
      s.parent < 0 && String.length s.name >= n && String.sub s.name 0 n = prefix)
    !spans

let write path =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "id\tparent\top\tname\tstart_s\tend_s\tself_s\n";
      let base =
        List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans
      in
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\t%.9f\n" s.id s.parent
            s.op s.name (s.t0 -. base) (s.t1 -. base) (self s))
        (List.rev !spans))
