(* The farm's job mix and the client side of [dvrun serve]: start and stop
   a server with N shards (N = the CPU count), submit over its socket, and
   judge each reply against the reference. The farm-layer probes of every
   traced run use these. *)

module P = Server.Protocol

(* Arrivals per second of the open-loop probe. A job of this mix takes
   about 4 ms, so 50/s keeps the farm about a fifth busy: the probe
   measures latency, not a backlog. *)
let rate = 50.

let shards () = max 1 (Domain.recommended_domain_count ())

type server = { pid : int; sock : string; out : string }

let submit srv reqs =
  Span.with_ "serve.client_submit" (fun () ->
      Server.Serve.client_submit ~socket_path:srv.sock reqs)

let req op (r : Refs.t) =
  P.Submit
    {
      q_op = op;
      q_workload = r.entry.name;
      q_seed = r.seed;
      q_trace = (if op = P.Op_replay then r.path else "");
      q_deadline_ms = 0;
      q_max_retries = 0;
    }

let trace_of srv (p : P.reply) =
  Filename.concat srv.out (Fmt.str "%s-%d.trace" p.p_workload p.p_seq)

(* Judge a reply against the reference; a record's trace file is removed
   once judged. *)
let check srv (r : Refs.t) (p : P.reply) =
  if p.p_op = P.Op_record then Util.rm_rf (trace_of srv p);
  if p.p_outcome <> 0 then
    Refs.fail "farm %s %s: %s" (P.string_of_op p.p_op) r.entry.name p.p_status
  else
    match p.p_op with
    | P.Op_record when p.p_digest <> r.md5 ->
      Refs.fail "farm record %s: trace digest differs" r.entry.name
    | P.Op_replay
      when p.p_digest <> Refs.state_hex r || p.p_words <> 0
           || p.p_status <> r.status ->
      Refs.fail "farm replay %s: %s %s" r.entry.name p.p_status p.p_digest
    | P.Op_roundtrip when p.p_status <> "ok" || p.p_digest <> r.md5 ->
      Refs.fail "farm roundtrip %s: %s" r.entry.name p.p_status
    | _ -> None

let start_server (ctx : Ctx.t) =
  let sock = Ctx.scratch ctx "farm.sock" and out = Ctx.scratch ctx "farm-out" in
  let pid =
    Util.spawn_process ctx.dvrun
      [ "serve"; "--shards"; string_of_int (shards ()); "--socket"; sock;
        "--out"; out ]
      ~log:(Ctx.scratch ctx "farm.log")
  in
  let srv = { pid; sock; out } in
  (* ready once the socket accepts a connection *)
  let rec wait k =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
      (* an empty conversation: Finish at once *)
      let oc = Unix.out_channel_of_descr fd in
      P.write_request oc P.Finish;
      flush oc;
      ignore (P.read_reply (Unix.in_channel_of_descr fd));
      Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if k = 0 then failwith "dvrun serve did not start";
      Unix.sleepf 0.005;
      wait (k - 1)
  in
  wait 2000;
  srv

let stop_server srv =
  ignore (Util.stop_process srv.pid);
  Util.rm_rf srv.sock;
  Util.rm_rf srv.out

let ops = [| P.Op_record; P.Op_replay; P.Op_roundtrip |]

(* Every job kind on every program, in a seeded order. The arrival
   schedule walks whole shuffles, so the seed moves the order of the work
   and never its amount. *)
let shuffled rs (refs : Refs.t array) =
  let all =
    Array.concat (Array.to_list (Array.map (fun op -> Array.map (fun r -> (op, r)) refs) ops))
  in
  for i = Array.length all - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- t
  done;
  all

(* An endless stream of jobs made of consecutive shuffles. *)
let job_stream rs refs =
  let cur = ref [||] and i = ref 0 in
  fun () ->
    if !i >= Array.length !cur then begin
      cur := shuffled rs refs;
      i := 0
    end;
    incr i;
    !cur.(!i - 1)
