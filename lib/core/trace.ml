(* Trace representation and codec.

   Following the paper (footnote 7: wall-clock logging "need be done
   independently of thread switch information in all replay schemes"), a
   trace holds one tape per non-deterministic event kind:
     - switches: yield-point deltas (nyp) between preemptive thread switches
     - clocks:   (reason, value) pairs for every wall-clock read
     - inputs:   external input values
     - natives:  native-call outcomes: result and callback parameters
     - picks:    dispatch-override decisions (one tid per h_pick
                 consultation), recorded only by controlled schedulers; the
                 section is optional on disk — absent when empty, so traces
                 from ordinary recordings are byte-identical to DJVU2 files
                 written before the section existed

   Tapes are flat integer sequences; the file format is a zigzag-varint
   stream with a header carrying a structural digest of the program so a
   trace cannot be replayed against the wrong code. *)

exception End_of_tape of string

exception Format_error of string

module Tape = struct
  type t = {
    name : string;
    mutable data : int array;
    mutable len : int;
    mutable rd : int; (* read cursor (replay) *)
    mutable base : int; (* elements flushed to a sink / consumed by refills *)
    mutable pending : int; (* elements still in the source beyond [data] *)
    mutable sink : (int array -> int -> unit) option;
        (* streaming record: drains [data.(0..len)] when the buffer fills *)
    mutable refill : (t -> bool) option;
        (* streaming replay: loads the next chunk; false at end of stream *)
  }

  let create name =
    {
      name;
      data = Array.make 64 0;
      len = 0;
      rd = 0;
      base = 0;
      pending = 0;
      sink = None;
      refill = None;
    }

  let of_array name data =
    {
      name;
      data;
      len = Array.length data;
      rd = 0;
      base = 0;
      pending = 0;
      sink = None;
      refill = None;
    }

  (* A tape draining into [sink]: the buffer is a fixed [cap] words, flushed
     whenever it fills, so a recording holds at most [cap] unflushed words
     per tape regardless of run length. *)
  let with_sink name ~cap sink =
    {
      name;
      data = Array.make (max 1 cap) 0;
      len = 0;
      rd = 0;
      base = 0;
      pending = 0;
      sink = Some sink;
      refill = None;
    }

  (* A tape filled on demand by [refill]; [pending] is the element count the
     source still holds, so [remaining] stays exact for leftover checks. *)
  let of_refill name ~pending refill =
    {
      name;
      data = [||];
      len = 0;
      rd = 0;
      base = 0;
      pending;
      sink = None;
      refill = Some refill;
    }

  let is_streaming t = t.sink <> None || t.refill <> None

  let flush t =
    match t.sink with
    | Some f when t.len > 0 ->
      f t.data t.len;
      t.base <- t.base + t.len;
      t.len <- 0
    | _ -> ()

  let push t v =
    if t.len >= Array.length t.data then begin
      match t.sink with
      | Some _ -> flush t
      | None ->
        let bigger = Array.make (2 * Array.length t.data) 0 in
        Array.blit t.data 0 bigger 0 t.len;
        t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let rec read t =
    if t.rd >= t.len then begin
      match t.refill with
      | Some f when f t -> read t
      | _ -> raise (End_of_tape t.name)
    end
    else begin
      let v = t.data.(t.rd) in
      t.rd <- t.rd + 1;
      v
    end

  let read_opt t = match read t with v -> Some v | exception End_of_tape _ -> None

  let remaining t = t.len - t.rd + t.pending

  let length t = t.base + t.len

  let to_array t =
    if is_streaming t then
      invalid_arg (Fmt.str "Tape.to_array: %s is a streaming tape" t.name);
    Array.sub t.data 0 t.len
end

type t = {
  program_digest : string;
  analysis_hash : string;
      (* fingerprint of the static race audit the program was recorded
         under ("" = recorded without an audit); the replayer refuses a
         trace stamped with a different audit, so a replay never silently
         runs under different thread-local/racy assumptions than the
         recording (e.g. the Observer's thread-local fast path) *)
  switches : int array;
  clocks : int array; (* flattened (reason, value) pairs *)
  inputs : int array;
  natives : int array; (* flattened native records *)
  picks : int array; (* dispatch overrides; [||] for ordinary recordings *)
}

(* Clock-read reason tags. *)
let tag_of_reason = function
  | Vm.Rt.Capp -> 0
  | Vm.Rt.Csched -> 1
  | Vm.Rt.Cidle _ -> 2

let reason_name = function
  | 0 -> "app"
  | 1 -> "sched"
  | 2 -> "idle"
  | _ -> "?"

(* Native outcome encoding, onto a tape:
   [native_id; has_result; result?; n_callbacks; (uid; nargs; args...)* ] *)
let push_native_outcome tape nat_id (o : Vm.Rt.native_outcome) =
  Tape.push tape nat_id;
  (match o.no_result with
  | Some v ->
    Tape.push tape 1;
    Tape.push tape v
  | None -> Tape.push tape 0);
  Tape.push tape (List.length o.no_callbacks);
  List.iter
    (fun (uid, args) ->
      Tape.push tape uid;
      Tape.push tape (Array.length args);
      Array.iter (Tape.push tape) args)
    o.no_callbacks

let read_native_outcome tape : int * Vm.Rt.native_outcome =
  let nat_id = Tape.read tape in
  let no_result =
    match Tape.read tape with
    | 1 -> Some (Tape.read tape)
    | 0 -> None
    | k -> raise (Format_error (Fmt.str "bad has_result %d" k))
  in
  let ncb = Tape.read tape in
  let no_callbacks =
    List.init ncb (fun _ ->
        let uid = Tape.read tape in
        let n = Tape.read tape in
        (uid, Array.init n (fun _ -> Tape.read tape)))
  in
  (nat_id, { Vm.Rt.no_result; no_callbacks })

(* --- statistics ------------------------------------------------------- *)

type sizes = {
  n_switches : int;
  n_clock_reads : int;
  n_inputs : int;
  n_native_words : int;
  n_picks : int;
  total_words : int;
  total_bytes : int; (* size of the serialized form *)
}

(* --- serialization ---------------------------------------------------- *)

(* DJVU2 added the analysis-hash header field after the program digest. *)
let magic = "DJVU2\n"

let zigzag v = (v lsl 1) lxor (v asr 62)

let unzigzag v = (v lsr 1) lxor (-(v land 1))

let put_varint buf v =
  let v = ref (zigzag v) in
  let continue_ = ref true in
  while !continue_ do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue_ := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* A 63-bit zigzagged int needs at most 9 groups of 7 bits, i.e. shifts
   0..56; a 10th continuation byte would shift past bit 62, which [lsl]
   leaves unspecified — reject it. A final byte of 0 past the first group
   is a non-canonical encoding [put_varint] never produces; reject it too
   so every value has exactly one byte representation. [lim] bounds the
   readable prefix of [buf], so the streaming reader can decode straight
   out of a partly filled block; [pos] is advanced past the value, which
   keeps a loop over many values free of per-value allocation. *)
let get_varint_bytes buf ~lim pos =
  let v = ref 0 and shift = ref 0 and continue_ = ref true in
  while !continue_ do
    let p = !pos in
    if p >= lim then raise (Format_error "truncated varint");
    if !shift > 56 then raise (Format_error "oversized varint");
    let b = Char.code (Bytes.get buf p) in
    pos := p + 1;
    v := !v lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then begin
      if b = 0 && !shift > 0 then
        raise (Format_error "non-canonical varint");
      continue_ := false
    end
    else shift := !shift + 7
  done;
  unzigzag !v

(* Reading never mutates the bytes, so viewing the string as bytes is
   safe. *)
let get_varint s pos =
  let p = ref pos in
  let v =
    get_varint_bytes (Bytes.unsafe_of_string s) ~lim:(String.length s) p
  in
  (v, !p)

(* Encoded size of one value, without producing the bytes: a zigzagged
   63-bit int occupies ceil(bits/7) groups of 7. *)
let varint_size v =
  let z = zigzag v in
  let rec go z n = if z lsr 7 = 0 then n else go (z lsr 7) (n + 1) in
  go z 1

let put_section buf arr =
  put_varint buf (Array.length arr);
  Array.iter (put_varint buf) arr

let get_section s pos =
  let b = Bytes.unsafe_of_string s and lim = String.length s in
  let p = ref pos in
  let n = get_varint_bytes b ~lim p in
  if n < 0 then raise (Format_error "negative section length");
  let arr = Array.make n 0 in
  for i = 0 to n - 1 do
    arr.(i) <- get_varint_bytes b ~lim p
  done;
  (arr, !p)

let to_bytes (t : t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  put_varint buf (String.length t.program_digest);
  Buffer.add_string buf t.program_digest;
  put_varint buf (String.length t.analysis_hash);
  Buffer.add_string buf t.analysis_hash;
  put_section buf t.switches;
  put_section buf t.clocks;
  put_section buf t.inputs;
  put_section buf t.natives;
  (* the picks section is written only when present, so every trace without
     dispatch overrides keeps the original 4-section layout bit-for-bit *)
  if Array.length t.picks > 0 then put_section buf t.picks;
  Buffer.contents buf

let of_bytes (s : string) : t =
  let ml = String.length magic in
  if String.length s < ml || String.sub s 0 ml <> magic then
    raise (Format_error "bad magic");
  let dlen, pos = get_varint s ml in
  if dlen < 0 || pos + dlen > String.length s then
    raise (Format_error "bad digest length");
  let program_digest = String.sub s pos dlen in
  let pos = pos + dlen in
  let hlen, pos = get_varint s pos in
  if hlen < 0 || pos + hlen > String.length s then
    raise (Format_error "bad analysis-hash length");
  let analysis_hash = String.sub s pos hlen in
  let pos = pos + hlen in
  let switches, pos = get_section s pos in
  let clocks, pos = get_section s pos in
  let inputs, pos = get_section s pos in
  let natives, pos = get_section s pos in
  let picks, pos =
    if pos = String.length s then ([||], pos) else get_section s pos
  in
  if pos <> String.length s then raise (Format_error "trailing bytes");
  { program_digest; analysis_hash; switches; clocks; inputs; natives; picks }

(* Byte size of the serialized form, computed arithmetically — no buffer is
   materialized, so statistics on a large trace cost no allocation spike. *)
let encoded_size (t : t) : int =
  let section arr =
    Array.fold_left
      (fun acc v -> acc + varint_size v)
      (varint_size (Array.length arr))
      arr
  in
  String.length magic
  + varint_size (String.length t.program_digest)
  + String.length t.program_digest
  + varint_size (String.length t.analysis_hash)
  + String.length t.analysis_hash
  + section t.switches + section t.clocks + section t.inputs
  + section t.natives
  + (if Array.length t.picks > 0 then section t.picks else 0)

(* Write via a temp file and atomic rename: a crash (or cancellation)
   mid-write never leaves a truncated trace under the final name. *)
let save path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_string oc (to_bytes t))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_bytes s

let sizes (t : t) : sizes =
  let total_words =
    Array.length t.switches + Array.length t.clocks + Array.length t.inputs
    + Array.length t.natives + Array.length t.picks
  in
  {
    n_switches = Array.length t.switches;
    n_clock_reads = Array.length t.clocks / 2;
    n_inputs = Array.length t.inputs;
    n_native_words = Array.length t.natives;
    n_picks = Array.length t.picks;
    total_words;
    total_bytes = encoded_size t;
  }

let pp_sizes ppf s =
  Fmt.pf ppf
    "switches=%d clock-reads=%d inputs=%d native-words=%d words=%d bytes=%d"
    s.n_switches s.n_clock_reads s.n_inputs s.n_native_words s.total_words
    s.total_bytes;
  if s.n_picks > 0 then Fmt.pf ppf " picks=%d" s.n_picks

(* --- streaming writer -------------------------------------------------- *)

(* The DJVU2 layout prefixes each section with its element count, which is
   unknown until the run ends — so a bounded-memory recording spills each
   tape's varint-encoded elements to its own scratch file as the in-memory
   buffer fills, and [finish] stitches header + counts + spill contents into
   the final file (temp file + atomic rename). The result is byte-identical
   to [to_bytes] of the materialized trace. *)
module Writer = struct
  (* The first four sections are mandatory in the file; the trailing picks
     section is stitched in only when non-empty (mirroring [to_bytes]). *)
  let stream_names = [| "switches"; "clocks"; "inputs"; "natives"; "picks" |]

  let mandatory_streams = 4

  type stream = {
    w_spill : string;
    mutable w_oc : out_channel option;
    w_buf : Buffer.t; (* scratch for encoding one flush *)
    mutable w_count : int; (* elements flushed *)
    mutable w_bytes : int; (* encoded bytes flushed *)
  }

  type t = {
    path : string;
    streams : stream array;
    mutable w_tapes : Tape.t array;
    mutable peak_words : int; (* high-water mark of buffered words *)
    mutable closed : bool;
  }

  let default_buf_words = 4096

  let create ?(buf_words = default_buf_words) path =
    (* If a later open fails (unwritable dir, ENOSPC), the writer is never
       returned, so no [abort] can clean up — close and remove whatever was
       already created before re-raising. *)
    let opened = ref [] in
    let streams =
      try
        Array.map
          (fun name ->
            let spill = Fmt.str "%s.%s.spill" path name in
            let s =
              {
                w_spill = spill;
                w_oc = Some (open_out_bin spill);
                w_buf = Buffer.create (buf_words * 2);
                w_count = 0;
                w_bytes = 0;
              }
            in
            opened := s :: !opened;
            s)
          stream_names
      with exn ->
        List.iter
          (fun s ->
            (match s.w_oc with
            | Some oc -> close_out_noerr oc
            | None -> ());
            try Sys.remove s.w_spill with Sys_error _ -> ())
          !opened;
        raise exn
    in
    let w = { path; streams; w_tapes = [||]; peak_words = 0; closed = false } in
    let tapes =
      Array.mapi
        (fun i name ->
          Tape.with_sink name ~cap:buf_words (fun data len ->
              let s = streams.(i) in
              let oc =
                match s.w_oc with
                | Some oc -> oc
                | None -> invalid_arg "Trace.Writer: finished writer"
              in
              (* high-water mark sampled at the flush boundary, where the
                 buffered total is maximal *)
              let buffered =
                Array.fold_left
                  (fun acc (t : Tape.t) -> acc + t.len)
                  0 w.w_tapes
              in
              if buffered > w.peak_words then w.peak_words <- buffered;
              Buffer.clear s.w_buf;
              for k = 0 to len - 1 do
                put_varint s.w_buf data.(k)
              done;
              Buffer.output_buffer oc s.w_buf;
              s.w_count <- s.w_count + len;
              s.w_bytes <- s.w_bytes + Buffer.length s.w_buf;
              Buffer.clear s.w_buf))
        stream_names
    in
    w.w_tapes <- tapes;
    w

  let tapes w = w.w_tapes

  let peak_buffered_words w =
    let buffered =
      Array.fold_left (fun acc (t : Tape.t) -> acc + t.len) 0 w.w_tapes
    in
    max w.peak_words buffered

  let buffered_words w =
    Array.fold_left (fun acc (t : Tape.t) -> acc + t.len) 0 w.w_tapes

  (* Remove scratch state; safe to call more than once, and after [finish].
     A cancelled recording aborts instead of finishing, so no partial trace
     ever appears under the destination name. *)
  let abort w =
    if not w.closed then begin
      w.closed <- true;
      Array.iter
        (fun s ->
          (match s.w_oc with
          | Some oc ->
            close_out_noerr oc;
            s.w_oc <- None
          | None -> ());
          try Sys.remove s.w_spill with Sys_error _ -> ())
        w.streams;
      try Sys.remove (w.path ^ ".tmp") with Sys_error _ -> ()
    end

  let copy_file ic oc =
    let chunk = Bytes.create 65536 in
    let rec go () =
      let n = input ic chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        output oc chunk 0 n;
        go ()
      end
    in
    go ()

  let finish w ~program_digest ~analysis_hash : sizes =
    if w.closed then invalid_arg "Trace.Writer.finish: finished writer";
    (match
       (* drain the tail of every tape, then detach the spill channels *)
       Array.iter Tape.flush w.w_tapes
     with
    | () -> ()
    | exception e ->
      abort w;
      raise e);
    Array.iter
      (fun s ->
        match s.w_oc with
        | Some oc ->
          close_out oc;
          s.w_oc <- None
        | None -> ())
      w.streams;
    let tmp = w.path ^ ".tmp" in
    (try
       let oc = open_out_bin tmp in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () ->
           Buffer.clear w.streams.(0).w_buf;
           let hdr = w.streams.(0).w_buf in
           Buffer.add_string hdr magic;
           put_varint hdr (String.length program_digest);
           Buffer.add_string hdr program_digest;
           put_varint hdr (String.length analysis_hash);
           Buffer.add_string hdr analysis_hash;
           Buffer.output_buffer oc hdr;
           Buffer.clear hdr;
           Array.iteri
             (fun i s ->
               if i < mandatory_streams || s.w_count > 0 then begin
                 let cnt = Buffer.create 10 in
                 put_varint cnt s.w_count;
                 Buffer.output_buffer oc cnt;
                 let ic = open_in_bin s.w_spill in
                 Fun.protect
                   ~finally:(fun () -> close_in_noerr ic)
                   (fun () -> copy_file ic oc)
               end)
             w.streams);
       Sys.rename tmp w.path
     with e ->
       abort w;
       raise e);
    let counts = Array.map (fun s -> s.w_count) w.streams in
    let total_words = Array.fold_left ( + ) 0 counts in
    let total_bytes =
      String.length magic
      + varint_size (String.length program_digest)
      + String.length program_digest
      + varint_size (String.length analysis_hash)
      + String.length analysis_hash
      + snd
          (Array.fold_left
             (fun (i, acc) s ->
               let acc =
                 if i < mandatory_streams || s.w_count > 0 then
                   acc + varint_size s.w_count + s.w_bytes
                 else acc
               in
               (i + 1, acc))
             (0, 0) w.streams)
    in
    let sizes =
      {
        n_switches = counts.(0);
        n_clock_reads = counts.(1) / 2;
        n_inputs = counts.(2);
        n_native_words = counts.(3);
        n_picks = counts.(4);
        total_words;
        total_bytes;
      }
    in
    Array.iter
      (fun s -> try Sys.remove s.w_spill with Sys_error _ -> ())
      w.streams;
    w.closed <- true;
    sizes
end

(* --- streaming reader -------------------------------------------------- *)

(* Replays a trace file through chunked tapes. [open_file] parses the
   header off the channel, then locates every section in one linear pass
   that counts varint terminators over a reused block; each tape then
   refills [chunk_words]-element chunks on demand: one [really_input] of at
   most [9 * k + 1] bytes (a well-formed varint is at most 9 bytes, and the
   extra byte lets an oversized one be reported as such), clipped at the
   section end, decoded in place by [get_varint_bytes] — the same
   truncated / oversized / non-canonical checks as {!of_bytes}. Resident
   memory is one block plus one chunk per tape, constant in trace
   length. *)
module Reader = struct
  type cursor = {
    mutable offset : int; (* file offset of the next undecoded value *)
    mutable left : int; (* values not yet decoded *)
    stop : int; (* file offset one past the section's last byte *)
  }

  type t = {
    ic : in_channel;
    r_digest : string;
    r_hash : string;
    r_tapes : Tape.t array;
    r_counts : int array;
    mutable r_closed : bool;
  }

  (* Header fields only: the sections are scanned and decoded in blocks. *)
  let input_varint ic =
    let v = ref 0 and shift = ref 0 and continue_ = ref true in
    while !continue_ do
      if !shift > 56 then raise (Format_error "oversized varint");
      let b =
        match input_char ic with
        | c -> Char.code c
        | exception End_of_file -> raise (Format_error "truncated varint")
      in
      v := !v lor ((b land 0x7f) lsl !shift);
      if b land 0x80 = 0 then begin
        if b = 0 && !shift > 0 then
          raise (Format_error "non-canonical varint");
        continue_ := false
      end
      else shift := !shift + 7
    done;
    unzigzag !v

  let input_exact ic n what =
    match really_input_string ic n with
    | s -> s
    | exception End_of_file ->
      raise (Format_error (Fmt.str "truncated %s" what))

  let scan_block_bytes = 65536

  (* The open-time pass over the sections: a window [blk.(pos .. len)] onto
     the file, starting at file offset [base + pos], read sequentially off
     the channel (no seeks). *)
  type scan = {
    blk : Bytes.t;
    mutable base : int; (* file offset of blk.(0) *)
    mutable pos : int;
    mutable len : int;
  }

  let scan_offset sc = sc.base + sc.pos

  (* Make at least [need] unread bytes available, short only at end of
     file: the unread tail moves to the front and the rest is filled. *)
  let ensure ic sc need =
    if sc.len - sc.pos < need then begin
      let rest = sc.len - sc.pos in
      Bytes.blit sc.blk sc.pos sc.blk 0 rest;
      sc.base <- sc.base + sc.pos;
      sc.pos <- 0;
      sc.len <- rest;
      let eof = ref false in
      while sc.len < need && not !eof do
        let r = input ic sc.blk sc.len (Bytes.length sc.blk - sc.len) in
        if r = 0 then eof := true else sc.len <- sc.len + r
      done
    end

  (* A section's element count: one varint, with every {!get_varint}
     check. *)
  let scan_count ic sc =
    ensure ic sc 10;
    let p = ref sc.pos in
    let v = get_varint_bytes sc.blk ~lim:sc.len p in
    sc.pos <- !p;
    v

  (* Skip [n] varints by counting terminator bytes (top bit clear);
     malformed interiors surface as Format_error at refill time. *)
  let scan_skip ic sc n =
    let left = ref n in
    while !left > 0 do
      ensure ic sc 1;
      if sc.pos >= sc.len then raise (Format_error "truncated section");
      let p = ref sc.pos in
      while !left > 0 && !p < sc.len do
        if Char.code (Bytes.unsafe_get sc.blk !p) land 0x80 = 0 then decr left;
        incr p
      done;
      sc.pos <- !p
    done

  let default_chunk_words = 1024

  let open_file ?(chunk_words = default_chunk_words) path =
    if chunk_words < 1 then invalid_arg "Trace.Reader.open_file: chunk_words";
    let ic = open_in_bin path in
    match
      let file_len = in_channel_length ic in
      let ml = String.length magic in
      if input_exact ic ml "magic" <> magic then
        raise (Format_error "bad magic");
      let str_field what =
        let n = input_varint ic in
        if n < 0 || n > file_len then
          raise (Format_error (Fmt.str "bad %s length" what));
        input_exact ic n what
      in
      let r_digest = str_field "digest" in
      let r_hash = str_field "analysis-hash" in
      let body = pos_in ic in
      let sc =
        {
          blk = Bytes.create (max 16 (min scan_block_bytes (file_len - body)));
          base = body;
          pos = 0;
          len = 0;
        }
      in
      let section () =
        let count = scan_count ic sc in
        if count < 0 then raise (Format_error "negative section length");
        let offset = scan_offset sc in
        scan_skip ic sc count;
        { offset; left = count; stop = scan_offset sc }
      in
      let cursors =
        Array.init (Array.length Writer.stream_names) (fun i ->
            if i < Writer.mandatory_streams then section ()
            else if
              (* the trailing picks section is optional: absent entirely in
                 traces from ordinary recordings *)
              scan_offset sc < file_len
            then section ()
            else { offset = file_len; left = 0; stop = file_len })
      in
      ensure ic sc 1;
      if sc.pos < sc.len then raise (Format_error "trailing bytes");
      (* one refill buffer for every tape, the scan block when it is big
         enough: refills run one at a time and decode before returning *)
      let refill_bytes c =
        min (c.stop - c.offset) ((9 * min chunk_words c.left) + 1)
      in
      let need =
        Array.fold_left (fun acc c -> max acc (refill_bytes c)) 0 cursors
      in
      let buf =
        if need <= Bytes.length sc.blk then sc.blk else Bytes.create need
      in
      let r_counts = Array.map (fun c -> c.left) cursors in
      let r_tapes =
        Array.mapi
          (fun i name ->
            let cur = cursors.(i) in
            Tape.of_refill name ~pending:cur.left (fun (t : Tape.t) ->
                if cur.left = 0 then false
                else begin
                  let k = min chunk_words cur.left in
                  let n = refill_bytes cur in
                  seek_in ic cur.offset;
                  (match really_input ic buf 0 n with
                  | () -> ()
                  | exception End_of_file ->
                    raise (Format_error "truncated section"));
                  (* the first refill is the largest: one array per
                     tape, reused by every later refill *)
                  if Array.length t.data < k then t.data <- Array.make k 0;
                  let p = ref 0 in
                  for j = 0 to k - 1 do
                    t.data.(j) <- get_varint_bytes buf ~lim:n p
                  done;
                  cur.offset <- cur.offset + !p;
                  cur.left <- cur.left - k;
                  t.base <- t.base + t.len;
                  t.len <- k;
                  t.rd <- 0;
                  t.pending <- cur.left;
                  true
                end))
          Writer.stream_names
      in
      { ic; r_digest; r_hash; r_tapes; r_counts; r_closed = false }
    with
    | r -> r
    | exception e ->
      close_in_noerr ic;
      raise e

  let program_digest r = r.r_digest

  let analysis_hash r = r.r_hash

  let tapes r = r.r_tapes

  let counts r = r.r_counts

  let close r =
    if not r.r_closed then begin
      r.r_closed <- true;
      close_in_noerr r.ic
    end
end
