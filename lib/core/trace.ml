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
   trace cannot be replayed against the wrong code. The layout is stated
   once (below [varint_size]); [to_bytes] and the streaming [Writer] encode
   it, and the [Reader] — over a file or a string — is its only decoder. *)

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

(* --- the DJVU2 layout -------------------------------------------------- *)

(* A file is [magic], two length-prefixed header strings (program digest,
   audit hash), then the sections in [section_names] order, each a count
   varint followed by that many value varints. The picks section is
   written only when non-empty, so every trace without dispatch overrides
   keeps the original four-section layout bit-for-bit; a file that ends
   after natives has no picks. [to_bytes], [encoded_size], the [Writer]
   and the [Reader] all work from the definitions below. *)
let section_names = [| "switches"; "clocks"; "inputs"; "natives"; "picks" |]

let optional_section = 4

let sections (t : t) = [| t.switches; t.clocks; t.inputs; t.natives; t.picks |]

let tapes (t : t) = Array.map2 Tape.of_array section_names (sections t)

(* [f i n] for every section a file holds, given each section's count. *)
let iter_written counts f =
  Array.iteri (fun i n -> if i < optional_section || n > 0 then f i n) counts

let put_header buf ~program_digest ~analysis_hash =
  Buffer.add_string buf magic;
  put_varint buf (String.length program_digest);
  Buffer.add_string buf program_digest;
  put_varint buf (String.length analysis_hash);
  Buffer.add_string buf analysis_hash

(* A section body: the first [len] values of [data]. *)
let put_values buf data len =
  for k = 0 to len - 1 do
    put_varint buf data.(k)
  done

(* Byte size of a file whose sections hold [counts] values encoded in
   [bytes] bytes each, computed arithmetically. *)
let file_size ~program_digest ~analysis_hash counts bytes =
  let str s = varint_size (String.length s) + String.length s in
  let n =
    ref (String.length magic + str program_digest + str analysis_hash)
  in
  iter_written counts (fun i c -> n := !n + varint_size c + bytes.(i));
  !n

let to_bytes (t : t) : string =
  let buf = Buffer.create 4096 in
  put_header buf ~program_digest:t.program_digest
    ~analysis_hash:t.analysis_hash;
  let secs = sections t in
  iter_written (Array.map Array.length secs) (fun i n ->
      put_varint buf n;
      put_values buf secs.(i) n);
  Buffer.contents buf

(* No buffer is materialized, so statistics on a large trace cost no
   allocation spike. *)
let encoded_size (t : t) : int =
  let secs = sections t in
  file_size ~program_digest:t.program_digest ~analysis_hash:t.analysis_hash
    (Array.map Array.length secs)
    (Array.map
       (Array.fold_left (fun acc v -> acc + varint_size v) 0)
       secs)

let sizes_of_counts counts ~total_bytes =
  {
    n_switches = counts.(0);
    n_clock_reads = counts.(1) / 2;
    n_inputs = counts.(2);
    n_native_words = counts.(3);
    n_picks = counts.(4);
    total_words = Array.fold_left ( + ) 0 counts;
    total_bytes;
  }

let sizes (t : t) : sizes =
  sizes_of_counts
    (Array.map Array.length (sections t))
    ~total_bytes:(encoded_size t)

let pp_sizes ppf s =
  Fmt.pf ppf
    "switches=%d clock-reads=%d inputs=%d native-words=%d words=%d bytes=%d"
    s.n_switches s.n_clock_reads s.n_inputs s.n_native_words s.total_words
    s.total_bytes;
  if s.n_picks > 0 then Fmt.pf ppf " picks=%d" s.n_picks

(* --- streaming writer -------------------------------------------------- *)

(* The layout prefixes each section with its element count, which is
   unknown until the run ends — so a bounded-memory recording spills each
   tape's varint-encoded elements to its own scratch file as the in-memory
   buffer fills, and [finish] stitches header + counts + spill contents into
   the final file (temp file + atomic rename). The result is byte-identical
   to [to_bytes] of the materialized trace. *)
module Writer = struct
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

  let buffered_words w =
    Array.fold_left (fun acc (t : Tape.t) -> acc + t.len) 0 w.w_tapes

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
          section_names
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
              w.peak_words <- max w.peak_words (buffered_words w);
              Buffer.clear s.w_buf;
              put_values s.w_buf data len;
              Buffer.output_buffer oc s.w_buf;
              s.w_count <- s.w_count + len;
              s.w_bytes <- s.w_bytes + Buffer.length s.w_buf;
              Buffer.clear s.w_buf))
        section_names
    in
    w.w_tapes <- tapes;
    w

  let tapes w = w.w_tapes

  let peak_buffered_words w = max w.peak_words (buffered_words w)

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

  (* Every step — flushing the tapes, closing the spill channels (a
     [close_out] flushes, so ENOSPC can surface there), writing and renaming
     the temp file — runs under one guard: any failure aborts the writer,
     leaving neither scratch files nor a partial trace behind. *)
  let finish w ~program_digest ~analysis_hash : sizes =
    if w.closed then invalid_arg "Trace.Writer.finish: finished writer";
    match
      Array.iter Tape.flush w.w_tapes;
      Array.iter
        (fun s ->
          match s.w_oc with
          | Some oc ->
            close_out oc;
            s.w_oc <- None
          | None -> ())
        w.streams;
      let counts = Array.map (fun s -> s.w_count) w.streams in
      let tmp = w.path ^ ".tmp" in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let buf = w.streams.(0).w_buf in
          Buffer.clear buf;
          put_header buf ~program_digest ~analysis_hash;
          Buffer.output_buffer oc buf;
          iter_written counts (fun i n ->
              Buffer.clear buf;
              put_varint buf n;
              Buffer.output_buffer oc buf;
              let ic = open_in_bin w.streams.(i).w_spill in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> copy_file ic oc));
          close_out oc);
      Sys.rename tmp w.path;
      counts
    with
    | counts ->
      Array.iter
        (fun s -> try Sys.remove s.w_spill with Sys_error _ -> ())
        w.streams;
      w.closed <- true;
      sizes_of_counts counts
        ~total_bytes:
          (file_size ~program_digest ~analysis_hash counts
             (Array.map (fun s -> s.w_bytes) w.streams))
    | exception e ->
      abort w;
      raise e
end

(* --- reader: the one decoder ------------------------------------------- *)

(* Serves a trace through chunked tapes, from an open file or an
   in-memory string. [open_source] parses the header and locates every
   section in one linear pass over windows of at most 64 KiB: the header
   fields and section counts are decoded from the window by
   [get_varint_bytes], and the values are skipped by counting varint
   terminator bytes. Each tape then refills [chunk_words]-element chunks on
   demand from one window of at most [9 * k + 1] bytes (a well-formed
   varint is at most 9 bytes, and the extra byte lets an oversized one be
   reported as such), clipped at the section end and decoded in place by
   [get_varint_bytes]. A file's resident memory is one window buffer plus
   one chunk per tape, constant in trace length. Every [Format_error] for
   a malformed file comes from here. *)
module Reader = struct
  (* Where the bytes come from. [source_length], [window] and [close] are
     the only code that tells a file from a string. *)
  type source =
    | File of { ic : in_channel; mutable buf : Bytes.t }
    | String of string

  let source_length = function
    | File f -> in_channel_length f.ic
    | String s -> String.length s

  (* The [n] bytes at offset [off] (callers keep [off + n] within the
     source), as [(bytes, start)]: a string is its own window; a file's
     bytes are read into its reused buffer. *)
  let window src off n =
    match src with
    | String s -> (Bytes.unsafe_of_string s, off)
    | File f ->
      if n > Bytes.length f.buf then f.buf <- Bytes.create n;
      seek_in f.ic off;
      (match really_input f.ic f.buf 0 n with
      | () -> ()
      | exception End_of_file -> raise (Format_error "truncated section"));
      (f.buf, 0)

  type cursor = {
    mutable offset : int; (* source offset of the next undecoded value *)
    mutable left : int; (* values not yet decoded *)
    stop : int; (* source offset one past the section's last byte *)
  }

  type t = {
    src : source;
    r_digest : string;
    r_hash : string;
    cursors : cursor array;
    r_tapes : Tape.t array;
    mutable r_closed : bool;
  }

  let scan_block_bytes = 65536

  (* The open-time pass: the unread bytes [blk.(pos .. len)] of the current
     window, at source offset [base + pos], read front to back. *)
  type scan = {
    s_src : source;
    size : int; (* source length *)
    mutable blk : Bytes.t;
    mutable base : int; (* source offset of blk.(0) *)
    mutable pos : int;
    mutable len : int;
  }

  let scan_offset sc = sc.base + sc.pos

  (* Make at least [need] unread bytes available, fewer only at the end of
     the source, by moving the window to the scan offset. *)
  let ensure sc need =
    if sc.len - sc.pos < need && sc.base + sc.len < sc.size then begin
      let off = scan_offset sc in
      let n = min (max need scan_block_bytes) (sc.size - off) in
      let b, start = window sc.s_src off n in
      sc.blk <- b;
      sc.base <- off - start;
      sc.pos <- start;
      sc.len <- start + n
    end

  (* One varint — a header length or a section count — with every
     {!get_varint_bytes} check. *)
  let scan_varint sc =
    ensure sc 10;
    let p = ref sc.pos in
    let v = get_varint_bytes sc.blk ~lim:sc.len p in
    sc.pos <- !p;
    v

  (* A length-prefixed header string, bounded by what the source holds. *)
  let scan_string sc what =
    let n = scan_varint sc in
    if n < 0 || n > sc.size - scan_offset sc then
      raise (Format_error (Fmt.str "bad %s length" what));
    ensure sc n;
    let s = Bytes.sub_string sc.blk sc.pos n in
    sc.pos <- sc.pos + n;
    s

  (* Skip [n] varints by counting terminator bytes (top bit clear);
     malformed interiors surface as Format_error when decoded. *)
  let scan_skip sc n =
    let left = ref n in
    while !left > 0 do
      ensure sc 1;
      if sc.pos >= sc.len then raise (Format_error "truncated section");
      let p = ref sc.pos in
      while !left > 0 && !p < sc.len do
        if Char.code (Bytes.unsafe_get sc.blk !p) land 0x80 = 0 then decr left;
        incr p
      done;
      sc.pos <- !p
    done

  (* Decode the next [k] values of a section into [data.(0 .. k-1)]. *)
  let decode src cur data k =
    let n = min (cur.stop - cur.offset) ((9 * k) + 1) in
    let b, start = window src cur.offset n in
    let p = ref start in
    for j = 0 to k - 1 do
      data.(j) <- get_varint_bytes b ~lim:(start + n) p
    done;
    cur.offset <- cur.offset + (!p - start);
    cur.left <- cur.left - k

  let refill src ~chunk_words cur (t : Tape.t) =
    cur.left > 0
    && begin
      let k = min chunk_words cur.left in
      (* the first refill is the largest: one array per tape, reused by
         every later refill *)
      if Array.length t.data < k then t.data <- Array.make k 0;
      decode src cur t.data k;
      t.base <- t.base + t.len;
      t.len <- k;
      t.rd <- 0;
      t.pending <- cur.left;
      true
    end

  let default_chunk_words = 1024

  let open_source ~chunk_words src =
    if chunk_words < 1 then invalid_arg "Trace.Reader.open_file: chunk_words";
    let size = source_length src in
    let sc =
      { s_src = src; size; blk = Bytes.empty; base = 0; pos = 0; len = 0 }
    in
    let ml = String.length magic in
    ensure sc ml;
    if sc.len - sc.pos < ml || Bytes.sub_string sc.blk sc.pos ml <> magic then
      raise (Format_error "bad magic");
    sc.pos <- sc.pos + ml;
    let r_digest = scan_string sc "digest" in
    let r_hash = scan_string sc "analysis-hash" in
    let section i =
      if i = optional_section && scan_offset sc = size then
        { offset = size; left = 0; stop = size }
      else begin
        let count = scan_varint sc in
        if count < 0 then raise (Format_error "negative section length");
        let offset = scan_offset sc in
        scan_skip sc count;
        { offset; left = count; stop = scan_offset sc }
      end
    in
    let cursors = Array.init (Array.length section_names) section in
    if scan_offset sc < size then raise (Format_error "trailing bytes");
    {
      src;
      r_digest;
      r_hash;
      cursors;
      r_tapes =
        Array.map2
          (fun name cur ->
            Tape.of_refill name ~pending:cur.left (refill src ~chunk_words cur))
          section_names cursors;
      r_closed = false;
    }

  (* Every section of a fresh reader, each decoded from one window straight
     into an array of its length. *)
  let sections r =
    Array.map
      (fun cur ->
        let a = Array.make cur.left 0 in
        if cur.left > 0 then decode r.src cur a cur.left;
        a)
      r.cursors

  let close r =
    if not r.r_closed then begin
      r.r_closed <- true;
      match r.src with File f -> close_in_noerr f.ic | String _ -> ()
    end

  let open_file ?(chunk_words = default_chunk_words) path =
    let ic = open_in_bin path in
    match open_source ~chunk_words (File { ic; buf = Bytes.empty }) with
    | r -> r
    | exception e ->
      close_in_noerr ic;
      raise e

  let of_string s = open_source ~chunk_words:default_chunk_words (String s)

  let program_digest r = r.r_digest

  let analysis_hash r = r.r_hash

  let tapes r = r.r_tapes
end

(* Materialize a fresh reader. *)
let of_reader r : t =
  let s = Reader.sections r in
  {
    program_digest = Reader.program_digest r;
    analysis_hash = Reader.analysis_hash r;
    switches = s.(0);
    clocks = s.(1);
    inputs = s.(2);
    natives = s.(3);
    picks = s.(4);
  }

let of_bytes s = of_reader (Reader.of_string s)

let load path =
  let r = Reader.open_file path in
  Fun.protect ~finally:(fun () -> Reader.close r) (fun () -> of_reader r)

(* Write via a temp file and atomic rename: a crash (or cancellation)
   mid-write never leaves a truncated trace under the final name. The
   explicit [close_out] surfaces a failed final flush before the rename. *)
let save path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output_string oc (to_bytes t);
         close_out oc)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path
