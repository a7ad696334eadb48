(* Trace codec: tapes, varints, serialization, error handling. *)

open Tutil

module T = Dejavu.Trace

let mk ?(digest = "d") ?(analysis_hash = "") ?(switches = [||])
    ?(clocks = [||]) ?(inputs = [||]) ?(natives = [||]) ?(picks = [||]) () =
  {
    T.program_digest = digest;
    analysis_hash;
    switches;
    clocks;
    inputs;
    natives;
    picks;
  }

let trace_eq a b =
  a.T.program_digest = b.T.program_digest
  && a.T.analysis_hash = b.T.analysis_hash
  && a.T.switches = b.T.switches
  && a.T.clocks = b.T.clocks
  && a.T.inputs = b.T.inputs
  && a.T.natives = b.T.natives
  && a.T.picks = b.T.picks

(* --- Tape --------------------------------------------------------------- *)

let test_tape_push_read () =
  let t = T.Tape.create "t" in
  T.Tape.push t 1;
  T.Tape.push t 2;
  T.Tape.push t 3;
  Alcotest.(check int) "len" 3 (T.Tape.length t);
  Alcotest.(check int) "r1" 1 (T.Tape.read t);
  Alcotest.(check int) "r2" 2 (T.Tape.read t);
  Alcotest.(check int) "remaining" 1 (T.Tape.remaining t);
  Alcotest.(check int) "r3" 3 (T.Tape.read t);
  match T.Tape.read t with
  | exception T.End_of_tape "t" -> ()
  | _ -> Alcotest.fail "no end-of-tape"

let test_tape_growth () =
  let t = T.Tape.create "g" in
  for k = 0 to 9999 do
    T.Tape.push t k
  done;
  Alcotest.(check int) "len" 10000 (T.Tape.length t);
  let arr = T.Tape.to_array t in
  Alcotest.(check int) "arr len" 10000 (Array.length arr);
  Alcotest.(check int) "arr contents" 1234 arr.(1234)

let test_tape_read_opt () =
  let t = T.Tape.of_array "o" [| 5 |] in
  Alcotest.(check (option int)) "some" (Some 5) (T.Tape.read_opt t);
  Alcotest.(check (option int)) "none" None (T.Tape.read_opt t)

(* --- varints ------------------------------------------------------------ *)

let varint_roundtrip v =
  let buf = Buffer.create 16 in
  T.put_varint buf v;
  let got, pos = T.get_varint (Buffer.contents buf) 0 in
  Alcotest.(check int) (Fmt.str "varint %d" v) v got;
  Alcotest.(check int) "consumed all" (Buffer.length buf) pos

let test_varint_edges () =
  List.iter varint_roundtrip
    [ 0; 1; -1; 2; -2; 63; 64; -64; -65; 127; 128; 1 lsl 30; -(1 lsl 30);
      max_int; min_int; max_int - 1; min_int + 1 ]

let test_varint_truncated () =
  let buf = Buffer.create 16 in
  T.put_varint buf max_int;
  let s = Buffer.contents buf in
  let truncated = String.sub s 0 (String.length s - 1) in
  match T.get_varint truncated 0 with
  | exception T.Format_error _ -> ()
  | _ -> Alcotest.fail "truncated varint accepted"

(* --- whole-trace serialization ------------------------------------------ *)

let test_roundtrip_empty () =
  let t = mk () in
  Alcotest.(check bool) "rt" true (trace_eq t (T.of_bytes (T.to_bytes t)))

let test_roundtrip_full () =
  let t =
    mk ~digest:(String.make 32 'a')
      ~switches:[| 1; 2; 3; 1000000 |]
      ~clocks:[| 0; 5; 1; 700; 2; 800 |]
      ~inputs:[| -5; 0; max_int |]
      ~natives:[| 1; 1; 42; 0 |]
      ()
  in
  Alcotest.(check bool) "rt" true (trace_eq t (T.of_bytes (T.to_bytes t)))

(* The picks stream (explorer-steered dispatch) is an OPTIONAL trailing
   section: a picks-free trace encodes exactly as before this stream
   existed (four sections — byte-compatibility with old trace files), and
   a picks-bearing trace roundtrips. *)
let test_picks_optional_section () =
  let plain = mk ~switches:[| 1; 2 |] () in
  let with_picks = mk ~switches:[| 1; 2 |] ~picks:[| 1; 2; 1 |] () in
  Alcotest.(check bool)
    "picks add bytes" true
    (String.length (T.to_bytes with_picks) > String.length (T.to_bytes plain));
  (* a 4-section encoding parses with empty picks *)
  let reparsed = T.of_bytes (T.to_bytes plain) in
  Alcotest.(check bool) "legacy parse" true (reparsed.T.picks = [||]);
  Alcotest.(check bool)
    "picks roundtrip" true
    (trace_eq with_picks (T.of_bytes (T.to_bytes with_picks)));
  Alcotest.(check int)
    "sizes counts picks" 3 (T.sizes with_picks).T.n_picks

let test_bad_magic () =
  match T.of_bytes "NOPE\nxxxxx" with
  | exception T.Format_error _ -> ()
  | _ -> Alcotest.fail "bad magic accepted"

let test_trailing_bytes () =
  let s = T.to_bytes (mk ()) ^ "junk" in
  match T.of_bytes s with
  | exception T.Format_error _ -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

let test_truncation () =
  let s = T.to_bytes (mk ~switches:[| 1; 2; 3 |] ()) in
  let s = String.sub s 0 (String.length s - 2) in
  (match T.of_bytes s with
  | exception T.Format_error _ -> ()
  | _ -> Alcotest.fail "truncated trace accepted");
  (* a count far beyond the bytes present is a truncated section too, not
     a request to allocate that many words *)
  let buf = Buffer.create 32 in
  Buffer.add_string buf "DJVU2\n";
  T.put_varint buf 1;
  Buffer.add_string buf "d";
  T.put_varint buf 0;
  T.put_varint buf (1 lsl 60);
  T.put_varint buf 5;
  match T.of_bytes (Buffer.contents buf) with
  | exception T.Format_error _ -> ()
  | _ -> Alcotest.fail "huge section count accepted"

let test_save_load () =
  let t = mk ~switches:[| 9; 8; 7 |] ~inputs:[| 1 |] () in
  let path = Filename.temp_file "trace" ".djv" in
  T.save path t;
  let t' = T.load path in
  Sys.remove path;
  Alcotest.(check bool) "rt" true (trace_eq t t')

(* --- native outcome encoding --------------------------------------------- *)

let test_native_outcome_codec () =
  let tape = T.Tape.create "n" in
  let o1 = { Vm.Rt.no_result = Some 42; no_callbacks = [ (3, [| 1; 2 |]); (5, [||]) ] } in
  let o2 = { Vm.Rt.no_result = None; no_callbacks = [] } in
  T.push_native_outcome tape 7 o1;
  T.push_native_outcome tape 9 o2;
  let id1, got1 = T.read_native_outcome tape in
  let id2, got2 = T.read_native_outcome tape in
  Alcotest.(check int) "id1" 7 id1;
  Alcotest.(check int) "id2" 9 id2;
  Alcotest.(check bool) "o1" true (got1 = o1);
  Alcotest.(check bool) "o2" true (got2 = o2);
  Alcotest.(check int) "consumed" 0 (T.Tape.remaining tape)

let test_sizes () =
  let t =
    mk ~switches:[| 1; 2 |] ~clocks:[| 0; 1; 1; 2 |] ~inputs:[| 3 |]
      ~natives:[| 1; 0; 0 |] ()
  in
  let s = T.sizes t in
  Alcotest.(check int) "switches" 2 s.T.n_switches;
  Alcotest.(check int) "clock reads" 2 s.T.n_clock_reads;
  Alcotest.(check int) "inputs" 1 s.T.n_inputs;
  Alcotest.(check int) "native words" 3 s.T.n_native_words;
  Alcotest.(check int) "total" 10 s.T.total_words;
  Alcotest.(check bool) "bytes positive" true (s.T.total_bytes > 0)

let test_reason_tags () =
  Alcotest.(check int) "app" 0 (T.tag_of_reason Vm.Rt.Capp);
  Alcotest.(check int) "sched" 1 (T.tag_of_reason Vm.Rt.Csched);
  Alcotest.(check int) "idle" 2 (T.tag_of_reason (Vm.Rt.Cidle 7));
  Alcotest.(check string) "name" "sched" (T.reason_name 1)

(* --- streaming writer / reader ----------------------------------------- *)

let with_tmp f =
  let path = Filename.temp_file "dvtest" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let sample_trace () =
  mk ~digest:"prog" ~analysis_hash:"audit"
    ~switches:[| 3; 0; 150; 4096; 1 |]
    ~clocks:[| 0; 5; 1; 70000; 2; 123456789 |]
    ~inputs:[| 42; -17; 0 |]
    ~natives:[| 1; 0; 0; 2; 1; 99 |]
    ()

(* satellite: sizes must not re-serialize — encoded_size is arithmetic and
   must agree byte-for-byte with the real serialization *)
let test_encoded_size () =
  List.iter
    (fun t ->
      Alcotest.(check int)
        "encoded_size = |to_bytes|"
        (String.length (T.to_bytes t))
        (T.encoded_size t);
      Alcotest.(check int)
        "sizes.total_bytes agrees"
        (String.length (T.to_bytes t))
        (T.sizes t).T.total_bytes)
    [ mk (); sample_trace () ]

(* feed a materialized trace through the streaming writer and check the
   file is byte-identical to the batch serialization *)
let stream_out path (t : T.t) ~buf_words =
  let w = T.Writer.create ~buf_words path in
  let tp = T.Writer.tapes w in
  Array.iter (fun v -> T.Tape.push tp.(0) v) t.T.switches;
  Array.iter (fun v -> T.Tape.push tp.(1) v) t.T.clocks;
  Array.iter (fun v -> T.Tape.push tp.(2) v) t.T.inputs;
  Array.iter (fun v -> T.Tape.push tp.(3) v) t.T.natives;
  T.Writer.finish w ~program_digest:t.T.program_digest
    ~analysis_hash:t.T.analysis_hash

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_writer_byte_identity () =
  let t = sample_trace () in
  with_tmp (fun path ->
      (* tiny buffer: force many sink flushes mid-stream *)
      let sizes = stream_out path t ~buf_words:2 in
      Alcotest.(check string)
        "streamed file = to_bytes" (T.to_bytes t) (read_file path);
      Alcotest.(check int)
        "incremental total_bytes"
        (String.length (T.to_bytes t))
        sizes.T.total_bytes)

let test_writer_bounded_buffer () =
  let t = sample_trace () in
  with_tmp (fun path ->
      (* with_tmp pre-creates an empty file; remove it so "no partial trace
         after abort" is observable as absence *)
      Sys.remove path;
      let w = T.Writer.create ~buf_words:2 path in
      let tp = T.Writer.tapes w in
      Array.iter (fun v -> T.Tape.push tp.(0) v) t.T.switches;
      Array.iter (fun v -> T.Tape.push tp.(3) v) t.T.natives;
      let peak = T.Writer.peak_buffered_words w in
      Alcotest.(check bool)
        (Fmt.str "peak %d bounded by 4 x cap" peak)
        true
        (peak <= 4 * 2);
      T.Writer.abort w;
      Alcotest.(check bool) "abort leaves no file" false (Sys.file_exists path))

let test_reader_roundtrip () =
  let t = sample_trace () in
  with_tmp (fun path ->
      ignore (stream_out path t ~buf_words:3);
      (* chunk of 2: every tape refills repeatedly *)
      let r = T.Reader.open_file ~chunk_words:2 path in
      Fun.protect
        ~finally:(fun () -> T.Reader.close r)
        (fun () ->
          Alcotest.(check string)
            "digest" t.T.program_digest (T.Reader.program_digest r);
          Alcotest.(check string)
            "audit" t.T.analysis_hash (T.Reader.analysis_hash r);
          let tp = T.Reader.tapes r in
          let drain k =
            Array.init (T.Tape.remaining tp.(k)) (fun _ -> T.Tape.read tp.(k))
          in
          Alcotest.(check bool) "switches" true (drain 0 = t.T.switches);
          Alcotest.(check bool) "clocks" true (drain 1 = t.T.clocks);
          Alcotest.(check bool) "inputs" true (drain 2 = t.T.inputs);
          Alcotest.(check bool) "natives" true (drain 3 = t.T.natives)))

(* a loadable file, then truncated at every prefix length: the reader must
   raise Format_error (or report end-of-tape mid-read), never crash *)
let test_reader_truncation () =
  let t = sample_trace () in
  with_tmp (fun path ->
      ignore (stream_out path t ~buf_words:64);
      let whole = read_file path in
      for cut = 0 to String.length whole - 1 do
        let part = String.sub whole 0 cut in
        let oc = open_out_bin path in
        output_string oc part;
        close_out oc;
        match T.Reader.open_file ~chunk_words:2 path with
        | exception T.Format_error _ -> ()
        | r ->
          (* header + counts parsed: reading past the cut must fail
             cleanly, not crash *)
          Fun.protect
            ~finally:(fun () -> T.Reader.close r)
            (fun () ->
              match
                Array.iter
                  (fun tp ->
                    while T.Tape.remaining tp > 0 do
                      ignore (T.Tape.read tp)
                    done)
                  (T.Reader.tapes r)
              with
              | () -> Alcotest.fail (Fmt.str "cut %d read fully" cut)
              | exception T.Format_error _ -> ()
              | exception T.End_of_tape _ -> ())
      done)

let test_reader_corrupt () =
  let t = sample_trace () in
  with_tmp (fun path ->
      ignore (stream_out path t ~buf_words:64);
      let whole = Bytes.of_string (read_file path) in
      (* smash a byte in the middle of the sections *)
      let mid = Bytes.length whole / 2 in
      Bytes.set whole mid '\xff';
      let oc = open_out_bin path in
      output_bytes oc whole;
      close_out oc;
      match T.Reader.open_file ~chunk_words:2 path with
      | exception T.Format_error _ -> ()
      | r ->
        Fun.protect
          ~finally:(fun () -> T.Reader.close r)
          (fun () ->
            match
              Array.iter
                (fun tp ->
                  while T.Tape.remaining tp > 0 do
                    ignore (T.Tape.read tp)
                  done)
                (T.Reader.tapes r)
            with
            | () -> () (* a flipped bit can still decode; fine *)
            | exception T.Format_error _ -> ()
            | exception T.End_of_tape _ -> ()))

(* Every section of a file, drained through a Reader of [chunk_words]. *)
let drain_file ~chunk_words path =
  let r = T.Reader.open_file ~chunk_words path in
  Fun.protect
    ~finally:(fun () -> T.Reader.close r)
    (fun () ->
      let tp = T.Reader.tapes r in
      let drain k =
        Array.init (T.Tape.remaining tp.(k)) (fun _ -> T.Tape.read tp.(k))
      in
      let t =
        mk ~digest:(T.Reader.program_digest r)
          ~analysis_hash:(T.Reader.analysis_hash r) ~switches:(drain 0)
          ~clocks:(drain 1) ~inputs:(drain 2) ~natives:(drain 3) ~picks:(drain 4)
          ()
      in
      Array.iter
        (fun tp ->
          match T.Tape.read tp with
          | exception T.End_of_tape _ -> ()
          | _ -> Alcotest.fail "tape read past its section")
        tp;
      t)

(* The streamed tapes equal the recorded in-memory trace for every chunk
   size — one value per refill, refills ending mid-chunk, and the default.
   (Not [of_bytes]: it drains a Reader too, so that comparison would be
   circular.) *)
let check_sweep ctx (recorded : T.t) path =
  List.iter
    (fun chunk_words ->
      Alcotest.(check bool)
        (Fmt.str "%s: chunk_words %d = recorded" ctx chunk_words)
        true
        (trace_eq recorded (drain_file ~chunk_words path)))
    [ 1; 2; 3; 1024 ]

let test_reader_chunk_sweep_registry () =
  with_tmp (fun path ->
      List.iter
        (fun (e : Workloads.Registry.entry) ->
          let _, trace = Dejavu.record ~natives:e.natives ~seed:1 e.program in
          T.save path trace;
          check_sweep e.name trace path)
        (Lazy.force Workloads.Registry.all))

(* Maximum-width (9-byte) varints mixed with 1-byte ones, in every
   section including picks: a refill reads at most 9 bytes per value plus
   one, clipped at the section end, so its block routinely ends inside
   the next chunk's first varint. *)
let test_reader_max_width_straddle () =
  let wide i =
    match i mod 5 with
    | 0 -> max_int
    | 1 -> i
    | 2 -> min_int
    | 3 -> -i
    | _ -> if i mod 2 = 0 then max_int - i else min_int + i
  in
  let arr n = Array.init n wide in
  let t =
    mk ~digest:"wide" ~analysis_hash:"a" ~switches:(arr 37) ~clocks:(arr 2)
      ~inputs:[| max_int |] ~natives:(arr 11) ~picks:(arr 5) ()
  in
  with_tmp (fun path ->
      T.save path t;
      Alcotest.(check bool) "of_bytes" true (trace_eq t (T.of_bytes (read_file path)));
      List.iter
        (fun chunk_words ->
          Alcotest.(check bool)
            (Fmt.str "chunk_words %d" chunk_words)
            true
            (trace_eq t (drain_file ~chunk_words path)))
        [ 1; 2; 3; 4; 5; 7; 1024 ];
      (* an empty chunk would make every refill succeed without progress *)
      match T.Reader.open_file ~chunk_words:0 path with
      | exception Invalid_argument _ -> ()
      | r ->
        T.Reader.close r;
        Alcotest.fail "chunk_words 0 accepted")

(* The open-time scan reads 64 KiB blocks: slide the clocks section's
   3-byte count varint across the first block edge, one byte at a time. *)
let test_reader_count_straddles_scan_block () =
  with_tmp (fun path ->
      for n = 65_500 to 65_540 do
        let t =
          mk ~digest:"scan" ~switches:(Array.init n (fun i -> (i mod 100) - 50))
            ~clocks:(Array.init 20_000 (fun i -> i)) ~inputs:[| 7 |] ()
        in
        T.save path t;
        Alcotest.(check bool)
          (Fmt.str "%d switches" n)
          true
          (trace_eq t (drain_file ~chunk_words:1024 path))
      done)

(* A decode that fails releases its file: 200 failed [load]s and 200
   failed [Reader.open_file]-plus-drain calls over truncated and corrupt
   files leave the process's open descriptors as they were. *)
let test_failed_decodes_keep_fds () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let whole = T.to_bytes (sample_trace ()) in
  (* a non-canonical value (0x80 0x00): the open-time scan frames it as one
     varint, the refill rejects it *)
  let corrupt =
    let b = Bytes.of_string (T.to_bytes (mk ~switches:[| 64 |] ())) in
    let k = Bytes.length b - 4 in
    assert (Bytes.get b k = '\x01');
    Bytes.set b k '\x00';
    Bytes.to_string b
  in
  let broken =
    [
      String.sub whole 0 (String.length whole / 2);
      String.sub whole 0 (String.length whole - 1);
      String.sub whole 0 3;
      corrupt;
    ]
  in
  let drain_all r =
    Array.iter
      (fun tp ->
        while T.Tape.remaining tp > 0 do
          ignore (T.Tape.read tp)
        done)
      (T.Reader.tapes r)
  in
  with_tmp (fun path ->
      let write s =
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc
      in
      let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
      let before = open_fds () in
      for k = 0 to 199 do
        write (List.nth broken (k mod List.length broken));
        (match T.load path with
        | exception T.Format_error _ -> ()
        | _ -> Alcotest.fail "load accepted a broken trace");
        match T.Reader.open_file ~chunk_words:2 path with
        | exception T.Format_error _ -> ()
        | r -> (
          match
            Fun.protect
              ~finally:(fun () -> T.Reader.close r)
              (fun () -> drain_all r)
          with
          | exception T.Format_error _ -> ()
          | () -> Alcotest.fail "drained a broken trace")
      done;
      Alcotest.(check int) "open descriptors" before (open_fds ()))

(* A final flush that fails (ENOSPC, from /dev/full) makes both encoders
   give up: the error escapes, and neither a scratch file nor a partial
   trace is left behind. For [Writer.finish] the flush is a spill
   channel's close; for [save] it is the temp file's. *)
let test_encoders_abort_on_enospc () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  with_tmp (fun path ->
      Sys.remove path;
      Unix.symlink "/dev/full" (path ^ ".tmp");
      (match T.save path (sample_trace ()) with
      | exception Sys_error _ -> ()
      | () -> Alcotest.fail "save succeeded on a full device");
      Alcotest.(check bool) "save: no trace" false (Sys.file_exists path);
      Alcotest.(check bool)
        "save: no temp file" false
        (Sys.file_exists (path ^ ".tmp")));
  with_tmp (fun path ->
      Sys.remove path;
      let spill name = Fmt.str "%s.%s.spill" path name in
      Unix.symlink "/dev/full" (spill "clocks");
      let w =
        try T.Writer.create path
        with e ->
          Sys.remove (spill "clocks");
          raise e
      in
      Array.iter (fun tp -> T.Tape.push tp 1) (T.Writer.tapes w);
      (match T.Writer.finish w ~program_digest:"d" ~analysis_hash:"" with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail "finish succeeded on a full device");
      Array.iter
        (fun name ->
          Alcotest.(check bool)
            (name ^ " spill removed") false
            (Sys.file_exists (spill name)))
        T.section_names;
      Alcotest.(check bool) "no trace" false (Sys.file_exists path);
      Alcotest.(check bool)
        "no temp file" false
        (Sys.file_exists (path ^ ".tmp"));
      match T.Writer.finish w ~program_digest:"d" ~analysis_hash:"" with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "aborted writer finished")

let () =
  Alcotest.run "trace"
    [
      ( "tape",
        [
          quick "push/read" test_tape_push_read;
          quick "growth" test_tape_growth;
          quick "read_opt" test_tape_read_opt;
        ] );
      ( "varint",
        [ quick "edges" test_varint_edges; quick "truncated" test_varint_truncated ] );
      ( "codec",
        [
          quick "roundtrip empty" test_roundtrip_empty;
          quick "roundtrip full" test_roundtrip_full;
          quick "picks optional section" test_picks_optional_section;
          quick "bad magic" test_bad_magic;
          quick "trailing bytes" test_trailing_bytes;
          quick "truncation" test_truncation;
          quick "save/load" test_save_load;
          quick "native outcomes" test_native_outcome_codec;
          quick "sizes" test_sizes;
          quick "reason tags" test_reason_tags;
        ] );
      ( "streaming",
        [
          quick "encoded size" test_encoded_size;
          quick "writer byte identity" test_writer_byte_identity;
          quick "writer bounded buffer" test_writer_bounded_buffer;
          quick "reader roundtrip" test_reader_roundtrip;
          quick "reader truncation" test_reader_truncation;
          quick "reader corrupt" test_reader_corrupt;
          quick "reader chunk sweep over registry traces"
            test_reader_chunk_sweep_registry;
          quick "reader max-width varints straddle refills"
            test_reader_max_width_straddle;
          quick "reader count straddles the scan block"
            test_reader_count_straddles_scan_block;
          quick "failed decodes keep descriptors" test_failed_decodes_keep_fds;
          quick "encoders abort on ENOSPC" test_encoders_abort_on_enospc;
        ] );
    ]
