(* Tests for the benchmark's own code: summarising repeated
   measurements, span self time, reading provenance and JSON output. *)

open Perfbench

let close = Alcotest.float 1e-9

(* --- Stats ----------------------------------------------------------- *)

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.check close "single" 7. (Stats.median [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no values") (fun () ->
      ignore (Stats.median []))

(* --- Spans ----------------------------------------------------------- *)

(* A recorder on a scripted clock: every reading advances by one tick
   from the given list. *)
let scripted times =
  let q = ref times in
  let clock () =
    match !q with
    | t :: rest ->
      q := rest;
      t
    | [] -> failwith "clock exhausted"
  in
  let words = ref 0. in
  Spans.create ~clock
    ~words:(fun () ->
      words := !words +. 10.;
      (!words, 0.))
    ()

let find name spans = List.find (fun s -> s.Spans.name = name) spans

let test_nesting () =
  (* root [0,10] > a [1,4] > b [2,3]; c [5,9] *)
  let t = scripted [ 0.; 1.; 2.; 3.; 4.; 5.; 9.; 10. ] in
  Spans.with_span t ~point:3 "root" (fun () ->
      Spans.with_span t "a" (fun () -> Spans.with_span t "b" ignore);
      Spans.with_span t "c" ignore);
  let all = Spans.spans t in
  let root = find "root" all and a = find "a" all and b = find "b" all in
  Alcotest.(check (option int)) "root has no parent" None root.Spans.parent;
  Alcotest.(check (option int)) "a under root" (Some root.Spans.id) a.Spans.parent;
  Alcotest.(check (option int)) "b under a" (Some a.Spans.id) b.Spans.parent;
  Alcotest.(check (option int)) "point inherited" (Some 3) b.Spans.point;
  Alcotest.check close "root self = 10 - 3 - 4" 3. (Spans.self_time all root);
  Alcotest.check close "a self = 3 - 1" 2. (Spans.self_time all a);
  Alcotest.check close "leaf self = duration" 1. (Spans.self_time all b);
  (* every enter/leave reads the word counter once, 10 words apart *)
  Alcotest.check close "root words" 70. root.Spans.minor_words;
  let layers = Spans.by_name all in
  let l = List.find (fun l -> l.Spans.layer = "a") layers in
  Alcotest.check close "a self words = 30 - 10" 20. l.Spans.self_words

let test_by_name_sums () =
  (* run [0,6] > build [1,2], build [3,5] *)
  let t = scripted [ 0.; 1.; 2.; 3.; 5.; 6. ] in
  Spans.with_span t "run" (fun () ->
      Spans.with_span t "build" ignore;
      Spans.with_span t "build" ignore);
  let layer name = List.find (fun l -> l.Spans.layer = name) (Spans.by_name (Spans.spans t)) in
  Alcotest.(check int) "count" 2 (layer "build").Spans.count;
  Alcotest.check close "self summed" 3. (layer "build").Spans.self_s;
  Alcotest.check close "run self" 3. (layer "run").Spans.self_s

let test_null () =
  Spans.with_span Spans.null "x" ignore;
  Spans.leave Spans.null;
  Alcotest.(check int) "records nothing" 0 (List.length (Spans.spans Spans.null))

let test_leave_unbalanced () =
  let t = Spans.create () in
  Alcotest.check_raises "no open span" (Invalid_argument "Spans.leave: no open span") (fun () ->
      Spans.leave t)

(* --- Provenance ------------------------------------------------------ *)

(* Provenance reads the host through commands; a failing or silent
   command reads as absent, never as a value. *)
let test_first_line () =
  let c = Alcotest.(check (option string)) in
  c "first line, trimmed" (Some "4") (Provenance.first_line "printf ' 4 \\nrest\\n'");
  c "failing command" None (Provenance.first_line "echo 3; false");
  c "no output" None (Provenance.first_line "true");
  c "missing program" None (Provenance.first_line "no-such-program-perfbench")

let test_provenance_json () =
  let p =
    {
      Provenance.workload = "kv-read";
      seed = 7;
      seconds = 10;
      trace = false;
      nproc = Provenance.nproc ();
      jobs = 1;
      backend = "inline";
      ocaml = Sys.ocaml_version;
      word_size = Sys.word_size;
      commit = "none";
    }
  in
  Alcotest.(check bool) "nproc is positive" true (p.Provenance.nproc >= 1);
  let keys = match Provenance.to_json p with Json.Obj fields -> List.map fst fields | _ -> [] in
  List.iter
    (fun key -> Alcotest.(check bool) (key ^ " recorded") true (List.mem key keys))
    [ "nproc"; "ocaml"; "word_size"; "jobs"; "backend"; "seed"; "commit" ]

(* --- Json ------------------------------------------------------------ *)

let test_json () =
  let s = Alcotest.(check string) in
  s "escapes" {|"a\"b\\c\nd"|} (Json.to_string (Json.String "a\"b\\c\nd"));
  s "integral float" "2.0" (Json.to_string (Json.Float 2.));
  s "all digits" "0.10000000000000001" (Json.to_string (Json.Float 0.1));
  s "non-finite" "null" (Json.to_string (Json.Float Float.nan));
  s "object" {|{"correct": true, "n": [1, null]}|}
    (Json.to_string (Json.Obj [ ("correct", Json.Bool true); ("n", Json.List [ Json.Int 1; Json.Null ]) ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and self time" `Quick test_nesting;
          Alcotest.test_case "per-name sums" `Quick test_by_name_sums;
          Alcotest.test_case "null recorder" `Quick test_null;
          Alcotest.test_case "unbalanced leave" `Quick test_leave_unbalanced;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "command output" `Quick test_first_line;
          Alcotest.test_case "every field recorded" `Quick test_provenance_json;
        ] );
      ("json", [ Alcotest.test_case "emitter" `Quick test_json ]);
    ]
