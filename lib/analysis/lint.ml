(* adios-lint: domain-specific static analysis for this repository.

   The simulator's headline guarantee — a (workload seed, fault seed)
   pair replays byte-identically, and the trace checker can prove the
   yield-based page-fault protocol from the event stream alone — rests
   on conventions that the type checker does not enforce: all
   randomness flows through [Adios_engine.Rng], every [Event.kind]
   constructor is wired through the name table, the Chrome exporter and
   the invariant checker, and every counter the system accumulates
   reaches the CSV field list. This pass walks the parsetrees of every
   [.ml] under [lib/] and [bin/] (syntax only, via compiler-libs; no
   typing environment needed) and turns each convention into a machine
   check.

   Per-file rules (scoped by path):
   - [determinism]    [Random.*], [Unix.gettimeofday], [Sys.time] and
                      [Hashtbl.hash] forbidden outside
                      [lib/engine/{rng,clock}.ml].
   - [event-wildcard] no wildcard/catch-all case in a match over
                      [Trace.Event.kind].
   - [poly-compare]   polymorphic [=]/[<>]/[compare] on syntactically
                      structural values (options, lists, tuples,
                      records, arrays) in [lib/{core,rdma,mem}].
   - [float-equal]    [=]/[<>] against a float literal.
   - [no-abort]       [failwith] / [assert false] in [lib/apps]: request
                      handlers must surface failures through
                      [App.Bad_request] -> [Request.errored].
   - [unused-shadow]  a binding immediately shadowed by a same-name
                      rebinding that does not use it.

   Project rules (cross-file):
   - [event-wiring]   every [Event.kind] constructor appears in a
                      pattern in event.ml ([kind_name]), chrome.ml and
                      checker.ml.
   - [counter-export] every mutable counter in [System.counters] is
                      read by the runner, and every scalar field of
                      [Runner.result] appears in [Export.fields].
   - [metric-export]  every metric name literal passed to a
                      registration helper follows the OpenMetrics
                      naming convention (adios_ prefix, [a-z0-9_],
                      counters end in _total, gauges/histograms do
                      not), and every [register_metrics] definition is
                      called from another file — an uncalled one means
                      those series never reach the exporter.
   - [counter-registry] every mutable field of [System.counters] is
                      projected inside system.ml's [register_metrics],
                      so a new counter cannot bypass the registry.
   - [phase-wiring]   every [Phase.t] constructor appears in a pattern
                      in phase.ml (the name table), export.ml (the
                      tail-forensics CSV column map) and report.ml (the
                      human-readable label) — a new attribution phase
                      cannot reach one surface and silently miss the
                      others behind a wildcard.

   Suppressions: an allow-comment naming the rule (syntax in
   README.md, "Static analysis") on the finding's line or the line
   above silences that rule there; a trailing reason is mandatory
   ([suppress-reason] fires otherwise).

   Only syntactic matching is available at this layer, so the rules are
   heuristics tuned to this codebase's idioms; they aim for zero false
   positives on the tree as committed, with the escape hatch above for
   justified exceptions. *)

open Parsetree

type finding = Finding.t = {
  file : string;
  line : int;
  rule : string;
  msg : string;
}

(* Per-file syntactic rules, listed separately so the stale-suppression
   check knows which rules were live on a given run ([lint_source] runs
   only these; [run ~typed:true] adds the project and typed rules). *)
let syntactic_rules =
  [
    "determinism";
    "event-wildcard";
    "poly-compare";
    "float-equal";
    "no-abort";
    "unused-shadow";
  ]

let project_rules =
  [
    "event-wiring";
    "counter-export";
    "metric-export";
    "counter-registry";
    "phase-wiring";
  ]

let typed_rules = [ "zero-alloc"; "cycle-units"; "cmt-drift" ]

(* Meta rules report on the lint apparatus itself and are never
   suppressible (and never considered stale). *)
let meta_rules = [ "suppress-reason"; "stale-suppression"; "parse-error" ]

let rule_names = syntactic_rules @ project_rules @ typed_rules @ meta_rules

let to_string f = Printf.sprintf "%s:%d: [%s] %s" f.file f.line f.rule f.msg

let compare_findings a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> String.compare a.rule b.rule
    | c -> c)
  | c -> c

(* --- parsing helpers ---------------------------------------------------- *)

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let parse_impl ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  Parse.implementation lexbuf

let parse_error_finding ~path exn =
  let line =
    match exn with
    | Syntaxerr.Error e -> line_of (Syntaxerr.location_of_error e)
    | _ -> 1
  in
  { file = path; line; rule = "parse-error"; msg = "file does not parse" }

let flatten lid = try Longident.flatten lid with _ -> []

let last_of lid =
  match List.rev (flatten lid) with [] -> None | x :: _ -> Some x

(* --- small AST queries -------------------------------------------------- *)

(* Constructor names appearing anywhere in one pattern. *)
let pattern_constructors p =
  let acc = ref [] in
  let pat it q =
    (match q.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) -> (
      match last_of txt with Some n -> acc := n :: !acc | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.pat it q
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  !acc

(* Constructor names appearing in any pattern of a whole structure. *)
let structure_pattern_constructors str =
  let acc = Hashtbl.create 64 in
  let pat it q =
    (match q.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) -> (
      match last_of txt with Some n -> Hashtbl.replace acc n () | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.pat it q
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.structure it str;
  acc

let expr_mentions name e =
  let found = ref false in
  let expr it x =
    (match x.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } when String.equal n name ->
      found := true
    | _ -> ());
    Ast_iterator.default_iterator.expr it x
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* Constructors of the variant type [type_name], with declaration lines. *)
let variant_constructors ~type_name str =
  let acc = ref [] in
  let type_declaration it td =
    (if String.equal td.ptype_name.txt type_name then
       match td.ptype_kind with
       | Ptype_variant cds ->
         List.iter
           (fun cd -> acc := (cd.pcd_name.txt, line_of cd.pcd_loc) :: !acc)
           cds
       | _ -> ());
    Ast_iterator.default_iterator.type_declaration it td
  in
  let it = { Ast_iterator.default_iterator with type_declaration } in
  it.structure it str;
  List.rev !acc

let scalar_type_names = [ "int"; "float"; "string"; "bool" ]

(* Fields of the record type [type_name]: (name, line, mutable, scalar). *)
let record_fields ~type_name str =
  let acc = ref [] in
  let type_declaration it td =
    (if String.equal td.ptype_name.txt type_name then
       match td.ptype_kind with
       | Ptype_record lds ->
         List.iter
           (fun ld ->
             let scalar =
               match ld.pld_type.ptyp_desc with
               | Ptyp_constr ({ txt; _ }, []) -> (
                 match last_of txt with
                 | Some n -> List.mem n scalar_type_names
                 | None -> false)
               | _ -> false
             in
             acc :=
               ( ld.pld_name.txt,
                 line_of ld.pld_loc,
                 (match ld.pld_mutable with
                 | Asttypes.Mutable -> true
                 | Asttypes.Immutable -> false),
                 scalar )
               :: !acc)
           lds
       | _ -> ());
    Ast_iterator.default_iterator.type_declaration it td
  in
  let it = { Ast_iterator.default_iterator with type_declaration } in
  it.structure it str;
  List.rev !acc

(* Labels of field projections written [expr.Qualifier.label]. *)
let qualified_projections ~qualifier str =
  let acc = Hashtbl.create 64 in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_field (_, { txt = Longident.Ldot (Longident.Lident q, name); _ })
      when String.equal q qualifier ->
      Hashtbl.replace acc name ()
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  acc

(* Expression of the first toplevel [let name = ...] binding, if any. *)
let toplevel_binding ~name str =
  List.find_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.find_map
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } when String.equal txt name ->
              Some vb.pvb_expr
            | _ -> None)
          vbs
      | _ -> None)
    str

(* Labels of every field projection [expr.label] (any qualification)
   inside one expression. *)
let field_projections e =
  let acc = Hashtbl.create 32 in
  let expr it x =
    (match x.pexp_desc with
    | Pexp_field (_, { txt; _ }) -> (
      match last_of txt with Some n -> Hashtbl.replace acc n () | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it x
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  acc

(* [module A = Path.B] aliases: (alias, B). *)
let module_aliases str =
  let acc = ref [] in
  let module_binding it mb =
    (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
    | Some alias, Pmod_ident { txt; _ } -> (
      match last_of txt with
      | Some target -> acc := (alias, target) :: !acc
      | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.module_binding it mb
  in
  let it = { Ast_iterator.default_iterator with module_binding } in
  it.structure it str;
  !acc

(* Qualifiers Q of every [Q.name] use, with each file's module aliases
   resolved one step ([module Acct = Adios_obs.Accountant] makes
   [Acct.register_metrics] count as a call into Accountant). *)
let qualified_uses ~name str =
  let aliases = module_aliases str in
  let acc = ref [] in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Ldot (path, n); _ }
      when String.equal n name -> (
      match last_of path with
      | Some q ->
        let q = match List.assoc_opt q aliases with Some t -> t | None -> q in
        acc := q :: !acc
      | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  !acc

(* Metric-name string literals handed to a registration helper: any
   application of [counter]/[gauge]/[histogram] (bare or qualified,
   e.g. [Registry.counter]) with a string argument starting "adios_". *)
let metric_registrations str =
  let acc = ref [] in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      match last_of txt with
      | Some (("counter" | "gauge" | "histogram") as kind) ->
        List.iter
          (fun (_, a) ->
            match a.pexp_desc with
            | Pexp_constant (Pconst_string (s, loc, _))
              when String.starts_with ~prefix:"adios_" s ->
              acc := (kind, s, line_of loc) :: !acc
            | _ -> ())
          args
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  List.rev !acc

(* --- per-file rules ------------------------------------------------------ *)

let forbidden_determinism lid =
  match flatten lid with
  | "Random" :: _ :: _ | "Stdlib" :: "Random" :: _ ->
    Some
      "Random.* breaks seeded replay; thread an Adios_engine.Rng.t from the \
       config seed instead"
  | [ "Unix"; "gettimeofday" ] | [ "Stdlib"; "Unix"; "gettimeofday" ] ->
    Some "wall-clock time breaks replay; use Sim.now / Adios_engine.Clock"
  | [ "Sys"; "time" ] | [ "Stdlib"; "Sys"; "time" ] ->
    Some "process time breaks replay; use Sim.now / Adios_engine.Clock"
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ]
  | [ "Stdlib"; "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] ->
    Some
      "polymorphic Hashtbl.hash is not a stable function of the logical \
       value; derive an explicit integer key"
  | _ -> None

let determinism_exempt = [ "lib/engine/rng.ml"; "lib/engine/clock.ml" ]

let lint_structure ~path ~event_kinds str =
  let findings = ref [] in
  let add loc rule msg =
    findings := { file = path; line = line_of loc; rule; msg } :: !findings
  in
  let det_scope = not (List.mem path determinism_exempt) in
  let apps_scope = String.starts_with ~prefix:"lib/apps/" path in
  let poly_scope =
    List.exists
      (fun p -> String.starts_with ~prefix:p path)
      [ "lib/core/"; "lib/rdma/"; "lib/mem/" ]
  in
  let is_float_const e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_float _) -> true
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("~-." | "~+."); _ }; _ },
          [ (_, { pexp_desc = Pexp_constant (Pconst_float _); _ }) ] ) ->
      true
    | _ -> false
  in
  let structural e =
    match e.pexp_desc with
    | Pexp_construct ({ txt; _ }, _) -> (
      match last_of txt with
      | Some ("None" | "Some" | "::" | "[]") -> true
      | _ -> false)
    | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
    | _ -> false
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } when det_scope -> (
      match forbidden_determinism txt with
      | Some msg -> add loc "determinism" msg
      | None -> ())
    | _ -> ());
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident "failwith"; loc } when apps_scope ->
      add loc "no-abort"
        "failwith on a request-serving path aborts the simulation; raise \
         App.Bad_request (App.bad_request) so the reply carries \
         Request.errored"
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
          pexp_loc;
          _ }
      when apps_scope ->
      add pexp_loc "no-abort"
        "assert false on a request-serving path aborts the simulation; raise \
         App.Bad_request (App.require for missing state) so the reply \
         carries Request.errored"
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
          [ (_, a); (_, b) ] ) ->
      if is_float_const a || is_float_const b then
        add e.pexp_loc "float-equal"
          (Printf.sprintf
             "(%s) against a float literal is an exact-bit comparison; test \
              against an epsilon or restructure the condition"
             op);
      if poly_scope && (structural a || structural b) then
        add e.pexp_loc "poly-compare"
          (Printf.sprintf
             "polymorphic (%s) on a structural value; use Option.is_none / \
              Option.is_some, a match, or a type-specific equal"
             op)
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident "compare"; _ }; _ },
          [ (_, a); (_, b) ] )
      when poly_scope && (structural a || structural b) ->
      add e.pexp_loc "poly-compare"
        "polymorphic compare on a structural value; use a type-specific \
         comparator"
    | Pexp_apply (_, args) when poly_scope ->
      List.iter
        (fun (_, arg) ->
          match arg.pexp_desc with
          | Pexp_ident
              { txt =
                  ( Longident.Lident "compare"
                  | Longident.Ldot (Longident.Lident "Stdlib", "compare") );
                loc } ->
            add loc "poly-compare"
              "polymorphic compare passed as a function; pass a \
               type-specific comparator"
          | _ -> ())
        args
    | Pexp_let
        ( Asttypes.Nonrecursive,
          [ { pvb_pat = { ppat_desc = Ppat_var { txt = x; _ }; _ }; pvb_loc; _ } ],
          body ) -> (
      match body.pexp_desc with
      | Pexp_let
          ( Asttypes.Nonrecursive,
            [ { pvb_pat = { ppat_desc = Ppat_var { txt = y; _ }; _ };
                pvb_expr = e2;
                _ } ],
            _ )
        when String.equal x y && not (expr_mentions x e2) ->
        add pvb_loc "unused-shadow"
          (Printf.sprintf
             "binding of %s is dead: immediately shadowed by a rebinding \
              that does not use it"
             x)
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let cases it cs =
    (match event_kinds with
    | [] -> ()
    | kinds ->
      let names =
        List.concat_map (fun c -> pattern_constructors c.pc_lhs) cs
      in
      if List.exists (fun n -> List.mem n kinds) names then
        List.iter
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_any | Ppat_var _ ->
              add c.pc_lhs.ppat_loc "event-wildcard"
                "wildcard case in a match over Trace.Event.kind: list the \
                 constructors so a new event kind is a compile error, not a \
                 silently untraced event"
            | _ -> ())
          cs);
    Ast_iterator.default_iterator.cases it cs
  in
  let it = { Ast_iterator.default_iterator with expr; cases } in
  it.structure it str;
  !findings

(* --- suppressions -------------------------------------------------------- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub s i m) sub then Some i
    else go (i + 1)
  in
  go 0

(* The needle is assembled so this file's own source never matches it. *)
let needle = "lint:" ^ " allow"

let scan_suppressions ~path source =
  let sups = ref [] and finds = ref [] in
  let add_find line msg =
    finds := { file = path; line; rule = "suppress-reason"; msg } :: !finds
  in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      match find_sub line needle with
      | None -> ()
      | Some idx ->
        let start = idx + String.length needle in
        let rest = String.sub line start (String.length line - start) in
        let rest =
          match find_sub rest "*)" with
          | Some j -> String.sub rest 0 j
          | None -> rest
        in
        let rules_part, reason =
          match find_sub rest "--" with
          | Some j ->
            ( String.sub rest 0 j,
              String.trim
                (String.sub rest (j + 2) (String.length rest - j - 2)) )
          | None -> (rest, "")
        in
        let rules =
          String.split_on_char ' ' rules_part
          |> List.concat_map (String.split_on_char ',')
          |> List.map String.trim
          |> List.filter (fun s -> not (String.equal s ""))
        in
        let unknown =
          List.filter (fun r -> not (List.mem r rule_names)) rules
        in
        List.iter
          (fun r -> add_find ln (Printf.sprintf "unknown rule %S in suppression" r))
          unknown;
        if rules = [] then
          add_find ln "suppression names no rule"
        else if String.equal reason "" then
          add_find ln
            "suppression without a reason: state why after a -- separator"
        else if unknown = [] then sups := (ln, rules) :: !sups)
    (String.split_on_char '\n' source);
  (!sups, !finds)

let apply_suppressions (sups, sup_finds) findings =
  let kept =
    List.filter
      (fun f ->
        List.mem f.rule meta_rules
        || not
             (List.exists
                (fun (ln, rules) ->
                  List.mem f.rule rules && (ln = f.line || ln + 1 = f.line))
                sups))
      findings
  in
  kept @ sup_finds

(* A suppression that no longer matches a finding is debt: the code it
   excused was fixed or moved, and the comment now silently licenses a
   future regression on that line. Only rules that were actually live
   on this run count — a [zero-alloc] suppression is not stale just
   because the typed pass was skipped. *)
let stale_suppressions ~path ~active (sups, _) raw =
  List.concat_map
    (fun (ln, rules) ->
      List.filter_map
        (fun r ->
          if List.mem r meta_rules || not (List.mem r active) then None
          else if
            List.exists
              (fun f ->
                String.equal f.rule r
                && String.equal f.file path
                && (f.line = ln || f.line = ln + 1))
              raw
          then None
          else
            Some
              { file = path;
                line = ln;
                rule = "stale-suppression";
                msg =
                  Printf.sprintf
                    "suppression for %s matches no finding on this line; \
                     delete it or re-justify it"
                    r;
              })
        rules)
    sups

(* --- per-file entry points ----------------------------------------------- *)

let lint_raw ~event_kinds ~path ~source =
  match parse_impl ~path source with
  | exception exn -> [ parse_error_finding ~path exn ]
  | str -> lint_structure ~path ~event_kinds str

let lint_source ?(event_kinds = []) ~path ~source () =
  let sups = scan_suppressions ~path source in
  let raw = lint_raw ~event_kinds ~path ~source in
  apply_suppressions sups
    (raw @ stale_suppressions ~path ~active:syntactic_rules sups raw)
  |> List.sort compare_findings

(* Typed per-file entry point for tests: type [source] in-process (so
   fixtures can carry local stub modules for [Sim]/[Clock] and need no
   cmt) and run the typed rules on the result. [manifest] defaults to
   the real one; fixtures pass a small manifest naming their own
   functions. Suppressions and staleness work exactly as in
   [lint_source]. *)
let lint_typed_source ?(manifest = Hotpath.manifest) ~path ~source () =
  let sups = scan_suppressions ~path source in
  let raw =
    match Typed.type_source ~path ~source with
    | Error msg ->
      [ { file = path;
          line = 1;
          rule = "parse-error";
          msg = "file does not type: " ^ msg;
        } ]
    | Ok str ->
      let za =
        match List.find_opt (fun e -> String.equal e.Hotpath.file path) manifest
        with
        | Some entry ->
          Typed_rules.zero_alloc ~entry ~str ~resolve_unit:(fun _ -> None)
        | None -> []
      in
      za @ Typed_rules.cycle_units ~path ~str
  in
  apply_suppressions sups
    (raw
    @ stale_suppressions ~path ~active:[ "zero-alloc"; "cycle-units" ] sups raw
    )
  |> List.sort compare_findings

(* --- project rules -------------------------------------------------------- *)

let check_event_wiring ~event:(epath, esrc) ~chrome:(cpath, csrc)
    ~checker:(kpath, ksrc) =
  match
    ( parse_impl ~path:epath esrc,
      parse_impl ~path:cpath csrc,
      parse_impl ~path:kpath ksrc )
  with
  | exception exn -> [ parse_error_finding ~path:epath exn ]
  | estr, cstr, kstr ->
    let kinds = variant_constructors ~type_name:"kind" estr in
    if kinds = [] then
      [ { file = epath;
          line = 1;
          rule = "event-wiring";
          msg = "no variant type named kind found: the wiring check is blind" } ]
    else begin
      let epats = structure_pattern_constructors estr in
      let cpats = structure_pattern_constructors cstr in
      let kpats = structure_pattern_constructors kstr in
      List.concat_map
        (fun (name, line) ->
          let missing where table file =
            if Hashtbl.mem table name then []
            else
              [ { file = epath;
                  line;
                  rule = "event-wiring";
                  msg =
                    Printf.sprintf
                      "Event.kind constructor %s has no %s mapping in %s"
                      name where file } ]
          in
          missing "kind_name" epats epath
          @ missing "exporter" cpats cpath
          @ missing "checker" kpats kpath)
        kinds
    end

let check_counter_export ~system:(spath, ssrc) ~runner:(rpath, rsrc)
    ~export:(xpath, xsrc) =
  match
    ( parse_impl ~path:spath ssrc,
      parse_impl ~path:rpath rsrc,
      parse_impl ~path:xpath xsrc )
  with
  | exception exn -> [ parse_error_finding ~path:spath exn ]
  | sstr, rstr, xstr ->
    let counters = record_fields ~type_name:"counters" sstr in
    let consumed = qualified_projections ~qualifier:"System" rstr in
    let result_fields = record_fields ~type_name:"result" rstr in
    let exported = qualified_projections ~qualifier:"Runner" xstr in
    let counter_findings =
      List.concat_map
        (fun (name, line, mut, _scalar) ->
          if mut && not (Hashtbl.mem consumed name) then
            [ { file = spath;
                line;
                rule = "counter-export";
                msg =
                  Printf.sprintf
                    "counter %s is accumulated but never read by the runner; \
                     surface it through Runner.result and Export.fields"
                    name } ]
          else [])
        counters
    in
    let export_findings =
      List.concat_map
        (fun (name, line, _mut, scalar) ->
          if scalar && not (Hashtbl.mem exported name) then
            [ { file = rpath;
                line;
                rule = "counter-export";
                msg =
                  Printf.sprintf
                    "Runner.result.%s never reaches Export.fields in %s; add \
                     a CSV column so the measurement is not silently dropped"
                    name xpath } ]
          else [])
        result_fields
    in
    counter_findings @ export_findings

let module_name_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let valid_metric_name n =
  String.length n > String.length "adios_"
  && String.starts_with ~prefix:"adios_" n
  && String.for_all
       (fun ch -> (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') || ch = '_')
       n

let check_metric_export ~sources =
  let parsed =
    List.filter_map
      (fun (path, source) ->
        match parse_impl ~path source with
        | exception _ -> None (* parse-error already reported per-file *)
        | str -> Some (path, str))
      sources
  in
  (* Naming convention on every registration-site literal. The registry
     re-validates at runtime; this catches dead or conditional paths. *)
  let name_findings =
    List.concat_map
      (fun (path, str) ->
        List.concat_map
          (fun (kind, name, line) ->
            let bad msg = [ { file = path; line; rule = "metric-export"; msg } ] in
            if not (valid_metric_name name) then
              bad
                (Printf.sprintf
                   "metric name %S breaks the convention adios_[a-z0-9_]+; \
                    the registry will reject it at runtime"
                   name)
            else
              let total = String.ends_with ~suffix:"_total" name in
              match kind with
              | "counter" when not total ->
                bad
                  (Printf.sprintf
                     "counter %S must end in _total (OpenMetrics counter \
                      exposition strips and re-adds the suffix)"
                     name)
              | ("gauge" | "histogram") when total ->
                bad
                  (Printf.sprintf
                     "%s %S must not end in _total: the exporter would \
                      render it as a counter family"
                     kind name)
              | _ -> [])
          (metric_registrations str))
      parsed
  in
  (* Reachability: a [register_metrics] nobody calls never populates the
     registry, so its series silently vanish from every exporter. *)
  let callers =
    List.concat_map
      (fun (path, str) ->
        List.map
          (fun q -> (path, q))
          (qualified_uses ~name:"register_metrics" str))
      parsed
  in
  let reach_findings =
    List.concat_map
      (fun (path, str) ->
        match toplevel_binding ~name:"register_metrics" str with
        | None -> []
        | Some body ->
          let modname = module_name_of path in
          let called =
            List.exists
              (fun (caller, q) ->
                (not (String.equal caller path)) && String.equal q modname)
              callers
          in
          if called then []
          else
            [ { file = path;
                line = line_of body.pexp_loc;
                rule = "metric-export";
                msg =
                  Printf.sprintf
                    "%s.register_metrics is never called from another file: \
                     its metrics are unreachable from the OpenMetrics \
                     exporter"
                    modname } ])
      parsed
  in
  name_findings @ reach_findings

let check_counter_registry ~system:(spath, ssrc) =
  match parse_impl ~path:spath ssrc with
  | exception exn -> [ parse_error_finding ~path:spath exn ]
  | sstr -> (
    let counters = record_fields ~type_name:"counters" sstr in
    match toplevel_binding ~name:"register_metrics" sstr with
    | None ->
      if counters = [] then []
      else
        [ { file = spath;
            line = 1;
            rule = "counter-registry";
            msg =
              "no register_metrics binding found: the counter-registry \
               check is blind" } ]
    | Some body ->
      let registered = field_projections body in
      List.concat_map
        (fun (name, line, mut, _scalar) ->
          if mut && not (Hashtbl.mem registered name) then
            [ { file = spath;
                line;
                rule = "counter-registry";
                msg =
                  Printf.sprintf
                    "counter %s is not registered in register_metrics; \
                     every mutable counter must reach the metrics registry"
                    name } ]
          else [])
        counters)

let check_phase_wiring ~phase:(ppath, psrc) ~export:(xpath, xsrc)
    ~report:(rpath, rsrc) =
  match
    ( parse_impl ~path:ppath psrc,
      parse_impl ~path:xpath xsrc,
      parse_impl ~path:rpath rsrc )
  with
  | exception exn -> [ parse_error_finding ~path:ppath exn ]
  | pstr, xstr, rstr ->
    let phases = variant_constructors ~type_name:"t" pstr in
    if phases = [] then
      [ { file = ppath;
          line = 1;
          rule = "phase-wiring";
          msg = "no variant type named t found: the phase-wiring check is blind"
        } ]
    else begin
      (* presence in a pattern is the check: a wildcard arm does not
         name the constructor, so hiding a phase behind [_] fires *)
      let ppats = structure_pattern_constructors pstr in
      let xpats = structure_pattern_constructors xstr in
      let rpats = structure_pattern_constructors rstr in
      List.concat_map
        (fun (name, line) ->
          let missing where table file =
            if Hashtbl.mem table name then []
            else
              [ { file = ppath;
                  line;
                  rule = "phase-wiring";
                  msg =
                    Printf.sprintf
                      "Phase.t constructor %s has no %s mapping in %s" name
                      where file } ]
          in
          missing "name-table" ppats ppath
          @ missing "CSV-column" xpats xpath
          @ missing "report-label" rpats rpath)
        phases
    end

(* --- typed layer orchestration -------------------------------------------- *)

(* clock.ml implements the unit conversions themselves: its whole job
   is mixing [*_us] floats with cycle counts, so the taint pass would
   flag every line of it. *)
let cycle_units_exempt = [ "lib/engine/clock.ml" ]

(* Run the typedtree rules over every file a cmt loads for. Returns the
   findings plus the files whose cmt actually loaded, so staleness
   knows where the typed rules were live. *)
let typed_pass ~build_dir sources =
  let index = Typed.load_index ~build_dir in
  let drift = ref [] and loaded = ref [] in
  List.iter
    (fun (path, source) ->
      let fail msg =
        drift := { file = path; line = 1; rule = "cmt-drift"; msg } :: !drift
      in
      match Typed.lookup index ~path ~source with
      | Typed.Loaded str -> loaded := (path, str) :: !loaded
      | Typed.No_build_dir ->
        fail
          (Printf.sprintf
             "no build directory at %s; run dune build @check before the \
              typed pass (or pass --no-typed)"
             build_dir)
      | Typed.No_cmt ->
        fail
          "no .cmt artifact for this file; run dune build @check (plain \
           builds skip executable cmts)"
      | Typed.Stale ->
        fail
          "the .cmt was compiled from different source (stale build); rerun \
           dune build @check"
      | Typed.Unreadable msg ->
        fail (Printf.sprintf "unreadable .cmt artifact: %s" msg))
    sources;
  let loaded = List.rev !loaded in
  let views : (string, Typed_rules.unit_view) Hashtbl.t = Hashtbl.create 8 in
  let view ~file str =
    match Hashtbl.find_opt views file with
    | Some v -> v
    | None ->
      let v =
        { Typed_rules.uv_file = file;
          uv_bindings = Typed_rules.structure_bindings str;
        }
      in
      Hashtbl.replace views file v;
      v
  in
  let zero_alloc =
    List.concat_map
      (fun (entry : Hotpath.entry) ->
        match List.assoc_opt entry.file loaded with
        | None -> [] (* no cmt: already a cmt-drift finding *)
        | Some str ->
          let home = Typed.cmt_dir index ~path:entry.file in
          (* descent stays within the entry's own library: a unit is
             resolvable iff dune put its cmt in the same .objs dir *)
          let resolve_unit modname =
            match (Typed.find_unit index ~modname, home) with
            | Some info, Some h
              when String.equal (Filename.dirname info.Typed.cmt_path) h ->
              Some (view ~file:info.Typed.src info.Typed.structure)
            | _ -> None
          in
          Typed_rules.zero_alloc ~entry ~str ~resolve_unit)
      Hotpath.manifest
  in
  let cycle_units =
    List.concat_map
      (fun (path, str) ->
        if List.mem path cycle_units_exempt then []
        else Typed_rules.cycle_units ~path ~str)
      loaded
  in
  (!drift @ zero_alloc @ cycle_units, List.map fst loaded)

(* --- whole-repo driver ---------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let collect_files root =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    Array.to_list (Sys.readdir abs)
    |> List.sort String.compare
    |> List.iter (fun name ->
           let rel' = rel ^ "/" ^ name in
           let abs' = Filename.concat root rel' in
           if Sys.is_directory abs' then begin
             if (not (String.equal name "_build")) && name.[0] <> '.' then
               walk rel'
           end
           else if Filename.check_suffix name ".ml" then acc := rel' :: !acc)
  in
  List.iter
    (fun d -> if Sys.file_exists (Filename.concat root d) then walk d)
    [ "lib"; "bin" ];
  List.sort String.compare !acc

let default_build_dir root =
  Filename.concat root (Filename.concat "_build" "default")

let run ?(typed = true) ?build_dir ~root () =
  let build_dir =
    match build_dir with Some d -> d | None -> default_build_dir root
  in
  let files = collect_files root in
  let sources =
    List.map (fun f -> (f, read_file (Filename.concat root f))) files
  in
  let event_kinds =
    match List.assoc_opt "lib/trace/event.ml" sources with
    | None -> []
    | Some src -> (
      match parse_impl ~path:"lib/trace/event.ml" src with
      | exception _ -> []
      | str -> List.map fst (variant_constructors ~type_name:"kind" str))
  in
  let per_file =
    List.concat_map
      (fun (path, source) -> lint_raw ~event_kinds ~path ~source)
      sources
  in
  let get f = Option.map (fun s -> (f, s)) (List.assoc_opt f sources) in
  let wiring =
    match
      ( get "lib/trace/event.ml",
        get "lib/trace/chrome.ml",
        get "lib/trace/checker.ml" )
    with
    | Some e, Some c, Some k -> check_event_wiring ~event:e ~chrome:c ~checker:k
    | _ -> []
  in
  let counters =
    match
      ( get "lib/core/system.ml",
        get "lib/core/runner.ml",
        get "lib/core/export.ml" )
    with
    | Some s, Some r, Some x ->
      check_counter_export ~system:s ~runner:r ~export:x
    | _ -> []
  in
  let phase_wiring =
    match
      ( get "lib/prof/phase.ml",
        get "lib/core/export.ml",
        get "lib/core/report.ml" )
    with
    | Some p, Some x, Some r -> check_phase_wiring ~phase:p ~export:x ~report:r
    | _ -> []
  in
  let metric_export = check_metric_export ~sources in
  let counter_registry =
    match get "lib/core/system.ml" with
    | Some s -> check_counter_registry ~system:s
    | None -> []
  in
  let typed_findings, typed_loaded =
    if typed then typed_pass ~build_dir sources else ([], [])
  in
  let raw =
    per_file @ wiring @ counters @ phase_wiring @ metric_export
    @ counter_registry @ typed_findings
  in
  let final =
    List.concat_map
      (fun (path, source) ->
        let sups = scan_suppressions ~path source in
        let mine = List.filter (fun f -> String.equal f.file path) raw in
        let active =
          syntactic_rules @ project_rules
          @ (if typed then [ "cmt-drift" ] else [])
          @
          if typed && List.mem path typed_loaded then
            [ "zero-alloc"; "cycle-units" ]
          else []
        in
        apply_suppressions sups
          (mine @ stale_suppressions ~path ~active sups mine))
      sources
  in
  (List.length files, List.sort compare_findings final)
