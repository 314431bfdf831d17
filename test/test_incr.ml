(* Incremental recomputation: dirty-set classification, update-batch
   parsing, the delta-seeded chase, and the engine's solution cache
   (docs/INCREMENTAL.md). *)
open Matrix
open Helpers

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let err what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg -> (msg : string)

(* --- determination: dirty sets on a diamond DAG --- *)

let diamond_determination () =
  let d = Engine.Determination.create () in
  ok
    (Engine.Determination.register_source d ~name:"diamond"
       "cube A(t: quarter);\nB := A + 1;\nC := 2 * A;\nD := B + C;\n");
  d

let test_dirty_set_elementary () =
  let d = diamond_determination () in
  let ds = Engine.Determination.dirty_set d ~changed:[ "A" ] in
  Alcotest.(check (list string)) "elementary" [ "A" ]
    ds.Engine.Determination.changed_elementary;
  Alcotest.(check (list string)) "no derived changed" []
    ds.Engine.Determination.changed_derived;
  Alcotest.(check (list string)) "whole diamond, D once"
    [ "B"; "C"; "D" ] ds.Engine.Determination.dirty_derived

let test_dirty_set_derived () =
  let d = diamond_determination () in
  let ds = Engine.Determination.dirty_set d ~changed:[ "B" ] in
  Alcotest.(check (list string)) "derived change reported distinctly" [ "B" ]
    ds.Engine.Determination.changed_derived;
  (* B's new content is the change: only its dependents recompute. *)
  Alcotest.(check (list string)) "B itself not recomputed" [ "D" ]
    ds.Engine.Determination.dirty_derived;
  Alcotest.(check (list string)) "affected agrees" [ "D" ]
    (Engine.Determination.affected d ~changed:[ "B" ])

let test_dirty_set_mixed () =
  let d = diamond_determination () in
  let ds = Engine.Determination.dirty_set d ~changed:[ "A"; "B" ] in
  Alcotest.(check (list string)) "kinds split" [ "A" ]
    ds.Engine.Determination.changed_elementary;
  Alcotest.(check (list string)) "kinds split derived" [ "B" ]
    ds.Engine.Determination.changed_derived;
  Alcotest.(check (list string)) "C and D dirty, B excluded"
    [ "C"; "D" ] ds.Engine.Determination.dirty_derived

(* --- update-batch text format --- *)

let test_update_parse () =
  let d = diamond_determination () in
  let schema_of = Engine.Determination.schema d in
  let batch =
    "# revisions for Q1\nset A 2024Q1 3.5\n\ndel A 2024Q2  # retract\n"
  in
  let updates = ok (Engine.Update.of_string ~schema_of batch) in
  Alcotest.(check int) "two updates" 2 (List.length updates);
  (match updates with
  | [ u1; u2 ] ->
      Alcotest.(check string) "set line" "set A 2024Q1 3.5"
        (Engine.Update.to_string u1);
      Alcotest.(check string) "del line" "del A 2024Q2"
        (Engine.Update.to_string u2)
  | _ -> Alcotest.fail "expected two updates");
  let check_err what text needle =
    let msg = err what (Engine.Update.of_string ~schema_of text) in
    Alcotest.(check bool)
      (what ^ ": " ^ msg)
      true
      (Astring_contains.contains msg needle)
  in
  check_err "unknown cube" "set X 2024Q1 1\n" "unknown cube";
  check_err "bad arity" "set A 2024Q1\n" "expects 2 value(s)";
  check_err "excess values" "set A 2024Q1 1 2\n" "expects 2 value(s), got 3";
  check_err "del arity" "del A 2024Q1 extra\n" "expects 1 value(s), got 2";
  check_err "missing cube" "set\n" "missing cube name";
  check_err "key domain" "set A nope 1\n" "out of domain";
  check_err "measure domain" "set A 2024Q1 north\n" "measure";
  check_err "unknown verb" "zap A 2024Q1\n" "unknown verb";
  (* errors carry the 1-based line number of the offending line *)
  check_err "line number" "set A 2024Q1 1\n\nset A oops 1\n" "line 3:";
  (* comments and blank lines alone make an empty, valid batch *)
  Alcotest.(check int) "comment-only batch is empty" 0
    (List.length (ok (Engine.Update.of_string ~schema_of "# nothing\n\n  \n")))

(* --- batch compaction (the server coalescer's merge step) --- *)

let update_line = Alcotest.testable Fmt.string String.equal
let lines us = List.map Engine.Update.to_string us

let test_compact_last_wins () =
  let u v = Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf v) in
  Alcotest.(check (list update_line))
    "three writes net to the last one"
    [ "set A 2024Q1 3" ]
    (lines (Engine.Update.compact [ u 1.; u 2.; u 3. ]))

let test_compact_set_del_cancel () =
  let k = [ vq 2024 1 ] in
  let set v = Engine.Update.set ~cube:"A" ~key:k (vf v) in
  let del = Engine.Update.remove ~cube:"A" ~key:k in
  Alcotest.(check (list update_line))
    "set then del nets to the del" [ "del A 2024Q1" ]
    (lines (Engine.Update.compact [ set 1.; del ]));
  Alcotest.(check (list update_line))
    "del then set nets to the set" [ "set A 2024Q1 2" ]
    (lines (Engine.Update.compact [ del; set 2. ]))

let test_compact_stable_idempotent () =
  let u cube q v = Engine.Update.set ~cube ~key:[ vq 2024 q ] (vf v) in
  let batch = [ u "B" 2 1.; u "A" 1 1.; u "B" 2 9.; u "A" 3 5.; u "A" 1 7. ] in
  let once = Engine.Update.compact batch in
  (* first-appearance order of the surviving keys, last value each *)
  Alcotest.(check (list update_line))
    "stable order, last value"
    [ "set B 2024Q2 9"; "set A 2024Q1 7"; "set A 2024Q3 5" ]
    (lines once);
  Alcotest.(check (list update_line))
    "idempotent" (lines once)
    (lines (Engine.Update.compact once))

let test_compact_value_aware_keys () =
  (* Int 2 and Float 2. address the same store key; compaction must
     identify them or interleaved writes replay in the wrong order. *)
  let a = Engine.Update.set ~cube:"A" ~key:[ vi 2 ] (vf 1.) in
  let b = Engine.Update.set ~cube:"A" ~key:[ vf 2. ] (vf 9.) in
  match Engine.Update.compact [ a; b ] with
  | [ { Engine.Update.action = Set v; _ } ] ->
      Alcotest.check value "last write survives" (vf 9.) v
  | us -> Alcotest.failf "expected one update, got %d" (List.length us)

let test_concat_across_batches () =
  let k = [ vq 2024 1 ] in
  let set c v = Engine.Update.set ~cube:c ~key:k (vf v) in
  let del c = Engine.Update.remove ~cube:c ~key:k in
  (* opposing updates queued by different clients cancel across the
     batch boundary; unrelated cubes keep their own last writes *)
  Alcotest.(check (list update_line))
    "merge of three queued batches"
    [ "set A 2024Q1 4"; "set B 2024Q1 2" ]
    (lines
       (Engine.Update.concat
          [ [ set "A" 1.; del "B" ]; [ set "B" 2.; del "A" ]; [ set "A" 4. ] ]));
  Alcotest.(check (list update_line)) "concat of empties" []
    (lines (Engine.Update.concat [ []; [] ]))

(* Applying the concat of queued batches equals applying them one by
   one — the equivalence the server's coalescer relies on. *)
let test_concat_equals_sequential_apply () =
  let mk () =
    let engine = Engine.Exlengine.create () in
    ok
      (Engine.Exlengine.register_program engine ~name:"p"
         "cube A(t: quarter);\nD := A + 1;\n");
    ok
      (Engine.Exlengine.load_elementary engine
         (cube_of "A"
            [ ("t", Domain.Period (Some Calendar.Quarter)) ]
            [ [ vq 2024 1; vf 1. ]; [ vq 2024 2; vf 2. ] ]));
    ignore (ok (Engine.Exlengine.recompute_all engine));
    ok (Engine.Exlengine.warm engine);
    engine
  in
  let set q v = Engine.Update.set ~cube:"A" ~key:[ vq 2024 q ] (vf v) in
  let del q = Engine.Update.remove ~cube:"A" ~key:[ vq 2024 q ] in
  let batches =
    [ [ set 1 10.; set 3 30. ]; [ del 3; set 2 20. ]; [ set 3 33.; del 1 ] ]
  in
  let sequential = mk () in
  List.iter
    (fun b -> ignore (ok (Engine.Exlengine.apply_updates sequential b)))
    batches;
  let coalesced = mk () in
  ignore
    (ok (Engine.Exlengine.apply_updates coalesced (Engine.Update.concat batches)));
  List.iter
    (fun name ->
      Alcotest.check cube_eq
        (name ^ " agrees")
        (Option.get (Engine.Exlengine.cube sequential name))
        (Option.get (Engine.Exlengine.cube coalesced name)))
    [ "A"; "D" ]

(* --- the delta-seeded chase --- *)

let mapping_of source ~cubes =
  let d = Engine.Determination.create () in
  ok (Engine.Determination.register_source d ~name:"m" source);
  ok (Engine.Translation.submapping d ~cubes)

let join_source =
  "cube A(t: quarter, r: string);\ncube B(t: quarter, r: string);\nJ := A * B;\n"

let join_registry () =
  let reg = Registry.create () in
  let a = cube_of "A" [ ("t", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
      [ [ vq 2024 1; vs "n"; vf 2. ]; [ vq 2024 2; vs "n"; vf 3. ] ]
  in
  let b = cube_of "B" [ ("t", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
      [ [ vq 2024 1; vs "n"; vf 10. ]; [ vq 2024 2; vs "n"; vf 20. ];
        [ vq 2024 3; vs "n"; vf 30. ] ]
  in
  Registry.add reg Registry.Elementary a;
  Registry.add reg Registry.Elementary b;
  reg

let solve mapping reg =
  let inst, _ = ok (Exchange.Chase.run mapping (Exchange.Instance.of_registry reg)) in
  inst

let check_relation_eq msg inst1 inst2 rel =
  Alcotest.check cube_eq msg
    (Exchange.Instance.cube_of_relation inst2 rel)
    (Exchange.Instance.cube_of_relation inst1 rel)

let test_chase_incremental_insert_only () =
  let mapping = mapping_of join_source ~cubes:[ "J" ] in
  let reg = join_registry () in
  let solution = solve mapping reg in
  let deltas =
    [ ("A", { Exchange.Chase.added = [ [| vq 2024 3; vs "n"; vf 4. |] ]; removed = [] }) ]
  in
  let _, istats =
    ok
      (Exchange.Chase.incremental
         ~state:(Exchange.Chase.create_incr_state ())
         mapping ~solution ~deltas)
  in
  Alcotest.(check int) "insert-only fast path" 1
    istats.Exchange.Chase.strata_delta;
  Alcotest.(check int) "no rederivation" 0
    istats.Exchange.Chase.strata_rederived;
  (* scratch comparison on the updated source *)
  Cube.set (Registry.find_exn reg "A") (key [ vq 2024 3; vs "n" ]) (vf 4.);
  let scratch = solve mapping reg in
  check_relation_eq "J repaired" solution scratch "J";
  check_relation_eq "A source copy repaired" solution scratch "A"

let test_chase_incremental_removal_rederives () =
  let mapping = mapping_of join_source ~cubes:[ "J" ] in
  let reg = join_registry () in
  let solution = solve mapping reg in
  let deltas =
    [ ("A", { Exchange.Chase.added = []; removed = [ [| vq 2024 2; vs "n"; vf 3. |] ] }) ]
  in
  let _, istats =
    ok
      (Exchange.Chase.incremental
         ~state:(Exchange.Chase.create_incr_state ())
         mapping ~solution ~deltas)
  in
  Alcotest.(check int) "DRed rederivation" 1
    istats.Exchange.Chase.strata_rederived;
  Cube.remove (Registry.find_exn reg "A") (key [ vq 2024 2; vs "n" ]);
  let scratch = solve mapping reg in
  check_relation_eq "J repaired after deletion" solution scratch "J"

let test_chase_incremental_skips_unreached_strata () =
  (* Two levels: updating A touches only B's stratum; D (over C over E)
     lives in a stratum no delta reaches. *)
  let source =
    "cube A(t: quarter);\ncube E(t: quarter);\n\
     B := A + 1;\nC := 2 * E;\nD := C + 1;\n"
  in
  let mapping = mapping_of source ~cubes:[ "B"; "C"; "D" ] in
  let reg = Registry.create () in
  let quarter = Domain.Period (Some Calendar.Quarter) in
  Registry.add reg Registry.Elementary
    (cube_of "A" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  Registry.add reg Registry.Elementary
    (cube_of "E" [ ("t", quarter) ] [ [ vq 2024 1; vf 5. ] ]);
  let solution = solve mapping reg in
  let deltas =
    [ ("A", { Exchange.Chase.added = [ [| vq 2024 2; vf 7. |] ]; removed = [] }) ]
  in
  let _, istats =
    ok
      (Exchange.Chase.incremental
         ~state:(Exchange.Chase.create_incr_state ())
         mapping ~solution ~deltas)
  in
  Alcotest.(check bool) "some stratum skipped outright" true
    (istats.Exchange.Chase.strata_skipped >= 1);
  Cube.set (Registry.find_exn reg "A") (key [ vq 2024 2 ]) (vf 7.);
  let scratch = solve mapping reg in
  List.iter (check_relation_eq "all targets agree" solution scratch)
    [ "B"; "C"; "D" ]

let test_chase_incremental_aggregation_revision () =
  let source = "cube A(t: quarter, r: string);\nS := sum(A, group by t);\n" in
  let mapping = mapping_of source ~cubes:[ "S" ] in
  let reg = join_registry () in
  let solution = solve mapping reg in
  let deltas =
    [
      ( "A",
        {
          Exchange.Chase.added = [ [| vq 2024 1; vs "n"; vf 9. |] ];
          removed = [ [| vq 2024 1; vs "n"; vf 2. |] ];
        } );
    ]
  in
  ignore
    (ok
       (Exchange.Chase.incremental
          ~state:(Exchange.Chase.create_incr_state ())
          mapping ~solution ~deltas));
  Cube.set (Registry.find_exn reg "A") (key [ vq 2024 1; vs "n" ]) (vf 9.);
  let scratch = solve mapping reg in
  check_relation_eq "S repaired" solution scratch "S"

(* The same revision takes the group-scoped path (no stratum
   rederived), and a second batch — the steady state, bags maintained
   rather than rebuilt — still matches a from-scratch run, including a
   deletion that empties a group. *)
let test_chase_incremental_aggregation_state () =
  let source = "cube A(t: quarter, r: string);\nS := sum(A, group by t);\n" in
  let mapping = mapping_of source ~cubes:[ "S" ] in
  let reg = join_registry () in
  let solution = solve mapping reg in
  let state = Exchange.Chase.create_incr_state () in
  let batch deltas =
    ok (Exchange.Chase.incremental ~state mapping ~solution ~deltas)
  in
  let _, istats1 =
    batch
      [
        ( "A",
          {
            Exchange.Chase.added = [ [| vq 2024 1; vs "n"; vf 9. |] ];
            removed = [ [| vq 2024 1; vs "n"; vf 2. |] ];
          } );
      ]
  in
  Alcotest.(check int) "no stratum rederived" 0
    istats1.Exchange.Chase.strata_rederived;
  Alcotest.(check int) "group-scoped stratum counted as delta" 1
    istats1.Exchange.Chase.strata_delta;
  Cube.set (Registry.find_exn reg "A") (key [ vq 2024 1; vs "n" ]) (vf 9.);
  check_relation_eq "S repaired (first batch)" solution (solve mapping reg) "S";
  let _, istats2 =
    batch
      [
        ( "A",
          { Exchange.Chase.added = []; removed = [ [| vq 2024 2; vs "n"; vf 3. |] ] }
        );
      ]
  in
  Alcotest.(check int) "steady state stays group-scoped" 0
    istats2.Exchange.Chase.strata_rederived;
  Cube.remove (Registry.find_exn reg "A") (key [ vq 2024 2; vs "n" ]);
  check_relation_eq "S repaired (deletion empties group)" solution
    (solve mapping reg) "S"

(* --- repairing generated mappings: Chase.incremental == Chase.run ---

   The cases below chase the plain generated mapping of a program (no
   optimizer), revise the elementary data, repair the solution with
   Chase.incremental and compare it with a from-scratch Chase.run. *)

let generated_mapping src =
  (check_ok (Mappings.Generate.of_source src)).Mappings.Generate.mapping

let fact k v = Array.append (Tuple.to_array k) [| v |]

(* Apply [edits] — (cube, key, new measure or [None] to delete) — to a
   copy of [reg]; returns the revised copy and the fact deltas.  Each
   key is edited at most once. *)
let revise reg edits =
  let out = Registry.copy reg in
  let deltas = Hashtbl.create 4 in
  List.iter
    (fun (name, k, next) ->
      let cube = Registry.find_exn out name in
      let prev = Cube.find cube k in
      (match next with Some v -> Cube.set cube k v | None -> Cube.remove cube k);
      let facts = function Some v -> [ fact k v ] | None -> [] in
      let d =
        Option.value (Hashtbl.find_opt deltas name)
          ~default:{ Exchange.Chase.added = []; removed = [] }
      in
      Hashtbl.replace deltas name
        {
          Exchange.Chase.added = facts next @ d.Exchange.Chase.added;
          removed = facts prev @ d.Exchange.Chase.removed;
        })
    edits;
  (out, List.of_seq (Hashtbl.to_seq deltas))

let repair mapping ~solution deltas =
  ok
    (Exchange.Chase.incremental
       ~state:(Exchange.Chase.create_incr_state ())
       mapping ~solution ~deltas)

let solutions_agree what mapping ~want ~got =
  List.iter
    (fun (schema : Schema.t) ->
      let name = schema.Schema.name in
      Alcotest.(check bool)
        (Printf.sprintf "%s: relation %s" what name)
        true
        (Cube.equal_data ~eps:1e-7
           (Exchange.Instance.cube_of_relation want name)
           (Exchange.Instance.cube_of_relation got name)))
    mapping.Mappings.Mapping.target

(* Revise one quarterly per-capita figure of the overview. *)
let overview_revision reg factor =
  let k = key [ vq 2021 2; vs "north" ] in
  let v =
    Value.to_float_exn (Option.get (Cube.find (Registry.find_exn reg "RGDPPC") k))
  in
  revise reg [ ("RGDPPC", k, Some (vf (v *. factor))) ]

let test_repair_no_change_is_noop () =
  let reg = overview_registry () in
  let mapping = generated_mapping Helpers.overview_program in
  let solution = solve mapping reg in
  (* re-adding a fact already present is no change under set semantics *)
  let pdr = Registry.find_exn reg "PDR" in
  let k = List.hd (Cube.keys pdr) in
  let present = fact k (Option.get (Cube.find pdr k)) in
  let stats, istats =
    repair mapping ~solution
      [ ("PDR", { Exchange.Chase.added = [ present ]; removed = [] }) ]
  in
  Alcotest.(check int) "no input delta" 0 istats.Exchange.Chase.input_facts;
  Alcotest.(check int) "nothing rederived" 0 istats.Exchange.Chase.facts_rederived;
  Alcotest.(check int) "no facts generated" 0 stats.Exchange.Chase.tuples_generated;
  Alcotest.(check int) "every stratum skipped" istats.Exchange.Chase.strata_total
    istats.Exchange.Chase.strata_skipped;
  solutions_agree "unchanged" mapping ~want:(solve mapping reg) ~got:solution

let test_repair_overview_revision () =
  let reg = overview_registry () in
  let mapping = generated_mapping Helpers.overview_program in
  let solution = solve mapping reg in
  let revised, deltas = overview_revision reg 1.05 in
  let _, istats = repair mapping ~solution deltas in
  solutions_agree "one RGDPPC revision" mapping ~want:(solve mapping revised)
    ~got:solution;
  Alcotest.(check bool)
    (Printf.sprintf "partial work (%d facts rederived)"
       istats.Exchange.Chase.facts_rederived)
    true
    (istats.Exchange.Chase.facts_rederived
    < Exchange.Instance.total_facts solution)

let test_repair_skips_unaffected_branch () =
  let reg = overview_registry () in
  let mapping = generated_mapping Helpers.overview_program in
  let solution = solve mapping reg in
  let pqr = Exchange.Instance.cube_of_relation solution "PQR" in
  let _, deltas = overview_revision reg 1.05 in
  let _, istats = repair mapping ~solution deltas in
  (* PQR depends only on PDR: its stratum is never evaluated *)
  Alcotest.(check bool) "PQR stratum skipped" true
    (istats.Exchange.Chase.strata_skipped >= 1);
  Alcotest.check cube_eq "PQR untouched" pqr
    (Exchange.Instance.cube_of_relation solution "PQR")

let test_repair_insertion_and_deletion () =
  let dims = [ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ] in
  let mapping =
    generated_mapping
      "cube A(q: quarter, r: string);\n\
       cube B(q: quarter, r: string);\n\
       C := A * B;\n\
       S := sum(C, group by q);\n"
  in
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A" dims [ [ vq 2024 1; vs "x"; vf 2. ]; [ vq 2024 2; vs "x"; vf 3. ] ]);
  Registry.add reg Registry.Elementary
    (cube_of "B" dims [ [ vq 2024 1; vs "x"; vf 10. ]; [ vq 2024 2; vs "x"; vf 10. ] ]);
  let solution = solve mapping reg in
  (* delete one A tuple, insert another with its B partner *)
  let revised, deltas =
    revise reg
      [
        ("A", key [ vq 2024 1; vs "x" ], None);
        ("A", key [ vq 2024 3; vs "x" ], Some (vf 7.));
        ("B", key [ vq 2024 3; vs "x" ], Some (vf 10.));
      ]
  in
  ignore (repair mapping ~solution deltas);
  solutions_agree "insert + delete" mapping ~want:(solve mapping revised)
    ~got:solution;
  let c = Exchange.Instance.cube_of_relation solution "C" in
  Alcotest.(check bool) "old gone" false (Cube.mem c (key [ vq 2024 1; vs "x" ]));
  Alcotest.check value "new there" (vf 70.)
    (Option.get (Cube.find c (key [ vq 2024 3; vs "x" ])))

let test_repair_both_join_sides () =
  (* both join sides revised at the same key: the old join result must
     go although both of its inputs have already been replaced *)
  let dims = [ ("q", Domain.Period (Some Calendar.Quarter)) ] in
  let mapping =
    generated_mapping "cube A(q: quarter);\ncube B(q: quarter);\nC := A * B;\n"
  in
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary (cube_of "A" dims [ [ vq 2024 1; vf 2. ] ]);
  Registry.add reg Registry.Elementary (cube_of "B" dims [ [ vq 2024 1; vf 10. ] ]);
  let solution = solve mapping reg in
  let k = key [ vq 2024 1 ] in
  let _, deltas = revise reg [ ("A", k, Some (vf 3.)); ("B", k, Some (vf 20.)) ] in
  ignore (repair mapping ~solution deltas);
  let c = Exchange.Instance.cube_of_relation solution "C" in
  Alcotest.(check int) "one fact" 1 (Cube.cardinality c);
  Alcotest.check value "3*20" (vf 60.) (Option.get (Cube.find c k))

(* Secondary indexes built on the live solution must stay consistent
   through the insert/remove traffic of the repair. *)
let test_repair_keeps_indexes () =
  let reg = overview_registry () in
  let mapping = generated_mapping Helpers.overview_program in
  let solution = solve mapping reg in
  let indexed =
    List.filter_map
      (fun (schema : Schema.t) ->
        if Array.length schema.Schema.dims > 0 then Some schema.Schema.name
        else None)
      mapping.Mappings.Mapping.target
  in
  List.iter (fun name -> Exchange.Instance.ensure_index solution name [ 0 ]) indexed;
  let revised, deltas = overview_revision reg 1.07 in
  ignore (repair mapping ~solution deltas);
  solutions_agree "after repair" mapping ~want:(solve mapping revised) ~got:solution;
  (* every index bucket agrees with a fresh scan of the relation *)
  List.iter
    (fun name ->
      (* the repair may add further indexes of its own; ours must survive *)
      Alcotest.(check bool)
        (name ^ " still indexed") true
        (List.mem [ 0 ] (Exchange.Instance.indexed_positions solution name));
      let facts = Exchange.Instance.facts solution name in
      List.iter
        (fun f ->
          let bucket = Exchange.Instance.lookup_index solution name [ 0 ] [ f.(0) ] in
          let scan = List.filter (fun g -> Value.equal g.(0) f.(0)) facts in
          Alcotest.(check int)
            (Printf.sprintf "%s bucket size" name)
            (List.length scan) (List.length bucket);
          Alcotest.(check bool)
            (Printf.sprintf "%s bucket member" name)
            true
            (List.exists
               (fun g -> Tuple.equal (Tuple.of_array g) (Tuple.of_array f))
               bucket))
        facts)
    indexed

let test_repair_blackbox_revision () =
  (* revise every point of one slice of a two-slice cumsum input *)
  let mapping =
    generated_mapping "cube A(q: quarter, r: string);\nT := cumsum(A);\n"
  in
  let quarter i = vq (2020 + (i / 4)) ((i mod 4) + 1) in
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A"
       [ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
       (List.concat_map
          (fun (r, offset) ->
            List.init 8 (fun i -> [ quarter i; vs r; vf (offset +. float_of_int i) ]))
          [ ("a", 0.); ("b", 100.) ]));
  let solution = solve mapping reg in
  let revised, deltas =
    revise reg
      (List.init 8 (fun i ->
           ("A", key [ quarter i; vs "a" ], Some (vf (1. +. float_of_int i)))))
  in
  ignore (repair mapping ~solution deltas);
  solutions_agree "cumsum slice revised" mapping ~want:(solve mapping revised)
    ~got:solution

(* A delta for a relation the solution does not hold is rejected
   before any delta is applied. *)
let test_repair_rejects_unknown_relation () =
  let mapping = mapping_of join_source ~cubes:[ "J" ] in
  let solution = solve mapping (join_registry ()) in
  let before = Exchange.Instance.cube_of_relation solution "A" in
  let msg =
    err "unknown relation"
      (Exchange.Chase.incremental
         ~state:(Exchange.Chase.create_incr_state ())
         mapping ~solution
         ~deltas:
           [
             ("A", { Exchange.Chase.added = [ [| vq 2024 3; vs "n"; vf 4. |] ]; removed = [] });
             ("NOPE", { Exchange.Chase.added = []; removed = [] });
           ])
  in
  Alcotest.(check bool) ("names the relation: " ^ msg) true
    (Astring_contains.contains msg "NOPE");
  Alcotest.check cube_eq "no delta applied" before
    (Exchange.Instance.cube_of_relation solution "A")

(* --- the engine facade: apply_updates --- *)

let make_engine ?config source data =
  let engine = Engine.Exlengine.create ?config () in
  ok (Engine.Exlengine.register_program engine ~name:"main" source);
  List.iter
    (fun name ->
      ok (Engine.Exlengine.load_elementary engine (Registry.find_exn data name)))
    (Registry.elementary_names data);
  engine

(* A from-scratch engine over the same final data: apply the batches
   directly to a copy of the registry, then recompute everything. *)
let scratch_engine source data batches =
  let data = Registry.copy data in
  List.iter
    (fun (u : Engine.Update.t) ->
      let cube = Registry.find_exn data u.Engine.Update.cube in
      let k = Tuple.of_list u.Engine.Update.key in
      match u.Engine.Update.action with
      | Engine.Update.Set v -> Cube.set cube k v
      | Engine.Update.Remove -> Cube.remove cube k)
    (List.concat batches);
  let engine = make_engine source data in
  ignore (ok (Engine.Exlengine.recompute_all engine));
  engine

let check_derived_agree what a b =
  List.iter
    (fun name ->
      match
        (Engine.Exlengine.cube a name, Engine.Exlengine.cube b name)
      with
      | Some ca, Some cb ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s agrees" what name)
            true
            (Cube.equal_data ~eps:1e-7 cb ca)
      | None, None -> ()
      | _ -> Alcotest.failf "%s: %s present on one side only" what name)
    (Engine.Determination.derived_order (Engine.Exlengine.determination a))

(* Two years: stl_t needs at least eight quarters. *)
let small_overview () = Helpers.overview_registry ~years:2 ()

let test_apply_updates_end_to_end () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let batch1 =
    [
      Engine.Update.set ~cube:"PDR"
        ~key:[ vd 2020 1 1; vs "north" ]
        (vf 1234.);
    ]
  in
  let r1 = ok (Engine.Exlengine.apply_updates engine batch1) in
  Alcotest.(check bool) "first batch builds the cache" false
    r1.Engine.Exlengine.cache_hit;
  Alcotest.(check (list string)) "updated" [ "PDR" ] r1.Engine.Exlengine.updated;
  Alcotest.(check (list string)) "whole downstream recomputed"
    [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]
    r1.Engine.Exlengine.recomputed;
  Alcotest.(check int) "one revision = one removed + one added" 2
    r1.Engine.Exlengine.facts_changed;
  let batch2 =
    [
      Engine.Update.set ~cube:"PDR"
        ~key:[ vd 2020 6 1; vs "south" ]
        (vf 4321.);
    ]
  in
  let r2 = ok (Engine.Exlengine.apply_updates engine batch2) in
  Alcotest.(check bool) "second batch hits the cache" true
    r2.Engine.Exlengine.cache_hit;
  Alcotest.(check bool) "incremental work bounded" true
    (r2.Engine.Exlengine.facts_rederived < r2.Engine.Exlengine.total_facts);
  check_derived_agree "after two batches" engine
    (scratch_engine Helpers.overview_program data [ batch1; batch2 ])

let test_apply_updates_empty_batch () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let before = Engine.Historicity.version_count (Engine.Exlengine.history engine) "GDP" in
  let r = ok (Engine.Exlengine.apply_updates engine []) in
  Alcotest.(check (list string)) "nothing updated" [] r.Engine.Exlengine.updated;
  Alcotest.(check (list string)) "nothing recomputed" [] r.Engine.Exlengine.recomputed;
  Alcotest.(check int) "no facts changed" 0 r.Engine.Exlengine.facts_changed;
  Alcotest.(check int) "no new versions" before
    (Engine.Historicity.version_count (Engine.Exlengine.history engine) "GDP")

let test_apply_updates_noop_batch () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let k = key [ vd 2020 1 1; vs "north" ] in
  let current = Option.get (Cube.find (Registry.find_exn data "PDR") k) in
  let r =
    ok
      (Engine.Exlengine.apply_updates engine
         [ Engine.Update.set ~cube:"PDR" ~key:(Tuple.to_list k) current ])
  in
  Alcotest.(check (list string)) "no net change" [] r.Engine.Exlengine.updated;
  Alcotest.(check (list string)) "no recomputation" []
    r.Engine.Exlengine.recomputed

let test_apply_updates_unused_cube () =
  let quarter = Domain.Period (Some Calendar.Quarter) in
  let source = "cube A(t: quarter);\ncube U(t: quarter);\nB := A + 1;\n" in
  let data = Registry.create () in
  Registry.add data Registry.Elementary
    (cube_of "A" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  Registry.add data Registry.Elementary
    (cube_of "U" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  let engine = make_engine source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let b_before = Option.get (Engine.Exlengine.cube engine "B") in
  let r =
    ok
      (Engine.Exlengine.apply_updates engine
         [ Engine.Update.set ~cube:"U" ~key:[ vq 2024 2 ] (vf 9.) ])
  in
  Alcotest.(check (list string)) "store updated" [ "U" ] r.Engine.Exlengine.updated;
  Alcotest.(check (list string)) "nothing depends on U" []
    r.Engine.Exlengine.recomputed;
  Alcotest.check cube_eq "B untouched" b_before
    (Option.get (Engine.Exlengine.cube engine "B"));
  Alcotest.check value "U stored" (vf 9.)
    (Option.get (Cube.find (Option.get (Engine.Exlengine.cube engine "U")) (key [ vq 2024 2 ])))

let test_apply_updates_repeated_key () =
  let quarter = Domain.Period (Some Calendar.Quarter) in
  let source = "cube A(t: quarter);\nB := A + 1;\n" in
  let data = Registry.create () in
  Registry.add data Registry.Elementary
    (cube_of "A" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  let engine = make_engine source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let batch =
    [
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf 5.);
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf 7.);
    ]
  in
  let r = ok (Engine.Exlengine.apply_updates engine batch) in
  (* compacted: one removed (the original) + one added (the last write) *)
  Alcotest.(check int) "net change only" 2 r.Engine.Exlengine.facts_changed;
  Alcotest.check value "last write wins" (vf 8.)
    (Option.get
       (Cube.find (Option.get (Engine.Exlengine.cube engine "B")) (key [ vq 2024 1 ])));
  check_derived_agree "repeated key" engine (scratch_engine source data [ batch ])

let test_apply_updates_revert_within_batch () =
  let quarter = Domain.Period (Some Calendar.Quarter) in
  let source = "cube A(t: quarter);\nB := A + 1;\n" in
  let data = Registry.create () in
  Registry.add data Registry.Elementary
    (cube_of "A" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  let engine = make_engine source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  (* a revision followed by a revision back to the original value, in
     the same batch: compaction nets the key to no change at all *)
  let batch =
    [
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf 5.);
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf 1.);
    ]
  in
  let r = ok (Engine.Exlengine.apply_updates engine batch) in
  Alcotest.(check (list string)) "no net update" [] r.Engine.Exlengine.updated;
  Alcotest.(check (list string)) "no recomputation" []
    r.Engine.Exlengine.recomputed;
  Alcotest.(check int) "no facts changed" 0 r.Engine.Exlengine.facts_changed;
  Alcotest.check value "B unchanged" (vf 2.)
    (Option.get
       (Cube.find (Option.get (Engine.Exlengine.cube engine "B")) (key [ vq 2024 1 ])))

let test_apply_updates_set_then_del () =
  let quarter = Domain.Period (Some Calendar.Quarter) in
  let source = "cube A(t: quarter);\nB := A + 1;\n" in
  let data = Registry.create () in
  Registry.add data Registry.Elementary
    (cube_of "A" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  let engine = make_engine source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  (* set-then-del on an existing key nets to a pure removal; the same
     pair on a fresh key cancels out entirely *)
  let batch =
    [
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf 5.);
      Engine.Update.remove ~cube:"A" ~key:[ vq 2024 1 ];
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 2 ] (vf 7.);
      Engine.Update.remove ~cube:"A" ~key:[ vq 2024 2 ];
    ]
  in
  let r = ok (Engine.Exlengine.apply_updates engine batch) in
  Alcotest.(check int) "one removal is the whole net delta" 1
    r.Engine.Exlengine.facts_changed;
  let b = Option.get (Engine.Exlengine.cube engine "B") in
  Alcotest.(check bool) "derived key retracted" true
    (Cube.find b (key [ vq 2024 1 ]) = None);
  Alcotest.(check int) "phantom key never materialized" 0 (Cube.cardinality b);
  check_derived_agree "set then del" engine (scratch_engine source data [ batch ])

let test_apply_updates_deletion_empties_stratum () =
  let quarter = Domain.Period (Some Calendar.Quarter) in
  let source =
    "cube A(t: quarter, r: string);\nS := sum(A, group by t);\nT := S * 2;\n"
  in
  let data = Registry.create () in
  Registry.add data Registry.Elementary
    (cube_of "A" [ ("t", quarter); ("r", Domain.String) ]
       [ [ vq 2024 1; vs "n"; vf 2. ]; [ vq 2024 1; vs "s"; vf 3. ] ]);
  let engine = make_engine source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  (* build the cache with a warm-up revision, then delete everything *)
  ignore
    (ok
       (Engine.Exlengine.apply_updates engine
          [ Engine.Update.set ~cube:"A" ~key:[ vq 2024 1; vs "n" ] (vf 4.) ]));
  let batch =
    [
      Engine.Update.remove ~cube:"A" ~key:[ vq 2024 1; vs "n" ];
      Engine.Update.remove ~cube:"A" ~key:[ vq 2024 1; vs "s" ];
    ]
  in
  let r = ok (Engine.Exlengine.apply_updates engine batch) in
  Alcotest.(check bool) "incremental path" true r.Engine.Exlengine.cache_hit;
  Alcotest.(check int) "S emptied" 0
    (Cube.cardinality (Option.get (Engine.Exlengine.cube engine "S")));
  Alcotest.(check int) "T emptied" 0
    (Cube.cardinality (Option.get (Engine.Exlengine.cube engine "T")))

let test_apply_updates_history_versions () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  let d1 = Calendar.Date.make ~year:2026 ~month:1 ~day:1 in
  let d2 = Calendar.Date.make ~year:2026 ~month:2 ~day:1 in
  ignore (ok (Engine.Exlengine.recompute ~as_of:d1 engine));
  let history = Engine.Exlengine.history engine in
  let gdp_v1 = Option.get (Engine.Exlengine.cube engine "GDP") in
  let r =
    ok
      (Engine.Exlengine.apply_updates ~as_of:d2 engine
         [
           Engine.Update.set ~cube:"RGDPPC" ~key:[ vq 2020 1; vs "north" ] (vf 99.);
         ])
  in
  (* RGDPPC feeds RGDP but not PQR: transitive invalidation versions
     only the affected cubes, the rest keep their history. *)
  Alcotest.(check (list string)) "PQR untouched"
    [ "RGDP"; "GDP"; "GDPT"; "PCHNG" ]
    r.Engine.Exlengine.recomputed;
  Alcotest.(check int) "PQR keeps one version" 1
    (Engine.Historicity.version_count history "PQR");
  Alcotest.(check int) "GDP gained a version" 2
    (Engine.Historicity.version_count history "GDP");
  Alcotest.check cube_eq "as-of d1 still answers the old GDP" gdp_v1
    (Option.get (Engine.Exlengine.cube_as_of engine d1 "GDP"));
  Alcotest.(check bool) "as-of d2 sees the revision" false
    (Cube.equal_data ~eps:1e-7 gdp_v1
       (Option.get (Engine.Exlengine.cube_as_of engine d2 "GDP")))

let test_apply_updates_cache_invalidation () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let batch n =
    [ Engine.Update.set ~cube:"PDR" ~key:[ vd 2020 1 2; vs "north" ] (vf n) ]
  in
  ignore (ok (Engine.Exlengine.apply_updates engine (batch 1.)));
  let r2 = ok (Engine.Exlengine.apply_updates engine (batch 2.)) in
  Alcotest.(check bool) "cache warm" true r2.Engine.Exlengine.cache_hit;
  (* a wholesale load invalidates the cached solution *)
  ok (Engine.Exlengine.load_elementary engine (Registry.find_exn data "PDR"));
  ignore (ok (Engine.Exlengine.recompute engine));
  let r3 = ok (Engine.Exlengine.apply_updates engine (batch 3.)) in
  Alcotest.(check bool) "cache rebuilt after load" false
    r3.Engine.Exlengine.cache_hit

let test_apply_updates_validation_atomic () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let k = key [ vd 2020 1 1; vs "north" ] in
  let before = Option.get (Cube.find (Option.get (Engine.Exlengine.cube engine "PDR")) k) in
  let msg =
    err "derived target"
      (Engine.Exlengine.apply_updates engine
         [
           Engine.Update.set ~cube:"PDR" ~key:(Tuple.to_list k) (vf 0.);
           Engine.Update.set ~cube:"PQR" ~key:[ vq 2020 1; vs "north" ] (vf 0.);
         ])
  in
  Alcotest.(check bool) ("mentions derived: " ^ msg) true
    (Astring_contains.contains msg "derived");
  Alcotest.check value "whole batch rejected, store untouched" before
    (Option.get (Cube.find (Option.get (Engine.Exlengine.cube engine "PDR")) k));
  let msg =
    err "unknown cube"
      (Engine.Exlengine.apply_updates engine
         [ Engine.Update.set ~cube:"NOPE" ~key:[ vq 2020 1 ] (vf 0.) ])
  in
  Alcotest.(check bool) ("mentions cube: " ^ msg) true
    (Astring_contains.contains msg "NOPE")

(* --- incremental == from-scratch, property-tested ---

   For random programs (test/gen.ml) and random revision batches, two
   apply_updates calls (the first builds the cache, the second runs the
   delta-seeded chase against it) must leave every derived cube equal
   to a from-scratch recompute_all over the final data. *)

let qcheck_count =
  Helpers.qcheck_count ~var:"EXL_INCR_QCHECK_COUNT" ~default:30

let arb_seeds =
  QCheck.pair Gen.arb_seed
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000))

let random_batch st data ~factor =
  List.concat_map
    (fun name ->
      let cube = Registry.find_exn data name in
      let ups = ref [] in
      Cube.iter
        (fun k v ->
          if Random.State.float st 1.0 < 0.1 then
            let f = Option.value ~default:1. (Value.to_float v) in
            ups :=
              Engine.Update.set ~cube:name ~key:(Tuple.to_list k)
                (vf ((f *. factor) +. 1.))
              :: !ups)
        cube;
      !ups)
    (Registry.elementary_names data)

let prop_incremental_equals_scratch =
  QCheck.Test.make ~count:qcheck_count
    ~name:"apply_updates == from-scratch recompute_all" arb_seeds
    (fun (seed, rev_seed) ->
      let src, data = Gen.program_of_seed seed in
      let st = Random.State.make [| rev_seed |] in
      let engine = make_engine src data in
      (match Engine.Exlengine.recompute_all engine with
      | Ok _ -> ()
      | Error msg -> QCheck.Test.fail_reportf "recompute_all: %s\n%s" msg src);
      let batch1 = random_batch st data ~factor:1.5 in
      let batch2 = random_batch st data ~factor:0.5 in
      let apply what batch =
        match Engine.Exlengine.apply_updates engine batch with
        | Ok r -> r
        | Error msg -> QCheck.Test.fail_reportf "%s: %s\n%s" what msg src
      in
      let r1 = apply "batch1" batch1 in
      let r2 = apply "batch2" batch2 in
      (* the second propagating batch must run against the cache the
         first one built (batches that propagate nothing build none) *)
      (r1.Engine.Exlengine.recomputed = []
      || r2.Engine.Exlengine.recomputed = []
      || r2.Engine.Exlengine.cache_hit
      || QCheck.Test.fail_reportf "second batch missed the cache\n%s" src)
      &&
      let scratch = scratch_engine src data [ batch1; batch2 ] in
      List.for_all
        (fun name ->
          match
            ( Engine.Exlengine.cube engine name,
              Engine.Exlengine.cube scratch name )
          with
          | Some got, Some want ->
              Cube.equal_data ~eps:1e-6 want got
              || QCheck.Test.fail_reportf "cube %s differs on\n%s" name src
          | None, None -> true
          | _ -> QCheck.Test.fail_reportf "cube %s on one side only\n%s" name src)
        (Engine.Determination.derived_order
           (Engine.Exlengine.determination engine)))

(* The chase-level counterpart, on the plain generated mapping: two
   random revision batches (the second runs against the aggregation
   bags the first left behind) repaired by Chase.incremental must equal
   Chase.run from scratch after each batch.  A deletion can leave a
   black box too little input; then both must fail with the same
   error, and the repaired instance is discarded. *)

(* About 5% of the keys deleted and 10% revised, plus every key the
   previous batch deleted inserted again: a re-insertion can refill an
   emptied group, so insert-only deltas reach the strata above too. *)
let random_edits st reg ~previous =
  List.filter_map
    (function
      | name, k, None -> Some (name, k, Some (vf (Random.State.float st 10.)))
      | _ -> None)
    previous
  @ List.concat_map
      (fun name ->
        let cube = Registry.find_exn reg name in
        List.filter_map
          (fun k ->
            let roll = Random.State.float st 1.0 in
            if roll < 0.05 then Some (name, k, None)
            else if roll < 0.15 then
              let v = Value.to_float_exn (Option.get (Cube.find cube k)) in
              Some (name, k, Some (vf (v +. 1.25)))
            else None)
          (Cube.keys cube))
      (Registry.elementary_names reg)

let prop_chase_incremental_equals_run =
  QCheck.Test.make ~count:qcheck_count
    ~name:"Chase.incremental == Chase.run on generated mappings" arb_seeds
    (fun (seed, rev_seed) ->
      let src, reg = Gen.program_of_seed seed in
      let mapping =
        match Mappings.Generate.of_source src with
        | Ok g -> g.Mappings.Generate.mapping
        | Error e -> QCheck.Test.fail_reportf "gen: %s" (Exl.Errors.to_string e)
      in
      let chase reg = Exchange.Chase.run mapping (Exchange.Instance.of_registry reg) in
      match chase reg with
      | Error msg -> QCheck.Test.fail_reportf "base chase: %s\n%s" msg src
      | Ok (solution, _) ->
          let state = Exchange.Chase.create_incr_state () in
          let st = Random.State.make [| rev_seed; 77 |] in
          let rec step i reg previous =
            i > 2
            ||
            let edits = random_edits st reg ~previous in
            let revised, deltas = revise reg edits in
            let deltas =
              List.filter
                (fun (rel, _) -> Exchange.Instance.schema solution rel <> None)
                deltas
            in
            match
              ( Exchange.Chase.incremental ~state mapping ~solution ~deltas,
                chase revised )
            with
            | Ok _, Ok (want, _) ->
                List.iter
                  (fun (schema : Schema.t) ->
                    let name = schema.Schema.name in
                    if
                      not
                        (Cube.equal_data ~eps:1e-7
                           (Exchange.Instance.cube_of_relation want name)
                           (Exchange.Instance.cube_of_relation solution name))
                    then
                      QCheck.Test.fail_reportf "batch %d: relation %s differs on\n%s"
                        i name src)
                  mapping.Mappings.Mapping.target;
                step (i + 1) revised edits
            | Error e1, Error e2 ->
                e1 = e2
                || QCheck.Test.fail_reportf
                     "batch %d: errors differ: %s vs %s\n%s" i e1 e2 src
            | Error e, Ok _ ->
                QCheck.Test.fail_reportf "batch %d: only incremental failed: %s\n%s"
                  i e src
            | Ok _, Error e ->
                QCheck.Test.fail_reportf "batch %d: only Chase.run failed: %s\n%s"
                  i e src
          in
          step 1 reg [])

let suite =
  [
    ("determination: diamond dirty set from elementary", `Quick, test_dirty_set_elementary);
    ("determination: changed derived reported distinctly", `Quick, test_dirty_set_derived);
    ("determination: mixed change set", `Quick, test_dirty_set_mixed);
    ("update: text format round trip and errors", `Quick, test_update_parse);
    ("update: compact keeps the last write per key", `Quick, test_compact_last_wins);
    ("update: compact cancels set against del", `Quick, test_compact_set_del_cancel);
    ("update: compact is stable and idempotent", `Quick, test_compact_stable_idempotent);
    ("update: compact identifies value-equal keys", `Quick, test_compact_value_aware_keys);
    ("update: concat merges queued batches", `Quick, test_concat_across_batches);
    ("update: concat equals sequential apply", `Quick, test_concat_equals_sequential_apply);
    ("chase: incremental insert-only fast path", `Quick, test_chase_incremental_insert_only);
    ("chase: incremental deletion rederives", `Quick, test_chase_incremental_removal_rederives);
    ("chase: incremental skips unreached strata", `Quick, test_chase_incremental_skips_unreached_strata);
    ("chase: incremental aggregation revision", `Quick, test_chase_incremental_aggregation_revision);
    ("chase: group-scoped aggregation state", `Quick, test_chase_incremental_aggregation_state);
    ("repair: no change is a no-op", `Quick, test_repair_no_change_is_noop);
    ("repair: one revision on the overview", `Quick, test_repair_overview_revision);
    ("repair: unaffected branch skipped", `Quick, test_repair_skips_unaffected_branch);
    ("repair: insertion and deletion", `Quick, test_repair_insertion_and_deletion);
    ("repair: both join sides changed", `Quick, test_repair_both_join_sides);
    ("repair: indexes survive", `Quick, test_repair_keeps_indexes);
    ("repair: blackbox slice revision", `Quick, test_repair_blackbox_revision);
    ("repair: unknown relation rejected", `Quick, test_repair_rejects_unknown_relation);
    ("facade: apply_updates end to end", `Quick, test_apply_updates_end_to_end);
    ("facade: empty update batch", `Quick, test_apply_updates_empty_batch);
    ("facade: no-op batch propagates nothing", `Quick, test_apply_updates_noop_batch);
    ("facade: update to an unused cube", `Quick, test_apply_updates_unused_cube);
    ("facade: repeated key compacts to last write", `Quick, test_apply_updates_repeated_key);
    ("facade: revert within batch is a no-op", `Quick, test_apply_updates_revert_within_batch);
    ("facade: set then del nets to removal", `Quick, test_apply_updates_set_then_del);
    ("facade: deletion empties a stratum", `Quick, test_apply_updates_deletion_empties_stratum);
    ("facade: history versions only affected cubes", `Quick, test_apply_updates_history_versions);
    ("facade: cache invalidation on load", `Quick, test_apply_updates_cache_invalidation);
    ("facade: batch validation is atomic", `Quick, test_apply_updates_validation_atomic);
    QCheck_alcotest.to_alcotest prop_incremental_equals_scratch;
    QCheck_alcotest.to_alcotest prop_chase_incremental_equals_run;
  ]
