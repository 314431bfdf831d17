open Matrix
module Tgd = Mappings.Tgd
module Term = Mappings.Term

type stats = {
  mutable matches_examined : int;
  mutable tuples_generated : int;
  mutable tgds_applied : int;
  mutable egd_checks : int;
  mutable nulls_created : int;
  mutable rounds : int;
}

let empty_stats () =
  {
    matches_examined = 0;
    tuples_generated = 0;
    tgds_applied = 0;
    egd_checks = 0;
    nulls_created = 0;
    rounds = 0;
  }

(* Fold one (per-domain) stats record into another; [rounds] is global
   bookkeeping of the driver loop, never task-local. *)
let merge_stats ~into (s : stats) =
  into.matches_examined <- into.matches_examined + s.matches_examined;
  into.tuples_generated <- into.tuples_generated + s.tuples_generated;
  into.tgds_applied <- into.tgds_applied + s.tgds_applied;
  into.egd_checks <- into.egd_checks + s.egd_checks;
  into.nulls_created <- into.nulls_created + s.nulls_created

type mode = Naive | Semi_naive

exception Chase_error of string

(* Try to extend [binding] so that [args] (terms) match [fact] (values),
   positionally.  Complex terms whose variables are not all bound yet
   are deferred to [deferred]. *)
let match_fact binding deferred args fact =
  let n = Array.length fact in
  if List.length args <> n then None
  else
    let rec loop i binding deferred = function
      | [] -> Some (binding, deferred)
      | term :: rest -> (
          let value = fact.(i) in
          match term with
          | Term.Var v -> (
              match Binding.lookup binding v with
              | Some bound ->
                  if Value.equal bound value then
                    loop (i + 1) binding deferred rest
                  else None
              | None -> loop (i + 1) (Binding.bind binding v value) deferred rest)
          | _ ->
              if Binding.term_fully_bound binding term then
                match Binding.term_value binding term with
                | Some computed when Value.equal computed value ->
                    loop (i + 1) binding deferred rest
                | _ -> None
              else loop (i + 1) binding ((term, value) :: deferred) rest)
    in
    loop 0 binding deferred args

(* Re-check deferred constraints that became evaluable. *)
let settle_deferred binding deferred =
  let rec loop acc = function
    | [] -> Some acc
    | (term, value) :: rest ->
        if Binding.term_fully_bound binding term then
          match Binding.term_value binding term with
          | Some computed when Value.equal computed value -> loop acc rest
          | _ -> None
        else loop ((term, value) :: acc) rest
  in
  loop [] deferred

let determined_positions bound_vars (atom : Tgd.atom) =
  List.mapi (fun i term -> (i, term)) atom.Tgd.args
  |> List.filter (fun (_, term) ->
         List.for_all (fun v -> List.mem v bound_vars) (Term.vars term))
  |> List.map fst

let extend_bound_vars bound_vars (atom : Tgd.atom) =
  List.fold_left
    (fun acc term -> match term with Term.Var v -> v :: acc | _ -> acc)
    bound_vars atom.Tgd.args

(* Enumerate all assignments satisfying the conjunction of atoms, with
   per-application throwaway caches — the naive baseline.

   This is a hash join: for each atom after the first, the argument
   positions whose terms are fully determined by the variables bound so
   far (statically known) are used as a lookup key into an index built
   once per (relation, positions) pair, so a two-atom tgd runs in time
   linear in the instance rather than quadratic. *)
let match_atoms instance stats atoms (k : Binding.t -> unit) =
  let fact_cache : (string, Value.t array array) Hashtbl.t = Hashtbl.create 4 in
  let facts_of rel =
    match Hashtbl.find_opt fact_cache rel with
    | Some f -> f
    | None ->
        let f = Array.of_list (Instance.facts instance rel) in
        Hashtbl.replace fact_cache rel f;
        f
  in
  let index_cache :
      (string * int list, Value.t array list Tuple.Table.t) Hashtbl.t =
    Hashtbl.create 4
  in
  let index_of rel positions =
    let cache_key = (rel, positions) in
    match Hashtbl.find_opt index_cache cache_key with
    | Some idx -> idx
    | None ->
        let idx = Tuple.Table.create 64 in
        (* Iterate in reverse so each bucket ends up in sorted order. *)
        let all = facts_of rel in
        for i = Array.length all - 1 downto 0 do
          let fact = all.(i) in
          let key = Tuple.of_list (List.map (fun p -> fact.(p)) positions) in
          Tuple.Table.add_multi idx key fact
        done;
        Hashtbl.replace index_cache cache_key idx;
        idx
  in
  let rec go bound_vars binding deferred = function
    | [] ->
        if deferred <> [] then
          raise
            (Chase_error
               "tgd not executable: a complex term's variables never get bound");
        k binding
    | (atom : Tgd.atom) :: rest ->
        let determined = determined_positions bound_vars atom in
        let candidates =
          if determined = [] then Some (facts_of atom.Tgd.rel)
          else
            let expected =
              List.map
                (fun p -> Binding.term_value binding (List.nth atom.Tgd.args p))
                determined
            in
            if List.exists Option.is_none expected then None
            else
              let key = Tuple.of_list (List.map Option.get expected) in
              let idx = index_of atom.Tgd.rel determined in
              Some (Array.of_list (Tuple.Table.find_multi idx key))
        in
        let bound_vars' = extend_bound_vars bound_vars atom in
        (match candidates with
        | None -> ()
        | Some facts ->
            Array.iter
              (fun fact ->
                stats.matches_examined <- stats.matches_examined + 1;
                match match_fact binding deferred atom.Tgd.args fact with
                | None -> ()
                | Some (binding', deferred') -> (
                    match settle_deferred binding' deferred' with
                    | None -> ()
                    | Some deferred'' -> go bound_vars' binding' deferred'' rest))
              facts)
  in
  go [] Binding.empty [] atoms

(* ----- semi-naive enumeration over the persistent indexes ----- *)

(* What an atom may range over in a semi-naive round: the current
   instance, the pre-round state (current minus this round's delta), or
   exactly the delta.  With the pivot drawing from the delta, atoms
   before it (in the original order) ranging over the full state and
   atoms after it over the old state, every mixed combination of old
   and delta facts is derived exactly once — the textbook semi-naive
   decomposition. *)
type atom_source =
  | Full
  | Old of unit Tuple.Table.t  (* membership of the facts to exclude *)
  | Delta of Instance.fact list

let match_plan instance stats (plan : (Tgd.atom * atom_source) list)
    (k : Binding.t -> unit) =
  let full_cache : (string, Instance.fact list) Hashtbl.t = Hashtbl.create 4 in
  let all_facts rel =
    match Hashtbl.find_opt full_cache rel with
    | Some l -> l
    | None ->
        let acc = ref [] in
        Instance.iter_facts instance rel (fun f -> acc := f :: !acc);
        Hashtbl.replace full_cache rel !acc;
        !acc
  in
  let rec go bound_vars binding deferred = function
    | [] ->
        if deferred <> [] then
          raise
            (Chase_error
               "tgd not executable: a complex term's variables never get bound");
        k binding
    | ((atom : Tgd.atom), source) :: rest ->
        let candidates =
          match source with
          | Delta facts -> Some facts
          | Full | Old _ -> (
              let determined = determined_positions bound_vars atom in
              if determined = [] then Some (all_facts atom.Tgd.rel)
              else
                let expected =
                  List.map
                    (fun p ->
                      Binding.term_value binding (List.nth atom.Tgd.args p))
                    determined
                in
                if List.exists Option.is_none expected then None
                else
                  Some
                    (Instance.lookup_index instance atom.Tgd.rel determined
                       (List.map Option.get expected)))
        in
        let candidates =
          match (candidates, source) with
          | Some facts, Old excluded ->
              Some
                (List.filter
                   (fun f -> not (Tuple.Table.mem excluded (Tuple.of_array f)))
                   facts)
          | _ -> candidates
        in
        let bound_vars' = extend_bound_vars bound_vars atom in
        (match candidates with
        | None -> ()
        | Some facts ->
            List.iter
              (fun fact ->
                stats.matches_examined <- stats.matches_examined + 1;
                match match_fact binding deferred atom.Tgd.args fact with
                | None -> ()
                | Some (binding', deferred') -> (
                    match settle_deferred binding' deferred' with
                    | None -> ()
                    | Some deferred'' -> go bound_vars' binding' deferred'' rest))
              facts)
  in
  go [] Binding.empty [] plan

let indexed_matcher instance stats atoms k =
  match_plan instance stats (List.map (fun a -> (a, Full)) atoms) k

(* The (relation, positions) pairs a tuple-level lhs probes, computed
   statically by replaying the binding order — so a stratum can build
   all its persistent indexes before its tgds run in parallel. *)
let index_needs lhs =
  let rec loop bound_vars acc = function
    | [] -> List.rev acc
    | (atom : Tgd.atom) :: rest ->
        let determined = determined_positions bound_vars atom in
        let acc =
          if determined = [] then acc else (atom.Tgd.rel, determined) :: acc
        in
        loop (extend_bound_vars bound_vars atom) acc rest
  in
  loop [] [] lhs

(* ----- tgd application ----- *)

(* [nulls_created] is the non-core overhead counter: facts landing in
   temporary relations are the labelled-null padding of a non-core
   solution (a core solution holds no temporaries), and outer combines
   additionally count every default substituted for a missing side. *)
let emit_fact instance stats on_new rel values =
  let fact = Array.of_list values in
  if Instance.insert instance rel fact then begin
    stats.tuples_generated <- stats.tuples_generated + 1;
    if Exl.Normalize.is_temp rel then
      stats.nulls_created <- stats.nulls_created + 1;
    on_new rel fact
  end

let apply_tuple_level ~matcher ~out instance stats on_new lhs (rhs : Tgd.atom) =
  matcher instance stats lhs (fun binding ->
      (* Any undefined term leaves a hole in the result cube, matching
         the partial-function semantics of EXL operators. *)
      let values = List.map (Binding.term_value binding) rhs.Tgd.args in
      if List.for_all Option.is_some values then
        emit_fact out stats on_new rhs.Tgd.rel (List.map Option.get values))

(* Bind one source fact of an aggregation tgd to its (group key,
   measure) contribution; [None] when the fact does not match the
   source atom's constants.  Shared by the full evaluation and the
   group-scoped incremental path, which must classify delta facts
   exactly the way the full run binned them. *)
let agg_classify (source : Tgd.atom) group_by measure fact =
  match match_fact Binding.empty [] source.Tgd.args fact with
  | None -> None
  | Some (binding, deferred) ->
      if deferred <> [] then
        raise (Chase_error "aggregation source atom must use variables");
      let key_values =
        List.map
          (fun t ->
            match Binding.term_value binding t with
            | Some v -> v
            | None ->
                raise
                  (Chase_error
                     (Printf.sprintf
                        "group-by term %s undefined on a source tuple"
                        (Term.to_string t))))
          group_by
      in
      let m =
        match Option.bind (Binding.lookup binding measure) Value.to_float with
        | Some f -> f
        | None -> raise (Chase_error "aggregation measure is not numeric")
      in
      Some (Tuple.of_list key_values, m)

let apply_aggregation ~out instance stats on_new (source : Tgd.atom) group_by
    aggr measure target =
  let groups : float list ref Tuple.Table.t = Tuple.Table.create 64 in
  let order = ref [] in
  List.iter
    (fun fact ->
      stats.matches_examined <- stats.matches_examined + 1;
      match agg_classify source group_by measure fact with
      | None -> ()
      | Some (key, m) -> (
          match Tuple.Table.find_opt groups key with
          | Some bag -> bag := m :: !bag
          | None ->
              Tuple.Table.replace groups key (ref [ m ]);
              order := key :: !order))
    (Instance.facts instance source.Tgd.rel);
  List.iter
    (fun key ->
      let bag = List.rev !(Tuple.Table.find groups key) in
      let result = Stats.Aggregate.apply aggr bag in
      if not (Float.is_nan result) then
        emit_fact out stats on_new target
          (Tuple.to_list key @ [ Value.of_float result ]))
    (List.rev !order)

let apply_table_fn ~out instance stats on_new fn params source target =
  let cube = Instance.cube_of_relation instance source in
  let op =
    match Ops.Blackbox.find fn with
    | Some op -> op
    | None -> raise (Chase_error ("unknown black-box operator " ^ fn))
  in
  match Ops.Blackbox.apply_cube op ~params cube with
  | Error msg -> raise (Chase_error msg)
  | Ok result ->
      Cube.iter
        (fun k v ->
          stats.matches_examined <- stats.matches_examined + 1;
          emit_fact out stats on_new target (Array.to_list (Tuple.append k v)))
        result

(* The default-value vectorial variant: the union of both key sets,
   missing sides contributing the default measure. *)
let apply_outer_combine ~out instance stats on_new (left : Tgd.atom)
    (right : Tgd.atom) op default target =
  let dims_of fact =
    let n = Array.length fact - 1 in
    (Tuple.of_array (Array.sub fact 0 n), fact.(n))
  in
  let load (atom : Tgd.atom) =
    let table : Value.t Tuple.Table.t = Tuple.Table.create 64 in
    List.iter
      (fun fact ->
        stats.matches_examined <- stats.matches_examined + 1;
        let key, measure = dims_of fact in
        Tuple.Table.replace table key measure)
      (Instance.facts instance atom.Tgd.rel);
    table
  in
  let l = load left and r = load right in
  let emit key vl vr =
    let fl = Option.value ~default (Option.bind vl Value.to_float) in
    let fr = Option.value ~default (Option.bind vr Value.to_float) in
    match Ops.Binop.eval op fl fr with
    | Some result ->
        if vl = None || vr = None then
          stats.nulls_created <- stats.nulls_created + 1;
        emit_fact out stats on_new target
          (Tuple.to_list key @ [ Value.of_float result ])
    | None -> ()
  in
  Tuple.Table.iter (fun key vl -> emit key (Some vl) (Tuple.Table.find_opt r key)) l;
  Tuple.Table.iter
    (fun key vr -> if not (Tuple.Table.mem l key) then emit key None (Some vr))
    r

(* [out] is where derived facts land; reads go to [instance].  They
   coincide everywhere except the naive driver, whose Jacobi rounds
   read a frozen snapshot while writing the live instance.
   [vectorized] routes kernel-able tgds through the columnar engine
   (reads and writes must coincide — the batch is the frozen view);
   shapes the kernels do not handle fall through to the row matcher. *)
let apply_body_full ~matcher ?(vectorized = false) ?out instance stats on_new
    tgd =
  let out = Option.value ~default:instance out in
  let vectorize () =
    vectorized && out == instance
    && Vchase.apply
         {
           Vchase.read = instance;
           count =
             (fun n -> stats.matches_examined <- stats.matches_examined + n);
           emit = (fun rel values -> emit_fact out stats on_new rel values);
         }
         tgd
  in
  match tgd with
  | Tgd.Tuple_level { lhs; rhs } ->
      if not (vectorize ()) then
        apply_tuple_level ~matcher ~out instance stats on_new lhs rhs
  | Tgd.Aggregation { source; group_by; aggr; measure; target } ->
      if not (vectorize ()) then
        apply_aggregation ~out instance stats on_new source group_by aggr
          measure target
  | Tgd.Table_fn { fn; params; source; target } ->
      apply_table_fn ~out instance stats on_new fn params source target
  | Tgd.Outer_combine { left; right; op; default; target } ->
      apply_outer_combine ~out instance stats on_new left right op default
        target

let wrap_chase f =
  try
    f ();
    Ok ()
  with
  | Chase_error msg | Vchase.Error msg -> Error msg
  | Cube.Functionality_violation { cube; key } ->
      Error
        (Printf.sprintf "functionality violation in %s at %s" cube
           (Tuple.to_string key))

let check_egd instance (egd : Mappings.Egd.t) stats =
  match Instance.schema instance egd.Mappings.Egd.relation with
  | None -> Ok ()
  | Some _ ->
      let seen : Value.t Tuple.Table.t = Tuple.Table.create 64 in
      let rec loop = function
        | [] -> Ok ()
        | fact :: rest ->
            let n = Array.length fact - 1 in
            let key = Tuple.of_array (Array.sub fact 0 n) in
            let measure = fact.(n) in
            stats.egd_checks <- stats.egd_checks + 1;
            (match Tuple.Table.find_opt seen key with
            | Some other when not (Value.equal other measure) ->
                Error
                  (Printf.sprintf
                     "egd violation: %s has two measures (%s, %s) for %s"
                     egd.Mappings.Egd.relation (Value.to_string other)
                     (Value.to_string measure) (Tuple.to_string key))
            | _ ->
                Tuple.Table.replace seen key measure;
                loop rest)
      in
      loop (Instance.facts instance egd.Mappings.Egd.relation)

let check_target_egds ~check_egds (m : Mappings.Mapping.t) instance stats rels =
  if not check_egds then Ok ()
  else
    let rec loop = function
      | [] -> Ok ()
      | rel :: rest -> (
          match
            List.find_opt
              (fun (e : Mappings.Egd.t) -> e.Mappings.Egd.relation = rel)
              m.Mappings.Mapping.egds
          with
          | None -> loop rest
          | Some egd -> (
              match check_egd instance egd stats with
              | Ok () -> loop rest
              | Error msg -> Error ("chase failed: " ^ msg)))
    in
    loop (List.sort_uniq String.compare rels)

(* ----- the naive chase (benchmark baseline) ----- *)

(* Textbook naive evaluation over the tgd *set*: every round clears and
   fully re-derives each target from whatever its sources currently
   hold, iterating until a round changes nothing.  Processing order is
   canonical (target name), deliberately blind to the generator's
   topological statement order — the baseline gets no ordering oracle,
   so it converges only after ~depth rounds, re-joining all facts and
   rebuilding its per-application hash indexes every time.  Correct for
   non-monotone operators (aggregation, blackbox) precisely because
   each application starts from a cleared target. *)
let run_naive ~check_egds (m : Mappings.Mapping.t) target stats =
  let tgds =
    List.stable_sort
      (fun a b -> String.compare (Tgd.target_relation a) (Tgd.target_relation b))
      m.Mappings.Mapping.t_tgds
  in
  let rels =
    List.sort_uniq String.compare (List.map Tgd.target_relation tgds)
  in
  (* Textbook (Jacobi) naive iteration: J_{k+1} = T(J_k).  Every round
     clears the target relations and re-derives them against a frozen
     snapshot of the previous round — no ordering oracle, no
     within-round propagation — so a dependency chain of depth d takes
     d + 2 rounds to converge and be detected.  Depth is bounded by the
     tgd count, hence the round cap. *)
  let max_rounds = List.length tgds + 2 in
  let round () =
    let snapshot = Instance.copy target in
    List.iter (fun rel -> Instance.clear target rel) rels;
    let rec pass = function
      | [] -> Ok ()
      | tgd :: rest -> (
          match
            wrap_chase (fun () ->
                apply_body_full ~matcher:match_atoms ~out:target snapshot stats
                  (fun _ _ -> ()) tgd;
                stats.tgds_applied <- stats.tgds_applied + 1)
          with
          | Error msg ->
              Error
                (Printf.sprintf "chase failed on tgd [%s]: %s"
                   (Tgd.to_string tgd) msg)
          | Ok () -> pass rest)
    in
    match pass tgds with
    | Error _ as e -> e
    | Ok () ->
        (* fixpoint test: same fact set as the snapshot, per relation *)
        let changed = ref false in
        List.iter
          (fun rel ->
            if not !changed then begin
              let old : unit Tuple.Table.t = Tuple.Table.create 64 in
              Instance.iter_facts snapshot rel (fun f ->
                  Tuple.Table.replace old (Tuple.of_array f) ());
              if Instance.cardinality target rel <> Tuple.Table.length old then
                changed := true
              else
                Instance.iter_facts target rel (fun f ->
                    if not (Tuple.Table.mem old (Tuple.of_array f)) then
                      changed := true)
            end)
          rels;
        Ok !changed
  in
  let rec rounds n =
    if n > max_rounds then Error "naive chase did not reach a fixpoint"
    else begin
      stats.rounds <- stats.rounds + 1;
      match
        Obs.with_span "chase.round"
          ~attrs:[ ("round", string_of_int n); ("mode", "naive") ]
          round
      with
      | Error _ as e -> e
      | Ok true -> rounds (n + 1)
      | Ok false -> Ok ()
    end
  in
  match rounds 1 with
  | Error _ as e -> e
  | Ok () -> check_target_egds ~check_egds m target stats rels

(* ----- the semi-naive stratified chase ----- *)

let apply_full_collect ~vectorized instance tgd =
  let local = empty_stats () in
  let added = ref [] in
  let on_new rel fact = added := (rel, fact) :: !added in
  let res =
    wrap_chase (fun () ->
        apply_body_full ~matcher:indexed_matcher ~vectorized instance local
          on_new tgd;
        local.tgds_applied <- local.tgds_applied + 1)
  in
  (res, local, List.rev !added)

(* One pivot pass per lhs atom with a non-empty delta: the pivot ranges
   over the delta, earlier atoms over the full state, later atoms over
   the old state; the pivot is enumerated first so its variables drive
   the indexed lookups of the remaining atoms. *)
let apply_tuple_level_delta instance stats on_new lhs (rhs : Tgd.atom)
    ~delta_of ~delta_set =
  List.iteri
    (fun i (pivot_atom : Tgd.atom) ->
      let d = delta_of pivot_atom.Tgd.rel in
      if d <> [] then begin
        let plan =
          (pivot_atom, Delta d)
          :: (List.mapi (fun j a -> (j, a)) lhs
             |> List.filter (fun (j, _) -> j <> i)
             |> List.map (fun (j, (a : Tgd.atom)) ->
                    if j < i then (a, Full) else (a, Old (delta_set a.Tgd.rel))))
        in
        match_plan instance stats plan (fun binding ->
            let values = List.map (Binding.term_value binding) rhs.Tgd.args in
            if List.for_all Option.is_some values then
              emit_fact instance stats on_new rhs.Tgd.rel
                (List.map Option.get values))
      end)
    lhs

let apply_tgd_delta instance tgd stats on_new ~delta_of ~delta_set =
  let touched rels = List.exists (fun r -> delta_of r <> []) rels in
  wrap_chase (fun () ->
      match tgd with
      | Tgd.Tuple_level { lhs; rhs } ->
          if touched (List.map (fun (a : Tgd.atom) -> a.Tgd.rel) lhs) then begin
            apply_tuple_level_delta instance stats on_new lhs rhs ~delta_of
              ~delta_set;
            stats.tgds_applied <- stats.tgds_applied + 1
          end
      | _ ->
          (* aggregation / blackbox / outer tgds are not delta-
             decomposable; re-evaluate from the full source when it
             changed, relying on set semantics to dedupe re-derivations *)
          if touched (Tgd.source_relations tgd) then begin
            apply_body_full ~matcher:indexed_matcher instance stats on_new tgd;
            stats.tgds_applied <- stats.tgds_applied + 1
          end)

(* Delta-round fixpoint loop shared by [run_stratum] (rounds >= 2 of a
   full evaluation) and the incremental entry point (where the seed
   delta is the caller's change set, not round one's output).  [on_new]
   additionally observes every fact emitted across all rounds. *)
let delta_rounds ?(on_new = fun _ _ -> ()) instance stats stratum seed
    start_round =
  let record tbl rel fact =
    Hashtbl.replace tbl rel
      (fact :: Option.value ~default:[] (Hashtbl.find_opt tbl rel))
  in
  let max_rounds = start_round + List.length stratum + 8 in
  let rec loop deltas round =
    if Hashtbl.length deltas = 0 then Ok ()
    else if round > max_rounds then
      Error "chase stratum did not reach a fixpoint"
    else begin
      stats.rounds <- stats.rounds + 1;
      let delta_total =
        Hashtbl.fold (fun _ l acc -> acc + List.length l) deltas 0
      in
      Obs.observe ~buckets:Obs.Metrics.size_buckets "chase.delta_facts"
        (float_of_int delta_total);
      let outcome =
        Obs.with_span "chase.round"
          ~attrs:
            [
              ("round", string_of_int round);
              ("delta_facts", string_of_int delta_total);
            ]
          (fun () ->
            let next : (string, Instance.fact list) Hashtbl.t =
              Hashtbl.create 8
            in
            let delta_of rel =
              Option.value ~default:[] (Hashtbl.find_opt deltas rel)
            in
            let sets : (string, unit Tuple.Table.t) Hashtbl.t =
              Hashtbl.create 8
            in
            let delta_set rel =
              match Hashtbl.find_opt sets rel with
              | Some s -> s
              | None ->
                  let s = Tuple.Table.create 16 in
                  List.iter
                    (fun f -> Tuple.Table.replace s (Tuple.of_array f) ())
                    (delta_of rel);
                  Hashtbl.replace sets rel s;
                  s
            in
            let emit rel fact =
              record next rel fact;
              on_new rel fact
            in
            let rec apply_all = function
              | [] -> Ok ()
              | tgd :: rest -> (
                  match
                    apply_tgd_delta instance tgd stats emit ~delta_of ~delta_set
                  with
                  | Error msg ->
                      Error
                        (Printf.sprintf "chase failed on tgd [%s]: %s"
                           (Tgd.to_string tgd) msg)
                  | Ok () -> apply_all rest)
            in
            match apply_all stratum with
            | Error _ as e -> e
            | Ok () -> Ok next)
      in
      match outcome with Error _ as e -> e | Ok next -> loop next (round + 1)
    end
  in
  loop seed start_round

let run_stratum ~executor ~columnar instance stats stratum =
  (* Pre-build what round one will probe, so the parallel phase only
     ever reads the shared relations: source batches (and their
     append-only dictionaries) for kernel-handled tgds, persistent
     indexes for the rest.  [Vchase.handles] depends only on schemas
     and tgd shape, both fixed for the stratum, so a handled tgd is
     guaranteed to take the batch path in round one. *)
  List.iter
    (fun tgd ->
      if columnar && Vchase.handles instance tgd then
        Vchase.prewarm instance tgd
      else
        match tgd with
        | Tgd.Tuple_level { lhs; _ } ->
            List.iter
              (fun (rel, positions) ->
                Instance.ensure_index instance rel positions)
              (index_needs lhs)
        | _ -> ())
    stratum;
  (* Round one: full evaluation, seeded by the whole instance.  Tgds of
     a stratum have pairwise distinct targets and read only lower
     strata, so they are independent; when that is certain they may run
     on separate domains, each writing only its own target relation. *)
  stats.rounds <- stats.rounds + 1;
  let parallel_safe =
    let targets = List.map Tgd.target_relation stratum in
    List.length (List.sort_uniq String.compare targets) = List.length targets
    && List.for_all
         (fun tgd ->
           List.for_all
             (fun s -> not (List.mem s targets))
             (Tgd.source_relations tgd))
         stratum
  in
  let collect tgd =
    Obs.with_span "chase.tgd"
      ~attrs:[ ("target", Tgd.target_relation tgd) ]
      (fun () -> apply_full_collect ~vectorized:columnar instance tgd)
  in
  let outcomes =
    Obs.with_span "chase.round"
      ~attrs:
        [ ("round", "1"); ("parallel", string_of_bool parallel_safe) ]
      (fun () ->
        match stratum with
        | [ tgd ] -> [ collect tgd ]
        | _ when not parallel_safe -> List.map collect stratum
        | _ ->
            let n = List.length stratum in
            let results = Array.make n None in
            let tasks =
              List.mapi (fun i tgd () -> results.(i) <- Some (collect tgd)) stratum
            in
            executor tasks;
            Array.to_list results
            |> List.map (function
                 | Some r -> r
                 | None ->
                     (Error "parallel chase task did not run", empty_stats (), [])))
  in
  let deltas : (string, Instance.fact list) Hashtbl.t = Hashtbl.create 8 in
  let record tbl rel fact =
    Hashtbl.replace tbl rel
      (fact :: Option.value ~default:[] (Hashtbl.find_opt tbl rel))
  in
  let first_error = ref None in
  List.iter2
    (fun tgd (res, local, added) ->
      merge_stats ~into:stats local;
      List.iter (fun (rel, fact) -> record deltas rel fact) added;
      match res with
      | Error msg when !first_error = None ->
          first_error :=
            Some
              (Printf.sprintf "chase failed on tgd [%s]: %s" (Tgd.to_string tgd)
                 msg)
      | _ -> ())
    stratum outcomes;
  match !first_error with
  | Some msg -> Error msg
  | None ->
      (* Subsequent rounds: join only against the previous round's
         delta.  For a stratified program the first delta round derives
         nothing (a stratum's sources live strictly below it), so this
         terminates immediately; for unstratifiable tgd sets it is a
         genuine fixpoint loop. *)
      delta_rounds instance stats stratum deltas 2

let strata_of (m : Mappings.Mapping.t) =
  match Mappings.Stratify.check m with
  | Ok () -> Mappings.Stratify.strata m
  | Error _ -> (
      (* Unstratifiable (or mis-ordered) tgd sets run as one big
         stratum: round one follows statement order, the delta rounds
         then compute the actual fixpoint. *)
      match m.Mappings.Mapping.t_tgds with [] -> [] | tgds -> [ tgds ])

let run_semi_naive ~check_egds ~executor ~columnar (m : Mappings.Mapping.t)
    target stats =
  let strata = strata_of m in
  let rec loop i = function
    | [] -> Ok ()
    | stratum :: rest -> (
        match
          Obs.with_span "chase.stratum"
            ~attrs:
              [
                ("stratum", string_of_int i);
                ("tgds", string_of_int (List.length stratum));
              ]
            (fun () -> run_stratum ~executor ~columnar target stats stratum)
        with
        | Error _ as e -> e
        | Ok () -> (
            match
              check_target_egds ~check_egds m target stats
                (List.map Tgd.target_relation stratum)
            with
            | Error _ as e -> e
            | Ok () -> loop (i + 1) rest))
  in
  loop 0 strata

(* Static pre-check hook.  The chase itself must not depend on the
   analysis library (dependency direction), so the check is injected:
   the test harness points this at the weak-acyclicity certificate so
   every chased mapping in the suite is also statically certified. *)
let static_check : (Mappings.Mapping.t -> (unit, string) result) ref =
  ref (fun _ -> Ok ())

let sequential_executor tasks = List.iter (fun task -> task ()) tasks

let run ?(check_egds = true) ?(mode = Semi_naive)
    ?(executor = sequential_executor) ?(columnar = true)
    (m : Mappings.Mapping.t) source =
  match !static_check m with
  | Error msg -> Error ("static check failed before chase: " ^ msg)
  | Ok () ->
      let stats = empty_stats () in
      let target = Instance.create () in
      List.iter (Instance.add_relation target) m.Mappings.Mapping.target;
      (* Σst: copy the source relations into the target (the paper keeps
         the same symbols for a relation and its copy; so do we).  On
         the columnar path a source relation whose target schema
         matches is installed as a shared column batch — O(columns),
         with the encode memoized on the source across runs — and its
         target rows rebuild lazily only if something needs tuple-level
         access. *)
      List.iter
        (fun schema ->
          let name = schema.Schema.name in
          match Instance.schema source name with
          | None -> ()
          | Some src_schema ->
              let batched =
                columnar && mode = Semi_naive
                &&
                match Instance.schema target name with
                | Some tgt_schema -> Schema.equal tgt_schema src_schema
                | None -> false
              in
              if batched then
                Instance.set_batch target name (Instance.batch source name)
              else
                Instance.iter_facts source name (fun fact ->
                    ignore (Instance.insert target name (Array.copy fact))))
        m.Mappings.Mapping.source;
      let builds0, lookups0 = Instance.index_stats () in
      let result =
        Obs.with_span "chase.run"
          ~attrs:
            [
              ("mode", (match mode with Naive -> "naive" | Semi_naive -> "semi_naive"));
              ("tgds", string_of_int (List.length m.Mappings.Mapping.t_tgds));
            ]
          ~attrs_after:(fun () ->
            [
              ("rounds", string_of_int stats.rounds);
              ("tuples_generated", string_of_int stats.tuples_generated);
            ])
          (fun () ->
            match mode with
            | Naive -> run_naive ~check_egds m target stats
            | Semi_naive ->
                run_semi_naive ~check_egds ~executor ~columnar m target stats)
      in
      (* Aggregated flush: the hot match loops touch only the local
         [stats] record; the metrics registry sees one update per run. *)
      if Obs.enabled () then begin
        let builds1, lookups1 = Instance.index_stats () in
        Obs.count "chase.runs";
        Obs.count ~n:stats.rounds "chase.rounds";
        Obs.count ~n:stats.matches_examined "chase.matches_examined";
        Obs.count ~n:stats.tuples_generated "chase.tuples_generated";
        Obs.count ~n:stats.tgds_applied "chase.tgds_applied";
        Obs.count ~n:stats.egd_checks "chase.egd_checks";
        Obs.count ~n:stats.nulls_created "chase.nulls_created";
        Obs.count ~n:(builds1 - builds0) "chase.index_builds";
        Obs.count ~n:(lookups1 - lookups0) "chase.index_lookups"
      end;
      Result.map (fun () -> (target, stats)) result

(* ----- incremental re-evaluation from fact deltas ----- *)

type fact_delta = { added : Instance.fact list; removed : Instance.fact list }

let empty_delta = { added = []; removed = [] }

type incr_stats = {
  mutable input_facts : int;
  mutable strata_total : int;
  mutable strata_skipped : int;
  mutable strata_delta : int;
  mutable strata_rederived : int;
  mutable facts_rederived : int;
}

let empty_incr_stats () =
  {
    input_facts = 0;
    strata_total = 0;
    strata_skipped = 0;
    strata_delta = 0;
    strata_rederived = 0;
    facts_rederived = 0;
  }

(* The tgds of [stratum] that must re-run: a tgd is selected when a
   source relation carries a delta, when a source is the target of an
   already selected tgd (intra-stratum feeding happens only in the
   unstratifiable single-stratum fallback), or when its target will be
   cleared by the rederivation of another selected tgd (shared targets
   must be rebuilt together or facts would be lost). *)
let select_touched stratum ~touched =
  let tgds = Array.of_list stratum in
  let selected = Array.make (Array.length tgds) false in
  let target_selected rel =
    Array.exists2
      (fun s tgd -> s && Tgd.target_relation tgd = rel)
      selected tgds
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i tgd ->
        if not selected.(i) then
          let sources = Tgd.source_relations tgd in
          if
            List.exists touched sources
            || List.exists target_selected sources
            || target_selected (Tgd.target_relation tgd)
          then begin
            selected.(i) <- true;
            changed := true
          end)
      tgds
  done;
  Array.to_list tgds
  |> List.filteri (fun i _ -> selected.(i))

(* Insert-only tuple-level strata: seed the semi-naive delta loop with
   the input delta facts (already present in the instance) and let the
   pivot/Full/Old decomposition derive exactly the new consequences. *)
let incr_delta_stratum instance stats istats selected seed =
  List.iter
    (fun tgd ->
      match tgd with
      | Tgd.Tuple_level { lhs; _ } ->
          List.iter
            (fun (rel, positions) -> Instance.ensure_index instance rel positions)
            (index_needs lhs)
      | _ -> ())
    selected;
  let out : (string, Instance.fact list) Hashtbl.t = Hashtbl.create 8 in
  let on_new rel fact =
    istats.facts_rederived <- istats.facts_rederived + 1;
    Hashtbl.replace out rel
      (fact :: Option.value ~default:[] (Hashtbl.find_opt out rel))
  in
  match delta_rounds ~on_new instance stats selected seed 1 with
  | Error _ as e -> e
  | Ok () ->
      Ok
        (Hashtbl.fold
           (fun rel added acc -> (rel, { added; removed = [] }) :: acc)
           out [])

(* DRed-style stratum rederivation, for deletions and for strata whose
   tgds are not delta-decomposable (aggregation, blackbox, outer
   combine): over-delete the touched targets entirely, re-run the
   touched tgds from their (already updated) sources, then diff old vs
   new facts to get a compact delta for the strata above. *)
let incr_rederive_stratum ~executor instance stats istats selected =
  let targets =
    List.sort_uniq String.compare (List.map Tgd.target_relation selected)
  in
  let old =
    List.map
      (fun rel ->
        let tbl : unit Tuple.Table.t = Tuple.Table.create 64 in
        let facts = ref [] in
        Instance.iter_facts instance rel (fun f ->
            Tuple.Table.replace tbl (Tuple.of_array f) ();
            facts := f :: !facts);
        (rel, tbl, !facts))
      targets
  in
  List.iter (fun rel -> Instance.clear instance rel) targets;
  (* Vectorized like a full run: the cached solution this repairs was
     produced by the (columnar-default) [run], and the incremental
     speedup floor is measured against that same baseline. *)
  match run_stratum ~executor ~columnar:true instance stats selected with
  | Error _ as e -> e
  | Ok () ->
      Ok
        (List.filter_map
           (fun (rel, old_tbl, old_facts) ->
             let added = ref [] in
             Instance.iter_facts instance rel (fun f ->
                 istats.facts_rederived <- istats.facts_rederived + 1;
                 if not (Tuple.Table.mem old_tbl (Tuple.of_array f)) then
                   added := f :: !added);
             let removed =
               List.filter (fun f -> not (Instance.mem instance rel f)) old_facts
             in
             if !added = [] && removed = [] then None
             else Some (rel, { added = !added; removed }))
           old)

(* ----- group-scoped aggregation rederivation ----- *)

(* Per-aggregation-tgd incremental state: each group key maps to the
   multiset of measures currently contributing to it.  Built with one
   full source scan the first time a batch touches the tgd and
   maintained by deltas afterwards, so steady-state batches
   re-aggregate only the groups their delta facts fall in instead of
   rescanning the whole source relation DRed-style.  Bags accumulate
   newest-first and are reversed before [Stats.Aggregate.apply], so
   sums may re-associate relative to a from-scratch run — callers
   comparing solutions must use an epsilon. *)
type agg_bags = float list ref Tuple.Table.t

type incr_state = (string, agg_bags) Hashtbl.t
(* Keyed by [Tgd.to_string], stable for the lifetime of a mapping. *)

let create_incr_state () : incr_state = Hashtbl.create 8

let fact_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if not (Value.equal v b.(i)) then ok := false) a;
  !ok

(* Float.compare so a NaN measure still finds its bag entry. *)
let remove_once bag m =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
        if Float.compare x m = 0 then List.rev_append acc rest
        else go (x :: acc) rest
  in
  go [] bag

let build_agg_bags instance stats (source : Tgd.atom) group_by measure =
  let bags : agg_bags = Tuple.Table.create 64 in
  Instance.iter_facts instance source.Tgd.rel (fun fact ->
      stats.matches_examined <- stats.matches_examined + 1;
      match agg_classify source group_by measure fact with
      | None -> ()
      | Some (key, m) -> (
          match Tuple.Table.find_opt bags key with
          | Some bag -> bag := m :: !bag
          | None -> Tuple.Table.replace bags key (ref [ m ])));
  bags

(* One aggregation tgd, group-scoped: update the measure bags with the
   source delta, re-aggregate only the affected groups and replace
   their target facts in place.  When the bags were just built
   ([fresh]) the source already includes the delta, so the delta facts
   only name the affected groups.  Returns the compact target delta. *)
let incr_agg_tgd instance stats istats bags ~fresh (source : Tgd.atom) group_by
    aggr measure target ~(delta : fact_delta) =
  let affected : unit Tuple.Table.t = Tuple.Table.create 8 in
  let classify fact =
    stats.matches_examined <- stats.matches_examined + 1;
    agg_classify source group_by measure fact
  in
  List.iter
    (fun fact ->
      match classify fact with
      | None -> ()
      | Some (key, m) ->
          Tuple.Table.replace affected key ();
          if not fresh then (
            match Tuple.Table.find_opt bags key with
            | Some bag ->
                bag := remove_once !bag m;
                if !bag = [] then Tuple.Table.remove bags key
            | None -> ()))
    delta.removed;
  List.iter
    (fun fact ->
      match classify fact with
      | None -> ()
      | Some (key, m) ->
          Tuple.Table.replace affected key ();
          if not fresh then (
            match Tuple.Table.find_opt bags key with
            | Some bag -> bag := m :: !bag
            | None -> Tuple.Table.replace bags key (ref [ m ])))
    delta.added;
  let key_positions = List.init (List.length group_by) Fun.id in
  Instance.ensure_index instance target key_positions;
  let added = ref [] and removed = ref [] in
  Tuple.Table.iter
    (fun key () ->
      let old_facts =
        Instance.lookup_index instance target key_positions (Tuple.to_list key)
      in
      let next =
        match Tuple.Table.find_opt bags key with
        | None -> None
        | Some bag ->
            let result = Stats.Aggregate.apply aggr (List.rev !bag) in
            if Float.is_nan result then None
            else
              Some
                (Array.of_list (Tuple.to_list key @ [ Value.of_float result ]))
      in
      List.iter
        (fun old ->
          let keep =
            match next with Some f -> fact_equal old f | None -> false
          in
          if (not keep) && Instance.remove instance target old then
            removed := old :: !removed)
        old_facts;
      match next with
      | Some f ->
          if Instance.insert instance target f then begin
            stats.tuples_generated <- stats.tuples_generated + 1;
            istats.facts_rederived <- istats.facts_rederived + 1;
            added := f :: !added
          end
      | None -> ())
    affected;
  { added = !added; removed = !removed }

let incremental ?(check_egds = true) ?(executor = sequential_executor) ~state
    (m : Mappings.Mapping.t) ~solution ~deltas =
  match !static_check m with
  | Error msg -> Error ("static check failed before chase: " ^ msg)
  | Ok () -> (
      let unknown =
        List.filter (fun (rel, _) -> Instance.schema solution rel = None) deltas
      in
      match unknown with
      | (rel, _) :: _ ->
          Error
            (Printf.sprintf
               "incremental chase: relation %s is not part of the solution" rel)
      | [] ->
          let stats = empty_stats () in
          let istats = empty_incr_stats () in
          (* Net change map, grown stratum by stratum as deltas
             propagate upward. *)
          let current : (string, fact_delta) Hashtbl.t = Hashtbl.create 16 in
          let merge rel d =
            if d.added <> [] || d.removed <> [] then
              let prev =
                Option.value ~default:empty_delta (Hashtbl.find_opt current rel)
              in
              Hashtbl.replace current rel
                {
                  added = d.added @ prev.added;
                  removed = d.removed @ prev.removed;
                }
          in
          (* Apply the input deltas to the previous solution; only
             facts genuinely removed/added (set semantics) propagate. *)
          List.iter
            (fun (rel, d) ->
              let removed =
                List.filter (fun f -> Instance.remove solution rel f) d.removed
              in
              let added =
                List.filter (fun f -> Instance.insert solution rel f) d.added
              in
              merge rel { added; removed })
            deltas;
          istats.input_facts <-
            Hashtbl.fold
              (fun _ d acc ->
                acc + List.length d.added + List.length d.removed)
              current 0;
          let touched rel = Hashtbl.mem current rel in
          let delta_removed rel =
            match Hashtbl.find_opt current rel with
            | Some d -> d.removed <> []
            | None -> false
          in
          let builds0, lookups0 = Instance.index_stats () in
          let run_stratum_incr i stratum =
            istats.strata_total <- istats.strata_total + 1;
            let selected = select_touched stratum ~touched in
            if selected = [] then begin
              istats.strata_skipped <- istats.strata_skipped + 1;
              Obs.count "chase.incr.strata_skipped";
              Ok []
            end
            else begin
              (* Per-tgd plan.  Insert-only tuple-level tgds replay
                 seeded delta rounds; aggregations re-aggregate the
                 affected groups from their persistent bags; everything
                 else (tuple-level deletions, blackbox, outer combine,
                 and any tgd in a self-feeding fallback stratum)
                 rederives DRed-style.  A tgd sharing a target with a
                 rederived tgd must rederive too, or the target clear
                 would lose its facts. *)
              let stratum_targets =
                List.sort_uniq String.compare
                  (List.map Tgd.target_relation stratum)
              in
              let feeding =
                List.exists
                  (fun tgd ->
                    List.exists
                      (fun s -> List.mem s stratum_targets)
                      (Tgd.source_relations tgd))
                  selected
              in
              let plan_of tgd =
                if feeding then `Rederive
                else
                  match tgd with
                  | Tgd.Tuple_level _
                    when not
                           (List.exists delta_removed
                              (Tgd.source_relations tgd)) ->
                      `Delta
                  | Tgd.Aggregation { source; group_by; aggr; measure; target }
                    ->
                      `Agg (source, group_by, aggr, measure, target)
                  | _ -> `Rederive
              in
              let plans = List.map (fun tgd -> (tgd, plan_of tgd)) selected in
              let rederive_targets = Hashtbl.create 4 in
              List.iter
                (function
                  | tgd, `Rederive ->
                      Hashtbl.replace rederive_targets (Tgd.target_relation tgd)
                        ()
                  | _ -> ())
                plans;
              (* One pass suffices: demoting a tgd adds no new target. *)
              let plans =
                List.map
                  (fun (tgd, plan) ->
                    if Hashtbl.mem rederive_targets (Tgd.target_relation tgd)
                    then (tgd, `Rederive)
                    else (tgd, plan))
                  plans
              in
              let rederive =
                List.filter_map
                  (function tgd, `Rederive -> Some tgd | _ -> None)
                  plans
              in
              let aggs =
                List.filter_map
                  (function tgd, `Agg agg -> Some (tgd, agg) | _ -> None)
                  plans
              in
              let delta_tl =
                List.filter_map
                  (function tgd, `Delta -> Some tgd | _ -> None)
                  plans
              in
              (* A rederived aggregation's bags go stale (its target is
                 rebuilt outside the bag bookkeeping): drop them so the
                 next touching batch rebuilds from the source. *)
              List.iter
                (fun tgd ->
                  match tgd with
                  | Tgd.Aggregation _ -> Hashtbl.remove state (Tgd.to_string tgd)
                  | _ -> ())
                rederive;
              let mode = if rederive <> [] then "rederive" else "delta" in
              if rederive <> [] then
                istats.strata_rederived <- istats.strata_rederived + 1
              else istats.strata_delta <- istats.strata_delta + 1;
              Obs.with_span "chase.stratum"
                ~attrs:
                  [
                    ("stratum", string_of_int i);
                    ("tgds", string_of_int (List.length selected));
                    ("mode", mode);
                  ]
                (fun () ->
                  let ( let* ) = Result.bind in
                  (* Rederive first — it clears its targets wholesale;
                     the other plans touch disjoint targets and read
                     only lower strata. *)
                  let* out1 =
                    if rederive = [] then Ok []
                    else
                      incr_rederive_stratum ~executor solution stats istats
                        rederive
                  in
                  let* out2 =
                    if aggs = [] then Ok []
                    else
                      let outs = ref [] in
                      Result.map
                        (fun () -> !outs)
                        (wrap_chase (fun () ->
                             List.iter
                               (fun (tgd, (source, group_by, aggr, measure, target))
                                  ->
                                 let key = Tgd.to_string tgd in
                                 let bags, fresh =
                                   match Hashtbl.find_opt state key with
                                   | Some bags -> (bags, false)
                                   | None ->
                                       let bags =
                                         build_agg_bags solution stats source
                                           group_by measure
                                       in
                                       Hashtbl.replace state key bags;
                                       (bags, true)
                                 in
                                 let delta =
                                   Option.value ~default:empty_delta
                                     (Hashtbl.find_opt current source.Tgd.rel)
                                 in
                                 let d =
                                   incr_agg_tgd solution stats istats bags ~fresh
                                     source group_by aggr measure target ~delta
                                 in
                                 stats.tgds_applied <- stats.tgds_applied + 1;
                                 if d.added <> [] || d.removed <> [] then
                                   outs := (target, d) :: !outs)
                               aggs))
                  in
                  let* out3 =
                    if delta_tl = [] then Ok []
                    else begin
                      let seed : (string, Instance.fact list) Hashtbl.t =
                        Hashtbl.create 8
                      in
                      Hashtbl.iter
                        (fun rel d ->
                          if d.added <> [] then Hashtbl.replace seed rel d.added)
                        current;
                      incr_delta_stratum solution stats istats delta_tl seed
                    end
                  in
                  let* () =
                    check_target_egds ~check_egds m solution stats
                      (List.map Tgd.target_relation selected)
                  in
                  Ok (out1 @ out2 @ out3))
            end
          in
          let rec loop i = function
            | [] -> Ok ()
            | stratum :: rest -> (
                match run_stratum_incr i stratum with
                | Error _ as e -> e
                | Ok out ->
                    List.iter (fun (rel, d) -> merge rel d) out;
                    loop (i + 1) rest)
          in
          let result =
            Obs.with_span "chase.incremental"
              ~attrs:
                [ ("delta_facts", string_of_int istats.input_facts) ]
              ~attrs_after:(fun () ->
                [
                  ("strata_skipped", string_of_int istats.strata_skipped);
                  ("facts_rederived", string_of_int istats.facts_rederived);
                ])
              (fun () -> loop 0 (strata_of m))
          in
          if Obs.enabled () then begin
            let builds1, lookups1 = Instance.index_stats () in
            Obs.count "chase.incr.runs";
            Obs.count ~n:istats.input_facts "chase.incr.input_facts";
            Obs.count ~n:istats.facts_rederived "chase.incr.facts_rederived";
            Obs.count ~n:stats.matches_examined "chase.matches_examined";
            Obs.count ~n:stats.tuples_generated "chase.tuples_generated";
            Obs.count ~n:stats.tgds_applied "chase.tgds_applied";
            Obs.count ~n:stats.egd_checks "chase.egd_checks";
            Obs.count ~n:stats.nulls_created "chase.nulls_created";
            Obs.count ~n:(builds1 - builds0) "chase.index_builds";
            Obs.count ~n:(lookups1 - lookups0) "chase.index_lookups"
          end;
          Result.map (fun () -> (stats, istats)) result)
