(** The stratified chase for extended tgds (paper, Section 4.2).

    The data-exchange problem: given [M = (S, T, Σst, Σt)] and a finite
    source instance [I], find [J] over [T] with [⟨I, J⟩ ⊨ Σst] and
    [J ⊨ Σt].  The paper's variation of the classical chase applies the
    statement tgds in their stratification order, completely applying
    each before moving to the next; termination follows because all
    tgds are full and acyclic, and failure is impossible because every
    tgd computes the measure as a function of the dimensions — which we
    do not assume but {e check}, by running the functionality egds on
    the produced fact sets. *)

type stats = {
  mutable matches_examined : int;
      (** candidate lhs assignments enumerated *)
  mutable tuples_generated : int;  (** new facts added *)

  mutable tgds_applied : int;
  mutable egd_checks : int;  (** fact pairs compared for functionality *)
  mutable nulls_created : int;
      (** non-core overhead: facts emitted into temporary relations
          (the labelled-null padding of a non-core solution) plus
          defaults substituted for missing outer-combine sides *)
  mutable rounds : int;  (** evaluation rounds executed by the driver *)
}

type mode =
  | Naive
      (** Textbook naive evaluation, kept as the benchmark baseline:
          every round clears and fully re-derives each target in
          canonical (target-name) order — no ordering oracle, no
          persistent indexes — until a round changes nothing. *)
  | Semi_naive
      (** Stratified semi-naive evaluation (the default): strata run in
          level order; round one of a stratum evaluates against the
          full instance through the persistent {!Instance} indexes,
          later rounds join only the previous round's delta. *)

val static_check : (Mappings.Mapping.t -> (unit, string) result) ref
(** Pre-chase hook, run on the mapping at the top of {!run}; defaults
    to a no-op.  The test harness injects the analysis library's
    weak-acyclicity + safety certificate here, so every mapping the
    suite chases is also statically certified (the chase itself cannot
    depend on the analysis library). *)

val run :
  ?check_egds:bool ->
  ?mode:mode ->
  ?executor:((unit -> unit) list -> unit) ->
  ?columnar:bool ->
  Mappings.Mapping.t ->
  Instance.t ->
  (Instance.t * stats, string) result
(** Solve the data exchange problem; [Error] on egd violation (chase
    failure) or on a tgd that cannot be evaluated (a variable occurring
    only under uninvertible terms).

    [executor] runs the independent round-one applications of a
    multi-tgd stratum (pairwise distinct targets reading only lower
    strata); it defaults to sequential execution, and e.g. a domain
    pool's [run_all] can be supplied to evaluate them in parallel.  All
    persistent indexes a stratum needs are built before the executor is
    invoked, so tasks only read shared relations and write their own
    target.

    [columnar] (default [true], semi-naive mode only) routes
    kernel-able tgds — all-variable selections/projections, two-atom
    equi-joins, dimension-keyed aggregations — through vectorized
    kernels over dictionary-encoded column batches, and installs Σst
    source copies as shared batches instead of row-by-row.  The
    solution, the result, and every [stats] counter are identical to
    the row path's (the kernels replay its iteration order, counting,
    and error rules); only wall-clock time and index telemetry
    differ. *)

type fact_delta = { added : Instance.fact list; removed : Instance.fact list }
(** A change to one relation's fact set.  A revision of a key is its
    old fact in [removed] and its new fact in [added]. *)

type incr_stats = {
  mutable input_facts : int;  (** net input delta facts applied *)
  mutable strata_total : int;
  mutable strata_skipped : int;
      (** strata no delta reached — not evaluated at all *)
  mutable strata_delta : int;
      (** strata repaired without rederivation: seeded semi-naive
          delta rounds for insert-only tuple-level tgds, group-scoped
          re-aggregation for aggregations *)
  mutable strata_rederived : int;
      (** strata with at least one tgd rebuilt DRed-style (tuple-level
          deletions, blackbox, outer combine, self-feeding strata) *)
  mutable facts_rederived : int;
      (** facts (re)derived during propagation — compare with the
          solution's total fact count for the work saved *)
}

val empty_incr_stats : unit -> incr_stats

type incr_state
(** Per-mapping state of the group-scoped aggregation path: for every
    aggregation tgd, the multiset of measures currently contributing
    to each group.  Opaque and mutable; create one per cached solution
    and pass it to every {!incremental} call repairing that solution —
    it must be discarded together with the solution instance. *)

val create_incr_state : unit -> incr_state

val incremental :
  ?check_egds:bool ->
  ?executor:((unit -> unit) list -> unit) ->
  state:incr_state ->
  Mappings.Mapping.t ->
  solution:Instance.t ->
  deltas:(string * fact_delta) list ->
  (stats * incr_stats, string) result
(** Incrementally repair a previous full solution after source-fact
    changes, in place.  [solution] is the instance a prior {!run} of
    the same mapping produced (it contains both the Σst source copies
    and every derived relation, plus their persistent indexes);
    [deltas] are the not-yet-applied changes to source relations.

    The deltas are first applied to [solution] (set semantics: only
    genuinely new/removed facts propagate), then the strata are
    re-evaluated in stratification order: a stratum no delta reaches is
    skipped outright; an insert-only tuple-level tgd runs seeded
    semi-naive delta rounds against the persistent indexes; an
    aggregation tgd re-aggregates only the groups its source delta
    falls in, from the measure bags kept in [state] (see
    {!incr_state}); any other touched tgd (tuple-level deletions,
    blackbox, outer combine) is rederived DRed-style — its touched
    targets are over-deleted and re-run from their updated sources,
    and the old-vs-new diff becomes the (compact) delta for the strata
    above.  Functionality egds are re-checked on every touched target.

    On [Error] the solution may be partially repaired; callers keeping
    the instance (and [state]) across batches must discard both.

    On success the repaired [solution] equals what a from-scratch
    {!run} on the updated sources would produce. *)
