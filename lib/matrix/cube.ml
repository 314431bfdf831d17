(* Copy-on-write representation.  A cube's facts are its [base] table
   with the persistent [overlay] applied on top ([None] = removed).
   [copy] and [with_schema] freeze the base and share it with the new
   handle; a frozen base is never written again, so every handle's
   later writes go to its own overlay.  A base that was never shared
   is written in place, exactly like a plain hashtable.  The frozen
   flag lives with the table (every handle sharing it must see it) and
   is atomic because several domains may copy one source cube at
   once. *)
type base = { tbl : Value.t Tuple.Table.t; frozen : bool Atomic.t }

type t = {
  schema : Schema.t;
  mutable base : base;
  mutable overlay : Value.t option Tuple.Map.t;
  mutable overlay_size : int;
  mutable overlay_writes : int;  (* since the last compaction *)
  mutable shift : int;
      (* cardinality minus the base table's length; 0 with no overlay *)
}

exception Functionality_violation of { cube : string; key : Tuple.t }

let fresh_base tbl = { tbl; frozen = Atomic.make false }

let create schema =
  {
    schema;
    base = fresh_base (Tuple.Table.create 64);
    overlay = Tuple.Map.empty;
    overlay_size = 0;
    overlay_writes = 0;
    shift = 0;
  }

let schema c = c.schema
let name c = c.schema.Schema.name
let cardinality c = Tuple.Table.length c.base.tbl + c.shift
let is_empty c = cardinality c = 0

let find c key =
  if c.overlay_size = 0 then Tuple.Table.find_opt c.base.tbl key
  else
    match Tuple.Map.find_opt key c.overlay with
    | Some v -> v
    | None -> Tuple.Table.find_opt c.base.tbl key

(* Fold the overlay into a private, unfrozen copy of the base. *)
let compact c =
  let tbl = Tuple.Table.copy c.base.tbl in
  Tuple.Map.iter
    (fun k -> function
      | Some v -> Tuple.Table.replace tbl k v
      | None -> Tuple.Table.remove tbl k)
    c.overlay;
  c.base <- fresh_base tbl;
  c.overlay <- Tuple.Map.empty;
  c.overlay_size <- 0;
  c.overlay_writes <- 0;
  c.shift <- 0

let write_overlay c key v =
  let in_base = Tuple.Table.find_opt c.base.tbl key in
  let prior = Tuple.Map.find_opt key c.overlay in
  let before = match prior with Some o -> o | None -> in_base in
  c.shift <-
    c.shift - Bool.to_int (Option.is_some before) + Bool.to_int (Option.is_some v);
  if Option.is_none v && Option.is_none in_base then begin
    (* a key the base never had needs no removal marker *)
    if Option.is_some prior then begin
      c.overlay <- Tuple.Map.remove key c.overlay;
      c.overlay_size <- c.overlay_size - 1
    end
  end
  else begin
    if Option.is_none prior then c.overlay_size <- c.overlay_size + 1;
    c.overlay <- Tuple.Map.add key v c.overlay
  end;
  (* Compaction copies the base, so compacting after an eighth of its
     size in overlay writes keeps each write O(1) amortized; the 64
     spares small cubes a copy every few writes.  Writes are counted,
     not distinct keys: a writer that keeps revising the same keys
     (batch commits) goes back to in-place writes, and its scans stop
     paying an overlay lookup per key. *)
  c.overlay_writes <- c.overlay_writes + 1;
  if c.overlay_writes > 64 + (Tuple.Table.length c.base.tbl / 8) then compact c

let write c key v =
  if Atomic.get c.base.frozen then write_overlay c key v
  else
    match v with
    | Some v -> Tuple.Table.replace c.base.tbl key v
    | None -> Tuple.Table.remove c.base.tbl key

let set c key v = write c key (if Value.is_null v then None else Some v)

let add_strict c key v =
  if not (Value.is_null v) then
    match find c key with
    | Some existing when not (Value.equal existing v) ->
        raise (Functionality_violation { cube = name c; key })
    | Some _ -> ()
    | None -> write c key (Some v)

let validate_tuple c key =
  if not (Schema.compatible_tuple c.schema key) then
    invalid_arg
      (Printf.sprintf "Cube: tuple %s does not fit schema %s"
         (Tuple.to_string key)
         (Schema.to_string c.schema))

let find_exn c key =
  match find c key with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Cube.find_exn: %s undefined on %s" (name c)
           (Tuple.to_string key))

let mem c key = Option.is_some (find c key)
let remove c key = write c key None

(* Base keys in table order (an overlay revision keeps the key's
   position, as [Hashtbl.replace] does), then the overlay-only keys in
   key order. *)
let fold f c init =
  let tbl = c.base.tbl and overlay = c.overlay in
  if c.overlay_size = 0 then Tuple.Table.fold f tbl init
  else
    let acc =
      Tuple.Table.fold
        (fun k v acc ->
          match Tuple.Map.find_opt k overlay with
          | None -> f k v acc
          | Some (Some v') -> f k v' acc
          | Some None -> acc)
        tbl init
    in
    Tuple.Map.fold
      (fun k o acc ->
        match o with
        | Some v when not (Tuple.Table.mem tbl k) -> f k v acc
        | _ -> acc)
      overlay acc

let iter f c =
  if c.overlay_size = 0 then Tuple.Table.iter f c.base.tbl
  else fold (fun k v () -> f k v) c ()

let keys c = fold (fun k _ acc -> k :: acc) c []

let to_alist c =
  fold (fun k v acc -> (k, v) :: acc) c []
  |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

let of_alist schema alist =
  let c = create schema in
  List.iter (fun (k, v) -> set c k v) alist;
  c

let of_rows schema rows =
  let n = Schema.arity schema in
  let c = create schema in
  List.iter
    (fun row ->
      let arr = Array.of_list row in
      if Array.length arr <> n + 1 then
        invalid_arg
          (Printf.sprintf "Cube.of_rows: row of width %d for schema %s"
             (Array.length arr)
             (Schema.to_string schema));
      let key = Tuple.of_array (Array.sub arr 0 n) in
      validate_tuple c key;
      set c key arr.(n))
    rows;
  c

let share schema c =
  if not (Atomic.get c.base.frozen) then Atomic.set c.base.frozen true;
  { c with schema }

let copy c = share c.schema c

let with_schema schema c =
  if Schema.arity schema <> Schema.arity c.schema then
    invalid_arg "Cube.with_schema: arity mismatch";
  share schema c

let map_measure f c =
  let out = create c.schema in
  iter (fun k v -> set out k (f v)) c;
  out

let mapi f schema c =
  let out = create schema in
  iter
    (fun k v ->
      match f k v with
      | Some (k', v') -> add_strict out k' v'
      | None -> ())
    c;
  out

let filter p c =
  let out = create c.schema in
  iter (fun k v -> if p k v then set out k v) c;
  out

let merge_join combine schema a b =
  let small, large, flip =
    if cardinality a <= cardinality b then (a, b, false) else (b, a, true)
  in
  let out = create schema in
  iter
    (fun k v_small ->
      match find large k with
      | Some v_large ->
          let v =
            if flip then combine v_large v_small else combine v_small v_large
          in
          set out k v
      | None -> ())
    small;
  out

let merge_outer combine schema a b =
  let out = create schema in
  iter
    (fun k va ->
      let vb = find b k in
      set out k (combine (Some va) vb))
    a;
  iter
    (fun k vb -> if not (mem a k) then set out k (combine None (Some vb)))
    b;
  out

let values_close eps a b =
  match (Value.to_float a, Value.to_float b) with
  | Some x, Some y -> Float.abs (x -. y) <= eps
  | _ -> Value.equal a b

let equal_data ?(eps = 1e-9) a b =
  cardinality a = cardinality b
  && fold
       (fun k v ok ->
         ok
         && match find b k with Some w -> values_close eps v w | None -> false)
       a true

let diff_data ?(eps = 1e-9) a b =
  let out = ref [] and count = ref 0 in
  let report msg =
    incr count;
    if !count <= 20 then out := msg :: !out
  in
  iter
    (fun k v ->
      match find b k with
      | None ->
          report (Printf.sprintf "missing in %s: %s" (name b) (Tuple.to_string k))
      | Some w when not (values_close eps v w) ->
          report
            (Printf.sprintf "at %s: %s=%s vs %s=%s" (Tuple.to_string k)
               (name a) (Value.to_string v) (name b) (Value.to_string w))
      | Some _ -> ())
    a;
  iter
    (fun k _ ->
      if not (mem a k) then
        report (Printf.sprintf "extra in %s: %s" (name b) (Tuple.to_string k)))
    b;
  let msgs = List.rev !out in
  if !count > 20 then
    msgs @ [ Printf.sprintf "... and %d more" (!count - 20) ]
  else msgs

let pp ppf c =
  Format.fprintf ppf "@[<v2>%s [%d tuples]" (Schema.to_string c.schema)
    (cardinality c);
  List.iter
    (fun (k, v) ->
      Format.fprintf ppf "@,%s -> %s" (Tuple.to_string k) (Value.to_string v))
    (to_alist c);
  Format.fprintf ppf "@]"

let to_string c = Format.asprintf "%a" pp c
