(* Correctness oracles.  The reference for every derived cube is the
   EXL interpreter (the paper's direct semantics), run once per run
   outside any timed region. *)
open Matrix

let derived = [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]

(* The self-test names one result to corrupt, to show that the oracle
   watching it trips. *)
let corruption : string option ref = ref None

let tamper name x = if !corruption = Some name then (x *. 1.001) +. 1. else x

(* Corrupt one measure of a result cube in place. *)
let tamper_cube name cube =
  if !corruption = Some name then
    match Cube.to_alist cube with
    | (k, v) :: _ -> Cube.set cube k (Value.Float (tamper name (Option.get (Value.to_float v))))
    | [] -> ()

(* Numbers agree to [rel] relative to their magnitude: engines sum in
   different orders, and the server prints 9 significant digits. *)
let close ?(rel = 1e-8) x y = Float.abs (x -. y) <= rel *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))

let value_close ?rel a b =
  match (Value.to_float a, Value.to_float b) with
  | Some x, Some y -> close ?rel x y
  | _ -> Value.equal a b

let cube_equal ?rel expected actual =
  Cube.cardinality expected = Cube.cardinality actual
  && Cube.fold
       (fun k v ok ->
         ok && match Cube.find actual k with Some w -> value_close ?rel v w | None -> false)
       expected true

(* The interpreter's derived cubes over the elementary cubes of [reg]. *)
let reference reg =
  match Exl.Interp.run (Exl.Program.load_exn Gen.program) reg with
  | Ok out -> List.map (fun name -> (name, Registry.find_exn out name)) derived
  | Error e -> failwith (Exl.Errors.to_string e)

(* Names of the derived cubes on which [find] disagrees with [expected]. *)
let mismatches expected find =
  List.filter_map
    (fun (name, cube) ->
      match find name with
      | Some actual when cube_equal cube actual -> None
      | _ -> Some name)
    expected

(* A cube as the server renders it: rows of [dims..., measure]. *)
let served_rows json =
  let module J = Obs.Json in
  match J.parse json with
  | Error _ -> None
  | Ok j ->
      Option.map
        (fun rows ->
          List.map
            (fun row ->
              let cells = J.elements row in
              let key = List.filteri (fun i _ -> i < List.length cells - 1) cells in
              ( List.map (function J.Str s -> s | c -> J.to_string c) key,
                J.number (List.nth cells (List.length cells - 1)) ))
            (J.elements rows))
        (J.member "rows" j)

(* The served rendering of [name] agrees with the reference cube. *)
let served_equal expected json =
  match served_rows json with
  | None -> false
  | Some rows ->
      List.length rows = Cube.cardinality expected
      && List.for_all
           (fun (key, v) ->
             let tuple =
               Tuple.of_list
                 (List.map2
                    (fun s (d : Schema.dimension) ->
                      match d.Schema.dim_domain with
                      | Domain.String -> Value.String s
                      | _ -> Value.of_string_guess s)
                    key
                    (Array.to_list (Cube.schema expected).Schema.dims))
             in
             match (Cube.find expected tuple, v) with
             | Some e, Some v -> value_close e (Value.Float (tamper "final" v))
             | _ -> false)
           rows
