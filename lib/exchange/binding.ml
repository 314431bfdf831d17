open Matrix
module Term = Mappings.Term

(* A variable binding; small, so an association list with functional
   extension keeps backtracking trivial. *)
type t = (string * Value.t) list

let empty : t = []
let lookup (b : t) v = List.assoc_opt v b
let bind (b : t) v value : t = (v, value) :: b
let term_value b term = Term.eval (lookup b) term

let term_fully_bound b term =
  List.for_all (fun v -> lookup b v <> None) (Term.vars term)
