(* Inputs of the benchmark: the paper's Section 2 overview program over
   a synthetic store of any size, and the seeded revisions and reads
   the workloads send.  The store depends only on its size; the seed
   drives which keys are revised, the revised values and the read
   mix. *)
open Matrix

let program =
  {|
cube PDR(d: date, r: string);
cube RGDPPC(q: quarter, r: string);

PQR   := avg(PDR, group by quarter(d) as q, r);
RGDP  := RGDPPC * PQR;
GDP   := sum(RGDP, group by q);
GDPT  := stl_t(GDP);
PCHNG := 100 * (GDPT - shift(GDPT, 1)) / GDPT;
|}

let program_name = "overview"
let first_year = 2015
let years = 5
let region i = Printf.sprintf "r%03d" i
let day0 = Calendar.Date.make ~year:first_year ~month:1 ~day:1

let days =
  let rec count y acc =
    if y = first_year + years then acc
    else count (y + 1) (acc + if Calendar.Date.is_leap_year y then 366 else 365)
  in
  count first_year 0

let pdr_value ri t = 1_000_000. +. (250_000. *. float_of_int ri) +. (12. *. t)

(* [regions] x 5 years: one PDR fact per region-day, one RGDPPC fact
   per region-quarter. *)
let registry ~regions =
  let reg = Registry.create () in
  let pdr =
    Cube.create
      (Schema.make ~name:"PDR" ~dims:[ ("d", Domain.Date); ("r", Domain.String) ] ())
  in
  let rgdppc =
    Cube.create
      (Schema.make ~name:"RGDPPC"
         ~dims:[ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
         ())
  in
  for ri = 0 to regions - 1 do
    let r = Value.String (region ri) in
    for doy = 0 to days - 1 do
      Cube.set pdr
        (Tuple.of_list [ Value.Date (Calendar.Date.add_days day0 doy); r ])
        (Value.Float (pdr_value ri (float_of_int doy)))
    done;
    for qi = 0 to (4 * years) - 1 do
      let seasonal = 0.5 *. sin (Float.pi /. 2. *. float_of_int (qi mod 4)) in
      Cube.set rgdppc
        (Tuple.of_list
           [
             Value.Period (Calendar.Period.quarter (first_year + (qi / 4)) ((qi mod 4) + 1));
             r;
           ])
        (Value.Float (7. +. (0.04 *. float_of_int qi) +. seasonal))
    done
  done;
  Registry.add reg Registry.Elementary pdr;
  Registry.add reg Registry.Elementary rgdppc;
  reg

(* A single-key PDR revision: a day in the last quarter of the series
   (the tail, where statistical revisions land) of a seeded region,
   moved by a seeded relative amount. *)
type revision = { day : Calendar.Date.t; region_index : int; value : float }

let revision rng ~regions =
  let doy = days - 1 - Random.State.int rng 90 in
  let ri = Random.State.int rng regions in
  let base = pdr_value ri (float_of_int doy) in
  {
    day = Calendar.Date.add_days day0 doy;
    region_index = ri;
    value = Float.round (base *. (1. +. (Random.State.float rng 0.02 -. 0.01)));
  }

let update (r : revision) =
  Engine.Update.set ~cube:"PDR"
    ~key:[ Value.Date r.day; Value.String (region r.region_index) ]
    (Value.Float r.value)
