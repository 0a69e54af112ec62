(* Jittered exponential backoff; see backoff.mli.  The jitter comes
   from a self-contained LCG (same constants as the test fuzzers) so the
   module needs no RNG dependency and a seeded instance is reproducible
   in tests. *)

type t = {
  base : float;
  cap : float;
  mutable current : float;  (* next un-jittered delay *)
  mutable state : int;  (* LCG state *)
}

let make ?(seed = 0x2545F491) ~base ~cap () =
  if base <= 0. then invalid_arg "Backoff.make: base must be positive";
  if cap < base then invalid_arg "Backoff.make: cap below base";
  { base; cap; current = base; state = seed lor 1 }

(* one LCG step, mapped to a uniform float in [0, 1) *)
let unit_float t =
  t.state <- ((t.state * 1664525) + 1013904223) land 0x3FFFFFFF;
  float_of_int t.state /. float_of_int 0x40000000

let next t =
  let d = t.current in
  t.current <- Float.min t.cap (t.current *. 2.);
  (* full-jitter style, bounded: scale the delay by a factor drawn
     uniformly from [1/2, 1], so delays never exceed the cap and herds
     of reconnecting replicas spread out *)
  let scale = 1. -. (0.5 *. unit_float t) in
  d *. scale

let reset t = t.current <- t.base
