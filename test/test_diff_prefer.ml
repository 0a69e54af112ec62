(* Differential testing of the compiled preference route against the
   naive oracle on random ordered programs with random named rules and
   random (acyclicity-preserving) preference pairs:

   - [Prefer.Compile] (fresh per-rule components + pruned search) and
     [Oracle.Prefer] (directly refined adjacency + leaf-check search)
     enumerate the same preferred-model sets;
   - with no preferences, both routes coincide with the plain stable
     semantics of the original program (the per-rule component splitting
     is invisible);
   - trace-mode compilation, projected, changes nothing.

   Preference pairs are generated aligned with the (component, rule)
   declaration order, which every object-order edge also follows — so
   the combined relation embeds in a total order and is acyclic by
   construction; the cycle diagnostics are covered by unit tests. *)

open Logic
open Helpers
module Gen = QCheck2.Gen
module B = Ordered.Budget
module S = Ordered.Stable

let iters name base =
  (* scaled by FUZZ_ITERS like the other fuzz suites, so `make fuzz`
     deepens the sweep without editing the test *)
  ignore name;
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > base -> n
    | _ -> base)
  | None -> base

(* ------------------------------------------------------------------ *)
(* Generator: programs with named rules and consistent preferences     *)
(* ------------------------------------------------------------------ *)

(* reachable components from c0 over (lo, hi) pairs: the view *)
let view_comps ncomp pairs =
  let up = Array.make ncomp false in
  up.(0) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (lo, hi) ->
        if up.(lo) && not up.(hi) then begin
          up.(hi) <- true;
          changed := true
        end)
      pairs
  done;
  up

let gen_preferred n =
  let open Gen in
  let* ncomp = int_range 1 3 in
  let* raw =
    flatten_l
      (List.init ncomp (fun _ ->
           list_size (int_range 1 4) (Test_props.gen_negative_rule n)))
  in
  (* name rules with distinct global names, ~2/3 of the time *)
  let* name_flags =
    flatten_l (List.map (fun rs -> flatten_l (List.map (fun _ -> int_bound 2) rs)) raw)
  in
  let k = ref 0 in
  let comps =
    List.map2
      (fun rs flags ->
        List.map2
          (fun r flag ->
            let i = !k in
            incr k;
            if flag > 0 then Rule.with_name (Printf.sprintf "r%d" i) r
            else r)
          rs flags)
      raw name_flags
  in
  let comps =
    List.mapi (fun i rs -> (Printf.sprintf "c%d" i, rs)) comps
  in
  let all_pairs =
    List.concat
      (List.init ncomp (fun i ->
           List.filter_map
             (fun j -> if i < j then Some (i, j) else None)
             (List.init ncomp Fun.id)))
  in
  let* chosen =
    flatten_l (List.map (fun p -> map (fun b -> (p, b)) bool) all_pairs)
  in
  let int_pairs = List.filter_map (fun (p, b) -> if b then Some p else None) chosen in
  let pairs =
    List.map
      (fun (i, j) -> (Printf.sprintf "c%d" i, Printf.sprintf "c%d" j))
      int_pairs
  in
  (* named rules of the view, tagged (comp index, name), declaration order *)
  let up = view_comps ncomp int_pairs in
  let visible =
    List.concat
      (List.mapi
         (fun ci (_, rs) ->
           if up.(ci) then
             List.filter_map (fun r -> Option.map (fun nm -> (ci, nm)) (Rule.name r)) rs
           else [])
         comps)
  in
  (* candidate pref edges follow the same global order as object edges *)
  let candidates =
    List.concat
      (List.mapi
         (fun i (ci, a) ->
           List.filteri (fun j _ -> j > i) visible
           |> List.filter_map (fun (cj, b) ->
                  if ci <= cj then Some (a, b) else None))
         visible)
  in
  let* picks =
    flatten_l
      (List.map (fun c -> map (fun b -> (c, b)) (int_bound 2)) candidates)
  in
  let prefs =
    List.filter_map (fun (c, b) -> if b = 0 then Some c else None) picks
  in
  return (Ordered.Program.make_exn comps pairs, prefs)

let print_case (p, prefs) =
  Printf.sprintf "%s prefs=[%s]" (print_program p)
    (String.concat "; " (List.map (fun (a, b) -> a ^ " > " ^ b) prefs))

let spec_of (p, prefs) = Prefer.Spec.make p 0 prefs

let compiled spec =
  B.value (Prefer.Compile.preferred_models (Prefer.Compile.compile spec))

let naive spec = B.value (Oracle.Prefer.preferred_models spec)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_diff =
  qcheck
    ~count:(iters "diff" 700)
    ~print:print_case "compiled = naive: preferred model sets"
    (gen_preferred 4)
    (fun case -> interp_set_equal (compiled (spec_of case)) (naive (spec_of case)))

let prop_no_prefs =
  qcheck
    ~count:(iters "noprefs" 300)
    ~print:print_case
    "no preferences: both routes = plain stable semantics"
    (gen_preferred 4)
    (fun (p, _) ->
      let spec = Prefer.Spec.make p 0 [] in
      let plain = B.value (S.stable_models (Ordered.Gop.ground p 0)) in
      interp_set_equal (compiled spec) plain
      && interp_set_equal (naive spec) plain)

let prop_trace =
  qcheck
    ~count:(iters "trace" 200)
    ~print:print_case "trace mode projects to the untraced models"
    (gen_preferred 4)
    (fun case ->
      let spec = spec_of case in
      let traced =
        B.value
          (Prefer.Compile.preferred_models
             (Prefer.Compile.compile ~trace:true spec))
      in
      interp_set_equal
        (List.map Prefer.Compile.project traced)
        (compiled spec))

let suite = [ prop_diff; prop_no_prefs; prop_trace ]
