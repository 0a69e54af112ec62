type reason = Deadline | Steps | Fault

exception Exhausted of reason

type t = {
  deadline : float option;  (** absolute wall-clock time *)
  max_steps : int option;
  mutable steps : int;
  mutable trip_at : int;  (** fault injection step; [-1] when disarmed *)
  mutable spent : reason option;  (** sticky once a real limit trips *)
}

let make ?timeout ?max_steps () =
  { deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout;
    max_steps;
    steps = 0;
    trip_at = -1;
    spent = None
  }

let unlimited = make ()

let with_trip_at ~step () =
  let b = make () in
  b.trip_at <- step;
  b

let exhaust b r =
  b.spent <- Some r;
  raise (Exhausted r)

(* Slow path: read the clock. *)
let poll b =
  match b.deadline with
  | Some d when Unix.gettimeofday () > d -> exhaust b Deadline
  | _ -> ()

let resume_spent b =
  match b.spent with
  | Some r -> raise (Exhausted r)
  | None -> ()

(* Poll the clock every 64 ticks, including the very first (so a deadline
   of 0 trips before any work is done). *)
let poll_mask = 63

let tick b =
  resume_spent b;
  let s = b.steps + 1 in
  b.steps <- s;
  if b.trip_at >= 0 && s >= b.trip_at then begin
    b.trip_at <- -1;
    (* trips exactly once: [spent] stays unset *)
    raise (Exhausted Fault)
  end;
  (match b.max_steps with
  | Some m when s > m -> exhaust b Steps
  | _ -> ());
  if s land poll_mask = 1 then poll b

let check b =
  resume_spent b;
  poll b

let poll_deadline = poll

let steps b = b.steps
let exhausted b = b.spent

let reason_to_string = function
  | Deadline -> "deadline"
  | Steps -> "steps"
  | Fault -> "fault"

type 'a anytime = Complete of 'a | Partial of 'a * reason

let value = function Complete x | Partial (x, _) -> x
let is_complete = function Complete _ -> true | Partial _ -> false

let () =
  Printexc.register_printer (function
    | Exhausted r -> Some ("Budget.Exhausted(" ^ reason_to_string r ^ ")")
    | _ -> None)
