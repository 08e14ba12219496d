(* Differential property suite: the allocation-free engine against the
   preserved reference implementation.

   Two oracles:

   - [Heap_reference] — the original boxed binary heap, kept verbatim.
     Random interleavings of pushes and pops must produce identical
     (time, seq, value) streams from both heaps, including FIFO order
     for same-time entries.

   - [Ref_sim] — a literal re-implementation of the original scheduler
     loop over [Heap_reference], extended with the specified
     cancellation semantics (a cancelled event never runs, never counts
     in [events_processed], and never advances [now]). Random schedule
     programs — duplicate times, zero delays, past-time clamps,
     interleaved cancels, far-horizon timers that cross the wheel — must
     drive both engines through identical fire logs and identical
     (now, events_processed, clamped, pending) observables. *)

module Heap = Adios_engine.Heap
module Sim = Adios_engine.Sim

(* --- heap vs reference --------------------------------------------------- *)

type heap_op = Push of int | Pop

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun t -> Push t) (int_range 0 12)); (2, return Pop) ])

let heap_op_print = function
  | Push t -> Printf.sprintf "Push %d" t
  | Pop -> "Pop"

let arb_heap_ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map heap_op_print l))
    QCheck.Gen.(list_size (int_range 0 200) heap_op_gen)

(* Apply the same op sequence to both heaps; every pop must agree, and
   so must the final drain. *)
let prop_heap_matches_reference =
  QCheck.Test.make ~name:"flat heap = reference heap on random op streams"
    ~count:500 arb_heap_ops
    (fun ops ->
      let h = Heap.create () in
      let r = Heap_reference.create () in
      let seq = ref 0 in
      let ok = ref true in
      let check_pop () =
        let got = Heap.pop h in
        let want = Heap_reference.pop r in
        if got <> want then ok := false
      in
      List.iter
        (fun op ->
          match op with
          | Push t ->
            incr seq;
            Heap.push h ~time:t ~seq:!seq !seq;
            Heap_reference.push r ~time:t ~seq:!seq !seq
          | Pop -> check_pop ())
        ops;
      while not (Heap.is_empty h) || not (Heap_reference.is_empty r) do
        check_pop ()
      done;
      !ok && Heap.length h = 0 && Heap_reference.length r = 0)

(* The allocation-free protocol agrees with the allocating wrapper's
   oracle: pop_into exposes exactly the tuple the reference pops. *)
let prop_pop_into_matches_reference =
  QCheck.Test.make ~name:"pop_into stream = reference pop stream" ~count:500
    QCheck.(list (int_range 0 9))
    (fun times ->
      let h = Heap.create () in
      let r = Heap_reference.create () in
      List.iteri
        (fun i t ->
          Heap.push h ~time:t ~seq:i (i * 3);
          Heap_reference.push r ~time:t ~seq:i (i * 3))
        times;
      let ok = ref true in
      let continue = ref true in
      while !continue do
        let got =
          if Heap.pop_into h then
            Some (Heap.popped_time h, Heap.popped_seq h, Heap.popped_value h)
          else None
        in
        let want = Heap_reference.pop r in
        if got <> want then ok := false;
        if got = None && want = None then continue := false
      done;
      !ok)

(* --- scheduler vs reference ---------------------------------------------- *)

(* Literal port of the original scheduler loop over the reference heap,
   plus the specified cancellation semantics. Kept deliberately naive. *)
module Ref_sim = struct
  type t = {
    mutable now : int;
    mutable seq : int;
    mutable processed : int;
    mutable clamped : int;
    heap : (bool ref * (unit -> unit)) Heap_reference.t;
  }

  let create () =
    { now = 0; seq = 0; processed = 0; clamped = 0; heap = Heap_reference.create () }

  let schedule_at_cancellable sim t f =
    let t =
      if t < sim.now then begin
        sim.clamped <- sim.clamped + 1;
        sim.now
      end
      else t
    in
    sim.seq <- sim.seq + 1;
    let token = ref false in
    Heap_reference.push sim.heap ~time:t ~seq:sim.seq (token, f);
    token

  let schedule_at sim t f = ignore (schedule_at_cancellable sim t f)

  (* Pop cancelled entries off the top without observing them; the time
     of the first live entry, if any. *)
  let rec live_top sim =
    match Heap_reference.peek_time sim.heap with
    | None -> None
    | Some t -> (
      (* peek does not expose the payload: pop, and re-push if live *)
      match Heap_reference.pop sim.heap with
      | None -> None
      | Some (_, seq, ((cancelled, _) as entry)) ->
        if !cancelled then live_top sim
        else begin
          Heap_reference.push sim.heap ~time:t ~seq entry;
          Some t
        end)

  let step sim =
    match live_top sim with
    | None -> false
    | Some _ -> (
      match Heap_reference.pop sim.heap with
      | None -> false
      | Some (t, _, (_, f)) ->
        sim.now <- t;
        sim.processed <- sim.processed + 1;
        f ();
        true)

  let run sim = while step sim do () done

  let run_until sim limit =
    let continue = ref true in
    while !continue do
      match live_top sim with
      | Some t when t <= limit -> ignore (step sim)
      | Some _ | None ->
        continue := false;
        if sim.now < limit then sim.now <- limit
    done

  let pending sim =
    (* count live entries without disturbing the heap order observably *)
    let entries = ref [] in
    let live = ref 0 in
    let rec drain () =
      match Heap_reference.pop sim.heap with
      | None -> ()
      | Some ((_, _, (cancelled, _)) as e) ->
        if not !cancelled then incr live;
        entries := e :: !entries;
        drain ()
    in
    drain ();
    List.iter
      (fun (t, s, v) -> Heap_reference.push sim.heap ~time:t ~seq:s v)
      (List.rev !entries);
    !live
end

(* A random schedule program, interpreted identically by both engines.
   The driver schedules one event per command at strictly increasing
   times; each command's event performs the schedule/cancel it encodes,
   so scheduling happens *during* execution, interleaved with fires,
   exactly like real simulation code. *)
type cmd =
  | Sched of int  (** log event at now + d; duplicate/zero delays common *)
  | Sched_abs of int  (** absolute target, frequently in the past (clamp) *)
  | Timer of int  (** cancellable log event at now + d *)
  | Far_timer of int  (** beyond the wheel horizon: far-heap path *)
  | Cancel of int  (** cancel the (k mod tokens)-th timer created so far *)

let cmd_print = function
  | Sched d -> Printf.sprintf "Sched %d" d
  | Sched_abs t -> Printf.sprintf "Sched_abs %d" t
  | Timer d -> Printf.sprintf "Timer %d" d
  | Far_timer d -> Printf.sprintf "Far_timer %d" d
  | Cancel k -> Printf.sprintf "Cancel %d" k

let cmd_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Sched d) (int_range 0 40));
        (2, map (fun t -> Sched_abs t) (int_range 0 400));
        (3, map (fun d -> Timer d) (int_range 0 60));
        (1, map (fun d -> Far_timer d) (int_range 66_000 400_000));
        (3, map (fun k -> Cancel k) (int_range 0 50));
      ])

let arb_program =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map cmd_print l))
    QCheck.Gen.(list_size (int_range 0 80) cmd_gen)

(* What one engine exposes to the interpreter. *)
type engine = {
  schedule_at : int -> (unit -> unit) -> unit;
  timer_at : int -> (unit -> unit) -> unit;  (* appends its token *)
  cancel_nth : int -> unit;
  now : unit -> int;
  run_until : int -> unit;
  run : unit -> unit;
  observables : unit -> int * int * int * int;
      (* now, events_processed, clamped, pending-before-final-run *)
}

let interpret (e : engine) (program : cmd list) =
  let log = ref [] in
  let next_id = ref 0 in
  let fire id () = log := (id, e.now ()) :: !log in
  let logged () =
    let id = !next_id in
    incr next_id;
    fire id
  in
  List.iteri
    (fun i cmd ->
      (* driver event: one command, at strictly increasing times *)
      e.schedule_at
        ((i + 1) * 7)
        (fun () ->
          match cmd with
          | Sched d -> e.schedule_at (e.now () + d) (logged ())
          | Sched_abs t -> e.schedule_at t (logged ())
          | Timer d -> e.timer_at (e.now () + d) (logged ())
          | Far_timer d -> e.timer_at (e.now () + d) (logged ())
          | Cancel k -> e.cancel_nth k))
    program;
  (* split the run to exercise the run_until boundary *)
  e.run_until (7 * List.length program / 2);
  let pending_mid =
    let _, _, _, p = e.observables () in
    p
  in
  e.run ();
  let now, processed, clamped, _ = e.observables () in
  (List.rev !log, now, processed, clamped, pending_mid)

let new_engine () =
  let sim = Sim.create () in
  let tokens = ref [||] in
  let ntok = ref 0 in
  let add_token t =
    let arr = !tokens in
    if !ntok = Array.length arr then
      tokens := Array.append arr (Array.make (max 16 (Array.length arr)) t);
    !tokens.(!ntok) <- t;
    incr ntok
  in
  {
    schedule_at = (fun t f -> Sim.schedule_at sim t f);
    timer_at = (fun t f -> add_token (Sim.timer_at sim t f));
    cancel_nth =
      (fun k -> if !ntok > 0 then Sim.cancel sim !tokens.(k mod !ntok));
    now = (fun () -> Sim.now sim);
    run_until = (fun limit -> Sim.run_until sim limit);
    run = (fun () -> Sim.run sim);
    observables =
      (fun () ->
        ( Sim.now sim,
          Sim.events_processed sim,
          Sim.clamped_schedules sim,
          Sim.pending sim ));
  }

let ref_engine () =
  let sim = Ref_sim.create () in
  let tokens = ref [] in
  let ntok = ref 0 in
  {
    schedule_at = (fun t f -> Ref_sim.schedule_at sim t f);
    timer_at =
      (fun t f ->
        tokens := !tokens @ [ Ref_sim.schedule_at_cancellable sim t f ];
        incr ntok);
    cancel_nth =
      (fun k -> if !ntok > 0 then List.nth !tokens (k mod !ntok) := true);
    now = (fun () -> sim.Ref_sim.now);
    run_until = (fun limit -> Ref_sim.run_until sim limit);
    run = (fun () -> Ref_sim.run sim);
    observables =
      (fun () ->
        ( sim.Ref_sim.now,
          sim.Ref_sim.processed,
          sim.Ref_sim.clamped,
          Ref_sim.pending sim ));
  }

let prop_sim_matches_reference =
  QCheck.Test.make
    ~name:"wheel/heap scheduler = reference scheduler on random programs"
    ~count:300 arb_program
    (fun program ->
      interpret (new_engine ()) program = interpret (ref_engine ()) program)

(* Same differential with cancellation excluded: in that subset the
   reference is *exactly* the original scheduler, so this is the direct
   it-changed-nothing check for all pre-existing callers. *)
let prop_sim_matches_reference_no_cancel =
  QCheck.Test.make
    ~name:"scheduler = original semantics when cancellation is unused"
    ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map cmd_print l))
       QCheck.Gen.(
         list_size (int_range 0 80)
           (frequency
              [
                (4, map (fun d -> Sched d) (int_range 0 40));
                (2, map (fun t -> Sched_abs t) (int_range 0 400));
                (1, map (fun d -> Sched d) (int_range 66_000 400_000));
              ])))
    (fun program ->
      interpret (new_engine ()) program = interpret (ref_engine ()) program)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine-diff"
    [
      ( "heap",
        [ q prop_heap_matches_reference; q prop_pop_into_matches_reference ] );
      ( "sim",
        [ q prop_sim_matches_reference; q prop_sim_matches_reference_no_cancel ]
      );
    ]
