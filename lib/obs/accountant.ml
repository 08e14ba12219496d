module Integrator = Adios_stats.Integrator
module Histogram = Adios_stats.Histogram

type state =
  | App_compute
  | Pf_software
  | Busy_wait
  | Cq_poll
  | Ctx_switch
  | Dispatch
  | Tx
  | Idle

let states =
  [ App_compute; Pf_software; Busy_wait; Cq_poll; Ctx_switch; Dispatch; Tx; Idle ]

let state_count = List.length states

let state_index = function
  | App_compute -> 0
  | Pf_software -> 1
  | Busy_wait -> 2
  | Cq_poll -> 3
  | Ctx_switch -> 4
  | Dispatch -> 5
  | Tx -> 6
  | Idle -> 7

let state_name = function
  | App_compute -> "app_compute"
  | Pf_software -> "pf_software"
  | Busy_wait -> "busy_wait"
  | Cq_poll -> "cq_poll"
  | Ctx_switch -> "ctx_switch"
  | Dispatch -> "dispatch"
  | Tx -> "tx"
  | Idle -> "idle"

type cpu = {
  mutable state : state;
  mutable entered_at : int; (* when the current episode started *)
  integrators : Integrator.t array; (* one per state; exactly one at level 1 *)
  episodes : Histogram.t array; (* closed episode lengths per state *)
}

type t = { sim : Adios_engine.Sim.t; created_at : int; slots : cpu array }

let create sim ~cpus =
  if cpus <= 0 then invalid_arg "Accountant.create: cpus must be positive";
  let now = Adios_engine.Sim.now sim in
  let slot _ =
    let integrators =
      Array.init state_count (fun _ -> Integrator.create sim)
    in
    Integrator.set integrators.(state_index Idle) 1;
    {
      state = Idle;
      entered_at = now;
      integrators;
      episodes = Array.init state_count (fun _ -> Histogram.create ());
    }
  in
  { sim; created_at = now; slots = Array.init cpus slot }

let cpus t = Array.length t.slots

let switch t ~cpu state =
  let c = t.slots.(cpu) in
  if c.state <> state then begin
    let now = Adios_engine.Sim.now t.sim in
    let elapsed = now - c.entered_at in
    if elapsed > 0 then
      Histogram.record c.episodes.(state_index c.state) elapsed;
    Integrator.set c.integrators.(state_index c.state) 0;
    Integrator.set c.integrators.(state_index state) 1;
    c.state <- state;
    c.entered_at <- now
  end

let cycles_now t ~cpus state =
  let si = state_index state in
  let acc = ref 0 in
  for cpu = 0 to min cpus (Array.length t.slots) - 1 do
    acc := !acc + Integrator.integral t.slots.(cpu).integrators.(si)
  done;
  !acc

type snapshot = {
  duration : int;
  cpus : int;
  cycles : int array array;
  episodes : Histogram.t array array;
}

let snapshot t =
  let now = Adios_engine.Sim.now t.sim in
  let copy_hist h =
    let dst = Histogram.create () in
    Histogram.merge_into ~dst h;
    dst
  in
  {
    duration = now - t.created_at;
    cpus = Array.length t.slots;
    cycles =
      Array.map
        (fun c -> Array.map Integrator.integral c.integrators)
        t.slots;
    episodes =
      Array.map (fun (c : cpu) -> Array.map copy_hist c.episodes) t.slots;
  }

let state_cycles snap ?cpus state =
  let n = match cpus with Some n -> min n snap.cpus | None -> snap.cpus in
  let si = state_index state in
  let acc = ref 0 in
  for cpu = 0 to n - 1 do
    acc := !acc + snap.cycles.(cpu).(si)
  done;
  !acc

let share snap ?cpus state =
  let n = match cpus with Some n -> min n snap.cpus | None -> snap.cpus in
  let total = n * snap.duration in
  if total <= 0 then 0.
  else float_of_int (state_cycles snap ~cpus:n state) /. float_of_int total

let merged_episodes snap state =
  let si = state_index state in
  let dst = Histogram.create () in
  Array.iter (fun row -> Histogram.merge_into ~dst row.(si)) snap.episodes;
  dst

let cpu_label t cpu =
  (* the last slot is the dispatcher by the convention in the mli *)
  if cpu = Array.length t.slots - 1 then "dispatcher" else string_of_int cpu

let register_metrics t reg ~labels =
  Array.iteri
    (fun cpu c ->
      List.iter
        (fun st ->
          Registry.counter reg ~name:"adios_cpu_state_cycles_total"
            ~help:"Simulated cycles each CPU spent in each accounting state"
            ~labels:
              (labels
              @ [ ("cpu", cpu_label t cpu); ("state", state_name st) ])
            (fun () -> Integrator.integral c.integrators.(state_index st)))
        states)
    t.slots;
  List.iter
    (fun st ->
      Registry.histogram reg ~name:"adios_cpu_state_episode_cycles"
        ~help:"Closed episode lengths per accounting state, merged across CPUs"
        ~labels:(labels @ [ ("state", state_name st) ])
        (fun () ->
          let dst = Histogram.create () in
          Array.iter
            (fun (c : cpu) ->
              Histogram.merge_into ~dst c.episodes.(state_index st))
            t.slots;
          dst))
    states
