(* Isolated per-operation costs of each layer's public functions,
   measured with Bechamel (OLS over the run count). The traced run
   prints each beside the number of such operations the workload
   performed, so cost x count estimates the layer's share of the run. *)

module Sim = Adios_engine.Sim
module Rng = Adios_engine.Rng
module Params = Adios_core.Params
module App = Adios_core.App
module Link = Adios_rdma.Link
module Nic = Adios_rdma.Nic
module Verbs = Adios_rdma.Verbs
module Pager = Adios_mem.Pager
module Arena = Adios_mem.Arena
module View = Adios_mem.View
module Task = Adios_unithread.Task
module Histogram = Adios_stats.Histogram
module Sink = Adios_trace.Sink
module Event = Adios_trace.Event
module Profiler = Adios_prof.Profiler
module Phase = Adios_prof.Phase
module Accountant = Adios_obs.Accountant

let noop () = ()

(* Sim.schedule + Sim.step: one event through the engine. *)
let engine_event () =
  let sim = Sim.create () in
  fun () ->
    Sim.schedule sim ~delay:100 noop;
    ignore (Sim.step sim)

let engine_timer_cancel () =
  let sim = Sim.create () in
  fun () -> Sim.cancel sim (Sim.timer_after sim ~delay:1000 noop)

(* One 4 KB READ posted on a QP, carried by the engine to its
   completion, then drained from the CQ. *)
let rdma_post () =
  let sim = Sim.create () in
  let link () = Link.create sim ~gbps:Params.link_gbps ~wire_overhead:Params.wire_overhead () in
  let nic =
    Nic.create sim ~rx_link:(link ()) ~tx_link:(link ())
      ~wqe_overhead_cycles:Params.wqe_overhead_cycles
      ~base_latency_cycles:Params.rdma_base_latency_cycles ()
  in
  let qp = Nic.create_qp nic ~depth:64 in
  let cq = Verbs.Cq.create () in
  fun () ->
    ignore (Nic.post qp ~opcode:Verbs.Read ~bytes:4096 ~user:() ~cq);
    Sim.run sim;
    Verbs.Cq.drain cq ignore

(* One fault/evict cycle on a full pager: pick a CLOCK victim, evict it,
   fetch the next remote page into the freed frame. *)
let pager_cycle () =
  let pages = 4096 and capacity = 1024 in
  let pager = Pager.create ~pages ~capacity in
  Pager.prefill pager (List.init capacity Fun.id);
  let next = ref capacity in
  fun () ->
    (match Pager.pick_victim pager with
    | Some v -> ignore (Pager.evict pager v)
    | None -> ());
    while Pager.state pager !next <> Pager.Remote do
      next := (!next + 1) mod pages
    done;
    Pager.start_fetch pager !next;
    Pager.complete_fetch pager !next;
    Pager.touch pager !next

(* Resume a suspended unithread and let it suspend again. *)
let task_switch () =
  let task =
    Task.create (fun () ->
        while true do
          Task.suspend ()
        done)
  in
  fun () -> ignore (Task.run task)

(* One request handled by the app on a direct (never-faulting) view. *)
let app_request name =
  let app = (Option.get (Adios_apps.Registry.find name)) () in
  let arena = Arena.create ~pages:app.App.pages ~page_size:app.App.page_size in
  let view = View.direct arena in
  app.App.build view;
  let rng = Rng.create 7 in
  let ctx = { App.view; compute = ignore; checkpoint = noop; rng } in
  fun () -> try app.App.handle ctx (app.App.gen rng) with App.Bad_request _ -> ()

let histogram_record () =
  let h = Histogram.create () in
  let i = ref 0 in
  fun () ->
    incr i;
    Histogram.record h (!i land 0xFFFFF)

let trace_emit () =
  let sink = Sink.create ~capacity:4096 in
  let ts = ref 0 in
  fun () ->
    incr ts;
    Sink.emit sink ~ts:!ts ~kind:Event.Run_begin ~req:1 ~worker:0 ~page:Event.none

let prof_switch () =
  let prof = Profiler.create () in
  let req = Profiler.attach prof ~id:1 ~tx_at:0 ~now:0 in
  let t = ref 0 in
  fun () ->
    incr t;
    Profiler.switch req ~now:!t (if !t land 1 = 0 then Phase.App_compute else Phase.Fetch_wire)

let acct_switch () =
  let sim = Sim.create () in
  let acct = Accountant.create sim ~cpus:2 in
  let t = ref 0 in
  fun () ->
    incr t;
    Accountant.switch acct ~cpu:0
      (if !t land 1 = 0 then Accountant.App_compute else Accountant.Busy_wait)

let tests () =
  [
    ("engine.ns_per_event", engine_event ());
    ("engine.ns_per_timer_cancel", engine_timer_cancel ());
    ("rdma.ns_per_post", rdma_post ());
    ("mem.ns_per_fault", pager_cycle ());
    ("unithread.ns_per_switch", task_switch ());
    ("apps.memcached.ns_per_get", app_request "memcached");
    ("apps.silo.ns_per_txn", app_request "silo");
    ("stats.ns_per_record", histogram_record ());
    ("trace.ns_per_emit", trace_emit ());
    ("prof.ns_per_switch", prof_switch ());
    ("obs.ns_per_acct_switch", acct_switch ());
  ]

(* [(name, ns per op)] for every test, plus engine.words_per_event (the
   minor words one schedule+step allocates). *)
let run () =
  let open Bechamel in
  let tests = tests () in
  let grouped =
    Test.make_grouped ~name:"micro" ~fmt:"%s%s"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests)
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.15) ~stabilize:false () in
  let instances = Toolkit.Instance.[ monotonic_clock; minor_allocated ] in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let estimate instance name =
    let results = Analyze.all ols instance raw in
    let key = "micro" ^ name in
    match Option.bind (Hashtbl.find_opt results key) Analyze.OLS.estimates with
    | Some (v :: _) -> v
    | _ -> Float.nan
  in
  List.map (fun (name, _) -> (name, estimate Toolkit.Instance.monotonic_clock name)) tests
  @ [ ("engine.words_per_event",
       estimate Toolkit.Instance.minor_allocated "engine.ns_per_event") ]
