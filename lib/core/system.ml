module Sim = Adios_engine.Sim
module Proc = Adios_engine.Proc
module Rng = Adios_engine.Rng
module Verbs = Adios_rdma.Verbs
module Nic = Adios_rdma.Nic
module Link = Adios_rdma.Link
module Raw_eth = Adios_rdma.Raw_eth
module Memnode = Adios_rdma.Memnode
module Pager = Adios_mem.Pager
module Reclaimer = Adios_mem.Reclaimer
module Arena = Adios_mem.Arena
module View = Adios_mem.View
module Task = Adios_unithread.Task
module Buffer_pool = Adios_unithread.Buffer_pool
module Prefetcher = Adios_mem.Prefetcher
module Trace_sink = Adios_trace.Sink
module Trace_event = Adios_trace.Event
module Injector = Adios_fault.Injector
module Acct = Adios_obs.Accountant
module Registry = Adios_obs.Registry
module Cluster = Adios_cluster.Cluster
module Profiler = Adios_prof.Profiler
module Phase = Adios_prof.Phase

(* Raised inside a unithread when a page fetch exhausted its retries;
   caught at the task boundary so the request completes with an error
   reply instead of wedging its worker. *)
exception Fetch_failed of int

type counters = {
  mutable admitted : int;
  mutable drops_queue : int;
  mutable drops_buffer : int;
  mutable handled : int;
  mutable errored : int;
  mutable faults : int;
  mutable coalesced : int;
  mutable qp_stalls : int;
  mutable preemptions : int;
  mutable writeback_stalls : int;
  mutable frame_stalls : int;
  mutable fetch_timeouts : int;
  mutable fetch_retries : int;
  mutable retries_hwm : int;
  mutable drops_qp : int;
  mutable steals : int;
}

type entry = {
  req : Request.t;
  mutable task : Task.t option;
  detector : Prefetcher.Stride_detector.t;
  mutable worker : worker option;  (** worker whose QP serves its faults *)
  mutable quantum_start : int;
  mutable preempted : bool;
}

and worker = {
  wid : int;
  qps : (unit -> unit) Nic.qp array;  (** one QP per memory node *)
  fetch_cq : (unit -> unit) Verbs.Cq.t;
  gate : Proc.Gate.t;
  ready : entry Queue.t;
  local : entry Queue.t; (* per-worker queue (partitioned / stealing) *)
  mutable assigned : entry option;
  mutable idle : bool;
}

type t = {
  sim : Sim.t;
  cfg : Config.t;
  app : App.t;
  arena : Arena.t;
  pager : Pager.t;
  cluster : Cluster.t;
  nic : (unit -> unit) Nic.t;  (** node 0's NIC *)
  reclaim_qps : (unit -> unit) Nic.qp array;  (** one per memory node *)
  reclaim_cq : (unit -> unit) Verbs.Cq.t;
  reply_channel : Request.t Raw_eth.t;
  rdma_rx_link : Link.t;
  workers : worker array;
  pending : entry Queue.t;
  dispatch_gate : Proc.Gate.t;
  recycle : int Queue.t;
  buffers : Buffer_pool.t;
  prefetched : Bytes.t; (* per-page flag: resident due to a prefetch *)
  prefetch_stats : Prefetcher.stats;
  mutable rr_cursor : int;
  rng : Rng.t;
  mutable reclaimer : Reclaimer.t option;
  counters : counters;
  fault : Injector.t option;
  trace : Trace_sink.t;
  trace_on : bool;  (** cached [Trace_sink.enabled trace]: one load+branch
                        per instrumentation site when tracing is off *)
  acct : Acct.t;  (** CPU slots: workers 0..n-1, dispatcher last *)
  prof : Profiler.t option;  (** per-request phase attribution, when on *)
  prof_on : bool;  (** cached [Option.is_some prof], like [trace_on] *)
}

let counters t = t.counters
let pager t = t.pager

let faults_injected t =
  match t.fault with None -> 0 | Some inj -> Injector.injected inj

(* Single tracing entry point: one branch and no allocation when the
   sink is off — the cached [trace_on] flag skips even the [Sim.now]
   read and the cross-module [emit] call. *)
let ev ?(req = -1) ?(worker = -1) ?(page = -1) t kind =
  if t.trace_on then
    Trace_sink.emit t.trace ~ts:(Sim.now t.sim) ~kind ~req ~worker ~page

let worker_id e = match e.worker with Some w -> w.wid | None -> -1

let accountant t = t.acct

(* Time-in-state hook for CPU work on no request's behalf (dispatcher,
   idle and steal scans). Like [ev] it never schedules events or touches
   the RNG: a switch settles the per-state integrators at the current
   simulated time and nothing else, so the accounting cannot perturb the
   run. Each blocking site below switches *before* it waits; sites with
   no intervening wait need no switch (zero cycles would accrue). *)
let acct_cpu t ~cpu st = if cpu >= 0 then Acct.switch t.acct ~cpu st

(* The one probe of a request-state change: the request enters phase
   [ph] (closing its current segment at [Sim.now]) and, for an on-CPU
   phase, its worker's CPU enters the matching accounting state. Same
   discipline as [acct_cpu]: pure reads and array mutation, so neither
   view can perturb the run. *)
let enter t e ph =
  (match Phase.cpu_state ph with
  | Some st -> acct_cpu t ~cpu:(worker_id e) st
  | None -> ());
  if t.prof_on then
    match e.req.Request.prof with
    | Some r -> Profiler.switch r ~now:(Sim.now t.sim) ph
    | None -> ()

(* Busy-wait cycles the worker CPUs have accrued so far: a queue wait's
   slashed share (Fig. 2(c)) is its change across the wait over the
   worker count. Read only while profiling. *)
let busy_wait_now t =
  Acct.cycles_now t.acct ~cpus:(Array.length t.workers) Acct.Busy_wait

let note_enqueued t e =
  if t.prof_on then
    match e.req.Request.prof with
    | Some r -> Profiler.enqueued r ~busy_wait:(busy_wait_now t)
    | None -> ()

let pretry t e =
  if t.prof_on then
    match e.req.Request.prof with
    | Some r -> Profiler.note_retry r ~now:(Sim.now t.sim)
    | None -> ()

let pfailover t e =
  if t.prof_on then
    match e.req.Request.prof with
    | Some r -> Profiler.note_failover r ~now:(Sim.now t.sim)
    | None -> ()

let reclaimer t =
  match t.reclaimer with Some r -> r | None -> assert false

let buffers t = t.buffers
let rdma_rx_link t = t.rdma_rx_link
let cluster t = t.cluster

(* Congestion signal of a worker: fetches outstanding across all its
   QPs (one per memory node; a single sum, exactly the old per-QP count
   under the default single-node topology). *)
let qp_load w = Array.fold_left (fun acc qp -> acc + Nic.outstanding qp) 0 w.qps
let node_memnode t node = (Cluster.nodes t.cluster).(node).Cluster.memnode
let prefetch_stats t = t.prefetch_stats
let pending_depth t = Queue.length t.pending

let ready_backlog t =
  Array.fold_left
    (fun acc w -> acc + Queue.length w.ready + Queue.length w.local)
    0 t.workers

let busy_workers t =
  Array.fold_left (fun acc w -> if w.idle then acc else acc + 1) 0 t.workers

(* Drain a CQ, executing the per-completion callbacks immediately: a
   spinning poller sees its CQE the moment it arrives; yield-mode
   callbacks only enqueue the unithread, the worker switches back later. *)
let attach_drain cq =
  let run (c : (unit -> unit) Verbs.completion) = c.user () in
  Verbs.Cq.set_notify cq (fun () -> Verbs.Cq.drain cq run)

(* --- page-fault handling ------------------------------------------------ *)

(* Ensure a frame is available, stalling on memory pressure. *)
let wait_frame t e ~page =
  (match t.reclaimer with Some r -> Reclaimer.trigger r | None -> ());
  if Pager.free_frames t.pager <= 0 then begin
    t.counters.frame_stalls <- t.counters.frame_stalls + 1;
    ev t Trace_event.Stall_frame ~req:e.req.Request.id ~worker:(worker_id e)
      ~page;
    enter t e Phase.Pf_software;
    Proc.suspend (fun resume -> Pager.wait_frame t.pager resume)
  end

let charge_pf t e cycles =
  enter t e Phase.Pf_software;
  Proc.wait cycles

(* Busy-wait until [page]'s in-flight fetch completes. *)
let spin_on_inflight t e page =
  enter t e Phase.Busy_wait;
  Proc.suspend (fun resume -> Pager.add_waiter t.pager page resume);
  enter t e Phase.Pf_software

(* Make a blocked-then-resumed entry runnable again: push it on its
   worker's ready queue and wake that worker. Under work stealing the
   ready queues are steal targets, so idle siblings are woken too — one
   of them may grab the entry before the (busy) owner gets to it. *)
let enqueue_ready t (w : worker) e =
  (* fetch wire time ends here; from the CQE until a worker (owner or
     thief) polls the entry back in, the request waits in a ready queue *)
  enter t e Phase.Steal_wait;
  Queue.push e w.ready;
  Proc.Gate.signal w.gate;
  if t.cfg.Config.dispatch = Config.Work_stealing then
    Array.iter
      (fun s -> if s.idle && s.wid <> w.wid then Proc.Gate.signal s.gate)
      t.workers

(* Yield until [page]'s in-flight fetch completes; the completion pushes
   us on our worker's ready queue and the worker switches back. *)
let yield_on_inflight t e page =
  let w = match e.worker with Some w -> w | None -> assert false in
  enter t e Phase.Fetch_wire;
  Pager.add_waiter t.pager page (fun () -> enqueue_ready t w e);
  Task.suspend ()

(* Issue stride prefetches next to a demand fetch: detect the request's
   fault stride and pull the predicted pages without anyone waiting on
   them. Prefetches never take the last free frame or the last QP slots,
   so they cannot starve demand fetches. *)
let maybe_prefetch t e (w : worker) page =
  match t.cfg.Config.prefetch with
  | Config.No_prefetch -> ()
  | Config.Stride degree -> (
    match Prefetcher.Stride_detector.record e.detector page with
    | None -> ()
    | Some stride ->
      let page_bytes = t.app.App.page_size in
      let pages = t.app.App.pages in
      let issued = ref 0 in
      let k = ref 1 in
      while !issued < degree && !k <= degree do
        let q = page + (!k * stride) in
        incr k;
        (* the pager's placement directory names the node to pull from *)
        let node = if q >= 0 && q < pages then Pager.locate t.pager q else 0 in
        if
          q >= 0 && q < pages
          && Pager.state t.pager q = Pager.Remote
          && Pager.free_frames t.pager > 1
          && Nic.outstanding w.qps.(node) < t.cfg.Config.qp_depth - 2
        then begin
          Pager.start_fetch t.pager q;
          Memnode.record_read (node_memnode t node) ~bytes:page_bytes;
          (* [live] dies when the fetch times out: a completion the
             fabric delivered late (or a duplicate) must not install the
             page a second time *)
          let live = ref true in
          let ok =
            Nic.post w.qps.(node) ~opcode:Verbs.Read ~bytes:page_bytes
              ~cq:w.fetch_cq
              ~user:(fun () ->
                if !live then begin
                  live := false;
                  Pager.complete_fetch t.pager q;
                  ev t Trace_event.Rdma_complete ~worker:w.wid ~page:q;
                  List.iter (fun f -> f ()) (Pager.take_waiters t.pager q)
                end)
          in
          if ok then begin
            incr issued;
            ev t Trace_event.Rdma_issue ~req:e.req.Request.id ~worker:w.wid
              ~page:q;
            Bytes.set t.prefetched q '\001';
            t.prefetch_stats.Prefetcher.issued <-
              t.prefetch_stats.Prefetcher.issued + 1;
            (* a prefetch nobody waits on is not worth retrying: if its
               completion is lost, just release the frame so demand
               faults can fetch the page themselves *)
            if t.cfg.Config.fetch_timeout > 0 then
              Sim.schedule t.sim ~delay:t.cfg.Config.fetch_timeout (fun () ->
                  if !live then begin
                    live := false;
                    t.counters.fetch_timeouts <-
                      t.counters.fetch_timeouts + 1;
                    ev t Trace_event.Fetch_timeout ~worker:w.wid ~page:q;
                    Pager.abort_fetch t.pager q;
                    List.iter (fun f -> f ()) (Pager.take_waiters t.pager q);
                    if Bytes.get t.prefetched q = '\001' then begin
                      Bytes.set t.prefetched q '\000';
                      t.prefetch_stats.Prefetcher.wasted <-
                        t.prefetch_stats.Prefetcher.wasted + 1
                    end
                  end)
          end
          else begin
            (* the QP filled under us: roll the reservation back and
               wake anyone who coalesced on it in the meantime (this
               used to drop the reservation silently) *)
            t.counters.drops_qp <- t.counters.drops_qp + 1;
            Pager.abort_fetch t.pager q;
            List.iter (fun f -> f ()) (Pager.take_waiters t.pager q)
          end
        end
      done;
      if !issued > 0 then charge_pf t e (60 * !issued))

(* Bring one page to Present, handling every interleaving: the fault
   path blocks at several points (software cost, frame wait, QP wait),
   and meanwhile another unithread may fetch or evict the same page, so
   each blocking step is followed by a state re-check. *)
let rec ensure_present t e page =
  match Pager.state t.pager page with
  | Pager.Present ->
    if Bytes.get t.prefetched page = '\001' then begin
      Bytes.set t.prefetched page '\000';
      t.prefetch_stats.Prefetcher.useful <-
        t.prefetch_stats.Prefetcher.useful + 1
    end;
    if Params.hit_touch_cycles > 0 then
      charge_pf t e Params.hit_touch_cycles
  | Pager.Inflight ->
    t.counters.coalesced <- t.counters.coalesced + 1;
    let rid = e.req.Request.id and wid = worker_id e in
    ev t Trace_event.Fault_begin ~req:rid ~worker:wid ~page;
    ev t Trace_event.Coalesce ~req:rid ~worker:wid ~page;
    (match t.cfg.Config.wait with
    | Config.Spin -> spin_on_inflight t e page
    | Config.Yield -> yield_on_inflight t e page);
    ev t Trace_event.Fault_end ~req:rid ~worker:wid ~page;
    ensure_present t e page
  | Pager.Remote -> fault t e page

(* Handle a fault on a Remote page under the configured policy. *)
and fault t e page =
  t.counters.faults <- t.counters.faults + 1;
  let rid = e.req.Request.id and wid = worker_id e in
  ev t Trace_event.Fault_begin ~req:rid ~worker:wid ~page;
  charge_pf t e
    (if t.cfg.Config.kernel_path then
       Params.fault_sw_cycles + Params.hermit_fault_extra_cycles
     else Params.fault_sw_cycles);
  let w = match e.worker with Some w -> w | None -> assert false in
  (* acquire a frame and a QP slot; re-examine the page after each
     blocking wait since the world moves while we sleep *)
  let rec prepare () =
    if Pager.state t.pager page <> Pager.Remote then `Changed
    else if Pager.free_frames t.pager <= 0 then begin
      wait_frame t e ~page;
      prepare ()
    end
    else begin
      (* route first (liveness may change while we slept), then check
         the QP serving that node *)
      let node, _ = Cluster.route_read t.cluster ~page in
      if Nic.outstanding w.qps.(node) >= t.cfg.Config.qp_depth then begin
        t.counters.qp_stalls <- t.counters.qp_stalls + 1;
        ev t Trace_event.Stall_qp ~req:rid ~worker:wid ~page;
        enter t e Phase.Pf_software;
        Proc.wait Params.qp_retry_cycles;
        prepare ()
      end
      else `Go
    end
  in
  match prepare () with
  | `Changed ->
    (* the page moved on while we slept: this fault was absorbed by
       someone else's fetch (or it is already Present) *)
    ev t Trace_event.Coalesce ~req:rid ~worker:wid ~page;
    ev t Trace_event.Fault_end ~req:rid ~worker:wid ~page;
    ensure_present t e page
  | `Go ->
    Pager.start_fetch t.pager page;
    let page_bytes = t.app.App.page_size in
    Memnode.record_read (node_memnode t (Pager.locate t.pager page))
      ~bytes:page_bytes;
    maybe_prefetch t e w page;
    (* Recovery protocol. The page stays Inflight across reposts — only
       the final give-up aborts it back to Remote. Each attempt carries
       its own [live] flag so a completion the fabric delivered after we
       stopped believing in it (timeout fired, retry posted) is ignored;
       [outcome] settles exactly once, waking the parked unithread. *)
    let timeout = t.cfg.Config.fetch_timeout in
    let outcome = ref `Pending in
    let waker = ref (fun () -> ()) in
    let settle o =
      if !outcome = `Pending then begin
        outcome := o;
        !waker ()
      end
    in
    let on_complete () =
      Pager.complete_fetch t.pager page;
      ev t Trace_event.Rdma_complete ~req:rid ~worker:wid ~page;
      List.iter (fun f -> f ()) (Pager.take_waiters t.pager page);
      settle `Ok
    in
    let rec post_attempt ~blocking n =
      (* re-route every attempt: a retry after a node death must land on
         a surviving replica, not repost into the dead NIC forever *)
      let node, failover = Cluster.route_read t.cluster ~page in
      if n > 0 then Memnode.record_read (node_memnode t node) ~bytes:page_bytes;
      let live = ref true in
      let ok =
        Nic.post w.qps.(node) ~opcode:Verbs.Read ~bytes:page_bytes
          ~cq:w.fetch_cq
          ~user:(fun () ->
            if !live then begin
              live := false;
              on_complete ()
            end)
      in
      if not ok then begin
        (* full QP: back off and repost. The first attempt runs on the
           worker and may block; retries run from the timer and must
           reschedule themselves instead. *)
        t.counters.qp_stalls <- t.counters.qp_stalls + 1;
        ev t Trace_event.Stall_qp ~req:rid ~worker:wid ~page;
        if blocking then begin
          Proc.wait Params.qp_retry_cycles;
          post_attempt ~blocking n
        end
        else
          Sim.schedule t.sim ~delay:Params.qp_retry_cycles (fun () ->
              if !outcome = `Pending then post_attempt ~blocking:false n)
      end
      else begin
        ev t Trace_event.Rdma_issue ~req:rid ~worker:wid ~page;
        if failover then begin
          Cluster.note_failover t.cluster;
          ev t Trace_event.Failover ~req:rid ~worker:wid ~page;
          pfailover t e
        end;
        if not (Cluster.node_alive t.cluster node) then
          (* every replica dead: the post lands in a dead NIC and the
             timeout ladder will surface a Req_error *)
          Cluster.note_dead_read t.cluster;
        if timeout > 0 then
          (* exponential backoff: the deadline doubles per repost (capped
             at 64x) so a throttled fabric is not flooded *)
          Sim.schedule t.sim
            ~delay:(timeout lsl min n 6)
            (fun () ->
              if !live && !outcome = `Pending then begin
                live := false;
                t.counters.fetch_timeouts <- t.counters.fetch_timeouts + 1;
                ev t Trace_event.Fetch_timeout ~req:rid ~worker:wid ~page;
                if n >= t.cfg.Config.fetch_retries then begin
                  (* exhausted: surface the failure. Waiters re-examine
                     the page and refetch it themselves. *)
                  Pager.abort_fetch t.pager page;
                  List.iter
                    (fun f -> f ())
                    (Pager.take_waiters t.pager page);
                  settle `Failed
                end
                else begin
                  t.counters.fetch_retries <- t.counters.fetch_retries + 1;
                  t.counters.retries_hwm <-
                    max t.counters.retries_hwm (n + 1);
                  ev t Trace_event.Fetch_retry ~req:rid ~worker:wid ~page;
                  pretry t e;
                  post_attempt ~blocking:false (n + 1)
                end
              end)
      end
    in
    (match t.cfg.Config.wait with
    | Config.Spin ->
      (* the spin covers the post (incl. QP backoff) and the CQE wait *)
      enter t e Phase.Busy_wait;
      post_attempt ~blocking:true 0;
      if !outcome = `Pending then Proc.suspend (fun resume -> waker := resume);
      enter t e Phase.Pf_software
    | Config.Yield ->
      (* Adios: issue and yield (Fig. 5 steps 4-5, 8-10). *)
      waker := (fun () -> enqueue_ready t w e);
      (* wire time opens before the post so a blocking QP backoff counts
         against the fetch; the CQE's [enqueue_ready] closes it *)
      enter t e Phase.Fetch_wire;
      post_attempt ~blocking:true 0;
      if !outcome = `Pending then Task.suspend ());
    (match !outcome with
    | `Failed ->
      ev t Trace_event.Req_error ~req:rid ~worker:wid ~page;
      ev t Trace_event.Fault_end ~req:rid ~worker:wid ~page;
      raise (Fetch_failed page)
    | `Ok | `Pending ->
      (* map the fetched page and return (Fig. 5 step 10) *)
      charge_pf t e Params.map_page_cycles;
      ev t Trace_event.Fault_end ~req:rid ~worker:wid ~page)

(* Touch every page of [addr, addr+len); hit, coalesce or fault. *)
let touch_range t e ~addr ~len ~write =
  let page_size = t.app.App.page_size in
  let first = addr / page_size
  and last = (addr + len - 1) / page_size in
  for page = first to last do
    ensure_present t e page;
    Pager.touch t.pager page;
    if write then Pager.mark_dirty t.pager page
  done

(* --- application context ------------------------------------------------ *)

let make_ctx t e =
  let compute cycles =
    enter t e Phase.App_compute;
    Proc.wait cycles
  in
  let checkpoint () =
    if t.cfg.Config.preempt then begin
      compute Params.preempt_probe_cycles;
      if
        Sim.now t.sim - e.quantum_start >= Params.preempt_interval_cycles
      then begin
        t.counters.preemptions <- t.counters.preemptions + 1;
        ev t Trace_event.Preempt ~req:e.req.Request.id ~worker:(worker_id e);
        compute Params.preempt_fire_cycles;
        e.preempted <- true;
        Task.suspend ()
      end
    end
  in
  let view =
    View.make t.arena ~touch:(fun ~addr ~len ~write ->
        touch_range t e ~addr ~len ~write)
  in
  { App.view; compute; checkpoint; rng = t.rng }

(* --- reply transmission -------------------------------------------------- *)

let send_reply t e =
  let reply_bytes = e.req.Request.spec.Request.reply_bytes in
  (* Tx runs to the reply's client RX stamp: it covers the post, the
     wire, and (under Tx_sync_spin) is split below around the CQE spin *)
  enter t e Phase.Tx;
  Proc.wait Params.reply_post_cycles;
  let buffer = e.req.Request.buffer in
  let rid = e.req.Request.id and wid = worker_id e in
  ev t Trace_event.Tx_submit ~req:rid ~worker:wid;
  match t.cfg.Config.tx_mode with
  | Config.Tx_delegated ->
    (* Fig. 6: the TX completion is raised on the dispatcher's CQ; the
       dispatcher recycles the buffer while the worker moves on. *)
    Raw_eth.send t.reply_channel ~bytes:reply_bytes
      ~on_tx_complete:(fun () ->
        Sim.schedule t.sim ~delay:Params.tx_cqe_latency_cycles (fun () ->
            ev t Trace_event.Tx_complete ~req:rid;
            Queue.push buffer t.recycle;
            Proc.Gate.signal t.dispatch_gate))
      e.req
  | Config.Tx_sync_spin ->
    (* naive design: the worker busy-waits for the CQE *)
    enter t e Phase.Busy_wait;
    Proc.suspend (fun resume ->
        Raw_eth.send t.reply_channel ~bytes:reply_bytes
          ~on_tx_complete:(fun () ->
            Sim.schedule t.sim ~delay:Params.tx_cqe_latency_cycles (fun () ->
                ev t Trace_event.Tx_complete ~req:rid ~worker:wid;
                resume ()))
          e.req);
    enter t e Phase.Tx;
    Buffer_pool.free t.buffers buffer
  | Config.Tx_deferred ->
    (* run-to-completion baselines reap TX completions lazily, off the
       worker's critical path *)
    Raw_eth.send t.reply_channel ~bytes:reply_bytes
      ~on_tx_complete:(fun () ->
        Sim.schedule t.sim ~delay:Params.tx_cqe_latency_cycles (fun () ->
            ev t Trace_event.Tx_complete ~req:rid;
            Buffer_pool.free t.buffers buffer))
      e.req

(* --- worker -------------------------------------------------------------- *)

let requeue t e =
  enter t e Phase.Queue;
  note_enqueued t e;
  Queue.push e t.pending;
  Proc.Gate.signal t.dispatch_gate

let step_task t e task =
  let rid = e.req.Request.id and wid = worker_id e in
  ev t Trace_event.Run_begin ~req:rid ~worker:wid;
  (match Task.run task with
  | Task.Finished ->
    (* an errored handler still replies — with an error status — so the
       buffer recycles and request conservation holds under faults *)
    if e.req.Request.errored then t.counters.errored <- t.counters.errored + 1
    else t.counters.handled <- t.counters.handled + 1;
    send_reply t e
  | Task.Suspended ->
    if e.preempted then begin
      e.preempted <- false;
      requeue t e
    end
    (* else: fault yield; the fetch completion re-enqueues the entry *));
  ev t Trace_event.Run_end ~req:rid ~worker:wid

let run_entry t w e =
  e.worker <- Some w;
  match e.task with
  | Some task ->
    (* preempted unithread re-dispatched: switch back in *)
    enter t e Phase.Ctx_switch;
    Proc.wait Params.ctx_switch_cycles;
    e.quantum_start <- Sim.now t.sim;
    step_task t e task
  | None ->
    enter t e Phase.Ctx_switch;
    Proc.wait (Params.unithread_create_cycles + Params.ctx_switch_cycles);
    if t.cfg.Config.kernel_path then begin
      enter t e Phase.App_compute;
      Proc.wait Params.hermit_request_extra_cycles;
      if Rng.uniform t.rng < Params.hermit_jitter_probability then begin
        let span =
          Params.hermit_jitter_max_cycles - Params.hermit_jitter_min_cycles
        in
        Proc.wait (Params.hermit_jitter_min_cycles + Rng.int t.rng span)
      end
    end;
    e.quantum_start <- Sim.now t.sim;
    let ctx = make_ctx t e in
    let task =
      Task.create (fun () ->
          try t.app.App.handle ctx e.req.Request.spec with
          | Fetch_failed _ -> e.req.Request.errored <- true
          | App.Bad_request _ -> e.req.Request.errored <- true)
    in
    e.task <- Some task;
    step_task t e task

let resume_ready t e =
  (* poll + switch-in is one wait; attribute it wholly to CQ polling
     rather than splitting it (an extra event could shift tie-breaks) *)
  enter t e Phase.Cq_poll;
  Proc.wait (Params.poll_cycles + Params.ctx_switch_cycles);
  (* a fresh quantum, as for a preempted task switched back in: the
     fetch's wire time was not spent on the CPU *)
  e.quantum_start <- Sim.now t.sim;
  match e.task with
  | Some task -> step_task t e task
  | None -> assert false

(* close the request's queueing interval: from admission (or requeue)
   to the moment a worker takes it *)
let account_dequeue t (w : worker) e =
  ev t Trace_event.Dispatch ~req:e.req.Request.id ~worker:w.wid;
  if t.prof_on then
    match e.req.Request.prof with
    | Some r ->
      Profiler.dequeued r ~busy_wait:(busy_wait_now t)
        ~workers:(Array.length t.workers)
    | None -> ()

(* Work stealing: take the head of the longest sibling queue [q v]
   (FCFS order within the victim) and re-home the entry — a stolen
   resumed request issues its later faults on the thief's QPs and its
   later resumptions land on the thief. The scan costs cycles, and the
   victim may drain its own queue during that wait (the take
   re-checks). *)
let try_steal t (w : worker) q =
  let victim = ref None and best = ref 0 in
  Array.iter
    (fun v ->
      let len = Queue.length (q v) in
      if v.wid <> w.wid && len > !best then begin
        victim := Some v;
        best := len
      end)
    t.workers;
  match !victim with
  | Some v ->
    acct_cpu t ~cpu:w.wid Acct.Dispatch;
    Proc.wait Params.steal_cycles;
    let taken = Queue.take_opt (q v) in
    (match taken with
    | Some e ->
      t.counters.steals <- t.counters.steals + 1;
      e.worker <- Some w
    | None -> ());
    taken
  | None -> None

let rec worker_loop t (w : worker) =
  if not (Queue.is_empty w.ready) then begin
    w.idle <- false;
    let e = Queue.pop w.ready in
    resume_ready t e;
    worker_loop t w
  end
  else
    match w.assigned with
    | Some e ->
      w.idle <- false;
      w.assigned <- None;
      run_entry t w e;
      worker_loop t w
    | None -> (
      match Queue.take_opt w.local with
      | Some e ->
        w.idle <- false;
        account_dequeue t w e;
        run_entry t w e;
        worker_loop t w
      | None -> (
        (* steal queued arrivals first, then resumed requests; ready
           queues fill only under [Yield], so a spinning system finds
           nothing in the second scan *)
        let stealing = t.cfg.Config.dispatch = Config.Work_stealing in
        match
          if stealing then try_steal t w (fun v -> v.local) else None
        with
        | Some e ->
          w.idle <- false;
          account_dequeue t w e;
          run_entry t w e;
          worker_loop t w
        | None -> (
          match
            if stealing then try_steal t w (fun v -> v.ready) else None
          with
          | Some e ->
            w.idle <- false;
            resume_ready t e;
            worker_loop t w
          | None ->
            w.idle <- true;
            Proc.Gate.signal t.dispatch_gate;
            acct_cpu t ~cpu:w.wid Acct.Idle;
            Proc.Gate.await w.gate;
            worker_loop t w)))

(* --- dispatcher ---------------------------------------------------------- *)

(* Algorithm 1: idle workers ordered by outstanding page-fetch count;
   round-robin baseline rotates from the cursor instead. *)
let dispatch_order t =
  let idle =
    Array.to_list t.workers
    |> List.filter (fun w -> w.idle && Option.is_none w.assigned)
  in
  match t.cfg.Config.dispatch with
  | Config.Pf_aware ->
    List.stable_sort (fun a b -> compare (qp_load a) (qp_load b)) idle
  | Config.Round_robin ->
    let n = Array.length t.workers in
    List.stable_sort
      (fun a b ->
        compare ((a.wid - t.rr_cursor + n) mod n) ((b.wid - t.rr_cursor + n) mod n))
      idle
  | Config.Partitioned | Config.Work_stealing ->
    (* these policies never consult the idle order *)
    idle

let assign t (w : worker) e =
  account_dequeue t w e;
  t.rr_cursor <- (w.wid + 1) mod Array.length t.workers;
  w.assigned <- Some e;
  w.idle <- false;
  Proc.Gate.signal w.gate

let rec dispatcher_loop t =
  let dcpu = Array.length t.workers in
  acct_cpu t ~cpu:dcpu Acct.Idle;
  Proc.Gate.await t.dispatch_gate;
  acct_cpu t ~cpu:dcpu Acct.Dispatch;
  (* recycle delegated TX completions first: batched, cheap *)
  while not (Queue.is_empty t.recycle) do
    let buffer = Queue.pop t.recycle in
    Proc.wait Params.recycle_cycles;
    Buffer_pool.free t.buffers buffer
  done;
  (match t.cfg.Config.dispatch with
  | Config.Pf_aware | Config.Round_robin ->
    (* single queue: dispatch to idle workers (Algorithm 1 or RR) *)
    let progress = ref true in
    while !progress && not (Queue.is_empty t.pending) do
      match dispatch_order t with
      | [] -> progress := false
      | order ->
        List.iter
          (fun w ->
            if
              (not (Queue.is_empty t.pending))
              && w.idle
              && Option.is_none w.assigned
            then begin
              let e = Queue.pop t.pending in
              Proc.wait Params.dispatch_cycles;
              assign t w e
            end)
          order
    done
  | Config.Partitioned | Config.Work_stealing ->
    (* d-FCFS: spray arrivals over per-worker queues with no regard for
       their occupancy; rebalancing, if any, is the workers' problem *)
    while not (Queue.is_empty t.pending) do
      let e = Queue.pop t.pending in
      Proc.wait Params.dispatch_cycles;
      let w = t.workers.(t.rr_cursor) in
      t.rr_cursor <- (t.rr_cursor + 1) mod Array.length t.workers;
      Queue.push e w.local;
      Proc.Gate.signal w.gate;
      if t.cfg.Config.dispatch = Config.Work_stealing then
        (* idle siblings may steal this: wake them *)
        Array.iter
          (fun s -> if s.idle && s.wid <> w.wid then Proc.Gate.signal s.gate)
          t.workers
    done);
  dispatcher_loop t

(* --- admission ----------------------------------------------------------- *)

let receive t req =
  if Queue.length t.pending >= t.cfg.Config.central_queue_capacity then begin
    t.counters.drops_queue <- t.counters.drops_queue + 1;
    ev t Trace_event.Req_drop_queue ~req:req.Request.id
  end
  else
    match Buffer_pool.alloc t.buffers with
    | None ->
      t.counters.drops_buffer <- t.counters.drops_buffer + 1;
      ev t Trace_event.Stall_buffer ~req:req.Request.id;
      ev t Trace_event.Req_drop_buffer ~req:req.Request.id
    | Some buffer ->
      req.Request.buffer <- buffer;
      t.counters.admitted <- t.counters.admitted + 1;
      ev t Trace_event.Req_enqueue ~req:req.Request.id;
      (* profiled ⟺ admitted: drops never open attribution state *)
      (match t.prof with
      | Some p ->
        req.Request.prof <-
          Some
            (Profiler.attach p ~id:req.Request.id ~tx_at:req.Request.tx_at
               ~now:(Sim.now t.sim))
      | None -> ());
      let e =
        {
          req;
          task = None;
          detector = Prefetcher.Stride_detector.create ();
          worker = None;
          quantum_start = 0;
          preempted = false;
        }
      in
      note_enqueued t e;
      Queue.push e t.pending;
      Proc.Gate.signal t.dispatch_gate

(* --- construction -------------------------------------------------------- *)

let prefill_pages t =
  (* Warm the cache to its steady-state occupancy: resident up to the
     reclaimer's high watermark of free frames, pages chosen uniformly. *)
  let pages = t.app.App.pages in
  let capacity = Pager.capacity t.pager in
  let high = t.cfg.Config.reclaim_config.Reclaimer.high_watermark in
  let target =
    if capacity >= pages then pages (* whole working set fits: map it all *)
    else capacity - int_of_float (ceil (high *. float_of_int capacity))
  in
  let target = max 0 (min target capacity) in
  if target >= pages then
    Pager.prefill t.pager (List.init pages (fun i -> i))
  else begin
    let chosen = Hashtbl.create (2 * target) in
    let picked = ref 0 in
    while !picked < target do
      let p = Rng.int t.rng pages in
      if not (Hashtbl.mem chosen p) then begin
        Hashtbl.add chosen p ();
        incr picked
      end
    done;
    Pager.prefill t.pager (Hashtbl.fold (fun p () acc -> p :: acc) chosen [])
  end

let evict_page t ~page ~dirty =
  if Bytes.get t.prefetched page = '\001' then begin
    Bytes.set t.prefetched page '\000';
    t.prefetch_stats.Prefetcher.wasted <- t.prefetch_stats.Prefetcher.wasted + 1
  end;
  if dirty then begin
    (* write the page back to every alive replica before dropping it *)
    let bytes = t.app.App.page_size in
    let actor = Trace_event.reclaimer_actor in
    match Cluster.write_targets t.cluster ~page with
    | [] ->
      (* every replica is dead; the copy is gone until re-replication
         (or forever under R = 1) — count it, don't wedge the reclaimer *)
      Cluster.note_lost_write t.cluster
    | targets ->
      List.iter
        (fun node ->
          Memnode.record_write (node_memnode t node) ~bytes;
          let rec try_post () =
            let ok =
              Nic.post t.reclaim_qps.(node) ~opcode:Verbs.Write ~bytes
                ~cq:t.reclaim_cq
                ~user:(fun () ->
                  ev t Trace_event.Rdma_complete ~req:actor ~worker:actor
                    ~page)
            in
            if not ok then begin
              t.counters.writeback_stalls <- t.counters.writeback_stalls + 1;
              ev t Trace_event.Stall_qp ~req:actor ~worker:actor ~page;
              Proc.wait Params.qp_retry_cycles;
              try_post ()
            end
            else ev t Trace_event.Rdma_issue ~req:actor ~worker:actor ~page
          in
          try_post ())
        targets
  end

let create ?(trace = Trace_sink.null) ?prof sim cfg app ~on_reply =
  let arena = Arena.create ~pages:app.App.pages ~page_size:app.App.page_size in
  app.App.build (View.direct arena);
  let capacity =
    max 2 (int_of_float (cfg.Config.local_ratio *. float_of_int app.App.pages))
  in
  let capacity = min capacity app.App.pages in
  let pager = Pager.create ~pages:app.App.pages ~capacity in
  Pager.attach_trace pager trace ~now:(fun () -> Sim.now sim);
  let fault =
    if Injector.enabled cfg.Config.fault then
      Some (Injector.create cfg.Config.fault)
    else None
  in
  (* The cluster owns every memory node — links, NICs, memnodes,
     placement, fault schedules. Node 0 is aliased below so the
     single-node default stays byte-identical (same objects, same
     creation order of schedulable state, zero extra events). *)
  let cluster =
    Cluster.create ~trace ?fault sim cfg.Config.cluster ~pages:app.App.pages
      ~page_size:app.App.page_size ~gbps:Params.link_gbps
      ~wire_overhead:Params.wire_overhead
      ~wqe_overhead_cycles:Params.wqe_overhead_cycles
      ~base_latency_cycles:Params.rdma_base_latency_cycles
      ~qp_depth:cfg.Config.qp_depth
      ~throttle:cfg.Config.fault.Injector.throttle
      ~rereplicate_gap_cycles:Params.rereplicate_gap_cycles
      ~seed:cfg.Config.seed
  in
  (* the placement directory the pager consults on fetch routing *)
  Pager.attach_locator pager (fun page ->
      fst (Cluster.route_read cluster ~page));
  let node0 = (Cluster.nodes cluster).(0) in
  let nic = node0.Cluster.nic in
  let rdma_rx_link = node0.Cluster.rx_link in
  let reply_link = Link.create sim ~gbps:Params.link_gbps ~wire_overhead:Params.wire_overhead () in
  let reply_channel =
    Raw_eth.create sim ~link:reply_link
      ~latency_cycles:Params.eth_latency_cycles
      ~deliver:(fun ~rx_at req ->
        req.Request.done_at <- rx_at;
        on_reply req)
  in
  let rng = Rng.create cfg.Config.seed in
  let cluster_nodes = Cluster.nodes cluster in
  (* QP layout per NIC: worker QPs in wid order, then the reclaim QP —
     node 0 keeps exactly the old single-NIC layout, so the NIC's
     round-robin arbitration replays byte-identically *)
  let workers =
    Array.init cfg.Config.workers (fun wid ->
        let qps =
          Array.map
            (fun nd -> Nic.create_qp nd.Cluster.nic ~depth:cfg.Config.qp_depth)
            cluster_nodes
        in
        let fetch_cq = Verbs.Cq.create () in
        attach_drain fetch_cq;
        {
          wid;
          qps;
          fetch_cq;
          gate = Proc.Gate.create sim;
          ready = Queue.create ();
          local = Queue.create ();
          assigned = None;
          idle = false;
        })
  in
  let reclaim_qps =
    Array.map
      (fun nd -> Nic.create_qp nd.Cluster.nic ~depth:cfg.Config.qp_depth)
      cluster_nodes
  in
  let reclaim_cq = Verbs.Cq.create () in
  attach_drain reclaim_cq;
  let t =
    {
      sim;
      cfg;
      app;
      arena;
      pager;
      cluster;
      nic;
      reclaim_qps;
      reclaim_cq;
      reply_channel;
      rdma_rx_link;
      workers;
      pending = Queue.create ();
      dispatch_gate = Proc.Gate.create sim;
      recycle = Queue.create ();
      buffers = Buffer_pool.create ~count:cfg.Config.buffer_count
          Buffer_pool.unithread_layout;
      prefetched = Bytes.make app.App.pages '\000';
      prefetch_stats = Prefetcher.make_stats ();
      rr_cursor = 0;
      rng;
      reclaimer = None;
      counters =
        {
          admitted = 0;
          drops_queue = 0;
          drops_buffer = 0;
          handled = 0;
          errored = 0;
          faults = 0;
          coalesced = 0;
          qp_stalls = 0;
          preemptions = 0;
          writeback_stalls = 0;
          frame_stalls = 0;
          fetch_timeouts = 0;
          fetch_retries = 0;
          retries_hwm = 0;
          drops_qp = 0;
          steals = 0;
        };
      fault;
      trace;
      trace_on = Trace_sink.enabled trace;
      acct = Acct.create sim ~cpus:(cfg.Config.workers + 1);
      prof;
      prof_on = Option.is_some prof;
    }
  in
  prefill_pages t;
  let reclaimer =
    Reclaimer.start ~trace sim pager cfg.Config.reclaim
      cfg.Config.reclaim_config
      ~evict_page:(fun ~page ~dirty -> evict_page t ~page ~dirty)
  in
  t.reclaimer <- Some reclaimer;
  Proc.spawn sim (fun () -> dispatcher_loop t);
  Array.iter (fun w -> Proc.spawn sim (fun () -> worker_loop t w)) workers;
  (* arm the node crash/slowdown schedules last: a default cluster
     schedules nothing here, preserving byte-identical replay *)
  Cluster.start cluster;
  t

(* --- metrics -------------------------------------------------------------- *)

(* Single registration point for every mutable counter this module owns
   (the metric-registry lint rule checks the [counters] record against
   this binding) plus the occupancy gauges and the subsystem metrics. *)
let register_metrics t reg ~labels =
  let c = t.counters in
  let counter name help read = Registry.counter reg ~name ~help ~labels read in
  let gauge name help read = Registry.gauge reg ~name ~help ~labels read in
  counter "adios_sys_admitted_total" "Requests admitted into the central queue"
    (fun () -> c.admitted);
  counter "adios_sys_drops_queue_total" "Requests dropped: central queue full"
    (fun () -> c.drops_queue);
  counter "adios_sys_drops_buffer_total"
    "Requests dropped: buffer pool exhausted" (fun () -> c.drops_buffer);
  counter "adios_sys_handled_total" "Request handlers run to completion"
    (fun () -> c.handled);
  counter "adios_sys_errored_total"
    "Handlers aborted by fetch-retry exhaustion" (fun () -> c.errored);
  counter "adios_sys_faults_total" "Page faults taken (fetches issued)"
    (fun () -> c.faults);
  counter "adios_sys_coalesced_total" "Faults absorbed by an in-flight fetch"
    (fun () -> c.coalesced);
  counter "adios_sys_qp_stalls_total" "Fault-handler pauses on a full QP"
    (fun () -> c.qp_stalls);
  counter "adios_sys_preemptions_total" "DiLOS-P quantum expirations"
    (fun () -> c.preemptions);
  counter "adios_sys_writeback_stalls_total" "Reclaimer pauses on a full QP"
    (fun () -> c.writeback_stalls);
  counter "adios_sys_frame_stalls_total"
    "Faults that waited for the reclaimer to free a frame" (fun () ->
      c.frame_stalls);
  counter "adios_sys_fetch_timeouts_total"
    "Page fetches declared lost after the timeout" (fun () ->
      c.fetch_timeouts);
  counter "adios_sys_fetch_retries_total" "Fetches reposted after a timeout"
    (fun () -> c.fetch_retries);
  gauge "adios_sys_retries_hwm" "Most reposts any single fetch needed"
    (fun () -> float_of_int c.retries_hwm);
  counter "adios_sys_drops_qp_total"
    "Prefetch posts refused by a full QP" (fun () -> c.drops_qp);
  counter "adios_sys_steals_total"
    "Requests taken from a sibling worker's local or ready queue"
    (fun () -> c.steals);
  gauge "adios_sys_pending_depth" "Requests in the central queue" (fun () ->
      float_of_int (pending_depth t));
  gauge "adios_sys_ready_backlog"
    "Entries across per-worker ready and local queues" (fun () ->
      float_of_int (ready_backlog t));
  gauge "adios_sys_busy_workers" "Workers currently not idle" (fun () ->
      float_of_int (busy_workers t));
  counter "adios_sim_clamped_schedules_total"
    "Past-deadline schedules clamped to now by the engine" (fun () ->
      Sim.clamped_schedules t.sim);
  Nic.register_metrics t.nic reg ~labels;
  Pager.register_metrics t.pager reg ~labels;
  (match t.reclaimer with
  | Some r -> Reclaimer.register_metrics r reg ~labels
  | None -> ());
  Acct.register_metrics t.acct reg ~labels;
  (* cluster series only when the topology is non-trivial, so the
     single-node metrics export stays byte-identical *)
  if Cluster.enabled t.cfg.Config.cluster then
    Cluster.register_metrics t.cluster reg ~labels
