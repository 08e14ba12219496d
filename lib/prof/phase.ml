(* The exact, non-overlapping phase segmentation of a request's
   end-to-end latency. Every admitted request is, at any simulated
   instant between its client TX timestamp and its reply RX timestamp,
   in exactly one of these phases; the profiler closes the current
   segment at each transition, so per-request phase cycles telescope to
   end-to-end latency by construction (the invariant test_prof qchecks
   across systems, faults and cluster topologies).

   The variants deliberately mirror the paper's latency anatomy: the
   busy-wait baselines burn their tails in [Busy_wait] and [Queue]
   (head-of-line blocking behind spinning workers), while Adios's tails
   reduce to the irreducible [Fetch_wire] time plus scheduling
   ([Steal_wait]/[Cq_poll]) overhead — the contrast the tail-attribution
   oracle in lib/exp/oracle.ml gates. *)

type t =
  | Req_wire  (* client -> server wire + NIC RX, TX stamp to admission *)
  | Queue  (* central or per-CPU queue wait until a worker switches in *)
  | Ctx_switch  (* unithread create + switch-in (and kernel entry costs) *)
  | App_compute  (* the handler's own computation *)
  | Pf_software  (* page-fault software path: detect, map, prefetch *)
  | Busy_wait  (* a worker spinning on a fetch or TX completion *)
  | Fetch_wire  (* yielded with the page fetch in flight on the wire *)
  | Retry_backoff  (* fetch declared lost, waiting on the repost ladder *)
  | Failover_wait  (* fetch rerouted to a surviving replica after a crash *)
  | Steal_wait  (* resumed-ready wait until a (possibly stealing) worker *)
  | Cq_poll  (* completion poll + switch-back on the resuming worker *)
  | Tx  (* reply post, TX completion handling and reply wire time *)

let count = 12

let all =
  [
    Req_wire; Queue; Ctx_switch; App_compute; Pf_software; Busy_wait;
    Fetch_wire; Retry_backoff; Failover_wait; Steal_wait; Cq_poll; Tx;
  ]

(* Dense index for per-request cycle arrays; the order is frozen by the
   CSV column layout (export.ml) and the folded-stack frames. *)
let index = function
  | Req_wire -> 0
  | Queue -> 1
  | Ctx_switch -> 2
  | App_compute -> 3
  | Pf_software -> 4
  | Busy_wait -> 5
  | Fetch_wire -> 6
  | Retry_backoff -> 7
  | Failover_wait -> 8
  | Steal_wait -> 9
  | Cq_poll -> 10
  | Tx -> 11

(* The name table: snake_case identifiers shared by the breakdown CSV
   column suffixes, the OpenMetrics [phase] label values and the folded
   flamegraph frames, so the three expositions cannot drift apart. The
   phase-wiring lint rule checks every constructor reaches this table,
   the CSV columns and the metric exposition. *)
let name = function
  | Req_wire -> "req_wire"
  | Queue -> "queue"
  | Ctx_switch -> "ctx_switch"
  | App_compute -> "app_compute"
  | Pf_software -> "pf_software"
  | Busy_wait -> "busy_wait"
  | Fetch_wire -> "fetch_wire"
  | Retry_backoff -> "retry_backoff"
  | Failover_wait -> "failover_wait"
  | Steal_wait -> "steal_wait"
  | Cq_poll -> "cq_poll"
  | Tx -> "tx"

(* One request-state change moves both views: the request's phase and,
   for on-CPU phases, the serving CPU's accounting state. *)
let cpu_state = function
  | Req_wire | Queue | Fetch_wire | Retry_backoff | Failover_wait
  | Steal_wait ->
    None
  | Ctx_switch -> Some Adios_obs.Accountant.Ctx_switch
  | App_compute -> Some Adios_obs.Accountant.App_compute
  | Pf_software -> Some Adios_obs.Accountant.Pf_software
  | Busy_wait -> Some Adios_obs.Accountant.Busy_wait
  | Cq_poll -> Some Adios_obs.Accountant.Cq_poll
  | Tx -> Some Adios_obs.Accountant.Tx
