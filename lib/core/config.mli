(** Configuration of one system-under-test instance.

    A system is a setting of three orthogonal mechanisms — how a page
    fault waits ({!wait}), whether Concord-style preemption runs
    ([preempt]) and whether faults take a kernel path ([kernel_path]) —
    plus the dispatch, TX and reclaim policies. The five paper systems
    are presets over these fields ({!default}); the simulator never
    branches on a system's name. *)

(** The paper's systems, as names of presets. *)
type system =
  | Dilos  (** busy-waiting page-fault handling (the DiLOS baseline) *)
  | Dilos_p  (** DiLOS plus Concord-style 5 us preemptive scheduling *)
  | Adios  (** yield-based handling with unithreads *)
  | Hermit  (** kernel-based busy-waiting MD *)
  | Steal
      (** Adios on per-CPU run queues with work stealing: the
          distributed-dispatch contrast to the paper's centralized
          Algorithm 1 (cf. the scheduling studies in Atlas and MIND) *)

val system_name : system -> string
(** The result label: ["DiLOS"], ["DiLOS-P"], ["Adios"], ["Hermit"],
    ["Steal"]. *)

val all : system list
(** Every preset, in CLI listing order. *)

val of_name : string -> (system, string) result
(** Parse a CLI system name: the lower-cased label, its hyphen optional
    (["dilos-p"] or ["dilosp"]). The error lists the valid names. *)

(** How a faulting unithread waits for its page. *)
type wait =
  | Spin
      (** busy-wait on the CQE: the worker burns the fetch's round trip
          (DiLOS, DiLOS-P, Hermit) *)
  | Yield
      (** post the READ and switch away; the CQE re-queues the
          unithread on its worker's ready queue (Adios) *)

(** Request dispatching / queueing policy. The first two are single
    (centralized) queue variants; the last two are the designs section
    3.4 argues against, implemented for the comparison. *)
type dispatch =
  | Pf_aware  (** Algorithm 1: idle workers sorted by outstanding fetches *)
  | Round_robin  (** single queue, Shinjuku/Concord baseline *)
  | Partitioned
      (** d-FCFS: arrivals are spread round-robin over per-worker queues
          with no rebalancing (the shared-nothing model of ZygOS' study) *)
  | Work_stealing
      (** per-worker queues; an idle worker scans its siblings and
          steals the head of the longest queue (approximated c-FCFS).
          Once its own queues are empty it also steals a resumed
          unithread from the longest sibling ready queue, re-homing
          it; ready queues fill only under {!Yield} *)

val dispatch_name : dispatch -> string

(** How reply-transmission completions are handled. *)
type tx_mode =
  | Tx_delegated
      (** Adios: the TX CQE is raised on the dispatcher's CQ, which
          recycles the buffer while the worker moves on (Fig. 6) *)
  | Tx_sync_spin
      (** naive design: the worker busy-waits for the TX CQE before
          taking new work (the "without polling delegation" variant of
          Fig. 9) *)
  | Tx_deferred
      (** run-to-completion baselines: the worker fires and forgets;
          completions are reaped lazily off the worker's critical path
          (DiLOS' breakdown in Fig. 2(c) shows no TX wait) *)

(** Remote-page prefetching at the fault handler. *)
type prefetch =
  | No_prefetch
  | Stride of int
      (** Leap-style majority-stride detection per request; on a
          detected stride, issue up to the given number of prefetch
          READs alongside the demand fetch *)

val prefetch_name : prefetch -> string

type t = {
  name : string;  (** result label (CSV, metrics, reports) *)
  wait : wait;  (** page-fault wait: spin or yield *)
  preempt : bool;
      (** Concord-style preemption: handlers probe at checkpoints and
          a unithread that ran past the 5 us quantum is requeued *)
  kernel_path : bool;
      (** faults and request entry go through the kernel: a software
          surcharge per fault plus a per-request entry cost with rare
          jitter (Hermit) *)
  dispatch : dispatch;
  tx_mode : tx_mode;
  prefetch : prefetch;
  workers : int;
  local_ratio : float;  (** local DRAM as a fraction of the working set *)
  qp_depth : int;
  central_queue_capacity : int;
  buffer_count : int;
  reclaim : Adios_mem.Reclaimer.mode;
  reclaim_config : Adios_mem.Reclaimer.config;
  seed : int;
  fault : Adios_fault.Injector.config;
      (** fabric anomaly schedule ({!Adios_fault.Injector.none} = clean
          fabric, the byte-identical default) *)
  fetch_timeout : int;
      (** cycles before an unanswered page fetch is declared lost and
          reposted; 0 disables recovery (a lost completion then wedges —
          only safe with a clean fabric). Doubles per retry up to 64x. *)
  fetch_retries : int;
      (** reposts allowed per fetch before the request completes with an
          error reply *)
  cluster : Adios_cluster.Cluster.config;
      (** memory-node topology ({!Adios_cluster.Cluster.default} = one
          node, R = 1 — the byte-identical single-node system) *)
}

val default : system -> t
(** The paper's standard setup for [system]: 8 workers, 20% local DRAM.
    The preset table:

    {v
    preset   wait   preempt  kernel_path  dispatch       tx_mode    reclaim
    DiLOS    Spin   -        -            Round_robin    deferred   wakeup
    DiLOS-P  Spin   yes      -            Round_robin    deferred   wakeup
    Hermit   Spin   -        yes          Round_robin    deferred   wakeup
    Adios    Yield  -        -            Pf_aware       delegated  proactive
    Steal    Yield  -        -            Work_stealing  delegated  proactive
    v} *)

val validate : t -> unit
(** Reject a configuration no run can mean: [workers], [qp_depth],
    [buffer_count] or [central_queue_capacity] below 1, [local_ratio]
    outside [[0, 1]], a negative [fetch_timeout] or [fetch_retries],
    or [Stride d] with [d < 1]. Called by {!Runner.run}.

    @raise Invalid_argument naming the offending field. *)
