type system = Dilos | Dilos_p | Adios | Hermit | Steal

let system_name = function
  | Dilos -> "DiLOS"
  | Dilos_p -> "DiLOS-P"
  | Adios -> "Adios"
  | Hermit -> "Hermit"
  | Steal -> "Steal"

let all = [ Adios; Dilos; Dilos_p; Hermit; Steal ]

(* CLI spelling: the lower-cased label, its hyphen optional *)
let cli_name s = String.lowercase_ascii (system_name s)

let of_name name =
  let matches s =
    let n = cli_name s in
    String.equal name n
    || String.equal name (String.concat "" (String.split_on_char '-' n))
  in
  match List.find_opt matches all with
  | Some s -> Ok s
  | None ->
    Error
      (Printf.sprintf "unknown system %S (valid: %s)" name
         (String.concat ", " (List.map cli_name all)))

type wait = Spin | Yield

type dispatch = Pf_aware | Round_robin | Partitioned | Work_stealing

type tx_mode = Tx_delegated | Tx_sync_spin | Tx_deferred

type prefetch = No_prefetch | Stride of int

let prefetch_name = function
  | No_prefetch -> "off"
  | Stride d -> Printf.sprintf "stride(%d)" d

let dispatch_name = function
  | Pf_aware -> "PF-Aware"
  | Round_robin -> "RR"
  | Partitioned -> "Partitioned"
  | Work_stealing -> "Work-Stealing"

type t = {
  name : string;
  wait : wait;
  preempt : bool;
  kernel_path : bool;
  dispatch : dispatch;
  tx_mode : tx_mode;
  prefetch : prefetch;
  workers : int;
  local_ratio : float;
  qp_depth : int;
  central_queue_capacity : int;
  buffer_count : int;
  reclaim : Adios_mem.Reclaimer.mode;
  reclaim_config : Adios_mem.Reclaimer.config;
  seed : int;
  fault : Adios_fault.Injector.config;
  fetch_timeout : int;
  fetch_retries : int;
  cluster : Adios_cluster.Cluster.config;
}

(* The preset table: each system is a setting of the mechanism fields
   over one shared base. *)
let default system =
  let spin =
    {
      name = system_name system;
      wait = Spin;
      preempt = false;
      kernel_path = false;
      dispatch = Round_robin;
      tx_mode = Tx_deferred;
      prefetch = No_prefetch;
      workers = Params.workers;
      local_ratio = 0.20;
      qp_depth = Params.qp_depth;
      central_queue_capacity = Params.central_queue_capacity;
      buffer_count = Params.buffer_count;
      reclaim = Adios_mem.Reclaimer.Wakeup;
      reclaim_config = Adios_mem.Reclaimer.default_config;
      seed = 42;
      fault = Adios_fault.Injector.none;
      fetch_timeout = 0;
      fetch_retries = 3;
      cluster = Adios_cluster.Cluster.default;
    }
  in
  let yield =
    {
      spin with
      wait = Yield;
      dispatch = Pf_aware;
      tx_mode = Tx_delegated;
      reclaim = Adios_mem.Reclaimer.Proactive;
    }
  in
  match system with
  | Dilos -> spin
  | Dilos_p -> { spin with preempt = true }
  | Hermit -> { spin with kernel_path = true }
  | Adios -> yield
  | Steal -> { yield with dispatch = Work_stealing }

let validate t =
  let require ok field range =
    if not ok then
      invalid_arg (Printf.sprintf "Config.validate: %s must be %s" field range)
  in
  require (t.workers >= 1) "workers" "at least 1";
  require (t.qp_depth >= 1) "qp_depth" "at least 1";
  require (t.buffer_count >= 1) "buffer_count" "at least 1";
  require (t.central_queue_capacity >= 1) "central_queue_capacity"
    "at least 1";
  require
    (t.local_ratio >= 0. && t.local_ratio <= 1.)
    "local_ratio" "in [0, 1]";
  require (t.fetch_timeout >= 0) "fetch_timeout" "non-negative";
  require (t.fetch_retries >= 0) "fetch_retries" "non-negative";
  match t.prefetch with
  | Stride d -> require (d >= 1) "prefetch" "Stride d with d >= 1"
  | No_prefetch -> ()
