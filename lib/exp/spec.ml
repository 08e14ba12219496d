module Config = Adios_core.Config
module App = Adios_core.App
module Clock = Adios_engine.Clock
module Rng = Adios_engine.Rng
module Injector = Adios_fault.Injector
module Cluster = Adios_cluster.Cluster

type t = {
  name : string;
  systems : Config.system list;
  apps : (string * (unit -> App.t)) list;
  loads : float list;
  requests : int;
  seed : int;
  fault : Injector.config;
  fetch_timeout_us : float;
  fetch_retries : int;
  local_ratio : float option;
  workers : int option;
  clusters : Cluster.config list;
}

type point = {
  index : int;
  system : Config.system;
  app_name : string;
  make_app : unit -> App.t;
  load : float;
  point_seed : int;
  cluster : Cluster.config;
}

let seed_bound = 0x3FFF_FFFF

(* Per-point seed: keyed by (sweep seed, point index) alone, so any
   subset of points replays with the seeds of the full sweep no matter
   which worker process runs it, or in what order. The sweep seed is
   first mixed through the splitmix chain so that sweeps with adjacent
   seeds do not produce adjacent point keys. *)
let point_seed ~seed ~index =
  let key = Rng.int (Rng.create seed) seed_bound + index in
  Rng.int (Rng.create key) seed_bound

let make ?(systems = [ Config.Hermit; Config.Dilos; Config.Dilos_p; Config.Adios ])
    ?(apps = [ "array" ]) ?(loads = [ 1000. ]) ?(requests = 4000) ?(seed = 42)
    ?(fault = Injector.none) ?(fetch_timeout_us = 50.) ?(fetch_retries = 3)
    ?local_ratio ?workers ?(clusters = [ Cluster.default ]) ~name () =
  if requests < 1 then invalid_arg "Spec.make: requests must be at least 1";
  if List.exists (fun l -> not (l > 0.)) loads then
    invalid_arg "Spec.make: loads must be positive";
  let apps =
    List.map
      (fun n ->
        match Adios_apps.Registry.find n with
        | Some make -> (n, make)
        | None -> invalid_arg ("Spec.make: " ^ Adios_apps.Registry.unknown n))
      apps
  in
  {
    name;
    systems;
    apps;
    loads;
    requests;
    seed;
    fault;
    fetch_timeout_us;
    fetch_retries;
    local_ratio;
    workers;
    clusters;
  }

let clustered spec = List.exists Cluster.enabled spec.clusters

(* App-major, then system, then cluster, then load: each
   (app, system, cluster) series is a contiguous ascending-load block,
   the shape the figure oracles read. *)
let points spec =
  let index = ref (-1) in
  List.concat_map
    (fun (app_name, make_app) ->
      List.concat_map
        (fun system ->
          List.concat_map
            (fun cluster ->
              List.map
                (fun load ->
                  incr index;
                  {
                    index = !index;
                    system;
                    app_name;
                    make_app;
                    load;
                    point_seed = point_seed ~seed:spec.seed ~index:!index;
                    cluster;
                  })
                spec.loads)
            spec.clusters)
        spec.systems)
    spec.apps

let config spec point =
  let cfg = Config.default point.system in
  let cfg =
    match spec.local_ratio with
    | None -> cfg
    | Some local_ratio -> { cfg with Config.local_ratio }
  in
  let cfg =
    match spec.workers with
    | None -> cfg
    | Some workers -> { cfg with Config.workers }
  in
  {
    cfg with
    Config.seed = point.point_seed;
    fault = spec.fault;
    cluster = point.cluster;
    (* recovery is armed on a faulty fabric or a crashing cluster — a
       dead node's fetches only resolve through the timeout ladder;
       clean sweeps stay byte-identical to builds without the injector *)
    fetch_timeout =
      (if Injector.enabled spec.fault || point.cluster.Cluster.crashes > 0
       then Clock.of_us spec.fetch_timeout_us
       else 0);
    fetch_retries = spec.fetch_retries;
  }

let point_count spec =
  List.length spec.apps * List.length spec.systems
  * List.length spec.clusters * List.length spec.loads

(* --- canonical reduced-scale specs (the golden tier) ------------------- *)

(* The grids bracket every system's P99.9 knee at 4000 requests: the
   lowest point is the low-load baseline, the highest sits past the
   collapse of the strongest system (Adios), so the knee oracle resolves
   a finite knee for all four systems. Golden CSVs under test/golden/
   are regenerated from these exact specs (adios_sweep --regen-golden);
   edit them only together with the goldens. *)

let reduced_array =
  make ~name:"array-reduced"
    ~loads:[ 200.; 600.; 1000.; 1300.; 1600.; 2000.; 2400.; 2700. ]
    ()

let reduced_memcached =
  make ~name:"memcached-reduced" ~apps:[ "memcached" ]
    ~loads:[ 150.; 300.; 500.; 700.; 850.; 1000.; 1150. ]
    ()

let reduced_rocksdb_scan =
  (* 200 krps is deliberately absent: DiLOS-P's P99.9 there sits within
     2% of the knee threshold, too fragile a boundary to freeze *)
  make ~name:"rocksdb-scan-reduced" ~apps:[ "rocksdb-scan" ]
    ~loads:[ 50.; 100.; 150.; 250.; 300.; 400.; 500. ]
    ()

let reduced = [ reduced_array; reduced_memcached; reduced_rocksdb_scan ]

(* Cluster golden: Adios on the array app at a single sub-knee load,
   over the topology grid nodes x replication x crashes. The crash
   lands at 1 ms — inside the measurement window of a 4000-request run
   at 1000 krps — so the failover path is exercised mid-measurement.
   The failover oracle pairs each crash row with its no-crash twin:
   R = 2 must ride through with zero errored requests, R = 1 must
   surface errors. *)
let cluster_reduced =
  let topo ~nodes ~replication ~crashes =
    {
      Cluster.default with
      Cluster.nodes;
      replication;
      crashes;
      crash_at_us = 1000.;
    }
  in
  make ~name:"cluster-reduced" ~systems:[ Config.Adios ] ~loads:[ 1000. ]
    ~clusters:
      [
        topo ~nodes:2 ~replication:1 ~crashes:0;
        topo ~nodes:2 ~replication:1 ~crashes:1;
        topo ~nodes:2 ~replication:2 ~crashes:0;
        topo ~nodes:2 ~replication:2 ~crashes:1;
        topo ~nodes:4 ~replication:1 ~crashes:0;
        topo ~nodes:4 ~replication:1 ~crashes:1;
        topo ~nodes:4 ~replication:2 ~crashes:0;
        topo ~nodes:4 ~replication:2 ~crashes:1;
      ]
    ()

(* Steal golden: the distributed-dispatch contrast. Adios's centralized
   PF-aware queue vs the Steal variant's per-CPU run queues with idle
   CPUs stealing both queued arrivals and blocked-then-resumed requests,
   at double the standard core count — where a centralized queue is
   most stressed and stealing has the most siblings to scan. The grid
   brackets both systems' knees; the steal bundle additionally gates
   that Steal actually steals and that its tail stays within a
   documented factor of Adios's (see Oracle.check_steal). *)
let steal_reduced =
  make ~name:"steal-reduced" ~systems:[ Config.Adios; Config.Steal ]
    ~workers:16
    ~loads:[ 400.; 1200.; 2000.; 2800.; 3600.; 4400.; 5200. ]
    ()

let all_goldens = reduced @ [ cluster_reduced; steal_reduced ]

let reduced_by_name name =
  List.find_opt (fun s -> String.equal s.name name) all_goldens
