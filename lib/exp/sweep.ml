module Runner = Adios_core.Runner

(* One sweep point, in-process. The App.t is built fresh here so the
   point sees the same state whether it runs inline or in a forked
   worker. [cfg_tweak] rewrites the point's configuration after the spec
   is applied — the hook the bench harness uses for its variants
   (sync-TX, round-robin dispatch, pinned seeds). *)
let run_point ?(cfg_tweak = fun c -> c) ?(profile = false) spec
    (point : Spec.point) =
  Runner.run
    (cfg_tweak (Spec.config spec point))
    (point.Spec.make_app ())
    ~offered_krps:point.Spec.load ~requests:spec.Spec.requests ~profile ()

let point_label (p : Spec.point) =
  Printf.sprintf "%s/%s @ %.0f krps (seed %d)"
    (Adios_core.Config.system_name p.Spec.system)
    p.Spec.app_name p.Spec.load p.Spec.point_seed

(* What a worker ships back over its pipe. Runner.result is plain data
   (records, arrays, floats), so Marshal round-trips it exactly. *)
type outcome = Done of Runner.result | Failed of string

let run_sequential ~cfg_tweak ~profile ~progress spec points =
  List.map
    (fun p ->
      let r = run_point ~cfg_tweak ~profile spec p in
      progress p r;
      (p, r))
    points

(* Process-parallel execution: up to [jobs] forked workers at a time,
   each computing one point and marshalling the result back through a
   pipe. The parent drains pipes in spawn order, which (a) keeps
   collection deterministic and (b) guarantees every pipe is eventually
   read, so a worker blocked on a full pipe buffer always makes
   progress once its turn comes. *)
let run_forked ~jobs ~cfg_tweak ~profile ~progress spec points =
  let n = List.length points in
  let results = Array.make n None in
  let pending = Queue.create () in
  List.iter (fun p -> Queue.push p pending) points;
  let running = Queue.create () in
  let spawn (point : Spec.point) =
    let rfd, wfd = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close rfd;
      let oc = Unix.out_channel_of_descr wfd in
      let outcome =
        match run_point ~cfg_tweak ~profile spec point with
        | r -> Done r
        | exception e -> Failed (Printexc.to_string e)
      in
      Marshal.to_channel oc outcome [];
      flush oc;
      (* _exit, not exit: the child must not run the parent's at_exit
         handlers or flush its inherited channels *)
      Unix._exit 0
    | pid ->
      Unix.close wfd;
      Queue.push (point, pid, Unix.in_channel_of_descr rfd) running
  in
  let kill_running () =
    Queue.iter
      (fun (_, pid, ic) ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        close_in_noerr ic)
      running
  in
  let reap () =
    let point, pid, ic = Queue.pop running in
    let outcome =
      match (Marshal.from_channel ic : outcome) with
      | o -> o
      | exception End_of_file -> Failed "worker exited before reporting"
    in
    close_in_noerr ic;
    ignore (Unix.waitpid [] pid);
    match outcome with
    | Done r ->
      progress point r;
      results.(point.Spec.index) <- Some r
    | Failed msg ->
      kill_running ();
      failwith (Printf.sprintf "sweep point %s: %s" (point_label point) msg)
  in
  while not (Queue.is_empty pending) do
    if Queue.length running >= jobs then reap ();
    spawn (Queue.pop pending)
  done;
  while not (Queue.is_empty running) do
    reap ()
  done;
  List.map
    (fun (p : Spec.point) ->
      match results.(p.Spec.index) with
      | Some r -> (p, r)
      | None -> assert false (* every index was reaped or we raised *))
    points

let run ?(jobs = 1) ?(cfg_tweak = fun c -> c) ?(profile = false)
    ?(progress = fun _ _ -> ()) spec =
  if jobs < 1 then invalid_arg "Sweep.run: jobs < 1";
  let points = Spec.points spec in
  if jobs = 1 then run_sequential ~cfg_tweak ~profile ~progress spec points
  else run_forked ~jobs ~cfg_tweak ~profile ~progress spec points
