type spec = { kind : int; key : int; req_bytes : int; reply_bytes : int }

type t = {
  id : int;
  spec : spec;
  tx_at : int;
  mutable done_at : int;
  mutable buffer : int;
  mutable errored : bool;
  mutable prof : Adios_prof.Profiler.req option;
}

let make ~id ~spec ~tx_at =
  {
    id;
    spec;
    tx_at;
    done_at = 0;
    buffer = -1;
    errored = false;
    prof = None;
  }

let e2e_latency t = t.done_at - t.tx_at
