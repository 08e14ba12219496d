(* Zero-allocation manifest: the functions the [zero-alloc] typed rule
   walks. These are the simulator's steady-state hot paths — the
   per-event and per-completion code the paper's microsecond budget
   lives in. The engine's benchmarks (BENCH.md) and the differential
   proof in test_engine_diff pin their behaviour; this manifest pins
   their allocation profile, so a refactor that quietly re-introduces a
   closure or a boxed option per event is a lint finding, not a silent
   throughput regression.

   Names are dotted toplevel paths within the file ([Cq.push] is
   [let push] inside [module Cq]). [cold] lists the callees the
   one-level descent must not follow: deliberate slow paths (capacity
   growth, error reporting) that allocate by design and are amortised
   or unreachable in steady state.

   The frozen boxed-record oracle the flat-array heap is differentially
   tested against lives in [test/heap_reference.ml], outside the
   linted tree: allocating is its whole point. *)

type entry = {
  file : string;  (** repo-relative source path *)
  functions : string list;
      (** dotted toplevel names that must not allocate *)
  cold : string list;
      (** direct callees exempt from descent: slow paths that allocate
          by design *)
}

let manifest =
  [
    { file = "lib/engine/sim.ml";
      functions =
        [
          (* public scheduling surface *)
          "schedule";
          "schedule_at";
          "timer_at";
          "timer_after";
          "cancel";
          "timer_pending";
          "step";
          "run";
          "run_until";
          (* internals the surface bottoms out in *)
          "add_event";
          "alloc_cell";
          "free_cell";
          "cell_dead";
          "wheel_add";
          "wheel_unlink_head";
          "wheel_scan";
          "wheel_peek";
          "heap_push";
          "heap_pop_top";
          "heap_top";
        ];
      cold = [ "grow_pool"; "heap_grow" ];
    };
    { file = "lib/engine/heap.ml";
      functions =
        [
          "push";
          "pop_into";
          "top_time";
          "top_seq";
          "popped_time";
          "popped_seq";
          "popped_value";
        ];
      (* [pop] is the boxed compat shim over [pop_into]; steady-state
         callers use [pop_into] + the scalar accessors. *)
      cold = [ "grow" ];
    };
    { file = "lib/rdma/verbs.ml";
      functions = [ "Cq.push"; "Cq.drain" ];
      cold = [ "Cq.grow" ];
    };
    { file = "lib/rdma/nic.ml";
      (* the in-order delivery path every completion takes; out-of-order
         parking ([stalled]) pays a closure by design and is not listed *)
      functions = [ "deliver_wr" ];
      cold = [];
    };
    { file = "lib/apps/kvstore.ml";
      (* the memcached GET by key index (once per request) and the
         dataset build loop (once per key, before every experiment
         point): the key is hashed and compared where it lies, never
         materialised. [create] allocates the store and the build's
         reused key and value buffers by design and is not listed. *)
      functions =
        [
          "get_index";
          "probe_index";
          "bcd";
          "digit";
          "hash_index";
          "hash_digits";
          "hash_tail";
          "key_matches";
          "digits_match";
          "read_len";
          "fill";
          "empty_slot";
          "write_digits";
        ];
      cold = [];
    };
    { file = "lib/apps/array_bench.ml";
      (* the array build loop: one unboxed store per slot *)
      functions = [ "fill"; "value_of_index" ];
      cold = [];
    };
  ]

let entry_for file =
  List.find_opt (fun e -> String.equal e.file file) manifest
