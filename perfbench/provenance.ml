(* Where a result came from: host, toolchain, parallelism and source
   revision. Every result the benchmark prints carries this record, so
   numbers taken at different job counts or on different backends are
   never compared by accident. *)

(* The first line [cmd] prints, or None when it fails or prints
   nothing. The shell runs it and is waited for. *)
let first_line cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l when String.trim l <> "" -> Some (String.trim l)
  | _ -> None

(* CPUs this process may run on, as coreutils' [nproc] counts them; the
   runtime's own estimate when [nproc] is unavailable. *)
let nproc () =
  match Option.bind (first_line "nproc") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

(* Commit of the source tree at [root], or "none" when it is not a git
   checkout (an exported source tree has no .git). *)
let commit ~root =
  if not (Sys.file_exists (Filename.concat root ".git")) then "none"
  else
    Option.value ~default:"unknown"
      (first_line ("git -C " ^ Filename.quote root ^ " rev-parse HEAD"))

type t = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  nproc : int;
  jobs : int;
  backend : string;  (** "fork" for Sweep.run's default, else "inline" *)
  ocaml : string;
  word_size : int;
  commit : string;
}

let to_json p =
  Json.Obj
    [
      ("workload", Json.String p.workload);
      ("seed", Json.Int p.seed);
      ("seconds", Json.Int p.seconds);
      ("trace", Json.Bool p.trace);
      ("nproc", Json.Int p.nproc);
      ("jobs", Json.Int p.jobs);
      ("backend", Json.String p.backend);
      ("ocaml", Json.String p.ocaml);
      ("word_size", Json.Int p.word_size);
      ("commit", Json.String p.commit);
    ]
