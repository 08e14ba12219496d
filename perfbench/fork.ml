(* Run a thunk in a forked child and bring its (plain-data) result back
   through a pipe. Every measured repetition runs in a fresh child: its
   heap starts from the same small parent, so peak heap and allocation
   are those of that repetition alone, and one repetition's garbage
   never slows the next. The parent always reaps the child. *)

let run (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let rfd, wfd = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rfd;
    let oc = Unix.out_channel_of_descr wfd in
    let outcome : ('a, string) result =
      match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
    in
    (try
       Marshal.to_channel oc outcome [];
       flush oc
     with _ -> ());
    (* _exit: the child must not run the parent's at_exit handlers or
       flush channels it inherited *)
    Unix._exit 0
  | pid ->
    Unix.close wfd;
    let ic = Unix.in_channel_of_descr rfd in
    let outcome : ('a, string) result =
      match Marshal.from_channel ic with
      | o -> o
      | exception End_of_file -> Error "child exited without a result"
    in
    close_in_noerr ic;
    let rec reap () =
      match Unix.waitpid [] pid with
      | _, status -> status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    match (outcome, reap ()) with
    | Ok v, Unix.WEXITED 0 -> Ok v
    | Error msg, _ -> Error msg
    | Ok _, _ -> Error "child failed after reporting"
