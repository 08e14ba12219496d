(* In-memory span recorder for the traced run. A span is opened around
   a call into one layer's public function and closed when it returns;
   the open spans form a stack, so a span's parent is whatever was open
   when it started. Each span also carries the allocation (Gc counters)
   that happened inside it. Spans are only kept in memory and written
   out when the benchmark ends.

   [null] records nothing: the untraced runs use it, so their timings
   carry no recording cost. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  point : int option;  (** workload point the span belongs to *)
  start : float;  (** host seconds *)
  stop : float;
  minor_words : float;
  major_words : float;
}

type frame = {
  f_id : int;
  f_name : string;
  f_parent : int option;
  f_point : int option;
  f_start : float;
  f_minor : float;
  f_major : float;
}

type t = {
  enabled : bool;
  clock : unit -> float;
  words : unit -> float * float;  (** (minor, major) words so far *)
  mutable next : int;
  mutable stack : frame list;
  mutable closed : span list;
}

let gc_words () =
  let minor, _promoted, major = Gc.counters () in
  (minor, major)

let create ?(clock = Unix.gettimeofday) ?(words = gc_words) () =
  { enabled = true; clock; words; next = 0; stack = []; closed = [] }

let null =
  {
    enabled = false;
    clock = (fun () -> 0.);
    words = (fun () -> (0., 0.));
    next = 0;
    stack = [];
    closed = [];
  }

let enabled t = t.enabled

let enter t ?point name =
  if t.enabled then begin
    let parent, inherited =
      match t.stack with
      | [] -> (None, None)
      | f :: _ -> (Some f.f_id, f.f_point)
    in
    let point = match point with Some _ -> point | None -> inherited in
    let minor, major = t.words () in
    let f =
      {
        f_id = t.next;
        f_name = name;
        f_parent = parent;
        f_point = point;
        f_start = t.clock ();
        f_minor = minor;
        f_major = major;
      }
    in
    t.next <- t.next + 1;
    t.stack <- f :: t.stack
  end

let leave t =
  if t.enabled then
    match t.stack with
    | [] -> invalid_arg "Spans.leave: no open span"
    | f :: rest ->
      let stop = t.clock () in
      let minor, major = t.words () in
      t.stack <- rest;
      t.closed <-
        {
          id = f.f_id;
          name = f.f_name;
          parent = f.f_parent;
          point = f.f_point;
          start = f.f_start;
          stop;
          minor_words = minor -. f.f_minor;
          major_words = major -. f.f_major;
        }
        :: t.closed

let with_span t ?point name f =
  enter t ?point name;
  Fun.protect ~finally:(fun () -> leave t) f

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed

let duration s = s.stop -. s.start

(* A span's self time: its duration minus its children's (children
   never overlap on one stack). *)
let self_time all s =
  List.fold_left
    (fun acc c -> if c.parent = Some s.id then acc -. duration c else acc)
    (duration s) all

(* Self time and self allocation summed per span name, in first-seen
   order: the per-layer table. Self allocation subtracts the children's
   words the same way. *)
type layer = { layer : string; count : int; self_s : float; self_words : float }

let by_name all =
  let words s = s.minor_words +. s.major_words in
  let child_words s =
    List.fold_left
      (fun acc c -> if c.parent = Some s.id then acc +. words c else acc)
      0. all
  in
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let self = self_time all s and w = words s -. child_words s in
      match Hashtbl.find_opt tbl s.name with
      | None ->
        order := s.name :: !order;
        Hashtbl.replace tbl s.name
          { layer = s.name; count = 1; self_s = self; self_words = w }
      | Some l ->
        Hashtbl.replace tbl s.name
          {
            l with
            count = l.count + 1;
            self_s = l.self_s +. self;
            self_words = l.self_words +. w;
          })
    all;
  List.rev_map (Hashtbl.find tbl) !order

let to_json all =
  let opt = function None -> Json.Null | Some i -> Json.Int i in
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("name", Json.String s.name);
             ("parent", opt s.parent);
             ("point", opt s.point);
             ("start", Json.Float s.start);
             ("end", Json.Float s.stop);
             ("self_s", Json.Float (self_time all s));
             ("minor_words", Json.Float s.minor_words);
             ("major_words", Json.Float s.major_words);
           ])
       all)
