(* Outside-in span recorder for the traced run.

   The benchmark wraps its own calls into each library's public functions
   in [span]; nothing inside the program is instrumented.  A span's self
   time is its duration minus the time its children cover, accumulated per
   span name — the per-layer busy time of the ledger.  Durations the
   program reports about itself (a daemon's [Wire.stats.wall_time]) enter
   through [charge], as a child of the open span.

   Single-threaded by design: every traced call is made from the main
   thread, in one process, with one worker domain on the program side. *)

type frame = { f_id : int; f_name : string; f_start : float; mutable f_child : float }

type span = { id : int; parent : int; name : string; start : float; stop : float }

type layer = { mutable self : float; mutable total : float }

let enabled = ref false
let stack : frame list ref = ref []
let next_id = ref 0
let recorded : span list ref = ref []
let layers : (string, layer) Hashtbl.t = Hashtbl.create 32

let now = Unix.gettimeofday

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l = { self = 0.; total = 0. } in
      Hashtbl.add layers name l;
      l

let add_to_parent d = match !stack with p :: _ -> p.f_child <- p.f_child +. d | [] -> ()

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p.f_id | [] -> -1 in
    let fr = { f_id = id; f_name = name; f_start = now (); f_child = 0. } in
    stack := fr :: !stack;
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        stack := List.tl !stack;
        let d = stop -. fr.f_start in
        let l = layer fr.f_name in
        l.self <- l.self +. (d -. fr.f_child);
        l.total <- l.total +. d;
        add_to_parent d;
        recorded := { id; parent; name; start = fr.f_start; stop } :: !recorded)
  end

(* A duration measured by the program itself, attributed to [name] and
   subtracted from the enclosing span's self time. *)
let charge name seconds =
  if !enabled then begin
    let l = layer name in
    l.self <- l.self +. seconds;
    l.total <- l.total +. seconds;
    add_to_parent seconds
  end

let self_time name = match Hashtbl.find_opt layers name with Some l -> l.self | None -> 0.
let total name = match Hashtbl.find_opt layers name with Some l -> l.total | None -> 0.

(* Chrome trace-event JSON, one complete event per span, written once at
   the end of the run so the file I/O never lands inside a timed window. *)
let write_chrome path =
  let oc = open_out path in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity !recorded in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent)
    (List.rev !recorded);
  output_string oc "]}\n";
  close_out oc
