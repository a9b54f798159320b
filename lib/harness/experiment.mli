(** Running the four reduction strategies on corpus instances.

    Time is reported on a documented simulated clock: every underlying
    predicate execution (decompile + recompile of the candidate sub-pool)
    costs [base + rate × bytes] simulated seconds, mimicking the paper's
    setup where each cycle took tens of seconds on real decompilers.  Wall
    clock is recorded separately (our simulated tools are fast; the paper's
    were the bottleneck). *)

open Lbr_jvm

type strategy = Jreduce | Lossy_first | Lossy_last | Gbr

val strategy_name : strategy -> string
val all_strategies : strategy list

type outcome = {
  instance_id : string;
  strategy : strategy;
  ok : bool;  (** the final sub-input still produces the full error set *)
  sim_time : float;  (** simulated seconds spent in predicate runs *)
  wall_time : float;
  predicate_runs : int;
  replayed_runs : int;
      (** predicate runs answered by [hooks.evaluate] returning [Replayed]
          (e.g. the server's journal replay); always 0 without hooks *)
  classes0 : int;
  classes1 : int;
  bytes0 : int;
  bytes1 : int;
  items0 : int;
  items1 : int;
  lines0 : int;
  lines1 : int;
  timeline : (float * int * int) list;
      (** (simulated time, best classes, best bytes) at each improvement,
          oldest first; implicitly starts at (0, classes0, bytes0) *)
}

val default_cost : Classpool.t -> float
(** [1.0 + 4e-4 × bytes] simulated seconds per decompile+recompile — the
    cost every run charges. *)

exception Cancelled
(** Raised out of a run when [hooks.should_stop] returns [true].  It is
    {!Lbr_frontend.Run.Cancelled} itself, and [evaluation] and [hooks] are
    Run's types re-exported: the JVM driver here and the generic frontend
    driver share one hook surface, so a caller builds the same hooks and
    catches the same exception for either. *)

type evaluation = Lbr_frontend.Run.evaluation = Fresh of bool | Replayed of bool
(** How a hooked predicate evaluation was answered: by actually running the
    tool ([Fresh]) or from a replayed/memoized source ([Replayed]). *)

type hooks = Lbr_frontend.Run.hooks = {
  on_improvement : (float -> int -> int -> unit) option;
      (** called with (simulated time, classes, bytes) at every timeline
          improvement — how the server streams progress *)
  should_stop : (unit -> bool) option;
      (** polled before every predicate run; [true] raises {!Cancelled} *)
  evaluate : (key:string -> (unit -> bool) -> evaluation) option;
      (** full interception of the tool run.  [key] is the hex digest of the
          candidate sub-pool's serialized bytes (stable across processes, so
          it can key a write-ahead journal); the thunk performs the real
          decompile+recompile check.  The simulated clock has already been
          charged when this is called, so replaying a memoized result keeps
          [sim_time] — and hence the whole outcome — identical to a cold
          run. *)
  peek : (key:string -> bool option) option;
      (** non-executing verdict lookup (e.g. into a replay journal), used
          to gate speculative launches: an assignment whose verdict is
          already known is never executed speculatively, so speculation
          adds no fresh executions to a replayed workload *)
}

val default_hooks : hooks
(** All fields [None]: exactly the unhooked behaviour. *)

val run : strategy -> Corpus.instance -> outcome

val run_with :
  ?hooks:hooks ->
  ?speculate:Lbr_runtime.Pool.t ->
  strategy ->
  Corpus.instance ->
  outcome * Classpool.t
(** Like {!run} but also returns the final reduced pool (what the server
    serializes back to the client), and threads [hooks] through the
    driver.  [run] is [fst ∘ run_with ~hooks:default_hooks].

    [~speculate] (GBR only; the baselines ignore it) pipelines the
    reduction loop over the given worker pool via {!Lbr.Speculate}: probes
    and next-iteration builds for both branches of each pending verdict
    run speculatively, with the losing branch cancelled when the verdict
    lands.  Every outcome field except [wall_time] is byte-identical to
    the sequential run.  Requires a fault-free tool (speculative workers execute the tool directly; with
    {!Lbr_decompiler.Tool.Faults} injection the shared fault schedule's
    draw order — hence byte-identity — is no longer guaranteed). *)

val run_corpus :
  ?jobs:int ->
  strategy ->
  Corpus.instance list ->
  outcome list
(** Run one strategy over a list of instances, fanning them across a
    [Lbr_runtime.Pool] of [jobs] worker domains ([jobs] defaults to [1],
    which is exactly the sequential [List.map] over {!run}).  Outcomes come
    back in instance order, and every field except [wall_time] is
    deterministic — identical for any [jobs] — because instances share no
    mutable state (the global pattern memo caches are mutex-guarded and
    pure in their keys). *)

val run_corpus_full :
  ?jobs:int ->
  ?hooks:(Corpus.instance -> hooks) ->
  ?speculate:Lbr_runtime.Pool.t ->
  strategy ->
  Corpus.instance list ->
  (outcome * Classpool.t) list
(** [run_corpus] that also returns each instance's final reduced pool and
    lets the caller attach per-instance hooks (the CLI uses [should_stop]
    for graceful SIGINT/SIGTERM drain).  A {!Cancelled} raised by any
    instance propagates after in-flight instances finish.  [~speculate]
    is threaded to {!run_with} per instance — pair it with [jobs = 1]
    (intra-instance parallelism from the speculation pool replaces
    cross-instance fan-out). *)
