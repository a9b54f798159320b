(** The JVM class-pool frontend — the paper's original workload, now just
    one {!Frontend.S} instance.

    Everything delegates to [lib/jvm]: inventory and variables to
    {!Lbr_jvm.Jvars}, the dependency model to {!Lbr_jvm.Constraints}, the
    reducer to {!Lbr_jvm.Reducer.prepare}, sizes to {!Lbr_jvm.Size} and
    the serializer to {!Lbr_jvm.Serialize} (LBRC container bytes).  The
    delegation is pure — {!Lbr_harness.Experiment} routes its item
    derivation and constraint generation through this module and produces
    byte-identical reductions to the pre-frontend code, which the test
    suite pins on the reference workload.

    The predicate spec is a simulated-decompiler name
    ({!Lbr_decompiler.Tool}); [""] picks the first tool that is buggy on
    the input.  The bridged predicate is the paper's: the candidate
    sub-pool must reproduce every baseline error message. *)

include Frontend.S with type input = Lbr_jvm.Classpool.t and type ctx = Lbr_jvm.Jvars.t

val includes_sorted : baseline:string list -> string list -> bool
(** Sorted-list inclusion: is every baseline message present?  The error
    comparison used by the predicate bridge (and by the harness). *)

val resolve_tool : string -> Lbr_jvm.Classpool.t -> (Lbr_decompiler.Tool.t, string) result
(** The predicate spec's tool: the one named, or for [""] the first tool
    that is buggy on the pool.  [Error] names an unknown tool or a pool no
    tool is buggy on.  The predicate bridge and the server's JVM runner
    both resolve through this. *)
