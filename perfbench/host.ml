(* The host's speed, measured beside the program.

   On a few cores of a shared machine the same reduction's wall time
   drifts by 15-26% over minutes, and its CPU time drifts with it.  Fixed
   kernels timed between reductions showed where: those that work in
   registers or wait on main memory held within 3-7%, while sorting
   through the generic comparison drifted with the reductions
   (correlation 0.94-0.98) — a neighbour sharing the core's private
   caches.  README.md has the study.

   [sample] times one run of a kernel of that kind.  It allocates only
   the float it returns, so it all but never starts a garbage collection
   and the program's heap cannot make it slower or faster; only the host
   can. *)

let walk_bits = 15
let walk_table = Array.init (1 lsl walk_bits) (fun i -> ((i * 40503) + 12345) land ((1 lsl walk_bits) - 1))
let unsorted = Array.init 2048 (fun i -> ((i * 7919) + 17) land 0xffff)
let buffer = Array.make (Array.length unsorted) 0

(* In place; [gt] is the order. *)
let heapsort gt (a : int array) =
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && gt a.(l + 1) a.(l) then l + 1 else l in
      if gt a.(c) a.(i) then begin
        let t = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- t;
        sift c n
      end
    end
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for k = n - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(k);
    a.(k) <- t;
    sift 0 k
  done

let walk steps =
  let t = walk_table and mask = (1 lsl walk_bits) - 1 in
  let j = ref 0 and acc = ref 1 in
  for k = 1 to steps do
    let v = Array.unsafe_get t !j in
    acc := ((!acc * 31) + v) lxor (k lsl 3);
    j := (v + (!acc land 1023)) land mask
  done;
  !acc

(* The generic comparison, called through a closure as a generic sort
   would: a C call per comparison. *)
let generic : int -> int -> int = Sys.opaque_identity compare

(* Seconds one run of the kernel takes: an inlined integer sort, a random
   walk, and a sort through [generic]. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  Array.blit unsorted 0 buffer 0 (Array.length unsorted);
  heapsort (fun (x : int) y -> x > y) buffer;
  ignore (Sys.opaque_identity (walk 8_000) : int);
  Array.blit unsorted 0 buffer 0 (Array.length unsorted);
  heapsort (fun x y -> generic x y > 0) buffer;
  Unix.gettimeofday () -. t0

(* The kernel's median time between oneshot-gbr reductions on the
   reference host, the 2-core x86-64 machine the benchmark was defined on.  Timings are reported at that
   host's speed: a wall time [t] measured while the kernel takes [k]
   counts as [t *. reference /. k]. *)
let reference = 1.15e-3

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The factor that brings times measured beside [samples] to the
   reference host's speed. *)
let factor samples = reference /. median samples

(* Per-position factors for a sequence of samples taken one after each
   timed call: the median of the samples within [radius] positions, so a
   sample that a thread switch or an interrupt inflated does not count. *)
let radius = 10

let local_factors samples =
  let n = Array.length samples in
  Array.init n (fun i ->
      let lo = max 0 (i - radius) and hi = min (n - 1) (i + radius) in
      factor (Array.to_list (Array.sub samples lo (hi - lo + 1))))
