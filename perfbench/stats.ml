(* Tail percentiles of the benchmark's timings (medians and means come
   from Netrec_util.Stats). *)

(* 1-based nearest rank of the [p]th percentile among [n] samples:
   ceil (p * n / 100), in integers so p90 of 100 samples is rank 90. *)
let rank ~p n = max 1 (((p * n) + 99) / 100)

let beyond ~p n = n - rank ~p n

(* A tail percentile is reported only when at least ten samples lie
   beyond it (p90 needs 100 samples, p99 needs 1000); with fewer the
   "percentile" is just one of the few largest samples. *)
let min_beyond = 10

let percentile ~p xs =
  let n = Array.length xs in
  if n = 0 || beyond ~p n < min_beyond then None
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    Some a.(rank ~p n - 1)
  end
