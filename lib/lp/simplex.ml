module Num = Netrec_util.Num
module Obs = Netrec_obs.Obs
module Budget = Netrec_resilience.Budget

type relation = Le | Ge | Eq
type status = Optimal | Infeasible | Unbounded | Iteration_limit

type std = {
  ncols : int;
  nrows : int;
  row_off : int array;
  cols : int array;
  coefs : float array;
  rels : relation array;
  rhs : float array;
  costs : float array;
  lb : float array;
  ub : float array;
}

type outcome = {
  status : status;
  objective : float;
  values : float array;
  pivots : int;
  limited : Budget.reason option;
}

(* Tolerances, tied to the shared discipline in [Netrec_util.Num]:
   candidates below [pivot_eps] are numerically zero, ratios within [eps]
   tie, and primal feasibility is judged at [feas_eps] (the same tolerance
   certificates use). *)
let eps = Num.flow_eps
let pivot_eps = Num.eps
let feas_eps = Num.feas_eps

(* Refactorize the basis inverse from scratch every so many pivots to
   shed the drift the product-form updates accumulate.  The cadence is
   deliberately long — refactorization is O(m^3) while the dual simplex
   already refactorizes on demand when it meets a drifted pivot, so the
   periodic sweep is a backstop, not the primary defence. *)
let refactor_every = 4096

(* Product-form update entries below this magnitude are dropped.  Network
   bases are near-triangular, so [u] is mostly exact zeros plus a little
   drift; skipping the drift rows keeps the update close to the basis
   graph's true fill-in instead of O(m^2). *)
let drop_tol = 1e-13

(* [pos.(j)] encodes where column [j] currently lives. *)
let at_lb = -1
let at_ub = -2

(* Column space: [0, ncols) structurals, [ncols, ncols+m) one slack per
   row (coefficient +1; bounds encode the row sense: Le -> [0,inf),
   Ge -> (-inf,0], Eq -> [0,0]), [ncols+m, ncols+2m) one artificial per
   row (coefficient [sigma.(i)], bounds [0,0] except while it serves in
   phase 1).  Artificials are lazy: a row whose slack start is already
   feasible never activates one. *)
type t = {
  m : int;
  ncols : int;
  n : int;  (* ncols + 2m *)
  (* CSC of the structural part of A *)
  col_off : int array;
  col_row : int array;
  col_coef : float array;
  rhs : float array;  (* length m *)
  cost : float array;  (* length n; phase-2 minimization costs *)
  cost1 : float array;  (* length n; phase-1 costs *)
  base_lb : float array;  (* length n; bounds as given by [std] *)
  base_ub : float array;
  lb : float array;  (* working bounds (mutated by solves) *)
  ub : float array;
  sigma : float array;  (* length m; artificial column coefficient *)
  basis : int array;  (* length m; column basic in row i *)
  pos : int array;  (* length n *)
  xb : float array;  (* length m; values of the basic variables *)
  binv : float array;  (* m*m row-major basis inverse *)
  (* scratch *)
  y : float array;  (* duals, length m *)
  u : float array;  (* B^-1 a_q, length m *)
  rho : float array;  (* a row of B^-1, length m *)
  work : float array;  (* length m *)
  nz : int array;  (* length m; nonzero positions of a pivot row *)
  nz2 : int array;  (* length m; the same for the rebuild's second row *)
  mutable dense : float array;
      (* m*m refactorization scratch, empty until the first refactor *)
  mutable inv2 : float array;  (* likewise *)
  mutable dual_ready : bool;
      (* the current basis is dual feasible for [cost] — a warm restart
         may skip phase 1 and run the dual simplex *)
  mutable since_refactor : int;
  (* Dual steepest-edge state: [dse.(i)] approximates the squared norm of
     row [i] of the basis inverse (the reference framework is the unit
     basis).  [dse_ok] says the weights match the current basis; they are
     maintained through dual pivots only and recomputed exactly from
     [binv] whenever the dual simplex finds them stale. *)
  dse : float array;
  mutable dse_ok : bool;
  mutable use_dse : bool;
}

let create ?pricing std =
  let m = std.nrows and ncols = std.ncols in
  if Array.length std.row_off <> m + 1 then
    invalid_arg "Simplex.create: row_off length";
  let nnz = std.row_off.(m) in
  if
    Array.length std.cols < nnz
    || Array.length std.coefs < nnz
    || Array.length std.rels <> m
    || Array.length std.rhs <> m
    || Array.length std.costs <> ncols
    || Array.length std.lb <> ncols
    || Array.length std.ub <> ncols
  then invalid_arg "Simplex.create: array arity";
  let n = ncols + (2 * m) in
  (* CSR -> CSC *)
  let cnt = Array.make (ncols + 1) 0 in
  for k = 0 to nnz - 1 do
    let c = std.cols.(k) in
    if c < 0 || c >= ncols then invalid_arg "Simplex.create: column index";
    cnt.(c + 1) <- cnt.(c + 1) + 1
  done;
  for c = 0 to ncols - 1 do
    cnt.(c + 1) <- cnt.(c + 1) + cnt.(c)
  done;
  let col_off = Array.copy cnt in
  let col_row = Array.make (max 1 nnz) 0 in
  let col_coef = Array.make (max 1 nnz) 0.0 in
  let fill = Array.copy col_off in
  for i = 0 to m - 1 do
    for k = std.row_off.(i) to std.row_off.(i + 1) - 1 do
      let c = std.cols.(k) in
      col_row.(fill.(c)) <- i;
      col_coef.(fill.(c)) <- std.coefs.(k);
      fill.(c) <- fill.(c) + 1
    done
  done;
  let base_lb = Array.make n 0.0 and base_ub = Array.make n 0.0 in
  for j = 0 to ncols - 1 do
    if std.lb.(j) > std.ub.(j) then invalid_arg "Simplex.create: lb > ub";
    if not (Float.is_finite std.lb.(j) || Float.is_finite std.ub.(j)) then
      invalid_arg "Simplex.create: variable with no finite bound";
    base_lb.(j) <- std.lb.(j);
    base_ub.(j) <- std.ub.(j)
  done;
  for i = 0 to m - 1 do
    let s = ncols + i in
    (match std.rels.(i) with
    | Le ->
      base_lb.(s) <- 0.0;
      base_ub.(s) <- infinity
    | Ge ->
      base_lb.(s) <- neg_infinity;
      base_ub.(s) <- 0.0
    | Eq ->
      base_lb.(s) <- 0.0;
      base_ub.(s) <- 0.0);
    (* artificials sit fixed at 0 unless phase 1 activates them *)
    base_lb.(ncols + m + i) <- 0.0;
    base_ub.(ncols + m + i) <- 0.0
  done;
  let cost = Array.make n 0.0 in
  Array.blit std.costs 0 cost 0 ncols;
  { m;
    ncols;
    n;
    col_off;
    col_row;
    col_coef;
    rhs = Array.copy std.rhs;
    cost;
    cost1 = Array.make n 0.0;
    base_lb;
    base_ub;
    lb = Array.copy base_lb;
    ub = Array.copy base_ub;
    sigma = Array.make (max 1 m) 1.0;
    basis = Array.make (max 1 m) (-1);
    pos = Array.make n at_lb;
    xb = Array.make (max 1 m) 0.0;
    binv = Array.make (max 1 (m * m)) 0.0;
    y = Array.make (max 1 m) 0.0;
    u = Array.make (max 1 m) 0.0;
    rho = Array.make (max 1 m) 0.0;
    work = Array.make (max 1 m) 0.0;
    nz = Array.make (max 1 m) 0;
    nz2 = Array.make (max 1 m) 0;
    dense = [||];
    inv2 = [||];
    dual_ready = false;
    since_refactor = 0;
    dse = Array.make (max 1 m) 1.0;
    dse_ok = false;
    use_dse =
      (match pricing with
      | Some Tuning.Dse -> true
      | Some Tuning.Dantzig -> false
      | None -> Tuning.default_pricing () = Tuning.Dse) }

let set_pricing t p = t.use_dse <- p = Tuning.Dse

(* Iterate the rows of column [j] with their coefficients. *)
let[@inline] col_iter t j f =
  if j < t.ncols then
    for k = t.col_off.(j) to t.col_off.(j + 1) - 1 do
      f (Array.unsafe_get t.col_row k) (Array.unsafe_get t.col_coef k)
    done
  else if j < t.ncols + t.m then f (j - t.ncols) 1.0
  else begin
    let i = j - t.ncols - t.m in
    f i t.sigma.(i)
  end

let[@inline] nb_val t j = if t.pos.(j) = at_ub then t.ub.(j) else t.lb.(j)

(* u := B^-1 a_j *)
let compute_u t j =
  let m = t.m and u = t.u and binv = t.binv in
  Array.fill u 0 m 0.0;
  col_iter t j (fun i a ->
      if a <> 0.0 then
        for r = 0 to m - 1 do
          Array.unsafe_set u r
            (Array.unsafe_get u r +. (a *. Array.unsafe_get binv ((r * m) + i)))
        done)

(* y := c_B^T B^-1 for the given cost vector *)
let compute_y t cost =
  let m = t.m and y = t.y and binv = t.binv in
  Array.fill y 0 m 0.0;
  for i = 0 to m - 1 do
    let cb = cost.(t.basis.(i)) in
    if cb <> 0.0 then begin
      let off = i * m in
      for r = 0 to m - 1 do
        Array.unsafe_set y r
          (Array.unsafe_get y r +. (cb *. Array.unsafe_get binv (off + r)))
      done
    end
  done

(* Reduced cost of a structural column [j] against the duals in [t.y],
   straight off the CSC arrays (hot path — no closures). *)
let[@inline] reduced_structural t cost j =
  let d = ref (Array.unsafe_get cost j) in
  for k = t.col_off.(j) to t.col_off.(j + 1) - 1 do
    d :=
      !d
      -. (Array.unsafe_get t.col_coef k
         *. Array.unsafe_get t.y (Array.unsafe_get t.col_row k))
  done;
  !d

(* After a basis pivot in row [r] with entering reduced cost [dq], the
   duals update in place: y += dq * (row r of the new inverse) — the same
   rank-one step the inverse itself took, so a full [compute_y] is only
   needed to confirm a claimed optimum. *)
let dual_update t ~r ~dq =
  if dq <> 0.0 then begin
    let m = t.m and y = t.y and binv = t.binv in
    let off = r * m in
    for i = 0 to m - 1 do
      let b = Array.unsafe_get binv (off + i) in
      if b <> 0.0 then
        Array.unsafe_set y i (Array.unsafe_get y i +. (dq *. b))
    done
  end

(* x_B := B^-1 (b - A_N x_N) *)
let recompute_xb t =
  let m = t.m and work = t.work in
  Array.blit t.rhs 0 work 0 m;
  for j = 0 to t.n - 1 do
    if t.pos.(j) < 0 then begin
      let x = nb_val t j in
      if x <> 0.0 then col_iter t j (fun i a -> work.(i) <- work.(i) -. (a *. x))
    end
  done;
  let binv = t.binv in
  for i = 0 to m - 1 do
    let s = ref 0.0 in
    let off = i * m in
    for k = 0 to m - 1 do
      s := !s +. (Array.unsafe_get binv (off + k) *. Array.unsafe_get work k)
    done;
    t.xb.(i) <- !s
  done

(* Row kernels of the basis-inverse update and of the Gauss-Jordan
   rebuild.  Both matrices are stored dense and row-major, but the rows
   they combine are sparse (B^-1 of the OPT MILP is about a tenth
   nonzero), so each kernel walks only the listed nonzero positions of
   its source row.  That leaves every nonzero result bit-identical to a
   loop over all m columns: a skipped term is [f *. (+-0.0)] = +-0.0 for
   finite [f], and adding or subtracting a zero leaves a nonzero operand
   as it was.  Only the sign of an entry that is zero either way can
   differ, and no reader of B^-1 sees that sign (DESIGN §13). *)
module Kernel = struct
  (* The ascending positions [k < len] with [a.(off + k) <> 0.0] go to
     [idx]; returns how many. *)
  let nonzeros a ~off ~len idx =
    let n = ref 0 in
    for k = 0 to len - 1 do
      if Array.unsafe_get a (off + k) <> 0.0 then begin
        Array.unsafe_set idx !n k;
        incr n
      end
    done;
    !n

  (* a[dst + k] -= f * a[src + k] over the [nnz] listed positions. *)
  let axpy a ~dst ~f ~src idx nnz =
    for p = 0 to nnz - 1 do
      let k = Array.unsafe_get idx p in
      Array.unsafe_set a (dst + k)
        (Array.unsafe_get a (dst + k) -. (f *. Array.unsafe_get a (src + k)))
    done

  (* sum of a[off_i + k] * a[off_r + k] over the listed positions,
     ascending from +0.0: a sum started at +0.0 is never -0.0, so the
     skipped zero terms could not have changed it. *)
  let tau a ~off_i ~off_r idx nnz =
    let s = ref 0.0 in
    for p = 0 to nnz - 1 do
      let k = Array.unsafe_get idx p in
      s :=
        !s +. (Array.unsafe_get a (off_i + k) *. Array.unsafe_get a (off_r + k))
    done;
    !s

  (* Product-form update of the m*m inverse [binv] for a pivot in row
     [r] with [u] = B^-1 a_q, given row r's nonzeros: each other row
     whose factor clears [drop_tol] is updated, then row r is scaled. *)
  let eta_update binv ~m ~r ~u idx nnz =
    let inv = 1.0 /. u.(r) in
    let off_r = r * m in
    for i = 0 to m - 1 do
      if i <> r then begin
        let f = u.(i) *. inv in
        if abs_float f > drop_tol then
          axpy binv ~dst:(i * m) ~f ~src:off_r idx nnz
      end
    done;
    for p = 0 to nnz - 1 do
      let k = off_r + Array.unsafe_get idx p in
      Array.unsafe_set binv k (Array.unsafe_get binv k *. inv)
    done

  (* Scale row [off] of [a] by [s] and list its nonzeros in [idx]. *)
  let scale_list a ~off ~len ~s idx =
    for k = off to off + len - 1 do
      Array.unsafe_set a k (Array.unsafe_get a k *. s)
    done;
    nonzeros a ~off ~len idx

  (* Gauss-Jordan step on column [c] of [dense], mirrored on [inv2],
     once the pivot sits in row [c] and [inv] = 1 / pivot: scale row c,
     then clear column c from every other row at row c's nonzeros. *)
  let eliminate dense inv2 ~m ~c ~inv nz nz2 =
    let off_c = c * m in
    let nd = scale_list dense ~off:off_c ~len:m ~s:inv nz in
    let ni = scale_list inv2 ~off:off_c ~len:m ~s:inv nz2 in
    for r = 0 to m - 1 do
      if r <> c then begin
        let f = Array.unsafe_get dense ((r * m) + c) in
        if f <> 0.0 then begin
          axpy dense ~dst:(r * m) ~f ~src:off_c nz nd;
          axpy inv2 ~dst:(r * m) ~f ~src:off_c nz2 ni
        end
      end
    done
end

(* Rebuild binv as the exact inverse of the current basis matrix by
   Gauss-Jordan with partial pivoting.  Returns [false] on a (numerically)
   singular basis, leaving the old inverse in place.  The two m*m scratch
   matrices are made on the engine's first rebuild: an engine that only
   solves cold seldom gets here. *)
let refactor t =
  let m = t.m in
  if Array.length t.dense < m * m then begin
    t.dense <- Array.make (m * m) 0.0;
    t.inv2 <- Array.make (m * m) 0.0
  end;
  let dense = t.dense and inv2 = t.inv2 in
  Array.fill dense 0 (m * m) 0.0;
  Array.fill inv2 0 (m * m) 0.0;
  for k = 0 to m - 1 do
    col_iter t t.basis.(k) (fun i a ->
        dense.((i * m) + k) <- dense.((i * m) + k) +. a);
    inv2.((k * m) + k) <- 1.0
  done;
  let ok = ref true in
  (try
     for c = 0 to m - 1 do
       let pr = ref c in
       for r = c + 1 to m - 1 do
         if abs_float dense.((r * m) + c) > abs_float dense.((!pr * m) + c)
         then pr := r
       done;
       let piv = dense.((!pr * m) + c) in
       if abs_float piv < 1e-11 then begin
         ok := false;
         raise Exit
       end;
       if !pr <> c then begin
         let swap arr =
           for k = 0 to m - 1 do
             let tmp = arr.((c * m) + k) in
             arr.((c * m) + k) <- arr.((!pr * m) + k);
             arr.((!pr * m) + k) <- tmp
           done
         in
         swap dense;
         swap inv2
       end;
       Kernel.eliminate dense inv2 ~m ~c ~inv:(1.0 /. piv) t.nz t.nz2
     done
   with Exit -> ());
  if !ok then begin
    Obs.count "simplex.refactors";
    Array.blit inv2 0 t.binv 0 (m * m);
    t.since_refactor <- 0;
    (* weights were tracking the drifted inverse; recompute lazily *)
    t.dse_ok <- false
  end;
  !ok

(* Returns [true] when a refactorization actually happened (the caller's
   incremental duals are then stale and must be recomputed). *)
let maybe_refactor t =
  if t.since_refactor >= refactor_every && refactor t then begin
    recompute_xb t;
    true
  end
  else false

(* Exact dual steepest-edge weights from the rows of the current inverse:
   beta_i = ||e_i^T B^-1||^2 (unit reference framework). *)
let dse_floor = 1e-10

let dse_reset t =
  Obs.count "simplex.dse_resets";
  let m = t.m and binv = t.binv and dse = t.dse in
  for i = 0 to m - 1 do
    let s = ref 0.0 in
    let off = i * m in
    for k = 0 to m - 1 do
      let b = Array.unsafe_get binv (off + k) in
      s := !s +. (b *. b)
    done;
    dse.(i) <- (if !s < dse_floor then dse_floor else !s)
  done;
  t.dse_ok <- true

(* Forrest–Goldfarb update of the steepest-edge weights across a pivot
   (entering column [q] in row [r], [t.u] = B^-1 a_q): with
   kappa_i = u_i / u_r and tau_i = (row i of B^-1) . (row r of B^-1),

     beta_r' = beta_r / u_r^2
     beta_i' = beta_i - 2 kappa_i tau_i + kappa_i^2 beta_r    (i <> r)

   floored at [dse_floor] against drift.  Must run against the
   *pre-pivot* inverse, i.e. before the product-form update; [t.nz]
   lists the [nnz] nonzeros of its row r. *)
let dse_update t ~r nnz =
  let m = t.m and u = t.u and binv = t.binv and dse = t.dse in
  let ur = u.(r) in
  let beta_r = dse.(r) in
  let off_r = r * m in
  for i = 0 to m - 1 do
    if i <> r && abs_float u.(i) > drop_tol then begin
      let kappa = u.(i) /. ur in
      let tau = Kernel.tau binv ~off_i:(i * m) ~off_r t.nz nnz in
      let b = dse.(i) -. (2.0 *. kappa *. tau) +. (kappa *. kappa *. beta_r) in
      dse.(i) <- (if b < dse_floor then dse_floor else b)
    end
  done;
  let br = beta_r /. (ur *. ur) in
  dse.(r) <- (if br < dse_floor then dse_floor else br)

(* Apply a basis change: entering column [q] moves [tstar] along [dir]
   from its bound, row [r]'s basic variable leaves to its lower or upper
   bound, and binv gets the product-form update.  [t.u] must hold
   B^-1 a_q.  Row r of the inverse is listed once, before anything
   changes, and both the weights and the update walk that list. *)
let basis_pivot t ~q ~dir ~tstar ~r ~to_ub =
  Obs.count "simplex.pivots";
  let m = t.m and u = t.u and binv = t.binv in
  let nnz = Kernel.nonzeros binv ~off:(r * m) ~len:m t.nz in
  if t.use_dse && t.dse_ok then dse_update t ~r nnz;
  let xq = nb_val t q +. (dir *. tstar) in
  for i = 0 to m - 1 do
    if i <> r then t.xb.(i) <- t.xb.(i) -. (dir *. tstar *. u.(i))
  done;
  let lv = t.basis.(r) in
  t.pos.(lv) <- (if to_ub then at_ub else at_lb);
  t.basis.(r) <- q;
  t.pos.(q) <- r;
  t.xb.(r) <- xq;
  Kernel.eta_update binv ~m ~r ~u t.nz nnz;
  t.since_refactor <- t.since_refactor + 1

(* ---- primal simplex on the current basis ---- *)

(* Runs pivots and bound flips until optimal / unbounded / out of budget.
   Dantzig pricing switches to Bland's rule after a run of degenerate
   steps.  Consumes from [pivots_left] and checks the cooperative
   [budget] once per step.

   The duals are maintained incrementally ({!dual_update}); [fresh] says
   whether [t.y] was recomputed from scratch since the last pivot, and a
   claimed optimum against incremental duals is always re-checked against
   fresh ones before being believed.

   Pricing never visits the artificial columns: a nonbasic artificial is
   either fixed at [0,0] or has been driven out of the basis in phase 1
   and must not come back. *)

let values_of t =
  Array.init t.ncols (fun j ->
      let x = if t.pos.(j) >= 0 then t.xb.(t.pos.(j)) else nb_val t j in
      let x =
        if Float.is_finite t.lb.(j) && x < t.lb.(j) then t.lb.(j) else x
      in
      if Float.is_finite t.ub.(j) && x > t.ub.(j) then t.ub.(j) else x)

let objective_of t values =
  let s = ref 0.0 in
  for j = 0 to t.ncols - 1 do
    s := !s +. (t.cost.(j) *. values.(j))
  done;
  !s

(* Objective trajectory sampling period, in basis pivots of one [primal]
   call.  Short solves (warm restarts are typically a handful of pivots)
   emit nothing; only solves long enough to have a convergence story
   pay for the [values_of] allocation. *)
let objective_sample_period = 128

let primal t ~cost ~pivots_left ~budget =
  let stall = ref 0 in
  let npiv = ref 0 in
  (* Primal pivots do not maintain the steepest-edge weights (the dual
     simplex recomputes them exactly on entry instead, trading one O(m^2)
     reset per warm restart for zero overhead here). *)
  t.dse_ok <- false;
  compute_y t cost;
  let rec loop fresh =
    if !pivots_left <= 0 || not (Budget.ok budget) then `Limit
    else begin
      let q = ref (-1) and qscore = ref pivot_eps and qd = ref 0.0 in
      let bland = !stall > 200 in
      (try
         for j = 0 to t.ncols - 1 do
           if t.pos.(j) < 0 && t.lb.(j) < t.ub.(j) then begin
             let d = reduced_structural t cost j in
             let score = if t.pos.(j) = at_lb then -.d else d in
             if score > !qscore then begin
               q := j;
               qscore := score;
               qd := d;
               if bland then raise Exit
             end
           end
         done;
         for i = 0 to t.m - 1 do
           let j = t.ncols + i in
           if t.pos.(j) < 0 && t.lb.(j) < t.ub.(j) then begin
             let d = cost.(j) -. t.y.(i) in
             let score = if t.pos.(j) = at_lb then -.d else d in
             if score > !qscore then begin
               q := j;
               qscore := score;
               qd := d;
               if bland then raise Exit
             end
           end
         done
       with Exit -> ());
      if !q < 0 then
        if fresh then `Optimal
        else begin
          compute_y t cost;
          loop true
        end
      else begin
        let q = !q in
        let dir = if t.pos.(q) = at_lb then 1.0 else -1.0 in
        compute_u t q;
        let span =
          if Float.is_finite t.lb.(q) && Float.is_finite t.ub.(q) then
            t.ub.(q) -. t.lb.(q)
          else infinity
        in
        (* Ratio test over the basic variables' own bounds. *)
        let best_t = ref infinity and lrow = ref (-1) and l_to_ub = ref false in
        for i = 0 to t.m - 1 do
          let rate = -.dir *. t.u.(i) in
          if rate < -.pivot_eps then begin
            let lo = t.lb.(t.basis.(i)) in
            if Float.is_finite lo then begin
              let ratio = (t.xb.(i) -. lo) /. -.rate in
              let ratio = if ratio < 0.0 then 0.0 else ratio in
              if
                ratio < !best_t -. eps
                || (ratio < !best_t +. eps
                   && !lrow >= 0
                   && t.basis.(i) < t.basis.(!lrow))
              then begin
                best_t := ratio;
                lrow := i;
                l_to_ub := false
              end
            end
          end
          else if rate > pivot_eps then begin
            let hi = t.ub.(t.basis.(i)) in
            if Float.is_finite hi then begin
              let ratio = (hi -. t.xb.(i)) /. rate in
              let ratio = if ratio < 0.0 then 0.0 else ratio in
              if
                ratio < !best_t -. eps
                || (ratio < !best_t +. eps
                   && !lrow >= 0
                   && t.basis.(i) < t.basis.(!lrow))
              then begin
                best_t := ratio;
                lrow := i;
                l_to_ub := true
              end
            end
          end
        done;
        if !lrow < 0 && not (Float.is_finite span) then `Unbounded
        else begin
          decr pivots_left;
          Budget.spend budget;
          if Float.is_finite span && (!lrow < 0 || span <= !best_t +. eps)
          then begin
            (* The entering variable hits its own opposite bound before
               any basic variable blocks: flip it, no basis change. *)
            Obs.count "simplex.bound_flips";
            for i = 0 to t.m - 1 do
              t.xb.(i) <- t.xb.(i) -. (dir *. span *. t.u.(i))
            done;
            t.pos.(q) <- (if t.pos.(q) = at_lb then at_ub else at_lb);
            if span > eps then stall := 0 else incr stall;
            (* A flip leaves the basis — and hence the duals — intact. *)
            loop fresh
          end
          else begin
            let tstar = !best_t in
            let r = !lrow in
            basis_pivot t ~q ~dir ~tstar ~r ~to_ub:!l_to_ub;
            dual_update t ~r ~dq:!qd;
            incr npiv;
            (* Phase-2 objective trajectory ([cost == t.cost] excludes
               the phase-1 artificial objective). *)
            if
              Obs.enabled ()
              && cost == t.cost
              && !npiv mod objective_sample_period = 0
            then
              Obs.event "simplex.objective"
                [ ("pivot", float_of_int !npiv);
                  ("objective", objective_of t (values_of t)) ];
            if tstar > eps then stall := 0 else incr stall;
            if maybe_refactor t then begin
              compute_y t cost;
              loop true
            end
            else loop false
          end
        end
      end
    end
  in
  loop true

(* ---- dual simplex (warm restarts after a bounds change) ---- *)

let dual t ~cost ~pivots_left ~budget =
  compute_y t cost;
  let stall = ref 0 in
  let rec loop retried =
    if !pivots_left <= 0 || not (Budget.ok budget) then `Limit
    else begin
      (* Leaving row.  Default rule: dual steepest edge — maximize
         infeasibility^2 / beta_i, where beta_i tracks ||row i of
         B^-1||^2 ({!dse_update}).  After a degeneracy run the selection
         falls back to the plain most-infeasible rule (mirroring the
         primal's Dantzig -> Bland switch), and with [use_dse] off the
         fallback rule is simply always in force. *)
      let dse_now = t.use_dse && !stall <= 200 in
      if dse_now && not t.dse_ok then dse_reset t;
      let r = ref (-1) and below = ref false in
      if dse_now then begin
        let best = ref 0.0 in
        for i = 0 to t.m - 1 do
          let b = t.basis.(i) in
          let lo_v = t.lb.(b) -. t.xb.(i) in
          if lo_v > feas_eps then begin
            let score = lo_v *. lo_v /. Array.unsafe_get t.dse i in
            if score > !best then begin
              r := i;
              best := score;
              below := true
            end
          end
          else begin
            let hi_v = t.xb.(i) -. t.ub.(b) in
            if hi_v > feas_eps then begin
              let score = hi_v *. hi_v /. Array.unsafe_get t.dse i in
              if score > !best then begin
                r := i;
                best := score;
                below := false
              end
            end
          end
        done
      end
      else begin
        let worst = ref feas_eps in
        for i = 0 to t.m - 1 do
          let b = t.basis.(i) in
          let lo_v = t.lb.(b) -. t.xb.(i) in
          if lo_v > !worst then begin
            r := i;
            worst := lo_v;
            below := true
          end
          else begin
            let hi_v = t.xb.(i) -. t.ub.(b) in
            if hi_v > !worst then begin
              r := i;
              worst := hi_v;
              below := false
            end
          end
        done
      end;
      if !r < 0 then `Feasible
      else begin
        let r = !r in
        for k = 0 to t.m - 1 do
          t.rho.(k) <- t.binv.((r * t.m) + k)
        done;
        (* Entering column: dual ratio test over the eligible nonbasics
           (those whose move drives x_Br back toward its bound while
           keeping every reduced cost on its feasible side).  Artificials
           are fixed and never eligible. *)
        let q = ref (-1) and best = ref infinity and qd = ref 0.0 in
        let consider j alpha =
          let eligible =
            if !below then
              if t.pos.(j) = at_lb then alpha < -.pivot_eps
              else alpha > pivot_eps
            else if t.pos.(j) = at_lb then alpha > pivot_eps
            else alpha < -.pivot_eps
          in
          if eligible then begin
            let d =
              if j < t.ncols then reduced_structural t cost j
              else cost.(j) -. t.y.(j - t.ncols)
            in
            let ratio = abs_float d /. abs_float alpha in
            if ratio < !best -. eps || (ratio < !best +. eps && !q < 0)
            then begin
              q := j;
              best := ratio;
              qd := d
            end
          end
        in
        for j = 0 to t.ncols - 1 do
          if t.pos.(j) < 0 && t.lb.(j) < t.ub.(j) then begin
            let alpha = ref 0.0 in
            for k = t.col_off.(j) to t.col_off.(j + 1) - 1 do
              alpha :=
                !alpha
                +. (Array.unsafe_get t.col_coef k
                   *. Array.unsafe_get t.rho (Array.unsafe_get t.col_row k))
            done;
            consider j !alpha
          end
        done;
        for i = 0 to t.m - 1 do
          let j = t.ncols + i in
          if t.pos.(j) < 0 && t.lb.(j) < t.ub.(j) then consider j t.rho.(i)
        done;
        if !q < 0 then
          (* The no-entering-column certificate is only as good as the
             current factorization: re-prove it on a fresh one before
             declaring the node infeasible (mirrors the drifted-pivot
             guard below). *)
          if retried || not (refactor t) then `Infeasible
          else begin
            recompute_xb t;
            compute_y t cost;
            loop true
          end
        else begin
          let q = !q in
          compute_u t q;
          if abs_float t.u.(r) <= pivot_eps then
            (* Drifted pivot: refactorize once and retry the iteration. *)
            if retried || not (refactor t) then `Limit
            else begin
              recompute_xb t;
              compute_y t cost;
              loop true
            end
          else begin
            let dir = if t.pos.(q) = at_lb then 1.0 else -1.0 in
            let target =
              if !below then t.lb.(t.basis.(r)) else t.ub.(t.basis.(r))
            in
            let tstar = (target -. t.xb.(r)) /. (-.dir *. t.u.(r)) in
            let tstar = if tstar < 0.0 then 0.0 else tstar in
            decr pivots_left;
            Budget.spend budget;
            (* A degenerate dual step leaves the dual objective in place:
               the entering ratio (|d_q| / |alpha_q|) is the step length. *)
            if !best > eps then stall := 0 else incr stall;
            if dse_now then Obs.count "simplex.dse_pivots";
            basis_pivot t ~q ~dir ~tstar ~r ~to_ub:(not !below);
            dual_update t ~r ~dq:!qd;
            if maybe_refactor t then compute_y t cost;
            loop false
          end
        end
      end
    end
  in
  loop false

(* ---- solve drivers ---- *)

(* Slack start: every row's slack is basic when the residual fits the
   slack's bounds; otherwise the slack is clamped to its nearest bound
   (always 0 — slack bounds only ever involve 0) and the row's artificial
   enters the basis carrying the remaining infeasibility.  Returns the
   number of artificials activated. *)
let start_basis t =
  let m = t.m and ncols = t.ncols in
  Array.fill t.cost1 0 t.n 0.0;
  (* nonbasic start positions from the working bounds *)
  for j = 0 to t.n - 1 do
    t.pos.(j) <- (if Float.is_finite t.lb.(j) then at_lb else at_ub)
  done;
  (* residuals of the structural nonbasic values *)
  Array.blit t.rhs 0 t.work 0 m;
  for j = 0 to ncols - 1 do
    let x = nb_val t j in
    if x <> 0.0 then col_iter t j (fun i a -> t.work.(i) <- t.work.(i) -. (a *. x))
  done;
  Array.fill t.binv 0 (m * m) 0.0;
  let nart = ref 0 in
  for i = 0 to m - 1 do
    let s = ncols + i and a = ncols + m + i in
    let r = t.work.(i) in
    if r >= t.lb.(s) -. feas_eps && r <= t.ub.(s) +. feas_eps then begin
      t.basis.(i) <- s;
      t.pos.(s) <- i;
      t.xb.(i) <- r;
      t.binv.((i * m) + i) <- 1.0;
      t.sigma.(i) <- 1.0
    end
    else begin
      (* slack pinned at 0 (its nearest bound); artificial absorbs r *)
      t.pos.(s) <- (if r > t.ub.(s) then at_ub else at_lb);
      t.sigma.(i) <- (if r >= 0.0 then 1.0 else -1.0);
      t.basis.(i) <- a;
      t.pos.(a) <- i;
      t.xb.(i) <- abs_float r;
      t.binv.((i * m) + i) <- t.sigma.(i);
      t.lb.(a) <- 0.0;
      t.ub.(a) <- infinity;
      t.cost1.(a) <- 1.0;
      incr nart
    end
  done;
  !nart

let limit_reason budget ~spent ~cap =
  match Budget.tripped budget with
  | Some r -> Some r
  | None -> Some (Budget.Work { spent; cap })

let outcome_of t ~status ~pivots ~budget ~max_pivots =
  match status with
  | Optimal ->
    let values = values_of t in
    { status = Optimal;
      objective = objective_of t values;
      values;
      pivots;
      limited = None }
  | s ->
    { status = s;
      objective = 0.0;
      values = Array.make t.ncols 0.0;
      pivots;
      limited =
        (if s = Iteration_limit then limit_reason budget ~spent:pivots ~cap:max_pivots
         else None) }

let default_max_pivots = 200_000

(* Cold solve body: slack start, lazy phase 1, phase 2. *)
let cold_body t ~pivots_left ~budget =
  t.dual_ready <- false;
  t.since_refactor <- 0;
  (* slack and artificial working bounds come back from the template;
     structural working bounds are whatever the caller set *)
  for j = t.ncols to t.n - 1 do
    t.lb.(j) <- t.base_lb.(j);
    t.ub.(j) <- t.base_ub.(j)
  done;
  let nart = start_basis t in
  if nart = 0 then Obs.count "simplex.phase1_skipped";
  let phase1 =
    if nart = 0 then `Optimal else primal t ~cost:t.cost1 ~pivots_left ~budget
  in
  match phase1 with
  | `Limit -> Iteration_limit
  | `Unbounded -> Infeasible (* phase 1 is bounded below by 0 *)
  | `Optimal ->
    let feasible =
      nart = 0
      ||
      let z1 = ref 0.0 in
      for i = 0 to t.m - 1 do
        if t.cost1.(t.basis.(i)) <> 0.0 then z1 := !z1 +. t.xb.(i)
      done;
      not (Num.positive ~eps:feas_eps !z1)
    in
    if not feasible then Infeasible
    else begin
      (* Re-fix the artificials; ones still basic (redundant rows) sit at
         ~0 and their [0,0] bounds stop any later movement through them. *)
      for i = 0 to t.m - 1 do
        let a = t.ncols + t.m + i in
        t.lb.(a) <- 0.0;
        t.ub.(a) <- 0.0;
        if t.pos.(a) < 0 then t.pos.(a) <- at_lb
      done;
      match primal t ~cost:t.cost ~pivots_left ~budget with
      | `Limit -> Iteration_limit
      | `Unbounded -> Unbounded
      | `Optimal ->
        t.dual_ready <- true;
        Optimal
    end

(* Every solve that starts from the slack basis goes through here, so the
   counters tell how much of the pivot work owes nothing to a warm basis.
   Every LP run passes here first, so it also materialises
   simplex.refactors: a run whose solves never rebuild the inverse still
   reports it, at 0. *)
let cold t ~pivots_left ~budget =
  Obs.count "simplex.cold_solves";
  Obs.count ~n:0 "simplex.refactors";
  let before = Obs.domain_counter_value "simplex.pivots" in
  let status = cold_body t ~pivots_left ~budget in
  Obs.count
    ~n:(Obs.domain_counter_value "simplex.pivots" - before)
    "simplex.cold_pivots";
  status

let solve ?(budget = Budget.unlimited) ?(max_pivots = default_max_pivots) t =
  Obs.count "simplex.solves";
  match Budget.check budget with
  | Some r ->
    { status = Iteration_limit;
      objective = 0.0;
      values = Array.make t.ncols 0.0;
      pivots = 0;
      limited = Some r }
  | None ->
    let pivots_left = ref max_pivots in
    let status = cold t ~pivots_left ~budget in
    let pivots = max_pivots - !pivots_left in
    Obs.observe "simplex.pivots_per_solve" (float_of_int pivots);
    outcome_of t ~status ~pivots ~budget ~max_pivots

let resolve ?(budget = Budget.unlimited) ?(max_pivots = default_max_pivots)
    ~lb ~ub t =
  Obs.count "simplex.solves";
  if Array.length lb <> t.ncols || Array.length ub <> t.ncols then
    invalid_arg "Simplex.resolve: bounds arity";
  match Budget.check budget with
  | Some r ->
    { status = Iteration_limit;
      objective = 0.0;
      values = Array.make t.ncols 0.0;
      pivots = 0;
      limited = Some r }
  | None ->
    Array.blit lb 0 t.lb 0 t.ncols;
    Array.blit ub 0 t.ub 0 t.ncols;
    let pivots_left = ref max_pivots in
    let status =
      if not t.dual_ready then cold t ~pivots_left ~budget
      else begin
        Obs.count "simplex.warm_starts";
        Obs.count "simplex.phase1_skipped";
        (* A nonbasic variable must sit on a finite bound. *)
        for j = 0 to t.ncols - 1 do
          if t.pos.(j) = at_lb && not (Float.is_finite t.lb.(j)) then
            t.pos.(j) <- at_ub
          else if t.pos.(j) = at_ub && not (Float.is_finite t.ub.(j)) then
            t.pos.(j) <- at_lb
        done;
        recompute_xb t;
        match dual t ~cost:t.cost ~pivots_left ~budget with
        | `Limit -> Iteration_limit (* basis still dual feasible *)
        | `Infeasible ->
          (* A warm dual-infeasibility certificate can rest on a
             drifted — or, after a long degenerate run, outright
             singular — basis, in which case [refactor] fails and every
             later warm verdict is garbage.  Re-prove the claim from a
             fresh slack basis: phase 1 owes nothing to inherited
             state, and the cold solve heals the engine for the
             resolves that follow. *)
          Obs.count "simplex.cold_confirms";
          cold t ~pivots_left ~budget
        | `Feasible -> (
          (* Polish: the dual end point is primal feasible and (up to
             drift) dual feasible, so this is usually zero iterations. *)
          match primal t ~cost:t.cost ~pivots_left ~budget with
          | `Optimal -> Optimal
          | `Unbounded ->
            t.dual_ready <- false;
            Unbounded
          | `Limit ->
            t.dual_ready <- false;
            Iteration_limit)
      end
    in
    let pivots = max_pivots - !pivots_left in
    Obs.observe "simplex.pivots_per_solve" (float_of_int pivots);
    outcome_of t ~status ~pivots ~budget ~max_pivots
