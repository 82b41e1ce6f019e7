"""Constructive density of left-invertible tall matrices, and tuple lifting
through the expectation picture of the crossed product.

``left_invertible_lift`` runs the classical induction: densify the tail of
the first column through a base-case oracle, clear the column with
elementary row operations, recurse on the remaining block, and transport
the result (and its left inverse) back through the explicit elementary
factors.  The only oracle shipped is ``disk_column_oracle`` for polynomial
columns, which realizes the base case available in the disk-algebra model
(pairs are dense among generating pairs); the lift works on matrices of
polynomials and accepts any column densifier honouring the same contract.

``lift_generating_tuple`` feeds the lift with the expectation matrix of a
tuple of crossed-product elements, producing a nearby generating tuple
together with a witness row over the subalgebra.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import AlgMatrix, CrossedElement, expectation
from .errors import CoprimalityFailure, OracleFailure, PerturbationExhausted
from .poly import (Poly, convolution_matrix, min_separation, poly_divmod, roots,
                   sylvester_bezout)

ORACLE_ROOT_SEPARATION = 1e-4
ORACLE_SEPARATION_FLOOR = 2e-7
ORACLE_RESIDUAL_TOL = 1e-8
ORACLE_ROW_NORM_TARGET = 32.0
ORACLE_MAX_ATTEMPTS = 64
ORACLE_IMPROVE_ATTEMPTS = 8
TAME_QUOTIENT_CAP = 128.0
LEVEL_RETRIES = 5
LEVEL_ACCEPT_RESIDUAL = 1e-7
POLISH_ROUNDS = 3
POLISH_TARGET = 1e-10

ColumnOracle = Callable[..., tuple[list[Poly], list[Poly]]]


@dataclass(frozen=True)
class ElementaryOp:
    """Identity plus ``value`` in position ``(i, j)``, ``i != j``.

    Its inverse is the same op with negated value, exactly; multiplying on
    the left touches only row ``i``, on the right only column ``j``.
    """

    i: int
    j: int
    value: object

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("elementary ops live off the diagonal")

    def inverse(self) -> ElementaryOp:
        return ElementaryOp(self.i, self.j, -self.value)

    def as_matrix(self, dim: int, one, zero) -> AlgMatrix:
        rows = [[one if r == c else zero for c in range(dim)] for r in range(dim)]
        rows[self.i][self.j] = self.value
        return AlgMatrix(rows)


def _apply_left(op: ElementaryOp, rows: list[list]) -> None:
    """In place ``E * M``: row i += value * row j (value on the left)."""
    rows[op.i] = [t + op.value * s for t, s in zip(rows[op.i], rows[op.j])]


def _apply_right(op: ElementaryOp, rows: list[list]) -> None:
    """In place ``M * E``: col j += col i * value (value on the right)."""
    for row in rows:
        row[op.j] = row[op.j] + row[op.i] * op.value


@dataclass(frozen=True)
class LiftResult:
    """A left-invertible matrix near the input, with its explicit witness."""

    output: AlgMatrix
    left_inverse: AlgMatrix
    distance: float
    residual: float


def _row_residual(row: Sequence[Poly], column: Sequence[Poly]) -> float:
    """Wiener norm of ``sum_i row_i * column_i - 1``."""
    return (functools.reduce(operator.add, (d * c for d, c in zip(row, column)))
            - Poly.one()).wiener_norm()


def _choose_clearing_row(sub_entries: list[Poly], scale: Poly,
                         head_tail: list[Poly], tail_tails: list[list[Poly]],
                         fallback: list[Poly]) -> list[Poly]:
    """Pick ``d`` with ``sum_j d_j c_j = scale`` that keeps the cleared
    first row small.

    Any solution of the constraint works for the row reduction; the scaled
    oracle row is one, but its norm compounds through recursive lifts and
    degrades the conditioning of the remaining block.  This solves the
    constraint exactly (least-squares particular solution plus null space)
    and spends the slack minimizing the first-row entries the choice
    produces, falling back to the scaled oracle row whenever the solve
    does not reproduce the constraint tightly.
    """
    if all(f.is_zero for f in fallback):
        return fallback
    width = len(sub_entries)
    ncoef = max(f.degree for f in fallback if not f.is_zero) + 1
    cmax = max(c.degree for c in sub_entries)
    crows = ncoef + cmax
    nvars = width * ncoef

    constraint = np.hstack([convolution_matrix(c, ncoef, crows) for c in sub_entries])
    rhs = convolution_matrix(scale, 1, crows).ravel()

    x0 = np.linalg.lstsq(constraint, rhs, rcond=None)[0]
    if np.max(np.abs(constraint @ x0 - rhs)) > 1e-10 * max(1.0, scale.wiener_norm()):
        return fallback

    _, svals, vh = np.linalg.svd(constraint)
    tol = (svals[0] if svals.size else 0.0) * 1e-12
    rank = int(np.sum(svals > tol))
    null_basis = vh[rank:].conj().T
    x = x0
    if null_basis.size:
        blocks = []
        targets = []
        for col, head in enumerate(head_tail):
            degs = [tails[col].degree for tails in tail_tails]
            rows = max(ncoef + max(max(degs), 0), head.degree + 1)
            blocks.append(np.hstack([convolution_matrix(tails[col], ncoef, rows)
                                     for tails in tail_tails]))
            targets.append(-convolution_matrix(head, 1, rows).ravel())
        # small ridge term keeps d itself from drifting large
        blocks.append(1e-3 * np.eye(nvars, dtype=complex))
        targets.append(np.zeros(nvars, dtype=complex))
        objective = np.vstack(blocks)
        target = np.concatenate(targets)
        shift = np.linalg.lstsq(objective @ null_basis,
                                target - objective @ x0, rcond=None)[0]
        x = x0 + null_basis @ shift

    if np.abs(constraint @ x - rhs).sum() > 1e-9 * max(1.0, scale.wiener_norm()):
        return fallback
    return [Poly(part) for part in x.reshape(width, ncoef)]


def _bezout_row(entries: Sequence[Poly]) -> list[Poly]:
    """Row ``d`` with ``sum(d_i * entries_i) = 1`` by folding pairwise
    Bezout identities; once the running gcd hits a unit the remaining
    steps short-circuit through the constant cofactor.

    The fold settles existence; the returned row is then traded for the
    minimum-norm representative of the same identity, which keeps the
    elementary row operations built from it (and their inverses) small.
    Without that reduction the cofactor norms compound through recursive
    lifts and swamp the deeper columns.  When the fold itself balks at a
    close-but-distinct root pair, the direct least-squares solve (whose
    refinement tolerates worse conditioning) is tried before giving up.
    """
    try:
        acc = entries[0]
        cofactors = [Poly.one()]
        for e in entries[1:]:
            p, q = sylvester_bezout(acc, e)
            cofactors = [p * c for c in cofactors] + [q]
            acc = Poly.one()
    except CoprimalityFailure:
        cofactors = None
    return _minimal_norm_row(entries, cofactors)


def _minimal_norm_row(entries: Sequence[Poly],
                      fallback: list[Poly] | None) -> list[Poly]:
    """Minimum-norm coefficient-space solution of ``sum(d_i c_i) = 1``.

    Degree caps match the fold's output so the system is consistent.  A
    few iterative-refinement rounds push the identity residual to
    round-off; the residual gets amplified by every level of a recursive
    lift built on top of this row, so slack here is not affordable.  The
    fallback row, when provided, is kept whenever the solve fails to
    reproduce the identity at the oracle tolerance; without one the
    failure is a genuine coprimality problem.
    """
    cap = max(max(e.degree for e in entries), 1) + 1
    eq_count = cap + max(e.degree for e in entries) + 1
    system = np.hstack([convolution_matrix(e, cap, eq_count) for e in entries])
    rhs = np.zeros(eq_count, dtype=complex)
    rhs[0] = 1.0
    sol = np.linalg.lstsq(system, rhs, rcond=None)[0]
    for _ in range(4):
        gap = rhs - system @ sol
        if float(np.max(np.abs(gap))) < 1e-14:
            break
        sol = sol + np.linalg.lstsq(system, gap, rcond=None)[0]
    row = [Poly(part) for part in sol.reshape(-1, cap)]
    residual = _row_residual(row, entries)
    if residual > ORACLE_RESIDUAL_TOL:
        if fallback is None:
            raise CoprimalityFailure(
                f"least-squares Bezout row residual {residual:.3e}",
                residual=residual)
        return fallback
    return row


def disk_column_oracle(column: Sequence[Poly], eps: float, rng: np.random.Generator,
                       max_attempts: int = ORACLE_MAX_ATTEMPTS) -> tuple[list[Poly], list[Poly]]:
    """Perturb a polynomial column into a generating one, with Bezout row.

    Shifts constant coefficients by independent random phases (shrinking
    with the attempt number, total budget below ``eps``) until the entries
    are pairwise coprime over the whole plane, then folds pairwise Bezout
    identities into a row ``d`` with ``sum(d_i c_i) = 1`` to within 1e-8.
    Pairwise coprimality is demanded, not just the absence of a common
    root, because the fold consumes coprime pairs; it implies the weaker
    condition.
    """
    entries = list(column)
    width = len(entries)
    if width < 2:
        raise ValueError("column oracle needs at least two entries")
    if eps <= 0:
        raise ValueError("perturbation budget must be positive")

    best: tuple[float, list[Poly], list[Poly]] | None = None
    best_sep: float | None = None
    first_hit: int | None = None
    for t in range(max_attempts + 1):
        if (first_hit is not None
                and (t - first_hit > ORACLE_IMPROVE_ATTEMPTS
                     or best[0] <= ORACLE_ROW_NORM_TARGET)):
            break
        if t == 0:
            cand = list(entries)
            threshold = ORACLE_ROOT_SEPARATION
        else:
            mag = eps * (1.0 - t / 128.0) / (2.0 * width)
            cand = [e + Poly.constant(mag * np.exp(2j * np.pi * rng.uniform()))
                    for e in entries]
            # a shift of size mag cannot buy more than mag of separation,
            # so scale the demand down with the budget (floored safely
            # above the Bezout solver's own coprimality guard)
            threshold = max(ORACLE_SEPARATION_FLOOR,
                            min(ORACLE_ROOT_SEPARATION, mag))
        if any(e.is_zero for e in cand):
            continue
        root_sets = [roots(e) for e in cand]
        sep = min((min_separation(u, v) for u, v in itertools.combinations(root_sets, 2)),
                  default=math.inf)
        if sep < math.inf and (best_sep is None or sep > best_sep):
            best_sep = sep
        if sep < threshold:
            continue
        try:
            row = _bezout_row(cand)
        except CoprimalityFailure:
            continue
        if _row_residual(row, cand) > ORACLE_RESIDUAL_TOL:
            continue
        # keep the best-conditioned admissible attempt: oversized rows feed
        # oversized row operations in the lifts built on top of this oracle
        row_norm = sum(d.wiener_norm() for d in row)
        if best is None or row_norm < best[0]:
            best = (row_norm, cand, row)
        if first_hit is None:
            first_hit = t

    if best is not None:
        return best[1], best[2]
    raise PerturbationExhausted(
        f"no pairwise-coprime column within {max_attempts} attempts",
        attempts=max_attempts, best_separation=best_sep)


def _tame_block_column(ops: list[ElementaryOp], work: list[list],
                       target_degree: int, max_sweeps: int = 64) -> None:
    """Euclidean degree reduction of the block's leading column, in place.

    The clearing step leaves every block row carrying a multiple of the
    same cleared first row above the input degree, which forces the
    far-field roots of the block column into near-collisions that no
    small perturbation can separate.  Extra elementary row operations
    among the lower rows divide that shared part out (they do not touch
    row zero or the zeroed first column) and cap the column at the degree
    scale of the input.  Reductions with oversized quotients are skipped;
    division by near-constant pivots is already well conditioned.
    """
    rows = len(work)
    for _ in range(max_sweeps):
        live = [(l, work[l][1]) for l in range(1, rows) if not work[l][1].is_zero]
        if len(live) < 2:
            return
        if max(e.degree for _, e in live) <= target_degree:
            return
        pivot_degree = min(e.degree for _, e in live)
        if pivot_degree == 0:
            return
        pivot_row, pivot = max(
            ((l, e) for l, e in live if e.degree == pivot_degree),
            key=lambda item: abs(item[1].coeffs[-1]))
        progressed = False
        for l, e in live:
            if l == pivot_row or e.degree < pivot.degree:
                continue
            quotient, _ = poly_divmod(e, pivot)
            if quotient.is_zero:
                continue
            # the quotient multiplies a whole row, so it must stay small in
            # absolute terms; chasing low degrees against the decaying
            # remainders of a float Euclid chain is exactly what blows up
            if quotient.wiener_norm() > TAME_QUOTIENT_CAP:
                continue
            op = ElementaryOp(l, pivot_row, -quotient)
            _apply_left(op, work)
            ops.append(op)
            progressed = True
        if not progressed:
            return


def left_invertible_lift(mat: AlgMatrix, eps: float, oracle: ColumnOracle,
                         rng: np.random.Generator, polish: bool = True) -> LiftResult:
    """Approximate a tall polynomial matrix by a left-invertible one within ``eps``.

    Induction on the width: the base case hands the whole single column to
    the oracle; otherwise the tail of column one is densified (budget
    ``eps/2``), the column is cleared by elementary row operations ``R``,
    and the remaining block is lifted with budget ``eps / (2 * |R^{-1}|)``
    so the final estimate ``|R^{-1} S' - T| < eps`` goes through.  The left
    inverse is assembled by transporting the block inverse back through
    the explicit elementary factors, never by numerical inversion.

    Each level redraws its densification when the subtree underneath it
    gets stuck or comes back imprecise; the retries consume fresh
    randomness, so runs remain reproducible for a fixed stream.  The
    outermost call finishes with a couple of Newton rounds on the left
    inverse, which square away the rounding the transport accumulated.
    """
    rows, cols = mat.rows, mat.cols
    if rows <= cols:
        raise ValueError("lift needs strictly more rows than columns")
    if eps <= 0:
        raise ValueError("accuracy budget must be positive")

    if cols == 1:
        return _lift_base(mat, eps, oracle, rng)

    best: LiftResult | None = None
    last_exc: OracleFailure | None = None
    for attempt in range(LEVEL_RETRIES):
        try:
            # retries must jitter this level's own densification: otherwise
            # the unperturbed column is accepted again and the identical
            # stuck subtree is replayed
            cand = _lift_step(mat, eps, oracle, rng, jitter=attempt > 0)
        except OracleFailure as exc:
            last_exc = exc
            continue
        if best is None or cand.residual < best.residual:
            best = cand
        if best.residual <= LEVEL_ACCEPT_RESIDUAL:
            break
    if best is None:
        raise last_exc
    if polish:
        best = _polish_left_inverse(best, mat)
    return best


def _polish_left_inverse(result: LiftResult, mat: AlgMatrix) -> LiftResult:
    """Newton iteration ``Z <- (I - (Z X - I)) Z``, squaring the residual.

    The transported inverse is exact in spirit but picks up rounding
    proportional to the operation norms; a residual below one is enough
    for the iteration to converge to working precision.
    """
    output = result.output
    identity = AlgMatrix.identity(output.cols, Poly.one(), Poly.zero())
    z = result.left_inverse
    residual = (z * output - identity).norm_l1()
    for _ in range(POLISH_ROUNDS):
        if residual <= POLISH_TARGET or residual >= 1.0:
            break
        gap = z * output - identity
        z = (identity - gap) * z
        residual = (z * output - identity).norm_l1()
    if residual < result.residual:
        return LiftResult(output, z, result.distance, float(residual))
    return result


def _lift_base(mat: AlgMatrix, eps: float, oracle: ColumnOracle,
               rng: np.random.Generator) -> LiftResult:
    column = [row[0] for row in mat.entries]
    try:
        new_col, brow = oracle(column, eps, rng)
    except PerturbationExhausted as exc:
        raise OracleFailure(f"column oracle failed: {exc}", level=1) from exc
    output = AlgMatrix([[e] for e in new_col])
    left_inverse = AlgMatrix([list(brow)])
    residual = _row_residual(brow, new_col)
    distance = sum((n - o).wiener_norm() for n, o in zip(new_col, column))
    return LiftResult(output, left_inverse, float(distance), float(residual))


def _lift_step(mat: AlgMatrix, eps: float, oracle: ColumnOracle,
               rng: np.random.Generator, jitter: bool = False) -> LiftResult:
    rows, cols = mat.rows, mat.cols
    # retries also reshuffle the rows: the recursion pivots on specific
    # sub-rows, and a near rank drop of that particular submatrix (which
    # the full matrix need not share) blocks the deeper columns no matter
    # how they are perturbed; conjugating by a permutation moves it away
    perm = rng.permutation(rows) if jitter else np.arange(rows)
    source = mat.to_lists()
    grid = [list(source[p]) for p in perm]
    one, zero = Poly.one(), Poly.zero()

    # densify the tail of the first column (rows cols-1 .. rows-1)
    sub = [grid[i][0] for i in range(cols - 1, rows)]
    budget = eps / 2.0
    if jitter:
        mag = eps / (8.0 * len(sub))
        sub = [e + Poly.constant(mag * np.exp(2j * np.pi * rng.uniform()))
               for e in sub]
        budget = eps / 4.0
    try:
        new_sub, brow = oracle(sub, budget, rng)
    except PerturbationExhausted as exc:
        raise OracleFailure(
            f"column oracle failed at width {cols}: {exc}", level=cols) from exc
    for offset, e in enumerate(new_sub):
        grid[cols - 1 + offset][0] = e

    # row ops: first make the corner 1 through a Bezout combination, then
    # clear the rest of the column against it.  Every lower row may join
    # the combination (the densified tail guarantees solvability); the
    # extra freedom is spent keeping the cleared first row small, which is
    # what keeps the remaining block conditioned.
    scale = one - grid[0][0]
    fallback = [zero] * (cols - 2) + [scale * b for b in brow]
    dvals = _choose_clearing_row(
        [grid[i][0] for i in range(1, rows)], scale, list(grid[0][1:]),
        [list(grid[i][1:]) for i in range(1, rows)], fallback)
    ops = [ElementaryOp(0, 1 + idx, d) for idx, d in enumerate(dvals)
           if not d.is_zero]
    ops += [ElementaryOp(i, 0, -grid[i][0]) for i in range(1, rows)]

    work = [row[:] for row in grid]
    for op in ops:
        _apply_left(op, work)

    target_degree = max(max((e.degree for row in grid for e in row), default=1), 1)
    _tame_block_column(ops, work, target_degree)

    srow = work[0][1:]
    block = AlgMatrix([row[1:] for row in work[1:]])

    rinv_rows = [[one if r == c else zero for c in range(rows)] for r in range(rows)]
    for op in ops:
        _apply_right(op.inverse(), rinv_rows)
    rinv_norm = AlgMatrix(rinv_rows).norm_l1()

    inner = left_invertible_lift(block, eps / (2.0 * rinv_norm), oracle, rng,
                                 polish=False)

    lifted = [[one] + list(srow)]
    lifted += [[zero] + list(irow) for irow in inner.output.to_lists()]
    for op in reversed(ops):
        _apply_left(op.inverse(), lifted)
    output = AlgMatrix(lifted)

    z12 = (AlgMatrix([srow]) * inner.left_inverse).entries[0]
    z_rows = [[one] + [-t for t in z12]]
    z_rows += [[zero] + list(w_row) for w_row in inner.left_inverse.entries]
    for op in reversed(ops):
        _apply_right(op, z_rows)

    # undo the row shuffle: rows of the output, columns of the left inverse
    inverse_perm = np.argsort(perm)
    out_rows = output.to_lists()
    output = AlgMatrix([out_rows[i] for i in inverse_perm])
    left_inverse = AlgMatrix([[z_rows[r][inverse_perm[c]] for c in range(rows)]
                              for r in range(cols)])

    identity = AlgMatrix.identity(cols, one, zero)
    residual = (left_inverse * output - identity).norm_l1()
    distance = (output - mat).norm_l1()
    return LiftResult(output, left_inverse, float(distance), float(residual))


@dataclass(frozen=True)
class TupleLift:
    """A generating tuple near the input, with the subalgebra witness row
    certifying ``sum_j w_j * y_j = delta^0``."""

    outputs: tuple[CrossedElement, ...]
    witness: tuple[CrossedElement, ...]
    residual: float
    distances: tuple[float, ...]
    lift: LiftResult


def lift_generating_tuple(elements: Sequence[CrossedElement], eps: float,
                          rng: np.random.Generator) -> TupleLift:
    """Lift a tuple of ``n + 1`` crossed-product elements to a generating one.

    Writes each element through the quasi-basis as ``sum_k E(b_j u_k) v_k``,
    lifts the expectation matrix ``[E(b_j u_k)]`` to a left-invertible one
    over the polynomial subalgebra, and pushes the result back.  The
    witness is the identity-component row of the left inverse: only that
    column of ``(E(u_1) ... E(u_n))`` survives, and the product with the
    outputs telescopes to ``delta^0``.  The ``n + 1`` length is the
    disk-algebra instantiation, one more than the group order.
    """
    elements = tuple(elements)
    if not elements:
        raise ValueError("empty tuple")
    spec = elements[0].spec
    n = spec.n
    if len(elements) != n + 1:
        raise ValueError(
            f"expected a tuple of length {n + 1} (group order plus one), "
            f"got {len(elements)}")
    if any(b.spec != spec for b in elements):
        raise ValueError("mixed group specs in tuple")
    if eps <= 0:
        raise ValueError("accuracy budget must be positive")

    u = [CrossedElement.monomial(spec, k) for k in range(n)]
    v = [CrossedElement.monomial(spec, (n - k) % n) for k in range(n)]

    a_rows = [[expectation(b * u[k]).component(0) for k in range(n)]
              for b in elements]
    v_norm = float(sum(vk.l1_norm() for vk in v))

    lift = left_invertible_lift(AlgMatrix(a_rows), eps / v_norm,
                                disk_column_oracle, rng)
    x = lift.output.to_lists()
    z = lift.left_inverse.to_lists()

    outputs = []
    for j in range(n + 1):
        terms = (CrossedElement.monomial(spec, 0, x[j][k]) * v[k] for k in range(n))
        outputs.append(functools.reduce(operator.add, terms))
    witness = tuple(CrossedElement.monomial(spec, 0, z[0][j]) for j in range(n + 1))

    combo = functools.reduce(operator.add,
                             (w * y for w, y in zip(witness, outputs)))
    residual = (combo - CrossedElement.unit(spec)).l1_norm()
    distances = tuple((y - b).l1_norm() for y, b in zip(outputs, elements))
    return TupleLift(tuple(outputs), witness, float(residual), distances, lift)
