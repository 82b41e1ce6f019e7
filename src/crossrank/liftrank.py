"""Constructive density of left-invertible tall matrices, and tuple lifting
through the expectation picture of the crossed product.

``left_invertible_lift`` makes McCoy's theorem constructive: over the
polynomials a tall ``r x c`` matrix ``X`` is left-invertible exactly when
its ``c x c`` minors generate the unit ideal (W. C. Brown, *Matrices over
Commutative Rings*, 1993).  The left inverse is not built from the minors:
``_left_inverse`` solves ``Z X = I`` directly for the minimum-norm ``Z``
whose entries have degree at most ``c * deg X``: one wide linear system in
coefficient space with ``c`` right-hand sides, solved from one QR
factorization of its adjoint that every refinement round reuses.  For
``r >= c + 1`` that is the first degree with more unknowns than equations;
it is not a proven bound, so every solve passes the residual gate, and an
input that misses it (its minors share a zero, or nearly so) is nudged by
random-phase constants and solved again.  A single column is the ``r x 1``
case, whose left inverse is a Bezout row; ``disk_column_oracle`` packages
that case as the base step of the disk-algebra model (pairs are dense among
generating pairs).

The gate measures ``|Z X - I|``, the summed Wiener norm of the entries, on
zero-padded coefficient arrays that are never trimmed, so the round-off of
every coefficient counts, the diagonal's included.

``lift_generating_tuple`` feeds the lift with the expectation matrix of a
tuple of crossed-product elements, producing a nearby generating tuple
together with a witness row over the subalgebra.  Both moves are component
reads, and the witness residual is ``algebra.unit_gap`` on untrimmed arrays,
so a tuple lift multiplies no crossed-product elements.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import AlgMatrix, CrossedElement, unit_gap
from .errors import OracleFailure, PerturbationExhausted
from .poly import REFINEMENT_STOP, Poly, padded, summed_norm

ORACLE_MAX_ATTEMPTS = 64
LEVEL_ACCEPT_RESIDUAL = 1e-7

ColumnOracle = Callable[..., tuple[list[Poly], list[Poly]]]


@dataclass(frozen=True)
class LiftResult:
    """A left-invertible matrix near the input, with its explicit witness."""

    output: AlgMatrix
    left_inverse: AlgMatrix
    distance: float
    residual: float


def disk_column_oracle(column: Sequence[Poly], eps: float,
                       rng: np.random.Generator) -> tuple[list[Poly], list[Poly]]:
    """Perturb a polynomial column into a generating one, with Bezout row.

    The ``r x 1`` case of ``_perturbed_lift``, whose left inverse is a row
    ``d`` with ``sum(d_i c_i) = 1``: returns the column within ``eps`` of the
    input and that row, or raises ``PerturbationExhausted``.
    """
    entries = list(column)
    if len(entries) < 2:
        raise ValueError("column oracle needs at least two entries")
    if eps <= 0:
        raise ValueError("perturbation budget must be positive")
    try:
        lift = _perturbed_lift(AlgMatrix([[e] for e in entries]), eps, rng)
    except OracleFailure as exc:
        raise PerturbationExhausted(
            f"no generating column within {ORACLE_MAX_ATTEMPTS} attempts",
            attempts=ORACLE_MAX_ATTEMPTS) from exc
    return [row[0] for row in lift.output.to_lists()], lift.left_inverse.to_lists()[0]


def left_invertible_lift(mat: AlgMatrix, eps: float, oracle: ColumnOracle,
                         rng: np.random.Generator) -> LiftResult:
    """Approximate a tall polynomial matrix by a left-invertible one within ``eps``.

    Every width runs ``_perturbed_lift``, which solves ``Z X = I`` directly
    for the minimum-norm ``Z`` of degree at most ``c * deg X``; a single
    column goes through ``oracle`` (``disk_column_oracle`` is that lift at
    width 1) and passes the same gate.  A lift is returned only when
    ``|Z X - I| <= LEVEL_ACCEPT_RESIDUAL`` and the distance is below ``eps``;
    otherwise ``OracleFailure`` is raised with ``level`` the width.
    """
    rows, cols = mat.rows, mat.cols
    if rows <= cols:
        raise ValueError("lift needs strictly more rows than columns")
    if eps <= 0:
        raise ValueError("accuracy budget must be positive")
    if cols > 1:
        return _perturbed_lift(mat, eps, rng)

    try:
        new_col, brow = oracle([row[0] for row in mat.to_lists()], eps, rng)
    except PerturbationExhausted as exc:
        raise OracleFailure(f"column oracle failed: {exc}", level=1) from exc
    lift = _gated(AlgMatrix([[e] for e in new_col]), AlgMatrix([list(brow)]), mat, eps)
    if lift is None:
        raise OracleFailure("column oracle row misses the lift gate", level=1)
    return lift


def _perturbed_lift(mat: AlgMatrix, eps: float, rng: np.random.Generator) -> LiftResult:
    """The direct left inverse of ``mat`` or of a nearby perturbation.

    Attempt 0 uses the input itself, attempt ``t`` adds a random-phase
    constant of modulus ``eps * (1 - t/128) / (2 r c)`` to every entry, so
    the total shift stays below ``eps / 2``.  The first attempt whose
    ``_left_inverse`` passes ``_gated`` is returned; after
    ``ORACLE_MAX_ATTEMPTS`` perturbations ``OracleFailure(level=c)`` is raised.
    """
    rows, cols = mat.rows, mat.cols
    source = mat.to_lists()
    for t in range(ORACLE_MAX_ATTEMPTS + 1):
        if t == 0:
            cand = source
        else:
            mag = eps * (1.0 - t / 128.0) / (2.0 * rows * cols)
            cand = [[e + Poly.constant(mag * np.exp(2j * np.pi * rng.uniform()))
                     for e in row] for row in source]
        left_inverse = _left_inverse(cand)
        if left_inverse is None:
            continue
        lift = _gated(AlgMatrix(cand), left_inverse, mat, eps)
        if lift is not None:
            return lift
    raise OracleFailure(
        f"no {rows}x{cols} lift within {ORACLE_MAX_ATTEMPTS} perturbations "
        f"meets the residual {LEVEL_ACCEPT_RESIDUAL:.0e}", level=cols)


def _gated(output: AlgMatrix, left_inverse: AlgMatrix, mat: AlgMatrix,
           eps: float) -> LiftResult | None:
    """The lift, if ``|Z X - I| <= LEVEL_ACCEPT_RESIDUAL`` and ``|X - M| < eps``.

    ``Z X - I`` is one ``einsum`` of Toeplitz windows of ``Z`` against the
    short axis of ``X``, ``sum_k sum_s Z[i,k,l-s] X[k,j,s]``, into one
    zero-padded ``(c, c, L)`` array that is never trimmed, so the residual is
    the true ``|Z X - I|``: no round-off below a trim threshold is dropped.
    This is the package's only product of matrices.  Both norms are
    ``summed_norm`` of the arrays, the entry norms added in row-major order,
    so an unperturbed attempt is at distance 0 exactly.
    """
    cols = output.cols
    xs, ms = _padded(output, mat)
    zs = _padded(left_inverse)[0]
    # the order of summation shows at round-off: on the order-18 tuple lift
    # of seeded_generator(18001) these windows read 8.3e-8, windows of X
    # against the long axis of Z 9.8e-8, and extended precision 6.0e-8
    z_width, x_width = zs.shape[-1], xs.shape[-1]
    lag = np.arange(z_width + x_width - 1)[:, None] - np.arange(x_width)
    lag[(lag < 0) | (lag >= z_width)] = z_width
    windows = np.concatenate([zs, np.zeros(zs.shape[:2] + (1,), dtype=complex)],
                             axis=-1)[:, :, lag]
    gap = np.einsum("ikls,kjs->ijl", windows, xs)
    gap[np.arange(cols), np.arange(cols), 0] -= 1.0
    residual = summed_norm(gap)
    distance = summed_norm(xs - ms)
    if residual <= LEVEL_ACCEPT_RESIDUAL and distance < eps:
        return LiftResult(output, left_inverse, distance, residual)
    return None


def _padded(*mats: AlgMatrix) -> list[np.ndarray]:
    """Each matrix's coefficients as an ``(r, c, width)`` array, zero-padded
    to the longest entry among them all (at least one coefficient)."""
    width = max(1, *(e.coeffs.size for m in mats for row in m.entries for e in row))
    return [padded((e for row in m.entries for e in row), width)
            .reshape(m.rows, m.cols, width) for m in mats]


def _left_inverse(entries: list[list[Poly]]) -> AlgMatrix | None:
    """The minimum-norm ``Z`` with ``Z X = I``, each entry of degree at most
    ``c * deg X``, or ``None`` when the system's factor is exactly singular.

    Block ``j`` of the system maps the coefficients of ``Z[i][k]`` to their
    products with ``X[k][j]``, gathered from one padded coefficient array;
    its equations run to the longest product, ``cap + deg(column j)``, past
    which every row would be zero and the factor singular.  The system is
    wide, and the minimum-norm solution of ``A z = b`` with ``A^H = Q R`` is
    ``Q R^-H b``: one QR factorization takes the ``c`` right-hand sides
    ``e_(i, 0)``, and a few iterative-refinement rounds reuse it to push
    the identity residual to round-off.  For ``r >= c + 1``, ``c * deg X``
    is the first degree with more unknowns, ``r (c deg X + 1)``, than
    equations, at most ``c ((c + 1) deg X + 1)``; one degree less misses by
    far on random inputs.  It is not a proven bound, so nothing is raised
    here: a ``Z`` that misses is rejected by ``_gated``, and a singular
    factor, as from a column whose entries all vanish at 0, is a miss too.
    """
    rows, cols = len(entries), len(entries[0])
    degree = max(max(e.degree for row in entries for e in row), 0)
    cap = cols * max(degree, 1) + 1
    # the extra zero coefficient at degree + 1 stands for every lag outside
    # 0..degree, so one gather fills the whole system
    coeffs = padded((e for row in entries for e in row),
                    degree + 2).reshape(rows, cols, degree + 2)
    eq_counts = [cap + max(row[j].degree for row in entries) for j in range(cols)]
    starts = np.cumsum([0] + eq_counts[:-1])
    block = np.repeat(np.arange(cols), eq_counts)
    eq = np.arange(block.size) - np.repeat(starts, eq_counts)
    lag = eq[:, None, None] - np.arange(cap)
    lag[(lag < 0) | (lag > degree)] = degree + 1
    system = coeffs[np.arange(rows)[:, None], block[:, None, None], lag]
    system = system.reshape(block.size, rows * cap)
    q, r = np.linalg.qr(system.conj().T)
    if not np.all(np.diagonal(r)):
        return None
    rh = r.conj().T
    rhs = np.zeros((block.size, cols), dtype=complex)
    rhs[starts, np.arange(cols)] = 1.0
    sol = q @ np.linalg.solve(rh, rhs)
    for _ in range(4):
        gap = rhs - system @ sol
        if float(np.max(np.abs(gap))) < REFINEMENT_STOP:
            break
        sol = sol + q @ np.linalg.solve(rh, gap)
    return AlgMatrix([[Poly(part) for part in z_row.reshape(rows, cap)] for z_row in sol.T])


@dataclass(frozen=True)
class TupleLift:
    """A generating tuple near the input, with the subalgebra witness row
    certifying ``sum_j w_j * y_j = delta^0``; ``residual`` is
    ``|sum_j w_j * y_j - delta^0|`` on untrimmed coefficient arrays."""

    outputs: tuple[CrossedElement, ...]
    witness: tuple[CrossedElement, ...]
    residual: float
    distances: tuple[float, ...]
    lift: LiftResult


def lift_generating_tuple(elements: Sequence[CrossedElement], eps: float,
                          rng: np.random.Generator) -> TupleLift:
    """Lift a tuple of ``n + 1`` crossed-product elements to a generating one.

    Writes each element through the quasi-basis ``u_k = delta^k``,
    ``v_k = delta^{-k}`` as ``sum_k E(b_j u_k) v_k``, lifts the expectation
    matrix ``[E(b_j u_k)]`` to a left-invertible one over the polynomial
    subalgebra, and pushes the result back.  Both steps are component
    moves, not products: ``E(b delta^k) = b_{-k}``, the component of ``b``
    at ``-k``, and ``x delta^0 v_k`` is ``x`` placed at component ``-k``.  The
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

    # E(b delta^k) is component -k of b, and |v_k| = |delta^{-k}| = 1
    a_rows = [[b.component(-k) for k in range(n)] for b in elements]
    lift = left_invertible_lift(AlgMatrix(a_rows), eps / n, disk_column_oracle, rng)
    x = lift.output.to_lists()
    z = lift.left_inverse.to_lists()

    # sum_k x_jk delta^0 v_k puts x_jk in component -k
    outputs = tuple(CrossedElement(spec, (x_row[-g % n] for g in range(n))) for x_row in x)
    witness = tuple(CrossedElement.monomial(spec, 0, z[0][j]) for j in range(n + 1))

    residual = unit_gap(zip(witness, outputs))
    distances = tuple((y - b).l1_norm() for y, b in zip(outputs, elements))
    return TupleLift(outputs, witness, residual, distances, lift)
