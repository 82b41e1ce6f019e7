"""Complex polynomial arithmetic plus the numeric services shared by the
other modules: Wiener norms, rotation twists, values on grids of roots
of unity, root finding, Bezout cofactors, and winding numbers of circle
paths.

Polynomials model disk-algebra elements: they are dense in the algebra of
functions holomorphic on the open unit disk and continuous up to the
boundary, and every certificate this package emits is stated for them.
The norm used throughout is the Wiener norm ``sum(|c_k|)``, which is
computable exactly, submultiplicative, and dominates the sup norm over the
closed disk, so approximation statements in it are at least as strong as
their sup-norm counterparts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import CoprimalityFailure, UndersampledPath

TRIM_RELATIVE = 1e-12
ROOT_OF_UNITY_TOL = 1e-12
COPRIME_ROOT_SEPARATION = 1e-6
SYLVESTER_CONDITION_CAP = 1e12
BEZOUT_RESIDUAL_TOL = 1e-8
PHASE_JUMP_LIMIT = math.pi / 2

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


def _moduli(zs: np.ndarray) -> np.ndarray:
    """``|z|`` rounded as Python's ``abs`` rounds it; ``np.abs`` may differ in
    the last bit on some CPUs, and norms and trimming should not."""
    return np.hypot(zs.real, zs.imag)


class Poly:
    """Dense complex polynomial; ``coeffs[k]`` multiplies ``z**k``.

    The coefficients are a read-only complex128 array.  The zero polynomial
    is the empty array; otherwise the last coefficient is nonzero.
    Trailing coefficients whose modulus is at most ``trim`` times the
    largest coefficient modulus are discarded on construction, which keeps
    numerically produced values in normal form.  Instances are immutable
    and all operations are pure; ``roots`` keeps its result on the
    instance.
    """

    __slots__ = ("_coeffs", "_roots")

    def __init__(self, coeffs: Iterable[complex] = (), trim: float = TRIM_RELATIVE):
        cs = np.array(coeffs, dtype=complex)
        if cs.size:
            mags = _moduli(cs)
            # a list max is cheaper than an array reduction at these sizes
            moduli = mags.tolist()
            cut = trim * max(moduli)
            # an overflowed modulus makes the cut inf (or NaN at trim 0), and
            # every modulus is <= inf: keep all, so norms read inf, not 0
            if not moduli[-1] > cut and cut < math.inf:
                # NaN compares false both ways, so a NaN is never trimmed
                kept = np.flatnonzero(~(mags <= cut))
                cs = cs[:kept[-1] + 1] if kept.size else cs[:0]
        cs.setflags(write=False)
        self._coeffs = cs
        self._roots = None

    # -- construction helpers

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def one(cls) -> Poly:
        return cls((1.0,))

    @classmethod
    def constant(cls, c: complex) -> Poly:
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, coeff: complex = 1.0) -> Poly:
        """``coeff * z**power``."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0.0,) * power + (coeff,))

    # -- structure

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return self._coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs.size

    def coefficient(self, k: int) -> complex:
        return complex(self._coeffs[k]) if 0 <= k < self._coeffs.size else 0.0

    # -- arithmetic

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[:b.size] += b
        return Poly(out)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(-self._coeffs, trim=0.0)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            return Poly(np.convolve(self._coeffs, other._coeffs))
        if isinstance(other, _SCALARS):
            return Poly(self._coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, _SCALARS):
            # an array would turn division by zero into inf/nan silently
            if scalar == 0:
                raise ZeroDivisionError("polynomial division by zero")
            return Poly(self._coeffs / scalar)
        return NotImplemented

    def __call__(self, z: complex) -> complex:
        return complex(self.eval_on_array(np.asarray(z)))

    def eval_on_array(self, zs: np.ndarray) -> np.ndarray:
        """Horner evaluation at every point of ``zs`` at once."""
        result = np.zeros(np.shape(zs), dtype=complex)
        for c in self._coeffs[::-1].tolist():
            result *= zs
            result += c
        return result

    def wiener_norm(self) -> float:
        """Sum of coefficient moduli; zero iff the polynomial is zero."""
        return float(sum(_moduli(self._coeffs).tolist()))

    # -- comparison / display

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and np.array_equal(self._coeffs, other._coeffs)

    def __repr__(self) -> str:
        return f"Poly({self._coeffs.tolist()!r})"


def rotate(f: Poly, omega: complex, j: int = 1, order: int | None = None) -> Poly:
    """Twist ``f`` by the disk rotation ``z -> omega**j * z``.

    Coefficient ``c_k`` becomes ``c_k * omega**(j*k)``, i.e. the result is
    ``f`` composed with multiplication by ``omega**j``.  When ``order`` is
    given, ``omega`` must be an ``order``-th root of unity to within
    ``ROOT_OF_UNITY_TOL``.
    The twist is isometric for the Wiener norm since ``|omega**(j*k)| = 1``.
    """
    omega = complex(omega)
    if order is not None:
        if order < 1:
            raise ValueError("order must be positive")
        if abs(omega ** order - 1.0) > ROOT_OF_UNITY_TOL:
            raise ValueError(
                f"omega={omega!r} is not an order-{order} root of unity "
                f"(|omega**n - 1| = {abs(omega ** order - 1.0):.3e})")
    return Poly(f.coeffs * (omega ** j) ** np.arange(f.coeffs.size))


def convolution_matrix(f: Poly, ncols: int, rows: int) -> np.ndarray:
    """Matrix of ``d -> d * f`` on coefficient vectors of length ``ncols``.

    Column ``j`` holds the coefficients of ``z**j * f``, padded with zeros
    to ``rows >= ncols + deg f``; with ``ncols = 1`` it is the padded
    coefficient vector of ``f``.
    """
    # laid end to end and cut every ``rows`` entries, copies of the column
    # padded to ``rows + 1`` entries start one row lower each time; the copy
    # is row-major, so matrix-vector products round as on any other array
    column = np.zeros(rows + 1, dtype=complex)
    column[:f.coeffs.size] = f.coeffs
    return np.concatenate([column] * ncols)[:rows * ncols].reshape(ncols, rows).T.copy()


def grid_values(polys: Iterable[Poly], size: int) -> np.ndarray:
    """Values of each polynomial at the ``size``-th roots of unity.

    Row ``r`` holds ``polys[r]`` at ``exp(2j*pi*k/size)`` for
    ``k = 0..size-1``; a degree of ``size`` or more raises ``ValueError``.
    The values of ``f(exp(2j*pi*s/size) * z)`` are those of ``f`` rolled by
    ``s`` points, ``np.roll(row, -s)``.
    """
    coeffs = [f.coeffs for f in polys]
    padded = np.zeros((len(coeffs), size), dtype=complex)
    for row, cs in zip(padded, coeffs):
        row[:cs.size] = cs  # numpy refuses to broadcast a longer row
    return size * np.fft.ifft(padded, axis=-1)


def grid_coeffs(values: np.ndarray) -> np.ndarray:
    """Inverse of ``grid_values``: coefficient rows of the polynomials of
    degree below ``size`` that take the given values, ``size`` being the
    length of the last axis."""
    return np.fft.fft(values, axis=-1) / values.shape[-1]


def min_separation(us: np.ndarray, vs: np.ndarray) -> float:
    """Smallest ``|u - v|`` over two point sets; infinite if either is empty."""
    gaps = np.abs(np.subtract.outer(us, vs))
    return float(gaps.min()) if gaps.size else math.inf


def roots(f: Poly) -> np.ndarray:
    """Root multiset via companion-matrix eigenvalues plus one Newton polish.

    Returns ``f.degree`` roots; the monic recomposition agrees with
    ``f / lead(f)`` coefficient-wise to about 1e-8 relative for
    well-separated roots.  The zero polynomial is rejected.  ``Poly`` is
    immutable, so the root set is solved once and kept on ``f``: the result
    is a read-only array, and every later call on the same instance returns
    that same array.
    """
    if f._roots is not None:
        return f._roots
    if f.is_zero:
        raise ValueError("the zero polynomial has no root multiset")
    cs = f.coeffs
    # the companion matrix np.roots builds: low-order zero coefficients are
    # roots at the origin, appended after the eigenvalues of the rest
    low = int(np.flatnonzero(cs)[0])
    core = cs[low:]
    raw = np.zeros(f.degree, dtype=complex)
    if core.size > 1:
        companion = np.eye(core.size - 1, k=-1, dtype=complex)
        companion[0] = -core[-2::-1] / core[-1]
        raw[:core.size - 1] = np.linalg.eigvals(companion)
    # f and f' at every eigenvalue at once
    powers = np.vander(raw, cs.size, increasing=True)
    fr = powers @ cs
    dr = powers[:, :-1] @ (cs[1:] * np.arange(1, cs.size))
    # a root where the derivative vanishes keeps a zero step
    cand = raw - np.divide(fr, dr, out=np.zeros(raw.size, dtype=complex), where=dr != 0)
    # keep each Newton step only if it actually improved the residual
    fc = np.vander(cand, cs.size, increasing=True) @ cs
    out = np.where(np.abs(fc) <= np.abs(fr), cand, raw)
    out.setflags(write=False)
    f._roots = out
    return out


def sylvester_bezout(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Cofactors ``(p, q)`` with ``p*f + q*g = 1`` for coprime ``f``, ``g``.

    Solves the Sylvester-style linear system for the coefficients of ``p``
    (degree < deg g) and ``q`` (degree < deg f).  Two independent guards
    reject non-coprime input: a minimum pairwise root separation and a cap
    on the 1-norm condition number of the system.  A nonzero constant input
    short-circuits to a unit cofactor.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("Bezout cofactors require nonzero polynomials")
    if f.degree == 0:
        return Poly.constant(1.0 / f.coefficient(0)), Poly.zero()
    if g.degree == 0:
        return Poly.zero(), Poly.constant(1.0 / g.coefficient(0))

    sep = min_separation(roots(f), roots(g))
    if sep < COPRIME_ROOT_SEPARATION:
        raise CoprimalityFailure(
            f"inputs share a root to within {sep:.3e}", separation=sep)

    # scale both inputs to unit max coefficient so the system stays balanced
    sf = max(_moduli(f.coeffs).tolist())
    sg = max(_moduli(g.coeffs).tolist())
    m, k = f.degree, g.degree
    system = np.hstack([convolution_matrix(f, k, m + k) / sf,
                        convolution_matrix(g, m, m + k) / sg])

    try:
        condition = float(np.linalg.norm(system, 1) * np.linalg.norm(np.linalg.inv(system), 1))
    except np.linalg.LinAlgError:
        condition = math.inf
    if not np.isfinite(condition) or condition > SYLVESTER_CONDITION_CAP:
        raise CoprimalityFailure(
            f"Sylvester system condition {condition:.3e} exceeds cap",
            separation=sep, condition=condition)

    rhs = np.zeros(m + k, dtype=complex)
    rhs[0] = 1.0
    sol = np.linalg.solve(system, rhs)
    # iterative refinement recovers the digits a barely-conditioned solve
    # loses; two or three rounds reach round-off for any condition number
    # the cap admits
    for _ in range(3):
        gap = rhs - system @ sol
        if float(np.max(np.abs(gap))) < 1e-14:
            break
        sol = sol + np.linalg.solve(system, gap)
    p = Poly(sol[:k]) / sf
    q = Poly(sol[k:]) / sg

    residual = (p * f + q * g - Poly.one()).wiener_norm()
    if residual > BEZOUT_RESIDUAL_TOL:
        raise CoprimalityFailure(
            f"Bezout residual {residual:.3e} exceeds {BEZOUT_RESIDUAL_TOL:.0e}",
            separation=sep, condition=condition, residual=residual)
    return p, q


# eq=False: arrays have no single truth value, so paths compare by identity
@dataclass(frozen=True, eq=False)
class CirclePath:
    """Values of a function at equispaced points ``exp(2*pi*i*k/m)`` on the
    unit circle, the discrete loop that winding numbers are read from; the
    samples are a read-only complex128 array, and ``min_modulus``, the
    smallest sample modulus, is taken once on construction."""

    samples: np.ndarray
    min_modulus: float = field(init=False)

    def __post_init__(self):
        samples = np.array(self.samples, dtype=complex)
        if samples.size < 16:
            raise ValueError("a circle path needs at least 16 samples")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "min_modulus", float(np.min(_moduli(samples))))


def circle_points(m: int) -> np.ndarray:
    if m < 16:
        raise ValueError("need at least 16 circle points")
    return np.exp(2j * np.pi * np.arange(m) / m)


def winding_number(path: CirclePath) -> int:
    """Total phase change of the closed loop divided by ``2*pi``.

    Every sample must be nonzero and consecutive phase jumps must stay
    below ``pi/2`` (a conservative guard; raise the sample count
    otherwise).  The count is invariant under multiplying the path by any
    positive function, and winding numbers of pointwise products add.
    """
    if path.min_modulus == 0.0:
        raise ValueError("path passes through zero; winding number undefined")
    jumps = np.angle(np.roll(path.samples, -1) / path.samples)
    max_jump = float(np.max(np.abs(jumps)))
    if max_jump >= PHASE_JUMP_LIMIT:
        raise UndersampledPath(
            f"phase jump {max_jump:.3f} rad >= pi/2; increase the sample count",
            max_jump=max_jump)
    turns = float(np.sum(jumps)) / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 1e-6:
        raise UndersampledPath(
            f"total phase {turns:.6f} turns is not an integer", max_jump=max_jump)
    return int(nearest)
