"""Complex polynomial arithmetic plus the numeric services shared by the
other modules: Wiener norms, rotation twists, root finding, Bezout
cofactors, and winding numbers of circle paths.

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
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import CoprimalityFailure, UndersampledPath

TRIM_RELATIVE = 1e-12
ROOT_OF_UNITY_TOL = 1e-12
COPRIME_ROOT_SEPARATION = 1e-6
SYLVESTER_CONDITION_CAP = 1e12
BEZOUT_RESIDUAL_TOL = 1e-8
PHASE_JUMP_LIMIT = math.pi / 2

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


class Poly:
    """Dense complex polynomial; ``coeffs[k]`` multiplies ``z**k``.

    The zero polynomial is the empty coefficient tuple; otherwise the last
    coefficient is nonzero.  Trailing coefficients whose modulus is at most
    ``trim`` times the largest coefficient modulus are discarded on
    construction, which keeps numerically produced values in normal form.
    Instances are immutable and all operations are pure.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[complex] = (), trim: float = TRIM_RELATIVE):
        cs = [complex(c) for c in coeffs]
        if cs:
            cut = trim * max(abs(c) for c in cs)
            last = len(cs)
            while last > 0 and abs(cs[last - 1]) <= cut:
                last -= 1
            del cs[last:]
        self._coeffs = tuple(cs)

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

    @classmethod
    def from_roots(cls, roots: Iterable[complex]) -> Poly:
        """Monic polynomial with the given root multiset."""
        out = cls.one()
        for r in roots:
            out = out * cls((-complex(r), 1.0))
        return out

    # -- structure

    @property
    def coeffs(self) -> tuple[complex, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, k: int) -> complex:
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else 0.0

    # -- arithmetic

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self._coeffs), trim=0.0)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            prod = np.convolve(np.asarray(self._coeffs, dtype=complex),
                               np.asarray(other._coeffs, dtype=complex))
            return Poly(prod)
        if isinstance(other, _SCALARS):
            return Poly(tuple(c * other for c in self._coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return Poly(tuple(other * c for c in self._coeffs))
        return NotImplemented

    def __truediv__(self, scalar):
        if isinstance(scalar, _SCALARS):
            return Poly(tuple(c / scalar for c in self._coeffs))
        return NotImplemented

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out, base = Poly.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, z: complex) -> complex:
        result = 0.0 + 0.0j
        for c in reversed(self._coeffs):
            result = result * z + c
        return result

    def eval_on_array(self, zs: np.ndarray) -> np.ndarray:
        """Horner evaluation at every point of ``zs`` at once."""
        result = np.zeros_like(zs, dtype=complex)
        for c in reversed(self._coeffs):
            result = result * zs + c
        return result

    def derivative(self) -> Poly:
        return Poly(tuple(k * c for k, c in enumerate(self._coeffs) if k > 0), trim=0.0)

    def wiener_norm(self) -> float:
        """Sum of coefficient moduli; zero iff the polynomial is zero."""
        return float(sum(abs(c) for c in self._coeffs))

    # -- comparison / display

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return f"Poly({list(self._coeffs)!r})"


def rotate(f: Poly, omega: complex, j: int = 1, order: int | None = None,
           tol: float = ROOT_OF_UNITY_TOL) -> Poly:
    """Twist ``f`` by the disk rotation ``z -> omega**j * z``.

    Coefficient ``c_k`` becomes ``c_k * omega**(j*k)``, i.e. the result is
    ``f`` composed with multiplication by ``omega**j``.  When ``order`` is
    given, ``omega`` must be an ``order``-th root of unity to within ``tol``.
    The twist is isometric for the Wiener norm since ``|omega**(j*k)| = 1``.
    """
    omega = complex(omega)
    if order is not None:
        if order < 1:
            raise ValueError("order must be positive")
        if abs(omega ** order - 1.0) > tol:
            raise ValueError(
                f"omega={omega!r} is not an order-{order} root of unity "
                f"(|omega**n - 1| = {abs(omega ** order - 1.0):.3e})")
    w = omega ** j
    return Poly(tuple(c * w ** k for k, c in enumerate(f.coeffs)))


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with ``f = q*g + r`` and ``deg r < deg g``."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    dg = g.degree
    if f.degree < dg:
        return Poly.zero(), f
    gc = g.coeffs
    lead = gc[-1]
    rem = list(f.coeffs)
    quot = [0.0 + 0.0j] * (f.degree - dg + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dg] / lead
        quot[i] = c
        if c != 0:
            for t in range(dg + 1):
                rem[i + t] -= c * gc[t]
    return Poly(quot), Poly(rem[:dg])


def roots(f: Poly) -> list[complex]:
    """Root multiset via companion-matrix eigenvalues plus one Newton polish.

    Returns ``f.degree`` roots; the monic recomposition agrees with
    ``f / lead(f)`` coefficient-wise to about 1e-8 relative for
    well-separated roots.  The zero polynomial is rejected.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no root multiset")
    if f.degree == 0:
        return []
    raw = np.roots(np.asarray(f.coeffs[::-1], dtype=complex))
    df = f.derivative()
    polished: list[complex] = []
    for r in raw:
        r = complex(r)
        fr = f(r)
        dr = df(r)
        if dr != 0:
            cand = r - fr / dr
            # keep the Newton step only if it actually improved the residual
            if abs(f(cand)) <= abs(fr):
                r = cand
        polished.append(r)
    return polished


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

    roots_g = roots(g)
    sep = min(abs(u - v) for u in roots(f) for v in roots_g)
    if sep < COPRIME_ROOT_SEPARATION:
        raise CoprimalityFailure(
            f"inputs share a root to within {sep:.3e}", separation=sep)

    # scale both inputs to unit max coefficient so the system stays balanced
    sf = max(abs(c) for c in f.coeffs)
    sg = max(abs(c) for c in g.coeffs)
    fc = [c / sf for c in f.coeffs]
    gc = [c / sg for c in g.coeffs]
    m, k = f.degree, g.degree

    system = np.zeros((m + k, m + k), dtype=complex)
    for i in range(k):
        for d, c in enumerate(fc):
            system[i + d, i] = c
    for i in range(m):
        for d, c in enumerate(gc):
            system[i + d, k + i] = c

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


@dataclass(frozen=True)
class CirclePath:
    """Values of a function at equispaced points ``exp(2*pi*i*k/m)`` on the
    unit circle, the discrete loop that winding numbers are read from."""

    samples: tuple[complex, ...]

    def __post_init__(self):
        if len(self.samples) < 16:
            raise ValueError("a circle path needs at least 16 samples")

    @classmethod
    def from_function(cls, fn: Callable[[complex], complex], m: int) -> CirclePath:
        return cls(tuple(complex(fn(z)) for z in circle_points(m)))

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def min_modulus(self) -> float:
        return min(abs(s) for s in self.samples)

    def __mul__(self, other: CirclePath) -> CirclePath:
        if not isinstance(other, CirclePath):
            return NotImplemented
        if self.m != other.m:
            raise ValueError("pointwise product needs equal sample counts")
        return CirclePath(tuple(a * b for a, b in zip(self.samples, other.samples)))


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
    s = np.asarray(path.samples, dtype=complex)
    if float(np.min(np.abs(s))) == 0.0:
        raise ValueError("path passes through zero; winding number undefined")
    jumps = np.angle(np.roll(s, -1) / s)
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
