"""The crossed product of the polynomial disk-algebra model by a rotation
action of a finite cyclic group.

An element is a formal sum ``sum_g f_g * delta^g`` over residues
``g = 0..n-1`` with polynomial coefficients.  The product is the twisted
convolution

    (x * y)_g = sum_h x_h * alpha^h(y_{g-h})      (indices mod n),

where ``alpha`` twists coefficient ``c_k`` into ``c_k * omega**k`` for a
primitive n-th root of unity ``omega``; ``twisted_product`` computes it,
and ``unit_gap`` the gap ``|sum x*y - delta^0|``, on untrimmed arrays.
The module also provides the conditional expectation, the standard
quasi-basis with its integer index, the n-by-n matrix embedding ``pi`` (and
``embedding_grid``, its values at roots of unity, which the determinant
loop and the reduced norm both read), and ``AlgMatrix``, the container of
polynomial entries that the lifts take and return.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GroupMismatch, VanishingDeterminant
from .poly import (CirclePath, Poly, grid_coeffs, grid_values, padded, rotate,
                   summed_norm)

DET_FLOOR = 1e-12


@dataclass(frozen=True)
class GroupSpec:
    """Cyclic group of order ``n`` acting by the rotation ``omega = e^{2 pi i m / n}``.

    ``m`` is reduced mod ``n`` and must be coprime to it: a non-primitive
    root would make the action factor through a smaller group, so it is
    rejected rather than silently reinterpreted.
    """

    n: int
    m: int = 1

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("group order must be a positive integer")
        if not isinstance(self.m, int):
            raise ValueError("root selector m must be an integer")
        object.__setattr__(self, "m", self.m % self.n)
        if math.gcd(self.m, self.n) != 1:
            raise ValueError(
                f"omega = exp(2 pi i {self.m}/{self.n}) is not primitive; "
                "the action would factor through a smaller group")

    @property
    def omega(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.m / self.n)

    @classmethod
    def from_omega(cls, n: int, omega: complex) -> GroupSpec:
        """Snap a floating root of unity to its exact selector ``m``; it must
        lie within 1e-6 of the exact root."""
        m = round(cmath.phase(omega) * n / (2.0 * math.pi)) % n
        snapped = cmath.exp(2j * cmath.pi * m / n)
        if abs(snapped - omega) > 1e-6:
            raise ValueError(f"{omega!r} is not an order-{n} root of unity")
        return cls(n, m)

    def twist(self, f: Poly, j: int) -> Poly:
        """Apply the action ``alpha**j`` to a coefficient polynomial."""
        return rotate(f, self.omega, j % self.n, order=self.n)


class CrossedElement:
    """Element ``sum_g comps[g] * delta^g`` of the crossed product."""

    __slots__ = ("spec", "comps")

    def __init__(self, spec: GroupSpec, comps: Iterable[Poly]):
        comps = tuple(comps)
        if len(comps) != spec.n:
            raise ValueError(f"expected {spec.n} components, got {len(comps)}")
        if not all(isinstance(c, Poly) for c in comps):
            raise TypeError("components must be Poly values")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("CrossedElement is immutable")

    # -- constructors

    @classmethod
    def zero(cls, spec: GroupSpec) -> CrossedElement:
        return cls(spec, (Poly.zero(),) * spec.n)

    @classmethod
    def unit(cls, spec: GroupSpec) -> CrossedElement:
        return cls.monomial(spec, 0, Poly.one())

    @classmethod
    def monomial(cls, spec: GroupSpec, g: int, f: Poly | complex = 1.0) -> CrossedElement:
        """``f * delta^g`` for a polynomial or scalar ``f``."""
        if not isinstance(f, Poly):
            f = Poly.constant(f)
        comps = [Poly.zero()] * spec.n
        comps[g % spec.n] = f
        return cls(spec, comps)

    # -- structure

    def component(self, g: int) -> Poly:
        return self.comps[g % self.spec.n]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def l1_norm(self) -> float:
        """Summed Wiener norm of the components; zero iff the element is zero."""
        return float(sum(c.wiener_norm() for c in self.comps))

    def _require_same_spec(self, other: CrossedElement):
        if self.spec != other.spec:
            raise GroupMismatch(
                f"mismatched group specs {self.spec} vs {other.spec}")

    # -- arithmetic

    def __add__(self, other: CrossedElement) -> CrossedElement:
        if not isinstance(other, CrossedElement):
            return NotImplemented
        self._require_same_spec(other)
        return CrossedElement(self.spec, (a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: CrossedElement) -> CrossedElement:
        return self + (-other)

    def __neg__(self) -> CrossedElement:
        return CrossedElement(self.spec, (-c for c in self.comps))

    def __mul__(self, other):
        if isinstance(other, CrossedElement):
            return convolve(self, other)
        if isinstance(other, (int, float, complex)):
            return CrossedElement(self.spec, (c * other for c in self.comps))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, CrossedElement)
                and self.spec == other.spec and self.comps == other.comps)

    def __repr__(self) -> str:
        return f"CrossedElement(n={self.spec.n}, m={self.spec.m}, comps={list(self.comps)!r})"


def _width(x: CrossedElement) -> int:
    return max(1, *(c.coeffs.size for c in x.comps))


@functools.lru_cache(maxsize=64)
def _product_plan(spec: GroupSpec, lx: int, ly: int) -> tuple[np.ndarray, ...]:
    """Index and phase arrays of ``twisted_product`` for factors whose
    longest components have ``lx`` and ``ly`` coefficients.

    ``windows[l, j]`` is the index of coefficient ``l - (ly - 1 - j)`` in a
    row of ``x``, or of the zero slot ``lx`` where that falls outside the
    row; row ``(h, g)`` of ``y[order]`` is ``y_{g-h}``; ``phases[h, 0, j]``
    is the factor ``alpha^h`` puts on coefficient ``ly - 1 - j``.
    """
    src = np.arange(lx + ly - 1)[:, None] + np.arange(ly)[None, :] - (ly - 1)
    windows = np.where((src >= 0) & (src < lx), src, lx)
    h = np.arange(spec.n)
    order = (h[None, :] - h[:, None]) % spec.n
    # alpha^h scales coefficient k by omega**(h*k), as in GroupSpec.twist
    phases = np.array([(spec.omega ** t) ** np.arange(ly) for t in range(spec.n)])
    phases = phases[:, None, ::-1].copy()
    for arr in (windows, order, phases):
        arr.setflags(write=False)
    return windows, order, phases


def twisted_product(x: CrossedElement, y: CrossedElement) -> np.ndarray:
    """Coefficients of ``x * y`` as an untrimmed ``(n, Lx + Ly - 1)`` array,
    ``Lx`` and ``Ly`` being the longest component lengths (at least 1).

    One ``einsum`` sums the direct products ``x_h[l - k] * alpha^h(y_{g-h})[k]``
    over ``h`` and ``k``: each row of ``x`` is laid out as Toeplitz windows
    of width ``Ly``, against the twisted rows of ``y`` in reverse order.
    Nothing is trimmed, so round-off below ``TRIM_RELATIVE`` survives.
    """
    x._require_same_spec(y)
    lx, ly = _width(x), _width(y)
    windows, order, phases = _product_plan(x.spec, lx, ly)
    # column lx of the padded x is the zero slot
    toeplitz = padded(x.comps, lx + 1)[:, windows]
    twisted = padded(y.comps, ly)[order][..., ::-1] * phases
    return np.einsum("hlj,hgj->gl", toeplitz, twisted)


def convolve(x: CrossedElement, y: CrossedElement) -> CrossedElement:
    """Twisted convolution ``(x*y)_g = sum_h x_h alpha^h(y_{g-h})``: the rows
    of ``twisted_product`` as polynomials.

    Associative with unit ``delta^0``, and submultiplicative for the
    summed norm.
    """
    return CrossedElement(x.spec, map(Poly, twisted_product(x, y)))


def unit_gap(pairs: Iterable[tuple[CrossedElement, CrossedElement]]) -> float:
    """``|sum x*y - delta^0|`` over the pairs ``(x, y)``, summed in order from
    ``twisted_product`` arrays.  Nothing is trimmed: ``Poly`` products would
    drop round-off below ``TRIM_RELATIVE`` and understate the gap."""
    products = [twisted_product(x, y) for x, y in pairs]
    gap = np.zeros((products[0].shape[0], max(p.shape[1] for p in products)),
                   dtype=complex)
    for p in products:
        gap[:, :p.shape[1]] += p
    gap[0, 0] -= 1.0
    return summed_norm(gap)


def expectation(x: CrossedElement) -> CrossedElement:
    """Project onto the identity-group-element component.

    Idempotent, contractive, and a bimodule map over the subalgebra of
    elements supported on ``delta^0``.
    """
    return CrossedElement.monomial(x.spec, 0, x.comps[0])


def quasi_basis(spec: GroupSpec) -> list[tuple[CrossedElement, CrossedElement]]:
    """The pairs ``(delta^g, delta^{-g})`` indexed by the group.

    Together with the expectation they reconstruct every element, and the
    sum ``sum_g u_g * v_g`` is exactly ``n * delta^0`` (the index).
    """
    return [(CrossedElement.monomial(spec, g),
             CrossedElement.monomial(spec, (spec.n - g) % spec.n))
            for g in range(spec.n)]


def index_element(spec: GroupSpec) -> CrossedElement:
    """``sum_g u_g * v_g`` over the quasi-basis; equals ``n * delta^0``."""
    pairs = quasi_basis(spec)
    return functools.reduce(operator.add, (u * v for u, v in pairs))


def reconstruct(x: CrossedElement, side: str = "left") -> CrossedElement:
    """Rebuild ``x`` from expectation data through the quasi-basis.

    ``side="left"`` computes ``sum_g u_g * E(v_g * x)`` and ``side="right"``
    computes ``sum_g E(x * u_g) * v_g``; both reproduce ``x`` up to
    round-off.
    """
    pairs = quasi_basis(x.spec)
    if side == "left":
        terms = (u * expectation(v * x) for u, v in pairs)
    elif side == "right":
        terms = (expectation(x * u) * v for u, v in pairs)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return functools.reduce(operator.add, terms)


def matrix_embedding(x: CrossedElement) -> "AlgMatrix":
    """The n-by-n polynomial matrix ``pi(x)`` with entry ``(h, k)`` equal to
    ``alpha^h(x_{k-h})`` (indices mod n).

    A unital algebra homomorphism: it sends ``delta^0``-supported elements
    to diagonals of twists and turns convolution into the matrix product.
    """
    spec, n = x.spec, x.spec.n
    return AlgMatrix([[spec.twist(x.comps[(k - h) % n], h) for k in range(n)]
                      for h in range(n)])


def _top_degree(a: CrossedElement) -> int:
    """The largest component degree, 0 for the zero element."""
    return max(max(c.degree for c in a.comps), 0)


def embedding_grid(a: CrossedElement, points: int | None = None) -> np.ndarray:
    """``pi(a)`` at the first ``points`` of the ``n*(d+1)`` roots of unity,
    ``d`` being the largest component degree, as a ``(points, n, n)`` array;
    all ``n*(d+1)`` by default.

    Slice ``j`` is ``pi(a)`` at ``exp(2j*pi*j/(n*(d+1)))``.  On this grid
    ``alpha^h`` is a roll by ``h*m*(d+1)`` points, so the ``n`` components
    are evaluated once and every entry is a gather.  ``det pi(a)`` has
    degree at most ``n*d``, below the grid size, so its values on the full
    grid interpolate it exactly; it is ``D(z**n)`` with ``deg D <= d``, and
    the first ``d + 1`` points, whose ``z**n`` are the ``(d+1)``-th roots
    of unity, already determine ``D``.
    """
    spec, n = a.spec, a.spec.n
    size = n * (_top_degree(a) + 1)
    values = grid_values(a.comps, size)
    j = np.arange(size if points is None else points)[:, None, None]
    h = np.arange(n)[None, :, None]
    k = np.arange(n)[None, None, :]
    # entry (h, k) of pi(a) is alpha^h(a_{k-h}), and alpha^h(f)(z) = f(omega^h z)
    return values[(k - h) % n, (j + h * spec.m * (size // n)) % size]


def det_on_circle(x: CrossedElement, samples: int) -> CirclePath:
    """The loop ``det pi(x)`` at the ``circle_points(samples)``.

    ``det pi(x)(z) = D(z**n)`` with ``deg D <= d``, so ``D`` is interpolated
    from ``d + 1`` determinants, those of ``embedding_grid(x, d + 1)``.  Its
    coefficients sit at the multiples of ``n`` in ``z``; folded modulo
    ``samples`` (exact at the ``samples``-th roots of unity), they give the
    loop with one FFT, so the determinant work grows neither with the
    sample count nor with ``n``.  The path records ``sum k*|c_k|`` over the
    coefficients ``c_k`` in ``z`` as its ``derivative_bound``.  Rejects
    loops passing through (numerical) zero, which are useless for winding
    counts.
    """
    if samples < 16:
        raise ValueError("need at least 16 circle points")
    n = x.spec.n
    coeffs = grid_coeffs(np.linalg.det(embedding_grid(x, _top_degree(x) + 1)))
    powers = n * np.arange(coeffs.size)
    # coefficient k adds into slot k mod samples; the unscaled inverse FFT is
    # ``grid_values`` on raw coefficients, which a Poly would trim
    folded = np.zeros(samples, dtype=complex)
    np.add.at(folded, powers % samples, coeffs)
    slope = float(powers @ np.hypot(coeffs.real, coeffs.imag))
    path = CirclePath(np.fft.ifft(folded, norm="forward"), derivative_bound=slope)
    if path.min_modulus < DET_FLOOR:
        raise VanishingDeterminant(
            f"determinant modulus {path.min_modulus:.3e} below {DET_FLOOR:.0e} "
            "on the circle", min_modulus=path.min_modulus)
    return path


class AlgMatrix:
    """Rectangular matrix of polynomials: a shape-checked container for the
    lifts' inputs and outputs, whose arithmetic ``liftrank`` does on
    coefficient arrays."""

    __slots__ = ("entries",)

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        entries = tuple(tuple(row) for row in rows)
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one row and column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        if not all(isinstance(e, Poly) for row in entries for e in row):
            raise TypeError("matrix entries must be Poly values")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("AlgMatrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def to_lists(self) -> list[list[Poly]]:
        return [list(row) for row in self.entries]

    def __repr__(self) -> str:
        return f"AlgMatrix({self.rows}x{self.cols})"
