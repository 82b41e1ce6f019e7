"""The crossed product of the polynomial disk-algebra model by a rotation
action of a finite cyclic group.

An element is a formal sum ``sum_g f_g * delta^g`` over residues
``g = 0..n-1`` with polynomial coefficients.  The product is the twisted
convolution

    (x * y)_g = sum_h x_h * alpha^h(y_{g-h})      (indices mod n),

where ``alpha`` twists coefficient ``c_k`` into ``c_k * omega**k`` for a
primitive n-th root of unity ``omega``.  The module also provides the
conditional expectation onto the identity component, the standard
quasi-basis with its integer index, the n-by-n matrix embedding, and
matrices over the algebra with the summed entry norm.
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
from .poly import CirclePath, Poly, circle_points, rotate

OMEGA_UNITY_TOL = 1e-12
DET_FLOOR = 1e-12
NORM_SLACK = 1e-12


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
    def from_omega(cls, n: int, omega: complex, tol: float = 1e-6) -> GroupSpec:
        """Snap a floating root of unity to its exact selector ``m``."""
        m = round(cmath.phase(omega) * n / (2.0 * math.pi)) % n
        snapped = cmath.exp(2j * cmath.pi * m / n)
        if abs(snapped - omega) > tol:
            raise ValueError(f"{omega!r} is not an order-{n} root of unity")
        return cls(n, m)

    def twist(self, f: Poly, j: int) -> Poly:
        """Apply the action ``alpha**j`` to a coefficient polynomial."""
        return rotate(f, self.omega, j % self.n, order=self.n, tol=OMEGA_UNITY_TOL)


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


def convolve(x: CrossedElement, y: CrossedElement) -> CrossedElement:
    """Twisted convolution ``(x*y)_g = sum_h x_h alpha^h(y_{g-h})``.

    Associative with unit ``delta^0``, and submultiplicative for the
    summed norm.
    """
    x._require_same_spec(y)
    spec = x.spec
    n = spec.n
    width = max(c.coeffs.size for c in y.comps)
    acc = np.zeros((n, max(c.coeffs.size for c in x.comps) + width), dtype=complex)
    for h, fh in enumerate(x.comps):
        if fh.is_zero:
            continue
        # alpha^h scales coefficient k by omega**(h*k), as in GroupSpec.twist
        phases = (spec.omega ** h) ** np.arange(width)
        for g in range(n):
            yg = y.comps[(g - h) % n].coeffs
            if yg.size:
                prod = np.convolve(fh.coeffs, yg * phases[:yg.size])
                acc[g, :prod.size] += prod
    return CrossedElement(spec, (Poly(row) for row in acc))


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
    spec = x.spec
    n = spec.n
    rows = []
    for h in range(n):
        rows.append([spec.twist(x.comps[(k - h) % n], h) for k in range(n)])
    return AlgMatrix(rows)


def det_on_circle(mat: "AlgMatrix", samples: int = 64) -> CirclePath:
    """Determinant loop of a polynomial matrix on the unit circle.

    Evaluates every entry at ``samples`` equispaced circle points and takes
    numeric determinants.  Rejects loops passing through (numerical) zero,
    which are useless for winding counts.
    """
    if mat.rows != mat.cols:
        raise ValueError("determinant needs a square matrix")
    if not all(isinstance(e, Poly) for row in mat.entries for e in row):
        raise TypeError("det_on_circle expects polynomial entries")
    zs = circle_points(samples)
    # filled entry by entry, so only one entry's values exist outside the grid
    grid = np.empty((samples, mat.rows, mat.cols), dtype=complex)
    for i, row in enumerate(mat.entries):
        for j, entry in enumerate(row):
            grid[:, i, j] = entry.eval_on_array(zs)
    dets = np.linalg.det(grid)
    min_mod = float(np.min(np.abs(dets)))
    if min_mod < DET_FLOOR:
        raise VanishingDeterminant(
            f"determinant modulus {min_mod:.3e} below {DET_FLOOR:.0e} on the circle",
            min_modulus=min_mod)
    return CirclePath(dets)


def entry_norm(entry) -> float:
    if isinstance(entry, Poly):
        return entry.wiener_norm()
    if isinstance(entry, CrossedElement):
        return entry.l1_norm()
    raise TypeError(f"unsupported matrix entry type {type(entry)!r}")


class AlgMatrix:
    """Rectangular matrix over the algebra (polynomial or crossed entries)
    carrying the summed entry norm, which is submultiplicative."""

    __slots__ = ("entries",)

    def __init__(self, rows: Sequence[Sequence]):
        entries = tuple(tuple(row) for row in rows)
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one row and column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("AlgMatrix is immutable")

    @classmethod
    def identity(cls, dim: int, one, zero) -> AlgMatrix:
        return cls([[one if i == j else zero for j in range(dim)] for i in range(dim)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def to_lists(self) -> list[list]:
        return [list(row) for row in self.entries]

    def __add__(self, other: AlgMatrix) -> AlgMatrix:
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return AlgMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: AlgMatrix) -> AlgMatrix:
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return AlgMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)])

    def __mul__(self, other: AlgMatrix) -> AlgMatrix:
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                terms = (self.entries[i][l] * other.entries[l][j]
                         for l in range(self.cols))
                row.append(functools.reduce(operator.add, terms))
            out.append(row)
        return AlgMatrix(out)

    def norm_l1(self) -> float:
        """Sum of entry norms."""
        return float(sum(entry_norm(e) for row in self.entries for e in row))

    def max_entry_norm(self) -> float:
        return float(max(entry_norm(e) for row in self.entries for e in row))

    def __repr__(self) -> str:
        return f"AlgMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class MatrixNormReport:
    """Concrete norm facts for a matrix: the summed norm dominates the max
    entry norm, and is submultiplicative when a second factor is supplied."""

    max_entry_norm: float
    l1_norm: float
    lower_ok: bool
    product_norm: float | None = None
    product_bound: float | None = None
    submultiplicative_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.submultiplicative_ok is not False


def matrix_norm_checks(mat: AlgMatrix, other: AlgMatrix | None = None) -> MatrixNormReport:
    total = mat.norm_l1()
    biggest = mat.max_entry_norm()
    report = dict(
        max_entry_norm=biggest,
        l1_norm=total,
        lower_ok=biggest <= total * (1.0 + NORM_SLACK) + NORM_SLACK,
    )
    if other is not None:
        product_norm = (mat * other).norm_l1()
        bound = total * other.norm_l1()
        report.update(
            product_norm=product_norm, product_bound=bound,
            submultiplicative_ok=product_norm <= bound * (1.0 + NORM_SLACK) + NORM_SLACK)
    return MatrixNormReport(**report)
