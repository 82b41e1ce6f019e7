"""Holomorphic disk symmetries and the reduction of finite symmetry groups
to rotations.

A disk automorphism is ``z -> (a z + b) / (conj(b) z + conj(a))`` with
``|a|^2 - |b|^2 = 1``; these matrices form SU(1,1), and conjugating by
``C = [[1, -i], [1, i]]`` identifies SU(1,1) with SL(2,R), carrying the
diagonal subgroup U(1) onto the rotations SO(2).  A finite group of disk
automorphisms fixes one point of the open disk, and the boost taking 0 to
that point conjugates the whole group into U(1); this turns an arbitrary
finite group of automorphisms into a rotation action, the form the
crossed-product machinery consumes.

Signs matter: SU(1,1) double-covers the automorphism group, so group
orders here always mean orders modulo ``{+1, -1}``, and the disk rotation
angle induced by ``diag(e^{i t}, e^{-i t})`` is ``2 t``, not ``t``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import GroupSpec
from .elimination import VERIFY_AGREEMENT_TOL, VerificationReport
from .errors import NonRealImage, ToolkitError
from .poly import circle_points

MEMBERSHIP_TOL = 1e-10
REAL_IMAGE_TOL = 1e-8
SUBGROUP_POWER_TOL = 1e-8
CONJUGATION_TOL = 1e-8
INTERTWINING_SAMPLES = 64
INTERTWINING_RADIUS = 0.9

# C identifies the disk model with the half-plane model; conjugation by it
# realizes the SU(1,1) <-> SL(2,R) bijection.
_C = np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex)
_C_INV = 0.5 * np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex)


@dataclass(frozen=True)
class SU11Element:
    """Matrix ``[[a, b], [conj(b), conj(a)]]`` with ``|a|^2 - |b|^2 = 1``."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        # products, not ** 2: a huge entry squares to inf (then the drift is
        # inf or NaN and fails) instead of raising OverflowError
        size_a, size_b = abs(self.a), abs(self.b)
        drift = abs(size_a * size_a - size_b * size_b - 1.0)
        if not drift <= MEMBERSHIP_TOL:
            raise ValueError(f"not in SU(1,1): | |a|^2 - |b|^2 - 1 | = {drift:.3e}")

    @classmethod
    def identity(cls) -> SU11Element:
        return cls(1.0, 0.0)

    @classmethod
    def u1(cls, theta: float) -> SU11Element:
        """Diagonal element ``diag(e^{i theta}, e^{-i theta})``; the induced
        disk rotation has angle ``2 * theta``."""
        return cls(cmath.exp(1j * theta), 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b],
                         [self.b.conjugate(), self.a.conjugate()]], dtype=complex)

    def __mul__(self, other: SU11Element) -> SU11Element:
        if not isinstance(other, SU11Element):
            return NotImplemented
        a = self.a * other.a + self.b * other.b.conjugate()
        b = self.a * other.b + self.b * other.a.conjugate()
        return SU11Element(a, b)

    def inverse(self) -> SU11Element:
        return SU11Element(self.a.conjugate(), -self.b)

    def power(self, k: int) -> SU11Element:
        if k < 0:
            return self.inverse().power(-k)
        out = SU11Element.identity()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def distance(self, other: SU11Element) -> float:
        return max(abs(self.a - other.a), abs(self.b - other.b))

    def projective_distance(self, other: SU11Element) -> float:
        """Distance modulo the global sign."""
        flipped = SU11Element(-other.a, -other.b)
        return min(self.distance(other), self.distance(flipped))


def mobius_apply(g: SU11Element, z):
    """Evaluate the automorphism ``z -> (a z + b)/(conj(b) z + conj(a))``.

    On the closed disk the denominator cannot vanish, the open disk maps
    into itself and the circle onto itself.  ``z`` may be a number or an
    array of points.
    """
    return (g.a * z + g.b) / (g.b.conjugate() * z + g.a.conjugate())


@dataclass(frozen=True)
class SL2RMatrix:
    """Real 2x2 matrix with determinant one."""

    s: float
    t: float
    u: float
    v: float

    def __post_init__(self):
        drift = abs(self.s * self.v - self.t * self.u - 1.0)
        if drift > MEMBERSHIP_TOL:
            raise ValueError(f"determinant off by {drift:.3e}")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> SL2RMatrix:
        return cls(float(arr[0, 0]), float(arr[0, 1]),
                   float(arr[1, 0]), float(arr[1, 1]))

    def as_array(self) -> np.ndarray:
        return np.array([[self.s, self.t], [self.u, self.v]], dtype=float)


def to_sl2r(g: SU11Element) -> SL2RMatrix:
    """The change-of-model conjugation ``C^{-1} g C``; real with unit
    determinant, multiplicative, and carrying U(1) onto SO(2).

    Raises ``ToolkitError`` when round-off in the image of a valid element
    misses the determinant check: the input is sound, double precision
    is not."""
    img = _C_INV @ g.as_array() @ _C
    worst = float(np.max(np.abs(img.imag)))
    if worst > REAL_IMAGE_TOL:
        raise NonRealImage(
            f"image has imaginary residue {worst:.3e}; input is not in SU(1,1)")
    try:
        return SL2RMatrix.from_array(img.real)
    except ValueError as exc:
        raise ToolkitError(f"SL(2,R) image out of double precision: {exc}") from None


@dataclass(frozen=True)
class FiniteCyclicSubgroup:
    """Cyclic group of disk automorphisms, given by an SU(1,1) generator.

    ``order`` counts automorphisms (elements modulo sign); the generator's
    ``order``-th power is plus or minus the identity, and the sign is kept
    explicit.
    """

    generator: SU11Element
    order: int
    sign: int
    elements: tuple[SU11Element, ...]

    @classmethod
    def build(cls, generator: SU11Element, order: int) -> FiniteCyclicSubgroup:
        if order < 1:
            raise ValueError("order must be positive")
        power = generator.power(order)
        ident = SU11Element.identity()
        if power.distance(ident) <= SUBGROUP_POWER_TOL:
            sign = 1
        elif power.distance(SU11Element(-1.0, 0.0)) <= SUBGROUP_POWER_TOL:
            sign = -1
        else:
            raise ValueError(
                f"generator^({order}) is {power.distance(ident):.3e} away from "
                "plus/minus identity; not a finite subgroup of that order")
        elements = tuple(generator.power(k) for k in range(order))
        return cls(generator, order, sign, elements)


def make_finite_subgroup(order: int, h: SU11Element, m: int = 1) -> FiniteCyclicSubgroup:
    """Manufacture a finite subgroup by conjugating a rotation out of U(1).

    The seed is ``diag(e^{i pi m / order}, e^{-i pi m / order})`` (disk
    rotation by ``2 pi m / order``), conjugated by ``h``; ``m`` must be
    coprime to the order so the automorphism genuinely has that order.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if math.gcd(m, order) != 1:
        raise ValueError(f"m={m} shares a factor with order={order}")
    seed = SU11Element.u1(math.pi * m / order)
    generator = h * seed * h.inverse()
    return FiniteCyclicSubgroup.build(generator, order)


def nearest_rotation(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Closest SO(2) matrix ``[[cos p, -sin p], [sin p, cos p]]`` and its
    parameter ``p`` (Frobenius-orthogonal projection)."""
    phi = math.atan2(mat[1, 0] - mat[0, 1], mat[0, 0] + mat[1, 1])
    rot = np.array([[math.cos(phi), -math.sin(phi)],
                    [math.sin(phi), math.cos(phi)]])
    return rot, phi


@dataclass(frozen=True)
class ConjugationResult:
    """Conjugator taking a finite subgroup into U(1), with diagnostics.

    ``rotation_angles[k]`` is the disk-rotation angle (mod ``2 pi``) of the
    conjugated ``k``-th power of the generator; together they are the
    multiples of ``2 pi / order``.
    """

    h: SU11Element
    residual: float
    rotation_angles: tuple[float, ...]
    order: int


def conjugation_residual(subgroup: FiniteCyclicSubgroup,
                         h: SU11Element) -> tuple[float, tuple[float, ...]]:
    """Worst distance of ``pi(h)^{-1} pi(g) pi(h)`` from SO(2), plus the
    recovered disk-rotation angles."""
    s = to_sl2r(h).as_array()
    s_inv = np.linalg.inv(s)
    worst = 0.0
    angles = []
    for g in subgroup.elements:
        conj = s_inv @ to_sl2r(g).as_array() @ s
        rot, phi = nearest_rotation(conj)
        worst = max(worst, float(np.linalg.norm(conj - rot)))
        # conj ~ pi(u1(-phi)); the induced disk rotation angle doubles
        angles.append((-2.0 * phi) % (2.0 * math.pi))
    return worst, tuple(angles)


def _derived_spec(order: int, angles: tuple[float, ...]) -> GroupSpec:
    """Group data of the rotation action: the generator's disk-rotation
    angle snapped to an exact multiple of ``2 pi / order``."""
    if order == 1:
        return GroupSpec(1, 0)
    return GroupSpec.from_omega(order, cmath.exp(1j * angles[1]))


def conjugate_into_rotations(subgroup: FiniteCyclicSubgroup) -> ConjugationResult:
    """Find ``h`` with ``h^{-1} K h`` inside U(1): the boost
    ``[[1, z0], [conj(z0), 1]] / sqrt(1 - |z0|^2)`` taking 0 to the common
    fixed point ``z0`` of the subgroup.

    ``z0`` is read off the element with the smallest ``|Re a|``, which
    rotates farthest and so has the best-conditioned fixed point.  When
    ``b == 0``, or when that element has no fixed point inside the disk (a
    numerically trivial group that passed the closure tolerance), ``h`` is
    the identity and the residual says how far the group is from rotations.
    """
    g = min(subgroup.elements, key=lambda e: abs(e.a.real))
    # the fixed points solve conj(b) z^2 - 2i Im(a) z - b = 0 and multiply to
    # -b / conj(b); dividing that by the outer root i * outer / conj(b)
    # gives the inner one with nothing cancelling
    spread = math.sqrt(max(0.0, 1.0 - g.a.real * g.a.real))
    outer = g.a.imag + math.copysign(spread, g.a.imag)
    if abs(g.b) < abs(outer):
        z0 = 1j * g.b / outer
        scale = 1.0 / math.sqrt(1.0 - abs(z0) ** 2)
        h = SU11Element(scale, scale * z0)
    else:
        h = SU11Element.identity()
    residual, angles = conjugation_residual(subgroup, h)
    return ConjugationResult(h=h, residual=residual, rotation_angles=angles,
                             order=subgroup.order)


@dataclass(frozen=True)
class RotationAction:
    """A finite automorphism group rewritten as a rotation action.

    ``spec`` drives the crossed-product machinery directly; ``conjugation.h``
    intertwines the original action with the rotation one, which is what
    makes stable-rank certificates for the original group transfer.
    """

    spec: GroupSpec
    conjugation: ConjugationResult
    intertwining_residual: float


def rotation_action_of(subgroup: FiniteCyclicSubgroup) -> RotationAction:
    """Derive the rotation-action group data for a finite subgroup.

    Conjugates the subgroup into U(1), snaps the generator's rotation
    angle to an exact primitive root selector, and checks on disk samples
    that the original generator acts as the conjugated rotation:
    ``phi_k = phi_h . (omega *) . phi_h^{-1}``.
    """
    result = conjugate_into_rotations(subgroup)
    spec = _derived_spec(subgroup.order, result.rotation_angles)
    return RotationAction(
        spec=spec, conjugation=result,
        intertwining_residual=intertwining_residual(subgroup.generator, result.h, spec))


def intertwining_residual(generator: SU11Element, h: SU11Element,
                          spec: GroupSpec) -> float:
    """Worst ``|g(z) - h(omega * h^{-1}(z))|`` over ``INTERTWINING_SAMPLES``
    points of the circle of radius ``INTERTWINING_RADIUS``: how far the
    generator is from acting as the rotation by ``spec.omega`` seen
    through ``h``."""
    zs = INTERTWINING_RADIUS * circle_points(INTERTWINING_SAMPLES)
    via_rotation = mobius_apply(h, spec.omega * mobius_apply(h.inverse(), zs))
    return float(np.max(np.abs(mobius_apply(generator, zs) - via_rotation)))


def verify_conjugation(subgroup: FiniteCyclicSubgroup,
                       action: RotationAction) -> VerificationReport:
    """Re-verify a stored rotation action against its subgroup.

    Recomputes the conjugation residual, the rotation angles (compared
    modulo ``2 pi``), the snapped group data and the intertwining
    residual from the subgroup and the conjugator alone, and checks the
    stored order against the subgroup's.
    """
    stored = action.conjugation
    fresh, angles = conjugation_residual(subgroup, stored.h)
    failures = []
    if not fresh < CONJUGATION_TOL:
        failures.append(f"conjugation residual {fresh:.3e} >= {CONJUGATION_TOL:.0e}")
    if not abs(fresh - stored.residual) <= VERIFY_AGREEMENT_TOL:
        failures.append("stored residual disagrees with recomputed value")
    if stored.order != subgroup.order:
        failures.append(f"stored order {stored.order} != subgroup order {subgroup.order}")
    # compared modulo 2 pi: an angle next to zero may come back next to 2 pi
    if (len(stored.rotation_angles) != len(angles)
            or not all(abs((a - b + math.pi) % (2.0 * math.pi) - math.pi) <= VERIFY_AGREEMENT_TOL
                       for a, b in zip(stored.rotation_angles, angles))):
        failures.append("stored rotation angles disagree with recomputed values")
    try:
        derived = _derived_spec(subgroup.order, angles)
    except ValueError as exc:
        failures.append(f"rotation angles do not snap: {exc}")
    else:
        if derived != action.spec:
            failures.append(
                f"stored derived spec {action.spec} differs from recomputed {derived}")
        worst = intertwining_residual(subgroup.generator, stored.h, derived)
        if not abs(worst - action.intertwining_residual) <= VERIFY_AGREEMENT_TOL:
            failures.append("stored intertwining residual disagrees with recomputed value")
    return VerificationReport(tuple(failures))
