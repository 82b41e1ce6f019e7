"""Component elimination in the crossed product and the two stable-rank
certificates built on it.

Starting from ``a = sum_i a_i delta^i`` the cascade

    a^(1,j)   = (alpha^j(a_0) delta^0 - a_j delta^j) * a
    a^(k+1,j) = a^(k,j+1)_j delta^j * a^(k,1)
                - (delta^j * a^(k,1))_j delta^0 * a^(k,j+1)

zeroes out ``k`` consecutive delta-components at stage ``k`` and terminates
in an element supported on ``delta^0`` alone.  Every stage is reached by
left multiplication, and the same recursion applied to the multipliers
tracks an explicit witness ``L^(k,j)`` with ``L^(k,j) * a = a^(k,j)``.
This is the paper's construction; its top stage has degree
``deg(a) * 2**(n-1)``.

The certificates reach ``delta^0`` in one step instead, through the
reduced norm: row 0 of the adjugate of the matrix embedding ``pi(a)`` is
an element ``adj`` with ``adj * a = det pi(a) delta^0``, and ``det pi(a)``
is a polynomial in ``w = z**n`` of degree at most ``deg(a)``.

Two certificate types live here, and both read ``pi`` from one grid,
``algebra.embedding_grid``:

* ``BezoutCertificate`` — cofactors exhibiting ``delta^0`` in the left
  ideal generated by a perturbed pair, the witness that pairs generate
  densely (stable rank at most two), built from the reduced norms.  The
  generator and ``verify_bezout`` check ``c*a + d*b = delta^0`` with
  ``algebra.unit_gap``, on zero-padded coefficient arrays, never through
  trimmed ``Poly`` products.
* ``WindingObstruction`` — the winding number of the determinant loop
  ``algebra.det_on_circle``, proven between samples by
  ``poly.certified_winding``, the witness that single elements near the
  coordinate function cannot generate (stable rank at least two).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .algebra import (CrossedElement, GroupSpec, det_on_circle, embedding_grid,
                      unit_gap)
from .errors import CoprimalityFailure, GroupMismatch, GroupTooSmall, PerturbationExhausted
from .poly import (Poly, certified_winding, grid_coeffs, padded, roots, summed_norm,
                   sylvester_bezout, winding_number)

CERTIFICATE_TOL = 1e-6
VERIFY_AGREEMENT_TOL = 1e-9
PERTURB_MAX_ATTEMPTS = 64
SEPARATION_BASE = 1e-4
_TINY = 1e-300


@dataclass(frozen=True)
class EliminationTrace:
    """All cascade stages for one input, with their left multipliers.

    ``levels[(k, j)]`` holds the stage elements for ``1 <= k <= n-1`` and
    ``1 <= j <= n-k``; ``multipliers[(k, j)]`` the witnesses proving each
    stage lies in the left ideal of the input.
    """

    input: CrossedElement
    levels: Mapping[tuple[int, int], CrossedElement]
    multipliers: Mapping[tuple[int, int], CrossedElement]

    def level(self, k: int, j: int) -> CrossedElement:
        return self.levels[(k, j)]

    @property
    def top(self) -> CrossedElement:
        """The fully eliminated stage, supported on ``delta^0``."""
        n = self.input.spec.n
        return self.levels[(n - 1, 1)]

    @property
    def top_poly(self) -> Poly:
        return self.top.component(0)

    def multiplier_residual(self, k: int, j: int) -> float:
        """Norm of ``L^(k,j) * input - a^(k,j)``; zero up to round-off."""
        return (self.multipliers[(k, j)] * self.input - self.levels[(k, j)]).l1_norm()

    def vanishing_residual(self, k: int, j: int) -> float:
        """Relative mass of the components the stage is supposed to kill."""
        lvl = self.levels[(k, j)]
        n = self.input.spec.n
        window = sum(lvl.component((j + t) % n).wiener_norm() for t in range(k))
        return window / max(lvl.l1_norm(), _TINY)

    def top_support_residual(self) -> float:
        """Relative mass of the top stage outside the ``delta^0`` slot."""
        top = self.top
        off = sum(top.component(g).wiener_norm() for g in range(1, self.input.spec.n))
        return off / max(top.l1_norm(), _TINY)


def eliminate(a: CrossedElement) -> EliminationTrace:
    """Run the full cascade on ``a`` while tracking left multipliers."""
    spec = a.spec
    n = spec.n
    if n < 2:
        raise GroupTooSmall(
            "order-1 elements are already supported on delta^0; nothing to eliminate")

    levels: dict[tuple[int, int], CrossedElement] = {}
    mults: dict[tuple[int, int], CrossedElement] = {}

    for j in range(1, n):
        left = (CrossedElement.monomial(spec, 0, spec.twist(a.component(0), j))
                - CrossedElement.monomial(spec, j, a.component(j)))
        mults[(1, j)] = left
        levels[(1, j)] = left * a

    for k in range(1, n - 1):
        for j in range(1, n - k):
            c_head = levels[(k, j + 1)].component(j)
            # (delta^j * a^(k,1))_j is the twist of the identity component
            c_tail = spec.twist(levels[(k, 1)].component(0), j)
            head = CrossedElement.monomial(spec, j, c_head)
            tail = CrossedElement.monomial(spec, 0, c_tail)
            levels[(k + 1, j)] = head * levels[(k, 1)] - tail * levels[(k, j + 1)]
            mults[(k + 1, j)] = head * mults[(k, 1)] - tail * mults[(k, j + 1)]

    return EliminationTrace(a, levels, mults)


def closed_form_top_n2(a: CrossedElement) -> CrossedElement:
    """Order-2 top stage in closed form: ``(alpha(a_0) a_0 - a_1 alpha(a_1)) delta^0``."""
    spec = a.spec
    if spec.n != 2:
        raise ValueError("closed form is for order 2")
    a0, a1 = a.component(0), a.component(1)
    top = spec.twist(a0, 1) * a0 - a1 * spec.twist(a1, 1)
    return CrossedElement.monomial(spec, 0, top)


def closed_form_top_n3(a: CrossedElement) -> CrossedElement:
    """Order-3 top stage in closed form (four twisted 2-term factors)."""
    spec = a.spec
    if spec.n != 3:
        raise ValueError("closed form is for order 3")
    a0, a1, a2 = (a.component(i) for i in range(3))
    al = spec.twist
    t1 = al(a0, 2) * a1 - a2 * al(a2, 2)
    t2 = al(a0, 2) * al(a2, 1) - al(a1, 1) * al(a1, 2)
    t3 = al(a0, 2) * al(a0, 1) - al(a1, 1) * al(a2, 2)
    t4 = al(a0, 2) * a0 - a2 * al(a1, 2)
    return CrossedElement.monomial(spec, 0, t1 * t2 - t3 * t4)


@dataclass(frozen=True)
class ScalingReport:
    """Homogeneity data: each stage ``(k, j)`` of the scaled input should be
    ``scale**(2**k)`` times the original stage."""

    scale: complex
    deviations: Mapping[tuple[int, int], float]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values())


def homogeneity_check(a: CrossedElement, scale: complex) -> ScalingReport:
    """Compare ``eliminate(scale * a)`` against the predicted stage scaling."""
    if scale == 0:
        raise ValueError("scale must be nonzero")
    base = eliminate(a)
    scaled = eliminate(scale * a)
    deviations = {}
    for key, lvl in base.levels.items():
        k = key[0]
        expected = (scale ** (2 ** k)) * lvl
        err = (scaled.levels[key] - expected).l1_norm()
        deviations[key] = err / max(expected.l1_norm(), 1.0)
    return ScalingReport(scale, deviations)


def reduced_norm(a: CrossedElement) -> tuple[Poly, CrossedElement]:
    """The reduced norm ``D = det pi(a)`` as a polynomial in ``w = z**n``,
    and the element ``adj`` with ``adj * a = D(z**n) delta^0``.

    Entry ``(0, k)`` of ``pi(x)`` is ``x_k``, so ``adj`` is row 0 of the
    adjugate of ``pi(a)``: entry ``k`` is ``(-1)**k`` times the minor of
    ``pi(a)`` without row ``k`` and column 0.  The twist conjugates
    ``pi(a)`` by a cyclic permutation, so ``det pi(a)`` is invariant under
    ``z -> omega * z`` and has degree at most ``d`` in ``w``, ``d`` being
    the largest component degree.  Both are interpolated from
    ``embedding_grid(a)``, and the minors need no division, so a singular
    ``pi(a)`` is no special case.
    """
    n = a.spec.n
    grid = embedding_grid(a)
    # keep[r] lists the rows other than r, in order
    keep = np.array([[i for i in range(n) if i != r] for r in range(n)], dtype=int)
    minors = np.linalg.det(grid[:, keep, 1:]).T
    minors[1::2] *= -1
    norm = Poly(grid_coeffs(np.linalg.det(grid))[::n])
    return norm, CrossedElement(a.spec, (Poly(row) for row in grid_coeffs(minors)))


def perturb_avoiding(a: CrossedElement, avoid: Iterable[complex], eps: float,
                     rng: np.random.Generator,
                     force: bool = False) -> tuple[CrossedElement, Poly, CrossedElement]:
    """Nudge the constant coefficient of ``a_0`` until the roots of the
    reduced norm clear the set ``avoid``.

    Returns ``(b, D, adj)`` with ``(D, adj) = reduced_norm(b)`` and
    ``|a - b| < eps``, where ``b`` differs from ``a`` only in the constant
    coefficient of the identity component, ``D`` is nonzero, and every
    root of ``D`` (in ``w = z**n``) lies at distance greater than
    ``SEPARATION_BASE * (1 + |p|)`` from each avoided point ``p``: the
    separation is relative to each point, so one large avoided root does
    not coarsen the demand near the small ones, and ``best_separation`` on
    exhaustion is the best ``min |r - p| / (1 + |p|)`` seen.  The unperturbed
    input is accepted when it already qualifies, unless ``force`` asks for
    a fresh draw.  Attempt ``t`` adds a uniformly random phase of modulus
    ``eps/2 * (1 - t/128)``; after ``PERTURB_MAX_ATTEMPTS`` failures the input is
    deemed pathological.
    """
    if eps <= 0:
        raise ValueError("perturbation budget must be positive")
    avoid = np.asarray(avoid, dtype=complex)
    scale = 1.0 + np.abs(avoid)
    spec = a.spec

    best_sep: float | None = None

    def admissible(candidate: CrossedElement):
        nonlocal best_sep
        norm, adj = reduced_norm(candidate)
        if norm.is_zero:
            return None
        if not avoid.size or norm.degree == 0:
            return candidate, norm, adj
        sep = float((np.abs(np.subtract.outer(roots(norm), avoid)) / scale).min())
        if best_sep is None or sep > best_sep:
            best_sep = sep
        return (candidate, norm, adj) if sep > SEPARATION_BASE else None

    if not force:
        found = admissible(a)
        if found is not None:
            return found

    for t in range(1, PERTURB_MAX_ATTEMPTS + 1):
        modulus = 0.5 * eps * (1.0 - t / 128.0)
        shift = modulus * np.exp(2j * np.pi * rng.uniform())
        comps = list(a.comps)
        comps[0] = comps[0] + Poly.constant(shift)
        found = admissible(CrossedElement(spec, comps))
        if found is not None:
            return found

    seen = "none" if best_sep is None else f"{best_sep:.3e}"
    raise PerturbationExhausted(
        f"no admissible perturbation within {PERTURB_MAX_ATTEMPTS} attempts (best "
        f"min |r - p| / (1 + |p|) over avoided points p: {seen}, "
        f"needs > {SEPARATION_BASE:.0e})",
        attempts=PERTURB_MAX_ATTEMPTS, best_separation=best_sep)


@dataclass(frozen=True)
class BezoutCertificate:
    """Self-contained witness that a pair near ``(x, y)`` generates the
    crossed product as a left ideal.

    Stores the inputs, the perturbed approximants, and cofactors with
    ``c*a + d*b = delta^0``.  ``residual`` is ``|c*a + d*b - delta^0|``
    from two twisted products on untrimmed coefficient arrays, and the
    distances are ``|x - a|`` and ``|y - b|``; re-verification recomputes
    those three numbers from the stored elements, with nothing from the
    generator's internal state or from the way the cofactors were found.
    """

    x: CrossedElement
    y: CrossedElement
    a: CrossedElement
    b: CrossedElement
    c: CrossedElement
    d: CrossedElement
    epsilon: float
    residual: float
    distance_x: float
    distance_y: float
    seed: int | None = None

    @property
    def spec(self) -> GroupSpec:
        return self.x.spec


def _in_z(f: Poly, n: int) -> Poly:
    """``f(z**n)``: a polynomial in ``w = z**n`` written in ``z``."""
    coeffs = np.zeros(max(n * f.degree + 1, 0), dtype=complex)
    coeffs[::n] = f.coeffs
    return Poly(coeffs)


def _distance(x: CrossedElement, a: CrossedElement) -> float:
    """``|x - a|`` from zero-padded coefficient differences, added in
    ``l1_norm``'s order: the bits of ``(x - a).l1_norm()`` whenever that
    difference trims only zeros, as it does for a perturbed approximant."""
    x._require_same_spec(a)
    width = max(c.coeffs.size for c in x.comps + a.comps)
    return summed_norm(padded(x.comps, width) - padded(a.comps, width))


def bezout_certificate(x: CrossedElement, y: CrossedElement, eps: float,
                       rng: np.random.Generator,
                       seed: int | None = None) -> BezoutCertificate:
    """Produce a Bezout certificate for a pair within ``eps`` of ``(x, y)``.

    Perturbs ``x`` so its reduced norm ``D_a`` is nonzero, perturbs ``y``
    so the two reduced norms share no root anywhere in the plane, then
    solves ``p*D_a + q*D_b = 1`` in ``w = z**n`` and sets
    ``c = p(z**n) delta^0 * adj_a`` and ``d = q(z**n) delta^0 * adj_b``
    (see ``reduced_norm``).  The reduced norms have degree at most the
    largest component degree at every group order, so the Sylvester system
    stays small however large ``n`` is.  Coprimality is demanded over all
    of the complex plane (stronger than on the disk alone) so the cofactors
    stay polynomial.

    An occasional draw produces reduced norms whose resultant is so small
    that the cofactor residual cannot be certified in double precision;
    each of up to seven retries redraws both perturbations (within the
    same budgets), which reshuffles the resultant by orders of magnitude.
    """
    if x.spec != y.spec:
        raise GroupMismatch("certificate inputs live over different groups")
    spec = x.spec
    if spec.n < 2:
        raise GroupTooSmall("certificates need group order at least 2")

    half = eps / 2.0
    n = spec.n
    last: CoprimalityFailure | None = None
    for attempt in range(8):
        fresh = attempt > 0
        a, norm_a, adj_a = perturb_avoiding(x, (), half, rng, force=fresh)
        b, norm_b, adj_b = perturb_avoiding(y, roots(norm_a), half, rng, force=fresh)

        try:
            p, q = sylvester_bezout(norm_a, norm_b)
        except CoprimalityFailure as exc:
            last = exc
            continue
        # p(z^n) delta^0 * adj_a, component by component
        pz, qz = _in_z(p, n), _in_z(q, n)
        c = CrossedElement(spec, (pz * comp for comp in adj_a.comps))
        d = CrossedElement(spec, (qz * comp for comp in adj_b.comps))

        residual = unit_gap(((c, a), (d, b)))
        if residual >= CERTIFICATE_TOL:
            last = CoprimalityFailure(
                f"assembled certificate residual {residual:.3e} exceeds "
                f"{CERTIFICATE_TOL:.0e}", residual=residual)
            continue
        return BezoutCertificate(
            x=x, y=y, a=a, b=b, c=c, d=d, epsilon=eps, residual=residual,
            distance_x=_distance(x, a), distance_y=_distance(y, b), seed=seed)
    raise last


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an independent re-check of a stored certificate: the
    failures found, none when the certificate holds."""

    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_bezout(cert: BezoutCertificate) -> VerificationReport:
    """Re-verify a Bezout certificate from its stored data only."""
    failures = []
    residual = unit_gap(((cert.c, cert.a), (cert.d, cert.b)))
    dist_x = _distance(cert.x, cert.a)
    dist_y = _distance(cert.y, cert.b)
    if not residual < CERTIFICATE_TOL:
        failures.append(f"residual {residual:.3e} >= tolerance {CERTIFICATE_TOL:.0e}")
    if not dist_x < cert.epsilon:
        failures.append(f"x-distance {dist_x:.3e} >= epsilon {cert.epsilon}")
    if not dist_y < cert.epsilon:
        failures.append(f"y-distance {dist_y:.3e} >= epsilon {cert.epsilon}")
    for name, fresh, stored in (("residual", residual, cert.residual),
                                ("distance_x", dist_x, cert.distance_x),
                                ("distance_y", dist_y, cert.distance_y)):
        if not abs(fresh - stored) <= VERIFY_AGREEMENT_TOL:
            failures.append(
                f"stored {name} {stored:.12e} disagrees with recomputed {fresh:.12e}")
    return VerificationReport(tuple(failures))


@dataclass(frozen=True)
class WindingObstruction:
    """Witness that no single element near the coordinate function can
    generate: its determinant loop winds ``n`` times around zero, which is
    homotopy-stable under perturbations up to the stated margin."""

    element: CrossedElement
    circle_min: float
    winding: int
    samples: int
    delta: float
    trials: int
    trial_windings: tuple[int, ...]
    trial_circle_min: float | None = None
    seed: int | None = None

    @property
    def spec(self) -> GroupSpec:
        return self.element.spec


def _check_margin(n: int, delta: float) -> None:
    """Reject a perturbation margin the obstruction cannot certify.

    ``delta`` must lie in ``(0, 1)`` and satisfy
    ``(1 - delta)**n > n! * delta**n``; the generator and the verifier both
    call this, so a stored obstruction is held to the same guard.  With
    ``delta = p/q`` exactly, both sides times ``q**n`` are integers, so the
    comparison is exact, also from ``n = 171``, where ``n!`` overflows a float.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} does not lie in (0, 1)")
    p, q = delta.as_integer_ratio()
    if not (q - p) ** n > math.factorial(n) * p ** n:
        raise ValueError(
            f"margin (1-delta)^{n} > {n}! * delta^{n} fails for delta={delta}")


def _coordinate(spec: GroupSpec) -> CrossedElement:
    """``z * delta^0``, the one element an obstruction is built and proven for."""
    return CrossedElement.monomial(spec, 0, Poly.monomial(1))


def winding_obstruction(spec: GroupSpec, delta: float, rng: np.random.Generator,
                        samples: int = 1024,
                        seed: int | None = None) -> WindingObstruction:
    """Build the obstruction for ``z * delta^0`` over the given group.

    Checks the margin with ``_check_margin``, reads the determinant loop's
    winding at ``samples`` points through ``certified_winding``, which
    proves the count between samples too (``UndersampledPath`` otherwise),
    and records the windings of ten random perturbations of summed norm
    below ``delta``, which are not proven.
    """
    _check_margin(spec.n, delta)

    element = _coordinate(spec)
    path = det_on_circle(element, samples)
    w = certified_winding(path)

    trial_windings, trial_lows = [], []
    for _ in range(10):
        bump = _random_perturbation(spec, delta, rng)
        trial = det_on_circle(element + bump, samples)
        trial_windings.append(winding_number(trial))
        trial_lows.append(trial.min_modulus)

    return WindingObstruction(
        element=element, circle_min=path.min_modulus, winding=w,
        samples=samples, delta=delta, trials=len(trial_windings),
        trial_windings=tuple(trial_windings),
        trial_circle_min=min(trial_lows, default=None), seed=seed)


def _random_perturbation(spec: GroupSpec, delta: float,
                         rng: np.random.Generator) -> CrossedElement:
    """Random element of summed norm strictly below ``delta``."""
    # per component: four real parts, then four imaginary parts
    draws = rng.uniform(-1.0, 1.0, size=(spec.n, 2, 4))
    raw = CrossedElement(spec, (Poly(re + 1j * im) for re, im in draws))
    target = delta * rng.uniform(0.25, 0.9)
    norm = raw.l1_norm()
    if norm == 0.0:
        return raw
    return raw * (target / norm)


def verify_winding(obs: WindingObstruction) -> VerificationReport:
    """Re-verify an obstruction: check that its element is ``z * delta^0``,
    recompute the loop at the stored sample count, prove its winding between
    samples with ``certified_winding``, and compare against stored values.

    The perturbation trials are checked for shape only: one stored winding
    per trial, and a finite positive trial minimum exactly when trials ran.
    The trial minimum is recorded but not re-derived, since replaying the
    random trials would cost several times the rest of the check.
    """
    failures = []
    # the margin (1 - delta)^n > n! delta^n is proven for z * delta^0 only
    if obs.element != _coordinate(obs.spec):
        failures.append("element is not z * delta^0")
    if len(obs.trial_windings) != obs.trials:
        failures.append(f"{len(obs.trial_windings)} trial windings for {obs.trials} trials")
    trial_min = obs.trial_circle_min
    has_min = trial_min is not None and math.isfinite(trial_min) and trial_min > 0.0
    if has_min != (obs.trials > 0):
        failures.append(f"trial circle minimum {trial_min} does not fit {obs.trials} trials")
    try:
        _check_margin(obs.spec.n, obs.delta)
        path = det_on_circle(obs.element, obs.samples)
        w = certified_winding(path)
        if w != obs.winding:
            failures.append(f"stored winding {obs.winding} != recomputed {w}")
        if not abs(path.min_modulus - obs.circle_min) <= VERIFY_AGREEMENT_TOL:
            failures.append(
                f"stored circle minimum {obs.circle_min:.12e} disagrees with "
                f"recomputed {path.min_modulus:.12e}")
        if obs.winding != obs.spec.n:
            failures.append(
                f"winding {obs.winding} differs from group order {obs.spec.n}")
        if any(tw != obs.winding for tw in obs.trial_windings):
            failures.append("a perturbation trial changed the winding count")
    except Exception as exc:  # margin, determinant through zero, undersampled, ...
        failures.append(f"recomputation failed: {exc}")
    return VerificationReport(tuple(failures))
