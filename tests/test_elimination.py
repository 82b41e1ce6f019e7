"""Elimination cascade, perturbation, and the two certificate types."""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from crossrank import algebra, elimination, serialize
from crossrank.algebra import CrossedElement, GroupSpec, matrix_embedding
from crossrank.cli import main
from crossrank.elimination import (WindingObstruction, _check_margin, _coordinate,
                                   bezout_certificate, closed_form_top_n2,
                                   closed_form_top_n3, eliminate,
                                   homogeneity_check, perturb_avoiding,
                                   reduced_norm, verify_bezout, verify_winding,
                                   winding_obstruction)
from crossrank.errors import CoprimalityFailure, GroupTooSmall, UndersampledPath
from crossrank.poly import Poly, certified_winding, circle_points, roots, winding_number
from crossrank.randomness import random_crossed, seeded_generator


def dist(x, y):
    return (x - y).l1_norm()


# -- the cascade itself

def test_eliminate_rejects_order_one():
    with pytest.raises(GroupTooSmall):
        eliminate(CrossedElement.unit(GroupSpec(1)))


def test_order_two_closed_form_hand_case():
    # a0 = z, a1 = 1, omega = -1: top component is -z^2 - 1
    spec = GroupSpec(2)
    a = CrossedElement(spec, [Poly.monomial(1), Poly.one()])
    trace = eliminate(a)
    assert (trace.top_poly - Poly([-1, 0, -1])).wiener_norm() < 1e-12
    assert trace.top.component(1).wiener_norm() < 1e-12


def test_closed_forms_match_cascade():
    rng = seeded_generator(40)
    for n, closed in ((2, closed_form_top_n2), (3, closed_form_top_n3)):
        spec = GroupSpec(n)
        for _ in range(25):
            a = random_crossed(rng, spec, 4)
            assert dist(eliminate(a).top, closed(a)) < 1e-10


def test_trace_invariants_random():
    rng = seeded_generator(41)
    for n in (2, 3, 4, 5):
        spec = GroupSpec(n)
        for _ in range(20):
            a = random_crossed(rng, spec, 5)
            trace = eliminate(a)
            for (k, j) in trace.levels:
                assert trace.multiplier_residual(k, j) < 1e-10
                assert trace.vanishing_residual(k, j) < 1e-12
            assert trace.top_support_residual() < 1e-12


def test_level_index_ranges():
    spec = GroupSpec(5)
    trace = eliminate(random_crossed(seeded_generator(1), spec, 2))
    keys = set(trace.levels)
    assert keys == {(k, j) for k in range(1, 5) for j in range(1, 5 - k + 1)}
    assert set(trace.multipliers) == keys


# -- symbolic oracle: the cascade over formal variables alpha^i(a_j)

def _symbolic_cascade(n: int):
    """Run the recursion treating alpha^i(a_j) as opaque symbols; the
    action shifts the twist index mod n."""
    A = [[sp.Symbol(f"a_{i}_{j}") for j in range(n)] for i in range(n)]

    def twist(expr, g):
        if g % n == 0:
            return expr
        return expr.xreplace({A[i][j]: A[(i + g) % n][j]
                              for i in range(n) for j in range(n)})

    def conv(x, y):
        return [sp.expand(sum(x[h] * twist(y[(g - h) % n], h) for h in range(n)))
                for g in range(n)]

    a = [A[0][j] for j in range(n)]
    levels = {}
    for j in range(1, n):
        left = [sp.Integer(0)] * n
        left[0] = twist(a[0], j)
        left[j] = left[j] - a[j]
        levels[(1, j)] = conv(left, a)
    for k in range(1, n - 1):
        for j in range(1, n - k):
            c_head = levels[(k, j + 1)][j]
            c_tail = twist(levels[(k, 1)][0], j)
            head = [sp.Integer(0)] * n
            head[j] = c_head
            tail = [sp.Integer(0)] * n
            tail[0] = c_tail
            t1 = conv(head, levels[(k, 1)])
            t2 = conv(tail, levels[(k, j + 1)])
            levels[(k + 1, j)] = [sp.expand(u - v) for u, v in zip(t1, t2)]
    return A, levels


def test_symbolic_closed_form_order_two():
    A, levels = _symbolic_cascade(2)
    top = levels[(1, 1)]
    expected = sp.expand(A[1][0] * A[0][0] - A[0][1] * A[1][1])
    assert sp.simplify(top[0] - expected) == 0
    assert top[1] == 0


def test_symbolic_closed_form_order_three():
    A, levels = _symbolic_cascade(3)
    top = levels[(2, 1)]
    t1 = A[2][0] * A[0][1] - A[0][2] * A[2][2]
    t2 = A[2][0] * A[1][2] - A[1][1] * A[2][1]
    t3 = A[2][0] * A[1][0] - A[1][1] * A[2][2]
    t4 = A[2][0] * A[0][0] - A[0][2] * A[2][1]
    expected = sp.expand(t1 * t2 - t3 * t4)
    assert sp.expand(top[0] - expected) == 0
    assert top[1] == 0 and top[2] == 0


@pytest.mark.parametrize("n", [2, 3])
def test_symbolic_homogeneity_and_pure_term(n):
    A, levels = _symbolic_cascade(n)
    top = levels[(n - 1, 1)][0]
    gens = [A[i][j] for i in range(n) for j in range(n)]
    poly = sp.Poly(top, *gens)
    degrees = {sum(monom) for monom in poly.monoms()}
    assert degrees == {2 ** (n - 1)}
    # with a_j = 0 for j >= 1 only a single signed product of twisted a_0
    # factors survives
    pure = sp.expand(top.xreplace(
        {A[i][j]: sp.Integer(0) for i in range(n) for j in range(1, n)}))
    assert pure != 0
    assert not isinstance(pure, sp.Add)


# -- homogeneity of the numeric cascade

def test_scaling_identity_at_one():
    spec = GroupSpec(3)
    a = random_crossed(seeded_generator(2), spec, 3)
    report = homogeneity_check(a, 1.0)
    assert report.max_deviation < 1e-14


def test_scaling_order_two_squares():
    spec = GroupSpec(2)
    a = random_crossed(seeded_generator(3), spec, 3)
    trace = eliminate(a)
    scaled = eliminate(2.0 * a)
    assert dist(scaled.level(1, 1), 4.0 * trace.level(1, 1)) < 1e-10


def test_scaling_doubles_per_level():
    rng = seeded_generator(4)
    spec = GroupSpec(4)
    lam = 1 + 1j
    for _ in range(10):
        a = random_crossed(rng, spec, 3)
        report = homogeneity_check(a, lam)
        assert report.max_deviation < 1e-8
        trace = eliminate(a)
        top_scaled = eliminate(lam * a).top
        assert dist(top_scaled, (lam ** 8) * trace.top) < 1e-8


# -- the reduced norm

def in_z(f, spec):
    """``f(z**n)`` as an element supported on ``delta^0``."""
    coeffs = [0.0] * (spec.n * f.degree + 1)
    coeffs[::spec.n] = f.coeffs.tolist()
    return CrossedElement.monomial(spec, 0, Poly(coeffs))


@pytest.mark.parametrize("n", range(2, 9))
def test_reduced_norm_adjugate_row(n):
    rng = seeded_generator(50 + n)
    for m in {1, n - 1}:
        a = random_crossed(rng, GroupSpec(n, m), 4)
        norm, adj = reduced_norm(a)
        assert norm.degree == 4
        scale = adj.l1_norm() * a.l1_norm()
        assert dist(adj * a, in_z(norm, a.spec)) < 1e-12 * scale


@pytest.mark.parametrize("n", range(2, 9))
def test_reduced_norm_is_the_determinant(n):
    a = random_crossed(seeded_generator(60 + n), GroupSpec(n), 4)
    norm, _ = reduced_norm(a)
    # det pi(a) point by point, from Horner values of the embedding's entries
    zs = circle_points(64)
    grid = np.array([[e.eval_on_array(zs) for e in row]
                     for row in matrix_embedding(a).entries])
    dets = np.linalg.det(np.moveaxis(grid, -1, 0))
    values = in_z(norm, a.spec).component(0).eval_on_array(zs)
    assert max(abs(values - dets)) < 1e-12 * max(abs(dets))


def test_reduced_norm_order_two_is_the_top_stage():
    # the order-2 top stage is det pi(a)
    rng = seeded_generator(70)
    for _ in range(10):
        a = random_crossed(rng, GroupSpec(2), 4)
        norm, _ = reduced_norm(a)
        assert dist(in_z(norm, a.spec), closed_form_top_n2(a)) < 1e-12 * a.l1_norm() ** 2


def test_reduced_norm_singular_on_the_grid():
    # pi((1 - z) delta^0) = diag(1 - z, 1 + z) is singular at z = 1 and z = -1,
    # both grid points; the zero element is singular everywhere
    spec = GroupSpec(2)
    a = CrossedElement.monomial(spec, 0, Poly([1, -1]))
    norm, adj = reduced_norm(a)
    assert (norm - Poly([1, -1])).wiener_norm() < 1e-15
    assert dist(adj, CrossedElement.monomial(spec, 0, Poly([1, 1]))) < 1e-15
    norm, adj = reduced_norm(CrossedElement.zero(spec))
    assert norm.is_zero and adj.is_zero


# -- perturbation with root avoidance

def test_perturb_zero_budget_path():
    spec = GroupSpec(2)
    a = CrossedElement(spec, [Poly.monomial(1), Poly.one()])
    rng = seeded_generator(5)
    assert perturb_avoiding(a, (), 0.1, rng)[0] == a


def test_perturb_moves_roots_off_target():
    # the reduced norm of z d^0 + d^1 is -w - 1 with its root at w = -1
    spec = GroupSpec(2)
    a = CrossedElement(spec, [Poly.monomial(1), Poly.one()])
    rng = seeded_generator(6)
    b, norm, _ = perturb_avoiding(a, [-1], 0.1, rng)
    assert dist(a, b) < 0.1
    assert min(abs(r + 1) for r in roots(norm)) > 1e-4 * 2
    # only the constant coefficient of the identity component moved
    assert b.component(1) == a.component(1)
    assert (b.component(0) - a.component(0)).degree <= 0


def test_perturb_separates_independent_tops():
    rng = seeded_generator(7)
    spec = GroupSpec(3)
    x = random_crossed(rng, spec, 2)
    y = random_crossed(rng, spec, 2)
    _, fx, _ = perturb_avoiding(x, (), 0.05, rng)
    avoid = roots(fx)
    b = perturb_avoiding(y, avoid, 0.05, rng)[0]
    fb = reduced_norm(b)[0]
    sep = min(abs(u - v) for u in roots(fb) for v in avoid)
    assert sep > 1e-4


def test_perturb_budget_must_be_positive():
    spec = GroupSpec(2)
    a = CrossedElement.unit(spec)
    with pytest.raises(ValueError):
        perturb_avoiding(a, (), 0.0, seeded_generator(0))


# -- Bezout certificates

def test_certificate_unit_pair():
    for n in (2, 3, 4):
        spec = GroupSpec(n)
        x = CrossedElement.unit(spec)
        y = CrossedElement.zero(spec)
        cert = bezout_certificate(x, y, 0.1, seeded_generator(1))
        assert cert.residual < 1e-12
        assert dist(cert.c, CrossedElement.unit(spec)) < 1e-12
        assert cert.distance_x == 0.0
        assert verify_bezout(cert).ok


def test_certificate_small_example():
    spec = GroupSpec(2)
    x = CrossedElement(spec, [Poly.monomial(1), Poly.one()])
    y = CrossedElement(spec, [Poly([-0.5, 1]), Poly.zero()])
    cert = bezout_certificate(x, y, 0.1, seeded_generator(2))
    assert cert.residual < 1e-6
    assert cert.distance_x < 0.1 and cert.distance_y < 0.1
    report = verify_bezout(cert)
    assert report.ok, report.failures


def test_certificate_random_pairs():
    rng = seeded_generator(8)
    for n in (2, 3, 4):
        spec = GroupSpec(n)
        for _ in range(5):
            x = random_crossed(rng, spec, 4)
            y = random_crossed(rng, spec, 4)
            cert = bezout_certificate(x, y, 0.1, rng)
            assert cert.residual < 1e-6
            assert cert.distance_x < 0.1 and cert.distance_y < 0.1
            assert verify_bezout(cert).ok


def test_certificate_with_non_principal_root():
    spec = GroupSpec(3, 2)
    rng = seeded_generator(99)
    cert = bezout_certificate(random_crossed(rng, spec, 3),
                              random_crossed(rng, spec, 3), 0.1, rng)
    assert cert.residual < 1e-6
    assert verify_bezout(cert).ok


def test_certificate_degree_wall_fails_cleanly():
    # order 8 with degree-64 components puts the reduced norms at degree 64
    # in w = z^8, beyond what double-precision cofactors can certify
    spec = GroupSpec(8)
    rng = seeded_generator(1)
    x = random_crossed(rng, spec, 64)
    y = random_crossed(rng, spec, 64)
    with pytest.raises(CoprimalityFailure):
        bezout_certificate(x, y, 0.1, rng)


def test_certificate_verification_catches_corruption():
    spec = GroupSpec(2)
    rng = seeded_generator(9)
    x = random_crossed(rng, spec, 3)
    y = random_crossed(rng, spec, 3)
    cert = bezout_certificate(x, y, 0.1, rng)
    comps = list(cert.c.comps)
    comps[0] = comps[0] + Poly.constant(1e-3)
    broken = replace(cert, c=CrossedElement(spec, comps))
    report = verify_bezout(broken)
    assert not report.ok


def test_certificate_verification_catches_nan_cofactor():
    spec = GroupSpec(2)
    rng = seeded_generator(9)
    cert = bezout_certificate(random_crossed(rng, spec, 3), random_crossed(rng, spec, 3),
                              0.1, rng)
    comps = list(cert.c.comps)
    comps[0] = comps[0] + Poly.constant(float("nan"))
    report = verify_bezout(replace(cert, c=CrossedElement(spec, comps)))
    assert not report.ok
    assert any(f.startswith("residual") for f in report.failures), report.failures


def plain_twisted(x: CrossedElement, y: CrossedElement) -> np.ndarray:
    """``x * y`` summed from ``np.convolve`` products, untrimmed."""
    n = x.spec.n
    width = max(c.coeffs.size for c in x.comps) + max(c.coeffs.size for c in y.comps)
    out = np.zeros((n, width), dtype=complex)
    for h in range(n):
        for g in range(n):
            f, t = x.comps[h].coeffs, x.spec.twist(y.comps[(g - h) % n], h).coeffs
            if f.size and t.size:
                prod = np.convolve(f, t)
                out[g, :prod.size] += prod
    return out


def trimmed_chain(x: CrossedElement, y: CrossedElement) -> CrossedElement:
    """``x * y`` from trimmed ``Poly`` products and sums."""
    n = x.spec.n
    return CrossedElement(x.spec, (
        sum((x.comps[h] * x.spec.twist(y.comps[(g - h) % n], h) for h in range(1, n)),
            x.comps[0] * y.comps[g])
        for g in range(n)))


def test_certificate_residual_is_untrimmed():
    """The stored residual is ``|c*a + d*b - 1|`` with nothing trimmed.

    A plain ``np.convolve`` recomputation adds the same products in
    another order.  That moves each coefficient by at most
    ``gamma_K (|c||a| + |d||b|)`` summed over coefficients; over the 768
    certificates of ``perfbench`` seeds 1, 5, 9 and 601 the residuals
    differed by at most 0.08 ``u (|c||a| + |d||b|)``, ``u = 2**-52``, so
    a tenth of that is the tolerance.  The trimmed ``Poly`` chain drops
    the round-off below 1e-12 relative and reads lower.
    """
    path = Path(__file__).parent / "data" / "golden-cert-upper-n3.json"
    cert = serialize.bezout_from_obj(serialize.read_file(path))
    gap = plain_twisted(cert.c, cert.a)
    other = plain_twisted(cert.d, cert.b)
    gap[:, :other.shape[1]] += other
    gap[0, 0] -= 1.0
    plain = float(np.abs(gap).sum())
    scale = 2.0 ** -52 * (cert.c.l1_norm() * cert.a.l1_norm()
                          + cert.d.l1_norm() * cert.b.l1_norm())
    assert abs(cert.residual - plain) <= 0.1 * scale, (cert.residual, plain, scale)
    unit = CrossedElement.unit(cert.spec)
    trimmed = (trimmed_chain(cert.c, cert.a) + trimmed_chain(cert.d, cert.b) - unit).l1_norm()
    assert cert.residual > trimmed
    assert verify_bezout(cert).ok


def test_certificate_and_verify_build_no_crossed_products(monkeypatch):
    calls = []
    real = algebra.convolve

    def counting(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(algebra, "convolve", counting)
    spec = GroupSpec(3)
    rng = seeded_generator(17)
    x, y = random_crossed(rng, spec, 4), random_crossed(rng, spec, 4)
    cert = bezout_certificate(x, y, 0.1, rng)
    assert verify_bezout(cert).ok
    assert calls == []
    x * y  # the counter sees products made through ``*``
    assert calls == [1]


def test_certificate_distances_are_the_element_norms():
    rng = seeded_generator(23)
    unperturbed = 0
    for n in (2, 3, 4):
        spec = GroupSpec(n)
        for _ in range(6):
            x, y = random_crossed(rng, spec, 3), random_crossed(rng, spec, 3)
            cert = bezout_certificate(x, y, 0.1, rng)
            assert cert.distance_x == (x - cert.a).l1_norm()
            assert cert.distance_y == (y - cert.b).l1_norm()
            if cert.a == x:
                assert cert.distance_x == 0.0
                unperturbed += 1
    assert unperturbed


# -- winding obstructions

def test_obstruction_windings():
    rng = seeded_generator(10)
    for n, delta in ((1, 0.1), (2, 0.1), (3, 0.05)):
        obs = winding_obstruction(GroupSpec(n), delta, rng)
        assert obs.winding == n
        assert obs.circle_min > 1 - 2 * delta
        assert all(w == n for w in obs.trial_windings)
        assert verify_winding(obs).ok


def test_obstruction_margin_guard():
    with pytest.raises(ValueError):
        winding_obstruction(GroupSpec(2), 0.45, seeded_generator(0))
    winding_obstruction(GroupSpec(2), 0.2, seeded_generator(0))


def test_margin_is_exact_past_float_factorials():
    # 171! overflows a float; the comparison is made in integers
    _check_margin(171, 1e-10)
    with pytest.raises(ValueError, match="fails"):
        _check_margin(171, 0.05)
    # (1 - delta)^n = n! delta^n exactly at n = 1, delta = 1/2: not strictly greater
    with pytest.raises(ValueError, match="fails"):
        _check_margin(1, 0.5)


def test_obstruction_sample_counts_agree():
    rng = seeded_generator(11)
    obs = winding_obstruction(GroupSpec(4), 0.05, rng, samples=1024)
    fresh = winding_obstruction(GroupSpec(4), 0.05, seeded_generator(11), samples=4096)
    assert obs.winding == fresh.winding == 4


def test_coordinate_loop_passes_the_gate_below_a_quarter_of_the_samples():
    # |det| = 1 and sum k |c_k| = n, so the gate 1 > pi * n / 64 holds
    for n in range(1, 16):
        assert certified_winding(algebra.det_on_circle(_coordinate(GroupSpec(n)), 64)) == n


def _fast_loop_element() -> CrossedElement:
    # 1 + 0.5 z^24 at 64 samples: phase jumps reach only 0.96 rad, under the
    # pi/2 guard, but the between-samples bound 12 * pi / 64 ~ 0.59 exceeds
    # the minimum modulus 0.5
    return CrossedElement(GroupSpec(1), [Poly.monomial(24, 0.5) + Poly.constant(1.0)])


def test_gate_rejects_a_loop_the_jump_guard_passes(tmp_path, capsys, monkeypatch):
    path = algebra.det_on_circle(_fast_loop_element(), 64)
    jumps = np.angle(np.roll(path.samples, -1) / path.samples)
    assert 0.9 < np.max(np.abs(jumps)) < np.pi / 2
    assert winding_number(path) == 0
    with pytest.raises(UndersampledPath, match="minimum modulus 5.000e-01") as info:
        certified_winding(path)
    assert info.value.bound == pytest.approx(12 * np.pi / 64)

    # the writer raises (cert-lower exits 2), and the verifier reports a failure line
    monkeypatch.setattr(elimination, "_coordinate", lambda spec: _fast_loop_element())
    with pytest.raises(UndersampledPath):
        winding_obstruction(GroupSpec(1), 0.05, seeded_generator(0), samples=64)
    out = tmp_path / "o.json"
    capsys.readouterr()
    assert main(["cert-lower", "--n", "1", "--samples", "64", "--out", str(out)]) == 2
    assert ("minimum modulus 5.000e-01 <= between-samples bound 5.890e-01 at 64 samples"
            in capsys.readouterr().err)
    assert not out.exists()
    obs = WindingObstruction(element=_fast_loop_element(), circle_min=0.5, winding=0,
                             samples=64, delta=0.05, trials=0, trial_windings=())
    failures = verify_winding(obs).failures
    assert any("between-samples bound" in f and "64 samples" in f for f in failures)


def test_obstruction_verification_catches_tampering():
    from dataclasses import replace
    obs = winding_obstruction(GroupSpec(2), 0.1, seeded_generator(12))
    assert not verify_winding(replace(obs, winding=3)).ok
    assert not verify_winding(replace(obs, circle_min=0.5)).ok
    # -0.5 satisfies the margin inequality at n=3; only the range check rejects it
    obs = winding_obstruction(GroupSpec(3), 0.05, seeded_generator(12))
    assert verify_winding(obs).ok
    assert not verify_winding(replace(obs, delta=-0.5)).ok
