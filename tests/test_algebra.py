"""Crossed-product layer: convolution, norm, expectation, quasi-basis and
matrix embedding."""
from __future__ import annotations

import cmath
import functools
import operator

import numpy as np
import pytest

from crossrank.algebra import (AlgMatrix, CrossedElement, GroupSpec, convolve,
                               det_on_circle, embedding_grid, expectation,
                               index_element, matrix_embedding, quasi_basis,
                               reconstruct, twisted_product, unit_gap)
from crossrank.errors import GroupMismatch, VanishingDeterminant
from crossrank.poly import Poly, circle_points, padded, summed_norm, winding_number
from crossrank.randomness import random_crossed, random_poly, seeded_generator


def dist(x: CrossedElement, y: CrossedElement) -> float:
    return (x - y).l1_norm()


def test_group_spec_rejects_non_primitive():
    with pytest.raises(ValueError):
        GroupSpec(4, 2)
    with pytest.raises(ValueError):
        GroupSpec(6, 3)


def test_group_spec_omega():
    spec = GroupSpec(4)
    assert abs(spec.omega - 1j) < 1e-14
    assert abs(spec.omega ** 4 - 1) < 1e-12
    assert abs(GroupSpec(4, 3).omega + 1j) < 1e-14


def test_group_spec_from_omega_snaps():
    spec = GroupSpec.from_omega(6, cmath.exp(2j * cmath.pi * 5 / 6 + 1e-9j))
    assert spec == GroupSpec(6, 5)
    with pytest.raises(ValueError):
        GroupSpec.from_omega(4, cmath.exp(2j * cmath.pi / 4) * 1.5)
    with pytest.raises(ValueError):
        GroupSpec.from_omega(4, -1.0)  # order-2 root: not primitive for n=4


def test_unit_is_neutral():
    spec = GroupSpec(3)
    rng = seeded_generator(0)
    x = random_crossed(rng, spec, 4)
    e = CrossedElement.unit(spec)
    assert dist(e * x, x) < 1e-12
    assert dist(x * e, x) < 1e-12


def test_delta_square_order_two():
    # (z d^1) * (z d^1) = z * alpha(z) d^0 = -z^2 d^0
    spec = GroupSpec(2)
    zd1 = CrossedElement.monomial(spec, 1, Poly.monomial(1))
    expected = CrossedElement.monomial(spec, 0, Poly([0, 0, -1]))
    assert dist(zd1 * zd1, expected) < 1e-12


def test_monomial_product_rule():
    # (f d^g)(h d^k) = f alpha^g(h) d^(g+k)
    rng = seeded_generator(21)
    spec = GroupSpec(5)
    for _ in range(30):
        g = int(rng.integers(5))
        k = int(rng.integers(5))
        f = random_poly(rng, 3)
        h = random_poly(rng, 3)
        lhs = CrossedElement.monomial(spec, g, f) * CrossedElement.monomial(spec, k, h)
        rhs = CrossedElement.monomial(spec, (g + k) % 5, f * spec.twist(h, g))
        assert dist(lhs, rhs) < 1e-10


def test_convolve_requires_same_spec():
    x = CrossedElement.unit(GroupSpec(2))
    y = CrossedElement.unit(GroupSpec(3))
    with pytest.raises(GroupMismatch):
        convolve(x, y)


def test_twisted_product_is_the_untrimmed_convolution():
    rng = seeded_generator(3)
    for n, m in ((1, 0), (2, 1), (3, 2), (5, 2)):
        spec = GroupSpec(n, m)
        for dx, dy in ((0, 0), (4, 1), (2, 7)):
            x, y = random_crossed(rng, spec, dx), random_crossed(rng, spec, dy)
            lx = max(c.coeffs.size for c in x.comps)
            ly = max(c.coeffs.size for c in y.comps)
            direct = np.zeros((n, lx + ly - 1), dtype=complex)
            for h in range(n):
                for g in range(n):
                    prod = np.convolve(x.comps[h].coeffs,
                                       spec.twist(y.comps[(g - h) % n], h).coeffs)
                    direct[g, :prod.size] += prod
            kernel = twisted_product(x, y)
            assert kernel.shape == direct.shape
            # the same n * ly products per coefficient, added in another order
            bound = n * ly * np.finfo(float).eps * x.l1_norm() * y.l1_norm()
            assert np.abs(kernel - direct).max() <= bound
            assert convolve(x, y) == CrossedElement(spec, map(Poly, kernel))
    zero = CrossedElement.zero(GroupSpec(3))
    assert twisted_product(zero, zero).shape == (3, 1)
    assert (zero * CrossedElement.unit(GroupSpec(3))).is_zero


def test_summed_norm_reads_the_element_bits():
    rng = seeded_generator(4)
    x = random_crossed(rng, GroupSpec(4), 5)
    rows = padded(x.comps, max(c.coeffs.size for c in x.comps) + 3)
    assert not rows[:, -3:].any()
    assert summed_norm(rows) == x.l1_norm()
    # a matrix of polynomials adds its entries in row-major order
    mat = AlgMatrix([[random_poly(rng, d) for d in (0, 4, 2)] for _ in range(2)])
    entries = padded((e for row in mat.entries for e in row), 6).reshape(2, 3, 6)
    assert summed_norm(entries) == sum(e.wiener_norm() for row in mat.entries for e in row)


def test_unit_gap_is_the_distance_to_the_unit():
    rng = seeded_generator(5)
    spec = GroupSpec(3, 2)
    pairs = [(random_crossed(rng, spec, d), random_crossed(rng, spec, 2)) for d in (1, 4, 0)]
    combo = functools.reduce(operator.add, (x * y for x, y in pairs))
    expected = dist(combo, CrossedElement.unit(spec))
    assert abs(unit_gap(pairs) - expected) <= 1e-13 * expected
    # delta^1 * delta^2 = delta^0 exactly; 2 delta^0 * delta^0 misses by 1
    d1, d2 = CrossedElement.monomial(spec, 1), CrossedElement.monomial(spec, 2)
    assert unit_gap([(d1, d2)]) == 0.0
    assert unit_gap([(2.0 * CrossedElement.unit(spec), CrossedElement.unit(spec))]) == 1.0


def test_convolve_associative():
    rng = seeded_generator(2)
    spec = GroupSpec(4)
    for _ in range(25):
        x, y, z = (random_crossed(rng, spec, 3) for _ in range(3))
        assert dist((x * y) * z, x * (y * z)) < 1e-10


def test_action_composes_and_has_order_n():
    rng = seeded_generator(14)
    spec = GroupSpec(5)
    for _ in range(20):
        f = random_poly(rng, 6)
        g, h = int(rng.integers(5)), int(rng.integers(5))
        lhs = spec.twist(spec.twist(f, h), g)
        rhs = spec.twist(f, (g + h) % 5)
        assert (lhs - rhs).wiener_norm() < 1e-10
        assert (spec.twist(f, 5) - f).wiener_norm() < 1e-10


def test_l1_norm_values():
    spec = GroupSpec(2)
    assert CrossedElement.unit(spec).l1_norm() == 1.0
    x = CrossedElement(spec, [Poly.monomial(1), Poly([1, 1])])
    assert x.l1_norm() == 3.0


def test_l1_norm_submultiplicative():
    rng = seeded_generator(8)
    spec = GroupSpec(3)
    for _ in range(100):
        x = random_crossed(rng, spec, 5)
        y = random_crossed(rng, spec, 5)
        assert (x * y).l1_norm() <= x.l1_norm() * y.l1_norm() + 1e-9


def test_expectation_picks_identity_component():
    spec = GroupSpec(2)
    x = CrossedElement(spec, [Poly.monomial(1), Poly([2])])
    e = expectation(x)
    assert e.component(0) == Poly.monomial(1)
    assert e.component(1).is_zero
    assert expectation(CrossedElement.monomial(spec, 1)).is_zero


def test_expectation_idempotent_contractive_bimodule():
    rng = seeded_generator(4)
    spec = GroupSpec(4)
    for _ in range(30):
        x = random_crossed(rng, spec, 4)
        a = CrossedElement.monomial(spec, 0, random_poly(rng, 3))
        assert dist(expectation(expectation(x)), expectation(x)) < 1e-12
        assert expectation(x).l1_norm() <= x.l1_norm() + 1e-12
        assert dist(expectation(a * x), a * expectation(x)) < 1e-10
        assert dist(expectation(x * a), expectation(x) * a) < 1e-10


def test_quasi_basis_structure():
    assert quasi_basis(GroupSpec(1)) == [(CrossedElement.unit(GroupSpec(1)),) * 2]
    spec = GroupSpec(3)
    pairs = quasi_basis(spec)
    expected = [(0, 0), (1, 2), (2, 1)]
    for (u, v), (gu, gv) in zip(pairs, expected):
        assert u == CrossedElement.monomial(spec, gu)
        assert v == CrossedElement.monomial(spec, gv)


def test_index_is_group_order_exactly():
    for n in range(1, 7):
        spec = GroupSpec(n)
        assert index_element(spec) == CrossedElement.monomial(spec, 0, Poly([n]))


def test_reconstruct_unit_and_monomial():
    spec = GroupSpec(2)
    e = CrossedElement.unit(spec)
    assert dist(reconstruct(e), e) < 1e-14
    zd1 = CrossedElement.monomial(spec, 1, Poly.monomial(1))
    assert dist(reconstruct(zd1), zd1) < 1e-12
    assert dist(reconstruct(zd1, side="right"), zd1) < 1e-12


def test_reconstruct_random():
    rng = seeded_generator(77)
    spec = GroupSpec(5)
    for _ in range(25):
        x = random_crossed(rng, spec, 6)
        assert dist(reconstruct(x), x) < 1e-10
        assert dist(reconstruct(x, side="right"), x) < 1e-10


def test_embedding_of_unit_is_identity():
    spec = GroupSpec(3)
    mat = matrix_embedding(CrossedElement.unit(spec))
    for i in range(3):
        for j in range(3):
            expected = Poly.one() if i == j else Poly.zero()
            assert (mat.entries[i][j] - expected).wiener_norm() < 1e-14


def test_embedding_diagonal_twists():
    spec = GroupSpec(2)
    mat = matrix_embedding(CrossedElement.monomial(spec, 0, Poly.monomial(1)))
    assert (mat.entries[0][0] - Poly.monomial(1)).wiener_norm() < 1e-14
    assert (mat.entries[1][1] + Poly.monomial(1)).wiener_norm() < 1e-12
    assert mat.entries[0][1].is_zero and mat.entries[1][0].is_zero


def _embedding_values(x: CrossedElement, zs: np.ndarray) -> np.ndarray:
    """``pi(x)`` at each point of ``zs``, as a ``(len(zs), n, n)`` array."""
    grid = np.array([[e.eval_on_array(zs) for e in row]
                     for row in matrix_embedding(x).entries])
    return np.moveaxis(grid, -1, 0)


def test_embedding_multiplicative():
    # pi(x * y) has degree at most 6, so its values at 7 points determine it
    zs = np.exp(2j * np.pi * np.arange(7) / 7)
    rng = seeded_generator(31)
    for n in (2, 3, 4):
        spec = GroupSpec(n)
        for _ in range(10):
            x = random_crossed(rng, spec, 3)
            y = random_crossed(rng, spec, 3)
            lhs = _embedding_values(x * y, zs)
            rhs = _embedding_values(x, zs) @ _embedding_values(y, zs)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_det_on_circle_identity():
    spec = GroupSpec(3)
    path = det_on_circle(CrossedElement.unit(spec), 64)
    assert all(abs(s - 1) < 1e-12 for s in path.samples)


def test_det_on_circle_closed_form_order_two():
    # det pi(z d^0) = z * (-z) = -z^2
    spec = GroupSpec(2)
    path = det_on_circle(CrossedElement.monomial(spec, 0, Poly.monomial(1)), 64)
    zs = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(np.array(path.samples) + zs ** 2)) < 1e-12


def test_det_winding_matches_group_order():
    for n in range(2, 7):
        spec = GroupSpec(n)
        path = det_on_circle(CrossedElement.monomial(spec, 0, Poly.monomial(1)), 1024)
        assert winding_number(path) == n


def test_det_on_circle_rejects_vanishing():
    spec = GroupSpec(2)
    with pytest.raises(VanishingDeterminant):
        det_on_circle(CrossedElement.monomial(spec, 0, Poly([-1, 0, 1])), 64)


def _det_loop_by_points(x: CrossedElement, samples: int) -> np.ndarray:
    """Reference loop: Horner values of every entry of ``matrix_embedding(x)``
    at each circle point, then one numeric determinant per point."""
    return np.linalg.det(_embedding_values(x, circle_points(samples)))


@pytest.mark.parametrize("samples", [64, 1024])
def test_det_on_circle_matches_pointwise_determinants(samples):
    # components of differing degrees, so the largest is not attained by all
    rng = seeded_generator(41)
    for spec in (GroupSpec(1), GroupSpec(2), GroupSpec(3), GroupSpec(4, 3), GroupSpec(5, 2)):
        for _ in range(4):
            degrees = rng.integers(0, 7, size=spec.n)
            x = CrossedElement(spec, (random_poly(rng, d) for d in degrees))
            expected = _det_loop_by_points(x, samples)
            got = det_on_circle(x, samples).samples
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def test_det_on_circle_folds_degree_above_samples():
    # n * d = 3 * 30 >= 64: coefficient k of det pi(x) lands in slot k mod 64
    rng = seeded_generator(42)
    x = CrossedElement(GroupSpec(3), (random_poly(rng, d) for d in (30, 12, 25)))
    expected = _det_loop_by_points(x, 64)
    got = det_on_circle(x, 64).samples
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    # n = 1: pi(x) is x itself, at degree 100
    x = CrossedElement(GroupSpec(1), [random_poly(rng, 100)])
    expected = x.comps[0].eval_on_array(circle_points(64))
    got = det_on_circle(x, 64).samples
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("spec, degrees, samples", [
    pytest.param(GroupSpec(1), (6,), 64, id="n1"),
    pytest.param(GroupSpec(5, 2), (3, 0, 4, 1, 2), 64, id="n5-m2"),
    pytest.param(GroupSpec(3), (30, 12, 25), 64, id="fold"),
])
def test_det_on_circle_takes_d_plus_one_determinants(monkeypatch, spec, degrees, samples):
    # det pi(x)(z) = D(z^n) with deg D <= d: d + 1 points determine it
    rng = seeded_generator(44)
    x = CrossedElement(spec, (random_poly(rng, d) for d in degrees))
    batches = []
    det = np.linalg.det

    def counting(a):
        batches.append(a.shape[0])
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting)
    got = det_on_circle(x, samples).samples
    monkeypatch.undo()
    assert batches == [max(degrees) + 1]
    expected = _det_loop_by_points(x, samples)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_det_on_circle_records_derivative_bound():
    # det pi(z d^0) = +-z^n, so sum k |c_k| = n
    for n in (1, 2, 5, 8):
        path = det_on_circle(CrossedElement.monomial(GroupSpec(n), 0, Poly.monomial(1)), 64)
        assert abs(path.derivative_bound - n) <= 1e-12 * n
    # n = 1, 1 + 0.5 z^24: 24 * 0.5
    x = CrossedElement(GroupSpec(1), [Poly.monomial(24, 0.5) + Poly.constant(1.0)])
    assert abs(det_on_circle(x, 64).derivative_bound - 12.0) <= 1e-12


def test_det_on_circle_rejects_zero_row():
    # every row of pi(0) is zero
    with pytest.raises(VanishingDeterminant):
        det_on_circle(CrossedElement.zero(GroupSpec(3)), 64)


def test_embedding_grid_is_the_embedding_at_roots_of_unity():
    rng = seeded_generator(43)
    for spec in (GroupSpec(1), GroupSpec(3, 2), GroupSpec(5, 2)):
        x = CrossedElement(spec, (random_poly(rng, d) for d in rng.integers(0, 5, size=spec.n)))
        grid = embedding_grid(x)
        size = spec.n * (max(c.degree for c in x.comps) + 1)
        assert grid.shape == (size, spec.n, spec.n)
        zs = np.exp(2j * np.pi * np.arange(size) / size)
        expected = _embedding_values(x, zs)
        assert np.max(np.abs(grid - expected)) <= 1e-12 * x.l1_norm()


def test_embedding_grid_prefix_is_the_full_grid_cut():
    rng = seeded_generator(45)
    for spec in (GroupSpec(1), GroupSpec(3, 2), GroupSpec(5, 2)):
        x = CrossedElement(spec, (random_poly(rng, d) for d in rng.integers(0, 5, size=spec.n)))
        full = embedding_grid(x)
        for k in (1, max(c.degree for c in x.comps) + 1, full.shape[0]):
            assert np.array_equal(embedding_grid(x, k), full[:k])
