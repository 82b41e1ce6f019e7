"""Polynomial layer: arithmetic, norms, twists, roots, Bezout, winding."""
from __future__ import annotations

import cmath

import numpy as np
import pytest

from crossrank.errors import CoprimalityFailure, UndersampledPath
from crossrank.poly import (CirclePath, Poly, circle_points, convolution_matrix,
                            min_separation, poly_divmod, rotate, roots,
                            sylvester_bezout, winding_number)
from crossrank.randomness import random_poly, seeded_generator


def close(f: Poly, g: Poly, tol: float = 1e-12) -> bool:
    return (f - g).wiener_norm() <= tol


def test_monomial_product():
    z = Poly.monomial(1)
    assert z * z == Poly.monomial(2)


def test_addition_cancels():
    f = Poly([1, 1])
    g = Poly([1, -1])
    assert f + g == Poly([2])


def test_evaluate_at_i():
    f = Poly([1, 0, 1])  # z^2 + 1
    assert abs(f(1j)) < 1e-15


def test_coefficients_are_read_only():
    f = Poly([1, 2, 3])
    with pytest.raises(ValueError):
        f.coeffs[0] = 5
    assert f == Poly([1, 2, 3])


def test_zero_normalization():
    assert Poly([0, 0, 0]).is_zero
    assert Poly([1, 0, 0]).degree == 0
    assert Poly().degree == -1


def test_trim_threshold_relative():
    f = Poly([1.0, 1e-15])
    assert f.degree == 0
    g = Poly([1.0, 1e-15], trim=0.0)
    assert g.degree == 1


def test_scalar_ops():
    f = Poly([1, 2])
    assert 2 * f == Poly([2, 4])
    assert f / 2 == Poly([0.5, 1])
    assert -f == Poly([-1, -2])
    assert f ** 2 == Poly([1, 4, 4])


def test_divmod_reconstructs():
    rng = seeded_generator(3)
    for _ in range(20):
        f = random_poly(rng, 6)
        g = random_poly(rng, 3)
        if g.is_zero:
            continue
        q, r = poly_divmod(f, g)
        assert (q * g + r - f).wiener_norm() < 1e-10
        assert r.degree < g.degree


def test_rotate_order_two():
    z = Poly.monomial(1)
    assert close(rotate(z, -1, 1, order=2), -z)


def test_rotate_identity_twist():
    f = Poly([1, 2, 3])
    assert rotate(f, 1j, 0, order=4) == f


def test_rotate_hand_applied():
    # c_k -> omega**k c_k with omega = i: 1 + z + z^2 -> 1 + i z - z^2
    f = Poly([1, 1, 1])
    expected = Poly([1, 1j, -1])
    assert close(rotate(f, 1j, 1, order=4), expected, 1e-15)


def test_rotate_rejects_bad_root():
    with pytest.raises(ValueError):
        rotate(Poly([1]), 1.5, 1, order=3)


def test_rotate_is_isometric():
    rng = seeded_generator(11)
    omega = cmath.exp(2j * cmath.pi / 5)
    for _ in range(25):
        f = random_poly(rng, 8)
        assert abs(rotate(f, omega, 3, order=5).wiener_norm()
                   - f.wiener_norm()) < 1e-10 * max(1.0, f.wiener_norm())


def test_wiener_norm_values():
    assert Poly().wiener_norm() == 0.0
    assert Poly([3, 4j]).wiener_norm() == 7.0


def test_wiener_norm_submultiplicative():
    rng = seeded_generator(5)
    for _ in range(100):
        f = random_poly(rng, 8)
        g = random_poly(rng, 8)
        assert (f * g).wiener_norm() <= f.wiener_norm() * g.wiener_norm() + 1e-9


def test_wiener_norm_triangle():
    rng = seeded_generator(6)
    for _ in range(100):
        f = random_poly(rng, 8)
        g = random_poly(rng, 8)
        assert (f + g).wiener_norm() <= f.wiener_norm() + g.wiener_norm() + 1e-12


def test_wiener_dominates_sup_on_circle():
    rng = seeded_generator(7)
    zs = circle_points(256)
    for _ in range(20):
        f = random_poly(rng, 10)
        assert float(np.max(np.abs(f.eval_on_array(zs)))) <= f.wiener_norm() + 1e-9


def test_convolution_matrix_matches_convolve():
    rng = seeded_generator(17)
    for degree, ncols in ((0, 1), (3, 1), (2, 5), (6, 3)):
        f = random_poly(rng, degree)
        rows = ncols + f.degree + 2  # one spare zero row
        mat = convolution_matrix(f, ncols, rows)
        assert mat.shape == (rows, ncols) and mat.flags.c_contiguous
        # column j is z**j * f: convolving with a unit vector is exact
        for j in range(ncols):
            expected = np.zeros(rows, dtype=complex)
            prod = np.convolve(np.eye(ncols)[j], f.coeffs)
            expected[:prod.size] = prod
            assert np.array_equal(mat[:, j], expected)
    assert np.array_equal(convolution_matrix(Poly([1, 2]), 1, 4).ravel(), [1, 2, 0, 0])


def test_min_separation_matches_brute_force():
    rng = seeded_generator(19)
    for m, k in ((1, 1), (3, 5), (7, 2)):
        us = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        vs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        brute = min(abs(complex(u) - complex(v)) for u in us for v in vs)
        assert abs(min_separation(us, vs) - brute) <= 1e-15 * max(1.0, brute)
    assert min_separation([], [1j]) == float("inf")
    assert min_separation([1j], []) == float("inf")


def test_roots_simple():
    rs = sorted(roots(Poly([1, 0, 1])), key=lambda z: z.imag)
    assert abs(rs[0] + 1j) < 1e-10 and abs(rs[1] - 1j) < 1e-10


def test_roots_multiplicity():
    rs = roots(Poly.monomial(3))
    assert len(rs) == 3
    assert all(abs(r) < 1e-8 for r in rs)


def test_roots_recompose():
    f = Poly.from_roots([0.3, 0.7 + 0.1j])
    rs = roots(f)
    assert close(Poly.from_roots(rs), f, 1e-8)


def test_roots_recompose_random():
    rng = seeded_generator(9)
    for _ in range(20):
        f = random_poly(rng, 6)
        if f.degree < 1:
            continue
        lead = f.coefficient(f.degree)
        monic = f / lead
        recomposed = Poly.from_roots(roots(f))
        assert (recomposed - monic).wiener_norm() < 1e-8 * max(1.0, monic.wiener_norm())


def test_roots_rejects_zero():
    with pytest.raises(ValueError):
        roots(Poly())


def test_bezout_linear_pair():
    p, q = sylvester_bezout(Poly([0, 1]), Poly([-1, 1]))
    assert close(p, Poly([1]), 1e-12)
    assert close(q, Poly([-1]), 1e-12)


def test_bezout_unit_cofactor():
    p, q = sylvester_bezout(Poly.monomial(2), Poly.one())
    assert p.is_zero
    assert close(q, Poly.one())


def test_bezout_random_coprime():
    rng = seeded_generator(13)
    done = 0
    while done < 20:
        f = Poly.from_roots([complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))])
        g = Poly.from_roots([complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))])
        try:
            p, q = sylvester_bezout(f, g)
        except CoprimalityFailure:
            continue
        assert (p * f + q * g - Poly.one()).wiener_norm() < 1e-8
        assert p.degree < g.degree and q.degree < f.degree
        done += 1


def test_bezout_detects_shared_root():
    f = Poly.from_roots([0.5, -0.25])
    g = Poly.from_roots([0.5, 0.75])
    with pytest.raises(CoprimalityFailure):
        sylvester_bezout(f, g)


def test_circle_path_minimum_samples():
    with pytest.raises(ValueError):
        CirclePath((1.0,) * 8)


def test_winding_of_powers():
    for k, m in ((1, 64), (3, 64)):
        path = CirclePath.from_function(Poly.monomial(k), m)
        assert winding_number(path) == k


def test_winding_positive_scaling_invariant():
    f = Poly.monomial(2)
    path = CirclePath.from_function(f, 128)
    scaled = CirclePath(tuple(3.7 * s for s in path.samples))
    assert winding_number(scaled) == winding_number(path) == 2


def test_winding_additive_under_product():
    a = CirclePath.from_function(Poly.monomial(2), 256)
    b = CirclePath.from_function(Poly([0.5, 1]), 256)
    assert winding_number(a * b) == winding_number(a) + winding_number(b)


def test_winding_undersampled_guard():
    path = CirclePath.from_function(Poly.monomial(9), 32)
    with pytest.raises(UndersampledPath):
        winding_number(path)


def test_winding_rejects_zero_sample():
    samples = list(circle_points(64))
    samples[5] = 0.0
    with pytest.raises(ValueError):
        winding_number(CirclePath(tuple(samples)))
