"""Polynomial layer: arithmetic, norms, twists, roots, Bezout, winding."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from crossrank import poly as poly_module
from crossrank.errors import CoprimalityFailure, UndersampledPath
from crossrank.poly import (CirclePath, Poly, certified_winding, circle_points,
                            convolution_matrix, grid_coeffs, grid_values,
                            min_separation, rotate, roots, sylvester_bezout,
                            winding_number)
from crossrank.randomness import random_poly, seeded_generator


def close(f: Poly, g: Poly, tol: float = 1e-12) -> bool:
    return (f - g).wiener_norm() <= tol


def from_roots(rs) -> Poly:
    """Monic polynomial with the given root multiset."""
    out = Poly.one()
    for r in rs:
        out = out * Poly((-complex(r), 1.0))
    return out


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with ``f = q*g + r`` and ``deg r < deg g``."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    dg = g.degree
    if f.degree < dg:
        return Poly.zero(), f
    gc = g.coeffs
    lead = gc[-1]
    rem = f.coeffs.copy()
    quot = np.zeros(f.degree - dg + 1, dtype=complex)
    for i in range(quot.size - 1, -1, -1):
        c = rem[i + dg] / lead
        quot[i] = c
        rem[i:i + dg + 1] -= c * gc
    return Poly(quot), Poly(rem[:dg])


def path_of(fn, m: int) -> CirclePath:
    """The loop of ``fn`` at the ``m``-th roots of unity."""
    return CirclePath([fn(z) for z in circle_points(m)])


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowed_modulus_is_never_trimmed():
    # each part is finite but |z| overflows; a relative cut of inf once
    # trimmed every coefficient, so a difference with it read as zero
    big = complex(1.7976931348623157e308, 1.7976931348623157e308)
    for trim in (0.0, 1e-12):
        assert Poly([1.0, big, 1e-20], trim=trim).degree == 2
    assert (Poly([1.0, big]) - Poly([1.0])).wiener_norm() == float("inf")


def test_scalar_ops():
    f = Poly([1, 2])
    assert 2 * f == Poly([2, 4])
    assert f / 2 == Poly([0.5, 1])
    assert -f == Poly([-1, -2])
    assert f * f == Poly([1, 4, 4])


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
    f = from_roots([0.3, 0.7 + 0.1j])
    rs = roots(f)
    assert close(from_roots(rs), f, 1e-8)


def test_roots_recompose_random():
    rng = seeded_generator(9)
    for _ in range(20):
        f = random_poly(rng, 6)
        if f.degree < 1:
            continue
        lead = f.coefficient(f.degree)
        monic = f / lead
        recomposed = from_roots(roots(f))
        assert (recomposed - monic).wiener_norm() < 1e-8 * max(1.0, monic.wiener_norm())


def test_roots_rejects_zero():
    with pytest.raises(ValueError):
        roots(Poly())


def same_root_multiset(ours: np.ndarray, reference: np.ndarray, rel: float) -> bool:
    """Pair every root with a distinct nearest reference root within ``rel``."""
    left = list(reference)
    for r in ours:
        k = min(range(len(left)), key=lambda i: abs(left[i] - r))
        if abs(left.pop(k) - r) > rel * abs(r):
            return False
    return not left


def test_roots_match_numpy_companion_solve():
    rng = seeded_generator(31)
    cases = []
    for degree in range(1, 33):
        cs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        cases.append(Poly(cs))
        # roots at the origin: zero low-order coefficients
        cs[:1 + degree // 3] = 0.0
        cases.append(Poly(cs))
    cases.append(from_roots([-2.0, -0.5, 0.3, 1.7, 3.1]))
    for f in cases:
        ours = roots(f)
        assert ours.shape == (f.degree,) and ours.dtype == complex
        assert same_root_multiset(ours, np.roots(f.coeffs[::-1]), 1e-12), f
    assert roots(Poly.constant(2.5j)).shape == (0,)


def test_roots_beyond_float_range_powers():
    # (z^2 - 1e6)(z^110 - 0.5): the roots +-1000 have |r|^112 = 1e336, so a
    # polish through the powers r**k overflows (a RuntimeWarning, an error
    # under this suite's filter) and the NaN comparison keeps the raw root
    cs = np.zeros(113, dtype=complex)
    cs[[0, 2, 110, 112]] = 5e5, -0.5, -1e6, 1.0
    rs = roots(Poly(cs))
    assert rs.shape == (112,) and np.isfinite(rs).all()
    by_size = sorted(rs, key=abs)
    assert sorted(by_size[-2:], key=lambda r: r.real) == pytest.approx([-1e3, 1e3], rel=1e-13)
    assert np.abs(np.abs(by_size[:-2]) - 0.5 ** (1 / 110)).max() < 1e-12


def test_roots_solved_once_read_only():
    f = Poly([0.25, -1.0, 0.5j, 1.0])
    rs = roots(f)
    assert roots(f) is rs
    with pytest.raises(ValueError):
        rs[0] = 0.0


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
        f = from_roots([complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))])
        g = from_roots([complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))])
        try:
            p, q = sylvester_bezout(f, g)
        except CoprimalityFailure:
            continue
        assert (p * f + q * g - Poly.one()).wiener_norm() < 1e-8
        assert p.degree < g.degree and q.degree < f.degree
        done += 1


def test_bezout_detects_shared_root():
    f = from_roots([0.5, -0.25])
    g = from_roots([0.5, 0.75])
    with pytest.raises(CoprimalityFailure):
        sylvester_bezout(f, g)


def test_circle_path_minimum_samples():
    with pytest.raises(ValueError):
        CirclePath((1.0,) * 8)


def test_grid_values_and_coeffs():
    rng = seeded_generator(30)
    polys = [random_poly(rng, 5), Poly.zero(), Poly.constant(2.0)]
    values = grid_values(polys, 24)
    zs = np.exp(2j * np.pi * np.arange(24) / 24)
    for f, row, cs in zip(polys, values, grid_coeffs(values)):
        assert np.max(np.abs(row - f.eval_on_array(zs))) < 1e-12
        assert close(Poly(cs), f)
    # the twist by a 6th root of unity is a roll by 24/6 points
    twisted = rotate(polys[0], cmath.exp(2j * cmath.pi / 6))
    assert np.max(np.abs(np.roll(values[0], -4) - grid_values([twisted], 24)[0])) < 1e-12
    with pytest.raises(ValueError):
        grid_values(polys, 5)


def test_winding_of_powers():
    for k, m in ((1, 64), (3, 64)):
        path = path_of(Poly.monomial(k), m)
        assert winding_number(path) == k


def test_winding_positive_scaling_invariant():
    f = Poly.monomial(2)
    path = path_of(f, 128)
    scaled = CirclePath(tuple(3.7 * s for s in path.samples))
    assert winding_number(scaled) == winding_number(path) == 2


def test_winding_additive_under_product():
    a = path_of(Poly.monomial(2), 256)
    b = path_of(Poly([0.5, 1]), 256)
    product = CirclePath(a.samples * b.samples)  # the pointwise product
    assert winding_number(product) == winding_number(a) + winding_number(b)


def test_winding_undersampled_guard():
    path = path_of(Poly.monomial(9), 32)
    with pytest.raises(UndersampledPath):
        winding_number(path)


def test_certified_winding_needs_a_derivative_bound():
    # samples alone prove nothing between them
    path = path_of(Poly.monomial(2), 64)
    assert winding_number(path) == 2
    with pytest.raises(UndersampledPath, match="bound inf at 64 samples"):
        certified_winding(path)
    # |(z^2)'| = 2 on the circle: 1 > 2 * pi / 64
    assert certified_winding(CirclePath(path.samples, derivative_bound=2.0)) == 2
    with pytest.raises(UndersampledPath) as info:
        certified_winding(CirclePath(path.samples, derivative_bound=128 / math.pi))
    assert info.value.bound == pytest.approx(2.0)


def test_min_modulus_taken_once(monkeypatch):
    path = path_of(Poly([0.5, 1.0, 0.25j]), 64)
    calls = []

    def counting(zs):
        calls.append(zs.size)
        return np.hypot(zs.real, zs.imag)

    monkeypatch.setattr(poly_module, "_moduli", counting)
    assert winding_number(path) == 1
    assert path.min_modulus == path.min_modulus == min(abs(complex(s)) for s in path.samples)
    assert calls == []


def test_winding_rejects_zero_sample():
    samples = list(circle_points(64))
    samples[5] = 0.0
    with pytest.raises(ValueError):
        winding_number(CirclePath(tuple(samples)))
