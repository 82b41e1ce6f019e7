"""Tests of the benchmark's own reference checks.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import reference


def _random(rng, n, m=1, degree=3):
    comps = [rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
             for _ in range(n)]
    return n, m, comps


def _close(x, y, tol=1e-12):
    return reference.norm(reference.sub(x, y)) < tol


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (5, 2)])
def test_unit_is_two_sided(n, m):
    x = _random(np.random.default_rng(n + m), n, m)
    one = reference.unit(n, m)
    assert _close(reference.convolve(one, x), x)
    assert _close(reference.convolve(x, one), x)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (4, 3), (6, 5)])
def test_convolution_is_associative(n, m):
    rng = np.random.default_rng(10 * n + m)
    x, y, z = (_random(rng, n, m) for _ in range(3))
    left = reference.convolve(reference.convolve(x, y), z)
    right = reference.convolve(x, reference.convolve(y, z))
    assert _close(left, right, 1e-10)


def test_hand_worked_order_two_products():
    # omega = -1, so alpha(z) = -z
    z = np.array([0, 1], dtype=complex)
    delta1 = (2, 1, [np.zeros(0, dtype=complex), np.ones(1, dtype=complex)])
    z_delta0 = (2, 1, [z, np.zeros(0, dtype=complex)])
    z_delta1 = (2, 1, [np.zeros(0, dtype=complex), z])
    # delta^1 * (z delta^0) = alpha(z) delta^1 = -z delta^1
    assert _close(reference.convolve(delta1, z_delta0),
                  (2, 1, [np.zeros(0, dtype=complex), -z]))
    # (z delta^0) * delta^1 = z delta^1
    assert _close(reference.convolve(z_delta0, delta1), z_delta1)
    # (z delta^1) * (z delta^1) = z alpha(z) delta^0 = -z^2 delta^0
    assert _close(reference.convolve(z_delta1, z_delta1),
                  (2, 1, [np.array([0, 0, -1], dtype=complex), np.zeros(0, dtype=complex)]))


def test_wiener_norm_sums_moduli():
    x = (2, 1, [np.array([3 + 4j, -1]), np.array([0, 2j])])
    assert reference.norm(x) == pytest.approx(8.0)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_coordinate_function_winds_n_times(n):
    comps = [np.zeros(0, dtype=complex) for _ in range(n)]
    comps[0] = np.array([0, 1], dtype=complex)
    assert reference.winding_of_embedding((n, 1, comps), 256) == n


def test_bezout_check_accepts_identity_and_rejects_a_nudge():
    one = reference.unit(2, 1)
    zero = (2, 1, [np.zeros(0, dtype=complex)] * 2)

    def obj(x):
        return {"n": x[0], "m": x[1], "comps": [[[c.real, c.imag] for c in p] for p in x[2]]}

    cert = {"epsilon": 0.1,
            "inputs": {"x": obj(one), "y": obj(zero)},
            "approximants": {"a": obj(one), "b": obj(zero)},
            "cofactors": {"c": obj(one), "d": obj(zero)}}
    assert reference.check_bezout(cert) == []
    cert["cofactors"]["c"]["comps"][0][0][0] += 1e-3
    assert reference.check_bezout(cert)


def test_conjugation_check_on_a_conjugated_rotation():
    theta = math.pi / 5
    rot = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    a, b = math.cosh(0.7) * np.exp(0.3j), math.sinh(0.7) * np.exp(1.1j)
    h = np.array([[a, b], [np.conj(b), np.conj(a)]])
    g = h @ rot @ np.linalg.inv(h)

    def pair(z):
        return [float(z.real), float(z.imag)]

    obj = {"subgroup": {"generator": {"a": pair(g[0, 0]), "b": pair(g[0, 1])}, "order": 5},
           "h": {"a": pair(a), "b": pair(b)},
           "derived_spec": {"n": 5, "m": 1}}
    assert reference.check_conjugation(obj) == []
    obj["derived_spec"]["m"] = 2
    assert reference.check_conjugation(obj)


def test_matrix_product_by_convolution():
    a = [[np.array([1, 1], dtype=complex), np.array([2], dtype=complex)]]
    b = [[np.array([1, -1], dtype=complex)], [np.array([0, 1], dtype=complex)]]
    (entry,), = reference.matmul(a, b)
    # (1 + z)(1 - z) + 2z = 1 + 2z - z^2
    assert np.allclose(entry, [1, 2, -1])


def test_bounds_formulas():
    got = reference.expected_bounds(2, 3, 4, 2)
    assert got["crossed_product_bound"] == 4
    assert got["cyclic_bound"] == 3
    assert got["matrix_formula"] == 2
    assert got["reverse_bound"] == 13
