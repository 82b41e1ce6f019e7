"""Disk symmetries: the SL(2,R) picture, finite subgroups, conjugation into
rotations, and the reduction to rotation actions."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from crossrank.algebra import GroupSpec
from crossrank.elimination import bezout_certificate, verify_bezout
from crossrank.errors import ToolkitError
from crossrank.moebius import (FiniteCyclicSubgroup, SL2RMatrix, SU11Element,
                               conjugate_into_rotations, conjugation_residual,
                               make_finite_subgroup, mobius_apply,
                               nearest_rotation, rotation_action_of, to_sl2r)
from crossrank.randomness import random_crossed, random_su11, seeded_generator


def test_membership_validation():
    SU11Element(1.0, 0.0)
    with pytest.raises(ValueError):
        SU11Element(1.0, 1.0)


@pytest.mark.parametrize("a, b", [(0.7 + 3.5j, 1e200), (1e200, 1e200)])
def test_membership_rejects_overflowing_entries(a, b):
    # |b|^2 overflows to inf: the drift is inf, or inf - inf = NaN for (1e200, 1e200)
    with pytest.raises(ValueError, match="not in SU"):
        SU11Element(a, b)


def test_identity_fixes_disk():
    g = SU11Element.identity()
    for z in (0.3, -0.2 + 0.4j, 0.9j):
        assert abs(mobius_apply(g, z) - z) < 1e-15


def test_diagonal_rotates_by_doubled_angle():
    theta = 0.7
    g = SU11Element.u1(theta)
    for z in (0.5, 0.1 - 0.6j):
        assert abs(mobius_apply(g, z) - cmath.exp(2j * theta) * z) < 1e-12


def test_circle_maps_to_circle():
    rng = seeded_generator(1)
    for _ in range(5):
        g = random_su11(rng)
        for k in range(64):
            z = cmath.exp(2j * math.pi * k / 64)
            assert abs(abs(mobius_apply(g, z)) - 1.0) < 1e-10


def test_disk_maps_into_disk():
    rng = seeded_generator(2)
    for _ in range(5):
        g = random_su11(rng)
        for k in range(32):
            z = 0.8 * cmath.exp(2j * math.pi * k / 32)
            assert abs(mobius_apply(g, z)) < 1.0


def test_group_operations():
    rng = seeded_generator(3)
    g, h = random_su11(rng), random_su11(rng)
    z = 0.3 + 0.2j
    composed = mobius_apply(g * h, z)
    assert abs(composed - mobius_apply(g, mobius_apply(h, z))) < 1e-10
    assert (g * g.inverse()).distance(SU11Element.identity()) < 1e-12
    assert (g.power(3)).distance(g * g * g) < 1e-10


def test_rep_identity():
    rep = to_sl2r(SU11Element.identity())
    assert np.allclose(rep.as_array(), np.eye(2))


def test_rep_of_rotation_lands_in_so2():
    theta = 0.4
    rep = to_sl2r(SU11Element.u1(theta)).as_array()
    expected = np.array([[math.cos(theta), math.sin(theta)],
                         [-math.sin(theta), math.cos(theta)]])
    assert np.max(np.abs(rep - expected)) < 1e-12


def test_rep_is_multiplicative_and_unimodular():
    rng = seeded_generator(4)
    for _ in range(50):
        g, h = random_su11(rng), random_su11(rng)
        rg, rh = to_sl2r(g).as_array(), to_sl2r(h).as_array()
        rgh = to_sl2r(g * h).as_array()
        assert np.max(np.abs(rgh - rg @ rh)) < 1e-10
        assert abs(np.linalg.det(rg) - 1.0) < 1e-10


def test_sl2r_validation():
    with pytest.raises(ValueError):
        SL2RMatrix(1.0, 0.0, 0.0, 2.0)


def test_rep_out_of_precision_is_toolkit_error():
    # a valid element whose SL(2,R) image has entries near 8000: round-off
    # moves the determinant by more than the membership tolerance
    K = make_finite_subgroup(2, SU11Element(math.cosh(4.5), math.sinh(4.5)))
    with pytest.raises(ToolkitError, match="determinant off by"):
        to_sl2r(K.generator)


def test_make_subgroup_requires_coprime():
    h = SU11Element.identity()
    with pytest.raises(ValueError):
        make_finite_subgroup(4, h, 2)


def test_subgroup_power_closes():
    rng = seeded_generator(6)
    for order in (2, 3, 4, 6):
        K = make_finite_subgroup(order, random_su11(rng))
        power = K.generator.power(order)
        ident = SU11Element.identity()
        assert min(power.distance(ident),
                   power.distance(SU11Element(-1.0, 0.0))) < 1e-8
        assert K.sign in (-1, 1)


def test_subgroup_elements_distinct_projectively():
    K = make_finite_subgroup(6, random_su11(seeded_generator(7)), 5)
    for i in range(6):
        for j in range(i + 1, 6):
            assert K.elements[i].projective_distance(K.elements[j]) > 1e-6


def test_conjugator_trivial_for_rotations():
    K = FiniteCyclicSubgroup.build(SU11Element.u1(math.pi / 4), 4)
    result = conjugate_into_rotations(K)
    assert result.residual < 1e-12
    ident = SU11Element.identity()
    assert min(result.h.distance(ident),
               result.h.distance(SU11Element(-1.0, 0.0))) < 1e-10


def test_conjugator_without_interior_fixed_point_is_identity():
    # passes the order-2 closure test by tolerance, but is a boost: no
    # fixed point inside the disk, so h stays the identity and the
    # residual shows how far the group is from rotations
    t = 1e-9
    K = FiniteCyclicSubgroup.build(SU11Element(math.cosh(t), math.sinh(t)), 2)
    result = conjugate_into_rotations(K)
    assert result.h == SU11Element.identity()
    assert abs(result.residual - math.sqrt(2.0) * t) < 1e-15


def test_conjugator_random_subgroups():
    rng = seeded_generator(10)
    for order in (2, 3, 4, 5, 8):
        K = make_finite_subgroup(order, random_su11(rng))
        result = conjugate_into_rotations(K)
        assert result.residual < 1e-8
        # independent recomputation agrees
        fresh, _ = conjugation_residual(K, result.h)
        assert abs(fresh - result.residual) < 1e-12


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128, 256])
def test_conjugator_is_boost_to_common_fixed_point(order):
    rng = seeded_generator(900 + order)
    K = make_finite_subgroup(order, random_su11(rng), order - 1)
    result = conjugate_into_rotations(K)
    h = result.h
    assert h.a.imag == 0.0 and h.a.real > 0.0
    z0 = mobius_apply(h, 0.0)
    for g in K.elements:
        assert abs(mobius_apply(g, z0) - z0) < 1e-12
    assert result.residual < 1e-12


def test_conjugator_angles_are_root_pattern():
    K = make_finite_subgroup(5, random_su11(seeded_generator(11)))
    result = conjugate_into_rotations(K)
    base = 2.0 * math.pi / 5
    seen = sorted(round(a / base) % 5 for a in result.rotation_angles)
    for angle in result.rotation_angles:
        nearest = round(angle / base) * base
        assert abs(angle - nearest) < 1e-8
    assert seen == [0, 1, 2, 3, 4]


def test_nearest_rotation_projects():
    rot, phi = nearest_rotation(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert abs(phi - math.pi / 2) < 1e-12
    assert np.max(np.abs(rot - np.array([[0.0, -1.0], [1.0, 0.0]]))) < 1e-12


def test_rotation_action_of_rotations_is_identity_conjugator():
    K = FiniteCyclicSubgroup.build(SU11Element.u1(math.pi / 3), 3)
    action = rotation_action_of(K)
    assert action.spec.n == 3
    assert action.intertwining_residual < 1e-9
    ident = SU11Element.identity()
    assert min(action.conjugation.h.distance(ident),
               action.conjugation.h.distance(SU11Element(-1.0, 0.0))) < 1e-10


def test_rotation_action_order_two():
    K = make_finite_subgroup(2, random_su11(seeded_generator(12)))
    action = rotation_action_of(K)
    assert action.spec == GroupSpec(2, 1)
    assert abs(action.spec.omega + 1.0) < 1e-12
    assert action.intertwining_residual < 1e-9


def test_rotation_action_matches_selector():
    K = make_finite_subgroup(5, random_su11(seeded_generator(13)), 2)
    action = rotation_action_of(K)
    assert action.spec.n == 5
    assert math.gcd(action.spec.m, 5) == 1
    assert action.intertwining_residual < 1e-9


def test_full_pipeline_to_certificate():
    rng = seeded_generator(14)
    for order in (2, 3, 4):
        K = make_finite_subgroup(order, random_su11(rng))
        action = rotation_action_of(K)
        x = random_crossed(rng, action.spec, 3)
        y = random_crossed(rng, action.spec, 3)
        cert = bezout_certificate(x, y, 0.1, rng)
        assert verify_bezout(cert).ok
