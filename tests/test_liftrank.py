"""Left-invertible matrix lifts and tuple lifting through the expectation."""
from __future__ import annotations

import functools
import operator
import warnings

import numpy as np
import pytest

from crossrank import algebra, liftrank
from crossrank.algebra import AlgMatrix, CrossedElement, GroupSpec, expectation
from crossrank.elimination import bezout_certificate
from crossrank.errors import OracleFailure, PerturbationExhausted
from crossrank.liftrank import (disk_column_oracle, left_invertible_lift,
                                lift_generating_tuple)
from crossrank.poly import Poly, roots
from crossrank.randomness import random_crossed, random_poly, seeded_generator


def from_roots(rs) -> Poly:
    """Monic polynomial with the given root multiset."""
    out = Poly.one()
    for r in rs:
        out = out * Poly((-complex(r), 1.0))
    return out


def test_oracle_unit_column_unchanged():
    col, row = disk_column_oracle([Poly.one(), Poly.monomial(1)], 0.1,
                                  seeded_generator(0))
    assert col == [Poly.one(), Poly.monomial(1)]
    assert row == [Poly.one(), Poly.zero()]


def test_oracle_splits_equal_entries():
    z = Poly.monomial(1)
    col, row = disk_column_oracle([z, z], 0.1, seeded_generator(1))
    r0 = roots(col[0])
    r1 = roots(col[1])
    assert min(abs(u - v) for u in r0 for v in r1) > 1e-6
    combo = functools.reduce(operator.add, (d * c for d, c in zip(row, col)))
    assert (combo - Poly.one()).wiener_norm() < 1e-8


def test_oracle_folds_triple():
    col0 = [Poly.monomial(1), Poly.monomial(2), Poly.monomial(3)]
    col, row = disk_column_oracle(col0, 0.1, seeded_generator(2))
    assert sum((c - o).wiener_norm() for c, o in zip(col, col0)) < 0.1
    combo = functools.reduce(operator.add, (d * c for d, c in zip(row, col)))
    assert (combo - Poly.one()).wiener_norm() < 1e-8


def test_least_squares_row_passes():
    # the r x 1 case of the direct solve: Z is a row d with sum(d_i c_i) = 1
    entries = [from_roots([0.5, -0.25j]), from_roots([0.1, 2.0])]
    row = liftrank._left_inverse([[e] for e in entries]).to_lists()[0]
    combo = functools.reduce(operator.add, (d * c for d, c in zip(row, entries)))
    assert (combo - Poly.one()).wiener_norm() < 1e-8
    rng = seeded_generator(5100)
    mat = AlgMatrix([[random_poly(rng, 3, 0.5) for _ in range(2)] for _ in range(3)])
    assert left_invertible_lift(mat, 0.1, disk_column_oracle, rng).residual < 1e-6


def test_lift_raises_when_least_squares_solve_misses(monkeypatch):
    # the minimum-norm solve is Q R^-H b: a triangular solve that returns
    # zeros leaves Z = 0 on every attempt
    def missing_solve(a, b):
        return np.zeros(b.shape, dtype=complex)

    monkeypatch.setattr(np.linalg, "solve", missing_solve)
    rng = seeded_generator(5100)
    mat = AlgMatrix([[random_poly(rng, 3, 0.5) for _ in range(2)] for _ in range(3)])
    with pytest.raises(OracleFailure) as info:
        left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
    assert info.value.level == 2


def test_bezout_certificate_solves_each_root_set_once(monkeypatch):
    spec = GroupSpec(2)
    rng = seeded_generator(12)
    x, y = random_crossed(rng, spec, 3), random_crossed(rng, spec, 3)
    solves = []
    eigvals = np.linalg.eigvals

    def counting(a):
        solves.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    cert = bezout_certificate(x, y, 0.1, rng)
    # the first draw is accepted: both inputs are kept unperturbed
    assert cert.a == x and cert.b == y
    assert len(solves) == 2


def test_oracle_needs_width_two():
    with pytest.raises(ValueError):
        disk_column_oracle([Poly.one()], 0.1, seeded_generator(0))


def residual_of(lift) -> float:
    """``|Z X - I|`` from plain ``np.convolve`` products, nothing trimmed."""
    x, z = lift.output.to_lists(), lift.left_inverse.to_lists()
    total = 0.0
    for i, z_row in enumerate(z):
        for j in range(len(x[0])):
            entry = np.zeros(1, dtype=complex)
            for z_ik, x_row in zip(z_row, x):
                if z_ik.is_zero or x_row[j].is_zero:
                    continue
                prod = np.convolve(z_ik.coeffs, x_row[j].coeffs)
                entry = np.pad(entry, (0, max(0, prod.size - entry.size)))
                entry[:prod.size] += prod
            if i == j:
                entry[0] -= 1.0
            total += float(np.sum(np.abs(entry)))
    return total


def test_lift_base_case_delegates():
    rng = seeded_generator(3)
    mat = AlgMatrix([[random_poly(rng, 3)] for _ in range(2)])
    res = left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
    assert res.residual < 1e-8
    assert res.distance < 0.1
    assert res.left_inverse.rows == 1 and res.left_inverse.cols == 2


def test_lift_random_3x2():
    rng = seeded_generator(4)
    for _ in range(10):
        mat = AlgMatrix([[random_poly(rng, 3, 0.5) for _ in range(2)]
                         for _ in range(3)])
        res = left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
        assert res.residual < 1e-6
        assert res.distance < 0.1
        assert abs(residual_of(res) - res.residual) < 1e-9


def test_lift_random_4x3():
    rng = seeded_generator(5)
    for _ in range(10):
        mat = AlgMatrix([[random_poly(rng, 3, 0.5) for _ in range(3)]
                         for _ in range(4)])
        res = left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
        assert res.residual < 1e-6
        assert res.distance < 0.1


def test_lift_column_with_shared_factor():
    # all three entries vanish at z = 0.3, so the input column generates no
    # unit ideal and has to be perturbed
    factor = from_roots([0.3])
    rng = seeded_generator(12)
    mat = AlgMatrix([[factor * random_poly(rng, 2, 0.5)] for _ in range(3)])
    res = left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
    assert 0.0 < res.distance < 0.1
    assert res.residual <= liftrank.LEVEL_ACCEPT_RESIDUAL
    assert abs(residual_of(res) - res.residual) < 1e-9


def test_lift_already_invertible_margin():
    # column (1, z): the oracle returns it unchanged, so the zero
    # perturbation path is available
    mat = AlgMatrix([[Poly.one()], [Poly.monomial(1)]])
    res = left_invertible_lift(mat, 0.1, disk_column_oracle, seeded_generator(6))
    assert res.distance == 0.0
    assert res.residual < 1e-12


def test_lift_rejects_wide_matrices():
    mat = AlgMatrix([[Poly.one(), Poly.one()]])
    with pytest.raises(ValueError):
        left_invertible_lift(mat, 0.1, disk_column_oracle, seeded_generator(0))


def test_lift_propagates_oracle_failure_with_level():
    def broken(column, eps, rng, **kwargs):
        raise PerturbationExhausted("stub", attempts=0)

    rng = seeded_generator(7)
    mat = AlgMatrix([[random_poly(rng, 2)] for _ in range(3)])
    with pytest.raises(OracleFailure) as info:
        left_invertible_lift(mat, 0.1, broken, rng)
    assert info.value.level == 1


def test_lift_exhaustion_raises_with_width(monkeypatch):
    def zero(entries):
        return AlgMatrix([[Poly.zero()] * len(entries)] * len(entries[0]))

    monkeypatch.setattr(liftrank, "_left_inverse", zero)
    rng = seeded_generator(7)
    mat = AlgMatrix([[random_poly(rng, 2) for _ in range(2)] for _ in range(3)])
    with pytest.raises(OracleFailure) as info:
        left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
    assert info.value.level == 2


def test_lift_raises_when_residual_misses_gate(monkeypatch):
    left_inverse = liftrank._left_inverse

    def off_by_a_little(entries):
        scale = Poly.constant(1.0 + 1e-6)
        return AlgMatrix([[z * scale for z in row]
                          for row in left_inverse(entries).to_lists()])

    monkeypatch.setattr(liftrank, "_left_inverse", off_by_a_little)
    rng = seeded_generator(5100)
    mat = AlgMatrix([[random_poly(rng, 3, 0.5) for _ in range(2)] for _ in range(3)])
    with pytest.raises(OracleFailure) as info:
        left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
    assert info.value.level == 2


def test_gate_residual_is_untrimmed():
    # the golden 3x2 input: trimming each Poly product at 1e-12 relative
    # before subtracting I dropped the diagonal's round-off
    rng = seeded_generator(5100)
    mat = AlgMatrix([[random_poly(rng, 3, 0.5) for _ in range(2)] for _ in range(3)])
    res = left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
    assert res.residual == pytest.approx(residual_of(res), rel=1e-12)


def test_lift_input_where_column_induction_failed():
    # six successive degree-3 draws at scale 0.5, row by row, from the
    # stream perfbench/workloads.py builds as generator(5345, 3, 3, 2, 0):
    # the column-oracle induction raised OracleFailure on it
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([5345, 3, 3, 2, 0])))

    def draw():
        return Poly(0.5 * (rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)))

    mat = AlgMatrix([[draw() for _ in range(2)] for _ in range(3)])
    res = left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
    assert res.residual < 1e-12
    assert res.distance == 0.0


@pytest.mark.parametrize("entries", [
    # the second column is constant: its block of equations ends three
    # coefficients before the first column's, and rows past the longest
    # product would be exactly zero
    [[Poly([.3, .2, .1, .05]), Poly([1])], [Poly([.1, -.4, .2]), Poly([.5])],
     [Poly([.2, .1, .1, .3]), Poly([-.7])]],
    [[Poly([.3, .2, .1, .05]), Poly([.4, .1])], [Poly([]), Poly([.5, -.2, .3])],
     [Poly([.2, .1, .1, .3]), Poly([-.7, .6])]],
    [[Poly([1]), Poly([])], [Poly([]), Poly([1])], [Poly([]), Poly([])]],
], ids=["col1-constant", "zero-entry", "identity"])
def test_lift_unperturbed_with_columns_of_lower_degree(entries):
    mat = AlgMatrix(entries)
    res = left_invertible_lift(mat, 0.1, disk_column_oracle, seeded_generator(0))
    assert res.distance == 0.0
    assert res.residual <= liftrank.LEVEL_ACCEPT_RESIDUAL
    assert abs(residual_of(res) - res.residual) < 1e-9


def test_lift_perturbs_column_vanishing_at_zero():
    # every entry of the first column vanishes at 0, so the constant
    # coefficient's equation has no unknown and the factor is singular
    z = Poly.monomial(1)
    mat = AlgMatrix([[z, Poly.one()], [z * z, Poly([1, .3])], [Poly([0, .5]), Poly([2])]])
    assert liftrank._left_inverse(mat.to_lists()) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = left_invertible_lift(mat, 0.1, disk_column_oracle, seeded_generator(1))
    assert 0.0 < res.distance < 0.1
    assert res.residual <= liftrank.LEVEL_ACCEPT_RESIDUAL


def test_order_fourteen_lift_factors_each_system_once(monkeypatch):
    calls = {"left_inverse": 0, "qr": 0, "solve": 0}

    def counting(name, func):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(liftrank, "_left_inverse",
                        counting("left_inverse", liftrank._left_inverse))
    monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
    rng = seeded_generator(14001)
    spec = GroupSpec(14)
    b = [random_crossed(rng, spec, 3) for _ in range(15)]
    result = lift_generating_tuple(b, 0.1, rng)
    assert result.lift.residual <= liftrank.LEVEL_ACCEPT_RESIDUAL
    assert result.lift.distance == 0.0
    # one solve and four refinement rounds, all from the one factorization
    assert calls == {"left_inverse": 1, "qr": 1, "solve": 5}


@pytest.mark.parametrize("rows", [5, 6])
def test_lift_random_wide(rows):
    rng = seeded_generator(5500 + rows)
    for _ in range(3):
        mat = AlgMatrix([[random_poly(rng, 3, 0.5) for _ in range(rows - 1)]
                         for _ in range(rows)])
        res = left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
        assert res.residual < 1e-6
        assert res.distance < 0.1


def test_tuple_lift_trivial_generator():
    spec = GroupSpec(3)
    b = [CrossedElement.unit(spec)] + [CrossedElement.zero(spec)] * 3
    result = lift_generating_tuple(b, 0.1, seeded_generator(8))
    assert result.residual < 1e-6
    assert max(result.distances) < 0.1


def test_tuple_lift_order_one():
    # GroupSpec(1): a pair of disk-algebra elements, a 2x1 expectation matrix
    rng = seeded_generator(13)
    spec = GroupSpec(1)
    for _ in range(4):
        b = [random_crossed(rng, spec, 3) for _ in range(2)]
        result = lift_generating_tuple(b, 0.1, rng)
        assert result.lift.output.rows == 2 and result.lift.output.cols == 1
        assert result.residual < 1e-6
        assert max(result.distances) < 0.1


def test_tuple_lift_random_order_two():
    rng = seeded_generator(9)
    spec = GroupSpec(2)
    for _ in range(8):
        b = [random_crossed(rng, spec, 3) for _ in range(3)]
        result = lift_generating_tuple(b, 0.1, rng)
        assert result.residual < 1e-6
        assert max(result.distances) < 0.1


@pytest.mark.parametrize("n", [4, 5])
def test_tuple_lift_high_order(n):
    rng = seeded_generator(9 + n)
    spec = GroupSpec(n)
    for _ in range(2):
        b = [random_crossed(rng, spec, 3) for _ in range(n + 1)]
        result = lift_generating_tuple(b, 0.1, rng)
        assert result.residual < 1e-6
        assert max(result.distances) < 0.1


def test_tuple_lift_order_fourteen():
    # order 14 is where a left inverse built from the maximal minors missed
    # LEVEL_ACCEPT_RESIDUAL on every perturbation of this input
    rng = seeded_generator(14001)
    spec = GroupSpec(14)
    b = [random_crossed(rng, spec, 3) for _ in range(15)]
    result = lift_generating_tuple(b, 0.1, rng)
    assert result.residual < 1e-6
    assert result.lift.residual <= liftrank.LEVEL_ACCEPT_RESIDUAL
    assert max(result.distances) < 0.1


def test_tuple_lift_coordinate_functions():
    spec = GroupSpec(3)
    z = Poly.monomial(1)
    b = [CrossedElement.monomial(spec, g, z) for g in range(3)]
    b.append(CrossedElement.zero(spec))
    result = lift_generating_tuple(b, 0.1, seeded_generator(10))
    assert result.residual < 1e-6
    assert max(result.distances) < 0.1


def test_tuple_lift_witness_lives_in_subalgebra():
    rng = seeded_generator(11)
    spec = GroupSpec(2)
    b = [random_crossed(rng, spec, 2) for _ in range(3)]
    result = lift_generating_tuple(b, 0.1, rng)
    for w in result.witness:
        for g in range(1, spec.n):
            assert w.component(g).is_zero
    # the witness row certifies generation by direct convolution
    combo = functools.reduce(
        operator.add, (w * y for w, y in zip(result.witness, result.outputs)))
    assert (combo - CrossedElement.unit(spec)).l1_norm() < 1e-6


def test_tuple_lift_length_contract():
    spec = GroupSpec(3)
    with pytest.raises(ValueError):
        lift_generating_tuple([CrossedElement.unit(spec)] * 3, 0.1,
                              seeded_generator(0))


@pytest.mark.parametrize("spec", [GroupSpec(n) for n in range(2, 7)] + [GroupSpec(5, 2)],
                         ids=lambda spec: f"n{spec.n}m{spec.m}")
def test_tuple_lift_component_reads_match_convolutions(spec, monkeypatch):
    n = spec.n
    rng = seeded_generator(700 + 10 * n + spec.m)
    b = [random_crossed(rng, spec, 3) for _ in range(n + 1)]
    inputs = []
    lift = liftrank.left_invertible_lift

    def recording(mat, *args):
        inputs.append(mat)
        return lift(mat, *args)

    monkeypatch.setattr(liftrank, "left_invertible_lift", recording)
    result = lift_generating_tuple(b, 0.1, rng)
    u = [CrossedElement.monomial(spec, k) for k in range(n)]
    v = [CrossedElement.monomial(spec, -k % n) for k in range(n)]
    # the expectation matrix [E(b_j u_k)] through the twisted convolution
    for row, b_j in zip(inputs[0].to_lists(), b):
        for entry, u_k in zip(row, u):
            assert np.array_equal(entry.coeffs, expectation(b_j * u_k).component(0).coeffs)
    # y_j = sum_k x_jk delta^0 v_k through the twisted convolution
    for y, x_row in zip(result.outputs, result.lift.output.to_lists()):
        pushed = functools.reduce(operator.add, (
            CrossedElement.monomial(spec, 0, x_jk) * v_k for x_jk, v_k in zip(x_row, v)))
        assert all(np.array_equal(p.coeffs, q.coeffs) for p, q in zip(y.comps, pushed.comps))


def test_tuple_lift_builds_no_crossed_products(monkeypatch):
    calls = []
    convolve = algebra.convolve

    def counting(x, y):
        calls.append(1)
        return convolve(x, y)

    monkeypatch.setattr(algebra, "convolve", counting)
    rng = seeded_generator(5450)
    spec = GroupSpec(3)
    b = [random_crossed(rng, spec, 3) for _ in range(4)]
    result = lift_generating_tuple(b, 0.1, rng)
    assert result.residual < 1e-6
    assert calls == []
    # w_j = z_j delta^0, so (w_j y_j)_g = z_j (y_j)_g: a plain np.convolve
    # recomputation adds the same products in another order; on this and
    # three other seeds the two differed by at most 0.05 u sum_j |w_j| |y_j|,
    # u = 2**-52, so a tenth of that scale is the tolerance (as for the
    # Bezout residual).  The trimmed Poly chain drops round-off and reads lower.
    width = 1 + max(w.comps[0].coeffs.size + max(c.coeffs.size for c in y.comps)
                    for w, y in zip(result.witness, result.outputs))
    gap = np.zeros((spec.n, width), dtype=complex)
    for w, y in zip(result.witness, result.outputs):
        for g, comp in enumerate(y.comps):
            if comp.coeffs.size and w.comps[0].coeffs.size:
                prod = np.convolve(w.comps[0].coeffs, comp.coeffs)
                gap[g, :prod.size] += prod
    gap[0, 0] -= 1.0
    plain = float(np.abs(gap).sum())
    scale = 2.0 ** -52 * sum(w.l1_norm() * y.l1_norm()
                             for w, y in zip(result.witness, result.outputs))
    assert abs(result.residual - plain) <= 0.1 * scale, (result.residual, plain, scale)
    trimmed = (functools.reduce(operator.add, (
        w * y for w, y in zip(result.witness, result.outputs)))
        - CrossedElement.unit(spec)).l1_norm()
    assert result.residual > trimmed
