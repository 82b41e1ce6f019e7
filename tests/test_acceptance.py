"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line (visible with ``pytest -s`` or in the
captured output) and enforces its runtime budget.  Randomness is pinned to
explicit seeds, so the suite is reproducible byte for byte.
"""
from __future__ import annotations

import json
import time

import numpy as np
import sympy as sp

from crossrank import serialize
from crossrank.algebra import (AlgMatrix, CrossedElement, GroupSpec,
                               det_on_circle, index_element, reconstruct)
from crossrank.bounds import DISK_ALGEBRA_LTSR, stable_rank_bounds
from crossrank.cli import main
from crossrank.elimination import (bezout_certificate, eliminate,
                                   homogeneity_check, winding_obstruction)
from crossrank.liftrank import (disk_column_oracle, left_invertible_lift,
                                lift_generating_tuple)
from crossrank.moebius import (conjugate_into_rotations, make_finite_subgroup,
                               to_sl2r)
from crossrank.poly import Poly, winding_number
from crossrank.randomness import (random_crossed, random_poly, random_su11,
                                  seeded_generator)

from test_elimination import _symbolic_cascade


def _report(num: int, name: str, elapsed: float, budget: float, detail: str):
    print(f"[acceptance] criterion {num} ({name}): PASS in {elapsed:.2f}s "
          f"(budget {budget:.0f}s) -- {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_quasi_basis():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        spec = GroupSpec(n)
        rng = seeded_generator(1000 + n)
        assert index_element(spec) == CrossedElement.monomial(spec, 0, Poly([n]))
        for _ in range(100):
            x = random_crossed(rng, spec, 8)
            left = (reconstruct(x, side="left") - x).l1_norm()
            right = (reconstruct(x, side="right") - x).l1_norm()
            worst = max(worst, left, right)
            assert left < 1e-10 and right < 1e-10
    _report(1, "quasi-basis", time.perf_counter() - start, 5.0,
            f"worst reconstruction residual {worst:.2e}")


def test_criterion_2_elimination():
    start = time.perf_counter()
    lam = 1.0 + 1.0j
    worst_mult = worst_vanish = worst_scale = 0.0
    for n in (2, 3, 4, 5):
        spec = GroupSpec(n)
        rng = seeded_generator(2000 + n)
        for _ in range(100):
            a = random_crossed(rng, spec, 8)
            trace = eliminate(a)
            for key in trace.levels:
                worst_mult = max(worst_mult, trace.multiplier_residual(*key))
                worst_vanish = max(worst_vanish, trace.vanishing_residual(*key))
            assert worst_mult < 1e-10
            assert worst_vanish < 1e-12
            assert trace.top_support_residual() < 1e-12
            scaling = homogeneity_check(a, lam)
            worst_scale = max(worst_scale, scaling.max_deviation)
            assert scaling.max_deviation < 1e-8

    # closed forms match the displayed formulas as polynomials in the
    # formal twisted variables
    for n, expected_builder in ((2, _closed_form_symbols_n2),
                                (3, _closed_form_symbols_n3)):
        symbols, levels = _symbolic_cascade(n)
        top = levels[(n - 1, 1)]
        assert sp.expand(top[0] - expected_builder(symbols)) == 0
        assert all(c == 0 for c in top[1:])
    _report(2, "elimination", time.perf_counter() - start, 30.0,
            f"worst multiplier {worst_mult:.2e}, vanishing {worst_vanish:.2e}, "
            f"scaling {worst_scale:.2e}")


def _closed_form_symbols_n2(A):
    return sp.expand(A[1][0] * A[0][0] - A[0][1] * A[1][1])


def _closed_form_symbols_n3(A):
    t1 = A[2][0] * A[0][1] - A[0][2] * A[2][2]
    t2 = A[2][0] * A[1][2] - A[1][1] * A[2][1]
    t3 = A[2][0] * A[1][0] - A[1][1] * A[2][2]
    t4 = A[2][0] * A[0][0] - A[0][2] * A[2][1]
    return sp.expand(t1 * t2 - t3 * t4)


def test_criterion_3_upper_certificates(tmp_path):
    start = time.perf_counter()
    eps = 0.1
    produced = 0
    worst_residual = worst_distance = 0.0
    for n in (2, 3, 4):
        spec = GroupSpec(n)
        rng = seeded_generator(3000 + n)
        for k in range(50):
            x = random_crossed(rng, spec, 4)
            y = random_crossed(rng, spec, 4)
            cert = bezout_certificate(x, y, eps, rng, seed=3000 + n)
            assert cert.residual < 1e-6
            assert cert.distance_x < eps and cert.distance_y < eps
            worst_residual = max(worst_residual, cert.residual)
            worst_distance = max(worst_distance, cert.distance_x, cert.distance_y)
            path = tmp_path / f"cert-{n}-{k}.json"
            serialize.write_file(path, serialize.bezout_to_obj(cert))
            assert main(["verify", str(path)]) == 0
            produced += 1
    assert produced == 150
    _report(3, "upper certificates", time.perf_counter() - start, 120.0,
            f"150/150 verified, worst residual {worst_residual:.2e}, "
            f"worst distance {worst_distance:.2e}")


def test_criterion_4_lower_obstructions():
    start = time.perf_counter()
    delta = 0.05
    for n in range(1, 7):
        spec = GroupSpec(n)
        element = CrossedElement.monomial(spec, 0, Poly.monomial(1))
        for samples in (1024, 4096):
            path = det_on_circle(element, samples)
            assert winding_number(path) == n
        obs = winding_obstruction(spec, delta, seeded_generator(4000 + n),
                                  samples=1024)
        assert obs.winding == n
        assert obs.circle_min > 0
        assert all(w == n for w in obs.trial_windings)
    _report(4, "lower obstructions", time.perf_counter() - start, 5.0,
            "winding equals the group order at 1024 and 4096 samples, "
            "stable under 10 perturbations of size 0.05")


def test_criterion_5_lifting():
    start = time.perf_counter()
    eps = 0.1
    worst_res = worst_dist = 0.0
    for rows, cols, base_seed in ((3, 2, 5100), (4, 3, 5200)):
        for k in range(25):
            rng = seeded_generator(base_seed + k)
            mat = AlgMatrix([[random_poly(rng, 3, 0.5) for _ in range(cols)]
                             for _ in range(rows)])
            res = left_invertible_lift(mat, eps, disk_column_oracle, rng)
            assert res.residual < 1e-6
            assert res.distance < eps
            worst_res = max(worst_res, res.residual)
            worst_dist = max(worst_dist, res.distance)

    worst_tuple = 0.0
    for n in (2, 3):
        spec = GroupSpec(n)
        for k in range(25):
            rng = seeded_generator(5300 + 50 * n + k)
            elements = [random_crossed(rng, spec, 3) for _ in range(n + 1)]
            lifted = lift_generating_tuple(elements, eps, rng)
            assert lifted.residual < 1e-6
            assert max(lifted.distances) < eps
            worst_tuple = max(worst_tuple, lifted.residual)
    _report(5, "matrix and tuple lifting", time.perf_counter() - start, 120.0,
            f"worst lift residual {worst_res:.2e}, distance {worst_dist:.2e}, "
            f"worst witness residual {worst_tuple:.2e}")


def test_criterion_6_moebius(tmp_path):
    start = time.perf_counter()
    rng = seeded_generator(6000)
    for _ in range(1000):
        g = random_su11(rng)
        h = random_su11(rng)
        rg, rh = to_sl2r(g).as_array(), to_sl2r(h).as_array()
        assert np.max(np.abs(to_sl2r(g * h).as_array() - rg @ rh)) < 1e-10
        assert abs(np.linalg.det(rg) - 1.0) < 1e-10

    worst = 0.0
    for k in range(50):
        order = 2 + k % 7
        K = make_finite_subgroup(order, random_su11(rng))
        result = conjugate_into_rotations(K)
        worst = max(worst, result.residual)
        assert result.residual < 1e-8

    # caps chosen when cofactors came from the elimination cascade, whose
    # top stage has degree cap * 2**(n-1); the reduced norm certifies these
    # with room to spare (its degree in w = z^n is the cap itself)
    degree_caps = {2: 4, 3: 4, 4: 2, 5: 1}
    for order in (2, 3, 4, 5):
        sub = tmp_path / f"subgroup-{order}.json"
        assert main(["random-subgroup", "--seed", str(600 + order), "--n",
                     str(order), "--out", str(sub)]) == 0
        conj = tmp_path / f"conjugation-{order}.json"
        assert main(["conjugate", str(sub), "--out", str(conj)]) == 0
        derived = json.loads(conj.read_text())["derived_spec"]
        stem = tmp_path / f"pair-{order}"
        assert main(["random", "--seed", str(610 + order), "--n",
                     str(derived["n"]), "--m", str(derived["m"]),
                     "--degree-cap", str(degree_caps[order]),
                     "--out", str(stem)]) == 0
        cert = tmp_path / f"cert-{order}.json"
        assert main(["cert-upper", f"{stem}-x.json", f"{stem}-y.json",
                     "--seed", str(620 + order), "--out", str(cert)]) == 0
        assert main(["verify", str(cert)]) == 0
    _report(6, "moebius reduction", time.perf_counter() - start, 60.0,
            f"1000 representation pairs, 50 conjugations "
            f"(worst residual {worst:.2e}), pipeline exit 0 for orders 2-5")


def test_criterion_7_bounds_calculator():
    start = time.perf_counter()
    assert DISK_ALGEBRA_LTSR == 2
    for n in range(1, 9):
        report = stable_rank_bounds(DISK_ALGEBRA_LTSR, group_order=n)
        assert report.cyclic_bound == 3
        assert report.crossed_product_bound == 2 + n - 1
    _report(7, "bounds calculator", time.perf_counter() - start, 1.0,
            "cyclic bound 3 and crossed-product bound n + 1 reproduced exactly")


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    pairs = []
    stem = tmp_path / "input"
    assert main(["random", "--seed", "88", "--n", "3", "--out", str(stem)]) == 0

    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        upper = base / "upper.json"
        assert main(["cert-upper", f"{stem}-x.json", f"{stem}-y.json",
                     "--seed", "88", "--out", str(upper)]) == 0
        lower = base / "lower.json"
        assert main(["cert-lower", "--n", "4", "--epsilon", "0.05",
                     "--seed", "88", "--out", str(lower)]) == 0
        sub = base / "subgroup.json"
        assert main(["random-subgroup", "--seed", "88", "--n", "3",
                     "--out", str(sub)]) == 0
        conj = base / "conjugation.json"
        assert main(["conjugate", str(sub), "--out", str(conj)]) == 0
        pair_stem = base / "pair"
        assert main(["random", "--seed", "88", "--n", "2",
                     "--out", str(pair_stem)]) == 0
        pairs.append([upper.read_bytes(), lower.read_bytes(), sub.read_bytes(),
                      conj.read_bytes(), (base / "pair-x.json").read_bytes(),
                      (base / "pair-y.json").read_bytes()])

    assert pairs[0] == pairs[1]
    _report(8, "determinism", time.perf_counter() - start, 30.0,
            "six regenerated artifact files are byte-identical across runs")
