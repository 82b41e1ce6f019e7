"""Byte identity with stored outputs: a speed-up must not move a single byte.

Each test regenerates one file under ``data/golden-*`` from the same seed
and compares bytes.  The two lift files hold the direct left inverses,
the minimum-norm ``Z`` with ``Z X = I`` and entries of degree at most
``c * deg X``; both inputs lift unperturbed, at distance 0.  They were
re-written when that solve replaced the left inverse from the maximal
minors, of degree ``(2c - 1) deg X``: ``output``, ``input_sha256``,
``distance`` and ``seed`` kept their values, and only ``left_inverse`` and
``residual`` moved.  ``golden-cert-upper-n3.json`` holds the Bezout
cofactors from the reduced norm; the elimination cascade's certificate for
the same command is kept as ``data/bezout-cascade-n3.json``, which
``tests/test_cli.py`` still verifies.  All three files were re-written in
the compact encoding (no whitespace) when ``serialize.dumps`` left
``indent=2``: each parses to the payload of its indented predecessor, except
the lifts' ``input_sha256``, which hashes the encoding of the input matrix.
The two lift files were re-written once more, in ``residual`` only, when the
lift gate moved to untrimmed coefficient arrays: each ``Poly`` product had
trimmed trailing coefficients at 1e-12 relative before ``I`` was
subtracted, dropping a diagonal entry's round-off, so the stored value
understated ``|Z X - I|`` (1.656e-14 against 2.886e-14 for the 3x2 lift).
``golden-cert-upper-n3.json`` was re-written in ``residual`` only when the
Bezout identity moved to untrimmed coefficient arrays, for the same
reason: the trimmed ``Poly`` products stored 4.62e-14, the untrimmed
``|c*a + d*b - delta^0|`` is 6.94e-14.  Every other key parses as before,
and the new text is the old text with that one number replaced.
The two lift files were re-written in ``left_inverse`` and ``residual``
when the least-squares solve (an SVD per solve and per refinement round)
gave way to one QR factorization of the system's adjoint, and the gate's
product to one ``einsum`` over windows of ``Z``: the residuals moved from
2.886e-14 to 2.302e-14 (3x2) and from 6.632e-14 to 2.570e-13 (tuple), and
``output``, ``input_sha256``, ``distance`` and ``seed`` stayed
byte-identical.  The bytes do not depend on the number of BLAS threads.
"""
from __future__ import annotations

from pathlib import Path

from crossrank import serialize
from crossrank.algebra import AlgMatrix, CrossedElement, GroupSpec, expectation
from crossrank.cli import main
from crossrank.liftrank import (disk_column_oracle, left_invertible_lift,
                                lift_generating_tuple)
from crossrank.randomness import random_crossed, random_poly, seeded_generator

DATA = Path(__file__).parent / "data"


def golden(name: str) -> str:
    return (DATA / f"golden-{name}.json").read_text(encoding="utf-8")


def test_matrix_lift_bytes():
    rng = seeded_generator(5100)
    mat = AlgMatrix([[random_poly(rng, 3, 0.5) for _ in range(2)] for _ in range(3)])
    res = left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
    assert serialize.dumps(serialize.lift_to_obj(res, mat, seed=5100)) == golden("lift-3x2")


def test_tuple_lift_bytes():
    spec = GroupSpec(3)
    rng = seeded_generator(5450)
    elements = [random_crossed(rng, spec, 3) for _ in range(4)]
    lifted = lift_generating_tuple(elements, 0.1, rng)
    u = [CrossedElement.monomial(spec, k) for k in range(3)]
    mat = AlgMatrix([[expectation(b * u[k]).component(0) for k in range(3)]
                     for b in elements])
    text = serialize.dumps(serialize.lift_to_obj(lifted.lift, mat, seed=5450))
    assert text == golden("lift-tuple-n3")


def test_cert_upper_bytes(tmp_path):
    stem = tmp_path / "pair"
    assert main(["random", "--seed", "11", "--n", "3", "--out", str(stem)]) == 0
    out = tmp_path / "cert.json"
    assert main(["cert-upper", f"{stem}-x.json", f"{stem}-y.json", "--seed", "11",
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == golden("cert-upper-n3")
