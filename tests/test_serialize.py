"""Canonical JSON round trips and byte stability."""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossrank import serialize
from crossrank.algebra import AlgMatrix, GroupSpec
from crossrank.cli import main
from crossrank.elimination import bezout_certificate, winding_obstruction
from crossrank.liftrank import disk_column_oracle, left_invertible_lift
from crossrank.moebius import make_finite_subgroup, rotation_action_of
from crossrank.poly import Poly
from crossrank.randomness import (random_crossed, random_poly, random_su11,
                                  seeded_generator)


def test_poly_round_trip_exact():
    f = Poly([0.1 + 0.2j, -3.5, 1e-17 + 1j])
    obj = serialize.poly_to_obj(f)
    assert serialize.poly_from_obj(obj) == f
    assert obj[0] == [0.1, 0.2]


MAX = sys.float_info.max
finite = st.floats(allow_nan=False, allow_infinity=False)
# a coefficient whose modulus overflows is no polynomial to round-trip
pair = st.tuples(finite, finite).filter(lambda p: math.hypot(p[0] / 2, p[1] / 2) < MAX / 2)


@settings(max_examples=300, derandomize=True, database=None)
@given(st.lists(pair, max_size=8))
@example([(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.0, 0.0)])
@example([(5e-324, -2.2250738585072014e-308), (-5e-324, 1e-310)])
@example([(MAX, -0.0), (-MAX, 1.0), (0.0, MAX), (-5e-324, -MAX)])
def test_poly_round_trip_bits(pairs):
    # dumps -> loads -> poly_from_obj returns every coefficient bit, signed
    # zeros and subnormals included
    f = Poly([complex(re, im) for re, im in pairs], trim=0.0)
    text = serialize.dumps(serialize.poly_to_obj(f))
    for parse in (json.loads, serialize.loads):
        back = serialize.poly_from_obj(parse(text))
        assert back.coeffs.view(np.uint64).tolist() == f.coeffs.view(np.uint64).tolist()


@pytest.mark.parametrize("obj", [[[1.0]], [[1.0, 2.0, 3.0]], [[[1.0, 2.0]]]],
                         ids=["short-pair", "long-pair", "nested-pair"])
def test_poly_from_obj_rejects_shapes(tmp_path, obj):
    with pytest.raises(ValueError):
        serialize.poly_from_obj(obj)
    payload = json.loads((Path(__file__).parent / "data" / "bezout.json").read_text())
    payload["cofactors"]["c"]["comps"][0] = obj
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == 1


@pytest.mark.parametrize("text", [
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "[0.0, 1e400]",
    pytest.param("1" + "0" * 400, id="huge-int"),
    pytest.param("-1" + "0" * 400, id="huge-negative-int"),
])
def test_loads_rejects_non_finite(text):
    with pytest.raises(ValueError):
        serialize.loads(text)


def test_loads_keeps_extreme_finite_values():
    assert serialize.loads("[1.7976931348623157e308, 5e-324, -0.0, 1e-999]") == \
        [MAX, 5e-324, -0.0, 0.0]
    big = int(MAX)
    assert serialize.loads(str(big)) == big


def test_dumps_is_compact_and_sorted():
    assert serialize.dumps({"b": [1.5, -0.0], "a": None}) == '{"a":null,"b":[1.5,-0.0]}\n'
    with pytest.raises(ValueError):
        serialize.dumps(float("inf"))


def test_zero_poly_is_empty_array():
    assert serialize.poly_to_obj(Poly()) == []
    assert serialize.poly_from_obj([]) == Poly()


def test_crossed_round_trip():
    rng = seeded_generator(1)
    x = random_crossed(rng, GroupSpec(4, 3), 5)
    obj = serialize.crossed_to_obj(x)
    assert obj["n"] == 4 and obj["m"] == 3
    assert serialize.crossed_from_obj(obj) == x


def test_dumps_is_byte_stable():
    rng = seeded_generator(2)
    x = random_crossed(rng, GroupSpec(3), 4)
    a = serialize.dumps(serialize.crossed_to_obj(x))
    b = serialize.dumps(serialize.crossed_to_obj(
        serialize.crossed_from_obj(json.loads(a))))
    assert a == b


def test_bezout_certificate_round_trip():
    rng = seeded_generator(3)
    spec = GroupSpec(2)
    cert = bezout_certificate(random_crossed(rng, spec, 3),
                              random_crossed(rng, spec, 3), 0.1, rng, seed=3)
    obj = serialize.bezout_to_obj(cert)
    back = serialize.bezout_from_obj(obj)
    assert back == cert
    assert obj["type"] == "bezout" and obj["seed"] == 3


def test_winding_round_trip():
    obs = winding_obstruction(GroupSpec(3), 0.05, seeded_generator(4), seed=4)
    obj = serialize.winding_to_obj(obs)
    back = serialize.winding_from_obj(obj)
    assert back == obs
    assert obj["winding"] == 3


def test_subgroup_round_trip_and_sign_check():
    K = make_finite_subgroup(4, random_su11(seeded_generator(5)))
    obj = serialize.subgroup_to_obj(K)
    back = serialize.subgroup_from_obj(obj)
    assert back.generator.distance(K.generator) < 1e-15
    assert back.order == 4 and back.sign == K.sign
    obj["sign"] = -obj["sign"]
    with pytest.raises(ValueError):
        serialize.subgroup_from_obj(obj)


def test_rotation_action_payload():
    K = make_finite_subgroup(3, random_su11(seeded_generator(6)))
    action = rotation_action_of(K)
    obj = serialize.rotation_action_to_obj(action, K)
    assert obj["type"] == "conjugation"
    assert obj["derived_spec"]["n"] == 3
    assert len(obj["rotation_angles"]) == 3


def test_matrix_round_trip_mixed_entries():
    rng = seeded_generator(7)
    spec = GroupSpec(2)
    mat = AlgMatrix([[random_poly(rng, 2), random_poly(rng, 2)],
                     [random_poly(rng, 2), random_poly(rng, 2)],
                     [random_poly(rng, 2), random_poly(rng, 2)]])
    back = serialize.matrix_from_obj(serialize.matrix_to_obj(mat))
    assert back.entries == mat.entries
    # matrix entries are polynomials; a crossed-product entry is refused
    with pytest.raises(TypeError):
        AlgMatrix([[random_crossed(rng, spec, 2)]])


def test_lift_payload_embeds_input_hash():
    rng = seeded_generator(8)
    mat = AlgMatrix([[random_poly(rng, 2, 0.5) for _ in range(2)]
                     for _ in range(3)])
    res = left_invertible_lift(mat, 0.1, disk_column_oracle, rng)
    obj = serialize.lift_to_obj(res, mat, seed=8)
    assert obj["input_sha256"] == serialize.matrix_sha256(mat)
    back = serialize.lift_from_obj(obj)
    assert back.residual == res.residual
    assert back.output.entries == res.output.entries


def test_write_and_read_file(tmp_path):
    rng = seeded_generator(9)
    x = random_crossed(rng, GroupSpec(2), 3)
    path = serialize.write_file(tmp_path / "x.json", serialize.crossed_to_obj(x))
    assert serialize.crossed_from_obj(serialize.read_file(path)) == x
