"""Command-line contract: exit codes, file outputs, determinism."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from crossrank import serialize
from crossrank.algebra import CrossedElement, GroupSpec
from crossrank.cli import main

DATA = Path(__file__).parent / "data"


def write_element(path, element):
    return serialize.write_file(path, serialize.crossed_to_obj(element))


def test_cert_upper_unit_pair(tmp_path, capsys):
    spec = GroupSpec(2)
    x = write_element(tmp_path / "x.json", CrossedElement.unit(spec))
    y = write_element(tmp_path / "y.json", CrossedElement.zero(spec))
    out = tmp_path / "cert.json"
    code = main(["cert-upper", str(x), str(y), "--seed", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["type"] == "bezout"
    assert payload["residual"] < 1e-12
    assert str(out) in capsys.readouterr().out


def test_cert_upper_requires_matching_groups(tmp_path):
    x = write_element(tmp_path / "x.json", CrossedElement.unit(GroupSpec(2)))
    y = write_element(tmp_path / "y.json", CrossedElement.unit(GroupSpec(3)))
    code = main(["cert-upper", str(x), str(y), "--out", str(tmp_path / "c.json")])
    assert code == 1


def test_cert_upper_is_deterministic(tmp_path):
    stem = tmp_path / "pair"
    assert main(["random", "--seed", "7", "--n", "3", "--degree-cap", "4",
                 "--out", str(stem)]) == 0
    x, y = stem.parent / "pair-x.json", stem.parent / "pair-y.json"
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["cert-upper", str(x), str(y), "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["cert-upper", str(x), str(y), "--seed", "7",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cert_lower_and_verify(tmp_path):
    out = tmp_path / "obstruction.json"
    assert main(["cert-lower", "--n", "5", "--samples", "4096",
                 "--epsilon", "0.05", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["winding"] == 5
    assert main(["verify", str(out)]) == 0


def test_cert_lower_order_one(tmp_path):
    out = tmp_path / "trivial.json"
    assert main(["cert-lower", "--n", "1", "--m", "0", "--epsilon", "0.1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["winding"] == 1


def _bezout_source(tmp_path):
    stem = tmp_path / "pair"
    assert main(["random", "--seed", "11", "--n", "2", "--out", str(stem)]) == 0
    out = tmp_path / "cert.json"
    assert main(["cert-upper", f"{stem}-x.json", f"{stem}-y.json",
                 "--seed", "11", "--out", str(out)]) == 0
    return out


def _conjugation_source(tmp_path):
    sub = tmp_path / "subgroup.json"
    assert main(["random-subgroup", "--seed", "3", "--n", "4", "--out", str(sub)]) == 0
    out = tmp_path / "conjugation.json"
    assert main(["conjugate", str(sub), "--out", str(out)]) == 0
    return out


def _winding_source(tmp_path):
    out = tmp_path / "obstruction.json"
    assert main(["cert-lower", "--n", "3", "--epsilon", "0.05", "--out", str(out)]) == 0
    return out


def _nudge_cofactor(payload):
    payload["cofactors"]["c"]["comps"][0][0][0] += 1e-3


def _zero_cofactors(payload):
    # c*a + d*b = 0, so the residual is exactly 1; the file claims a
    # tolerance above it, which older verifiers read and trusted
    for name in ("c", "d"):
        payload["cofactors"][name]["comps"] = [[] for _ in range(payload["n"])]
    payload["residual"] = 1.0
    payload["tolerance"] = 2.0


def _wrong_selector(payload):
    assert payload["derived_spec"] == {"n": 4, "m": 1}
    payload["derived_spec"]["m"] = 3


def _broken_margin(payload):
    assert payload["delta"] == 0.05
    payload["delta"] = 0.9


def _wrong_order(payload):
    assert payload["order"] == 4
    payload["order"] = 7


def _fake_intertwining(payload):
    payload["intertwining_residual"] = 0.5


def _zero_angles(payload):
    payload["rotation_angles"] = [0.0] * len(payload["rotation_angles"])


def _emptied_trials(payload):
    payload["trials"] = 1000
    payload["trial_circle_min"] = 5.0
    payload["trial_windings"] = []


def _element_zero_on_circle(payload):
    # z^2 - 1 vanishes at +-1, so the determinant loop meets zero there
    payload["element"]["comps"][0] = [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def _element_squared(payload):
    # z^2 * delta^0: the determinant loop winds 2n times, not n
    payload["element"]["comps"][0] = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def _nudge_circle_min(payload):
    payload["circle_min"] += 1e-3


def _nan_cofactor(payload):
    payload["cofactors"]["c"]["comps"][0][0][0] = float("nan")


def _nan_residual(payload):
    payload["residual"] = float("nan")


# ``json.dumps`` cannot write an overflowing literal: a tamper that returns
# text puts it in the file where it left this marker
RAW = "raw-literal"


def _overflow_epsilon(payload):
    # parses to inf, and every distance is below inf
    payload["epsilon"] = RAW
    return "1e999"


def _overflow_cofactor(payload):
    payload["cofactors"]["c"]["comps"][0][0][0] = RAW
    return "1e999"


def _huge_int_cofactor(payload):
    # a valid JSON integer that no float can hold
    payload["cofactors"]["c"]["comps"][0][0][0] = RAW
    return "1" + "0" * 400


def _overflowed_modulus_input(payload):
    # both parts finite, modulus above the float range
    big = 1.7976931348623157e308
    payload["inputs"]["x"]["comps"][0][0] = [big, big]


def _string_epsilon(payload):
    # float("Infinity") is inf: a string is not a number
    payload["epsilon"] = "Infinity"


@pytest.mark.parametrize("source, tamper, code", [
    pytest.param(_bezout_source, _nudge_cofactor, 2, id="nudged-cofactor"),
    pytest.param(_bezout_source, _zero_cofactors, 2, id="zero-cofactors"),
    pytest.param(_conjugation_source, _wrong_selector, 2, id="wrong-selector"),
    pytest.param(_winding_source, _broken_margin, 2, id="broken-margin"),
    pytest.param(_conjugation_source, _wrong_order, 2, id="wrong-order"),
    pytest.param(_conjugation_source, _fake_intertwining, 2, id="fake-intertwining"),
    pytest.param(_conjugation_source, _zero_angles, 2, id="zero-angles"),
    pytest.param(_winding_source, _emptied_trials, 2, id="emptied-trials"),
    pytest.param(_winding_source, _element_zero_on_circle, 2, id="element-zero-on-circle"),
    pytest.param(_winding_source, _element_squared, 2, id="element-squared"),
    pytest.param(_winding_source, _nudge_circle_min, 2, id="nudged-circle-min"),
    pytest.param(_bezout_source, _nan_cofactor, 1, id="nan-cofactor"),
    pytest.param(_bezout_source, _nan_residual, 1, id="nan-residual"),
    pytest.param(_bezout_source, _overflow_epsilon, 1, id="overflow-epsilon"),
    pytest.param(_bezout_source, _overflow_cofactor, 1, id="overflow-cofactor"),
    pytest.param(_bezout_source, _huge_int_cofactor, 1, id="huge-int-cofactor"),
    pytest.param(_bezout_source, _string_epsilon, 1, id="string-epsilon"),
    pytest.param(_bezout_source, _overflowed_modulus_input, 2, id="overflowed-modulus-input",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")),
])
def test_verify_round_trip_and_corruption(tmp_path, capsys, source, tamper, code):
    out = source(tmp_path)
    assert main(["verify", str(out)]) == 0

    payload = json.loads(out.read_text())
    literal = tamper(payload)
    text = json.dumps(payload)
    if literal is not None:
        assert text.count(json.dumps(RAW)) == 1
        text = text.replace(json.dumps(RAW), literal)
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(text)
    capsys.readouterr()
    assert main(["verify", str(corrupted)]) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name", ["bezout", "winding", "conjugation", "bezout-cascade-n3"])
def test_verify_accepts_stored_certificates(name):
    # written by earlier releases from the commands of the sources above
    # (bezout-cascade-n3: random --seed 11 --n 3, then cert-upper --seed 11,
    # cofactors from the elimination cascade); the file format must stay
    # readable and the certificates verifiable
    assert main(["verify", str(DATA / f"{name}.json")]) == 0


def test_verify_truncated_json(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"type": "bezout", "n": 2')
    assert main(["verify", str(broken)]) == 1


def test_verify_unknown_type(tmp_path):
    weird = tmp_path / "weird.json"
    weird.write_text('{"type": "sonnet"}')
    assert main(["verify", str(weird)]) == 1


def test_verify_batch(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["cert-lower", "--n", "2", "--epsilon", "0.1", "--out", str(a)]) == 0
    assert main(["cert-lower", "--n", "3", "--epsilon", "0.05", "--out", str(b)]) == 0
    assert main(["verify", str(a), str(b)]) == 0


BOUNDS_STDOUT = ('{"crossed_product_bound":4,"cyclic_bound":3,"group_order":3,'
                 '"ltsr_a":2,"ltsr_b":2,"matrix_formula":2,"matrix_size":4,'
                 '"reverse_bound":13}\n')


def test_bounds_reports_values(capsys):
    assert main(["bounds", "--ltsr-a", "2", "--n", "3", "--matrix-size", "4",
                 "--ltsr-b", "2"]) == 0
    out = capsys.readouterr().out
    assert out == BOUNDS_STDOUT
    payload = json.loads(out)
    assert payload["crossed_product_bound"] == 4
    assert payload["cyclic_bound"] == 3
    assert payload["matrix_formula"] == 2  # ceil(1/4) + 1
    assert payload["reverse_bound"] == 13


def test_bounds_rejects_bad_input():
    assert main(["bounds", "--ltsr-a", "0"]) == 1


def test_random_subgroup_and_conjugate_pipeline(tmp_path):
    sub = tmp_path / "subgroup.json"
    assert main(["random-subgroup", "--seed", "3", "--n", "4",
                 "--out", str(sub)]) == 0
    conj = tmp_path / "conjugation.json"
    assert main(["conjugate", str(sub), "--out", str(conj)]) == 0
    payload = json.loads(conj.read_text())
    assert payload["residual"] < 1e-8
    assert main(["verify", str(conj)]) == 0

    derived = payload["derived_spec"]
    stem = tmp_path / "pair"
    assert main(["random", "--seed", "5", "--n", str(derived["n"]),
                 "--m", str(derived["m"]), "--out", str(stem)]) == 0
    cert = tmp_path / "cert.json"
    assert main(["cert-upper", str(stem) + "-x.json", str(stem) + "-y.json",
                 "--seed", "5", "--out", str(cert)]) == 0
    assert main(["verify", str(cert)]) == 0


def test_random_is_deterministic(tmp_path):
    s1, s2 = tmp_path / "a", tmp_path / "b"
    main(["random", "--seed", "42", "--n", "2", "--out", str(s1)])
    main(["random", "--seed", "42", "--n", "2", "--out", str(s2)])
    assert (tmp_path / "a-x.json").read_bytes() == (tmp_path / "b-x.json").read_bytes()
    assert (tmp_path / "a-y.json").read_bytes() == (tmp_path / "b-y.json").read_bytes()


def test_config_validation(tmp_path):
    # samples must be a power of two at least 64
    assert main(["cert-lower", "--n", "2", "--samples", "100",
                 "--out", str(tmp_path / "o.json")]) == 1
    assert main(["cert-lower", "--n", "2", "--samples", "32",
                 "--out", str(tmp_path / "o.json")]) == 1


@pytest.mark.parametrize("argv", [
    ["random", "--n", "abc", "--out", "x"],
    ["cert-upper"],
    ["no-such-command"],
    ["cert-lower", "--epsilon", "-1", "--out", "x"],
    ["random", "--degree-cap", "-1", "--out", "x"],
])
def test_usage_errors_are_malformed_input(argv, capsys):
    # argparse alone would exit 2, the code reserved for mathematical failures
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "malformed input" in err
    assert "Traceback" not in err


def test_missing_file_is_malformed(tmp_path):
    assert main(["cert-upper", str(tmp_path / "nope.json"),
                 str(tmp_path / "nada.json"), "--out",
                 str(tmp_path / "c.json")]) == 1


def test_cert_upper_mathematical_failure_is_exit_two(tmp_path, capsys):
    # order 8 at degree cap 64 runs into the cofactor conditioning wall
    stem = tmp_path / "pair"
    assert main(["random", "--seed", "1", "--n", "8", "--degree-cap", "64",
                 "--out", str(stem)]) == 0
    code = main(["cert-upper", f"{stem}-x.json", f"{stem}-y.json",
                 "--seed", "1", "--out", str(tmp_path / "cert.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def _certify_random_pair(tmp_path, seed, n, cap):
    """``random`` then ``cert-upper`` with the same seed; the exit codes of
    ``cert-upper`` and of ``verify`` on its output."""
    stem = tmp_path / f"pair-{n}-{cap}-{seed}"
    assert main(["random", "--seed", str(seed), "--n", str(n), "--degree-cap",
                 str(cap), "--out", str(stem)]) == 0
    cert = tmp_path / f"cert-{n}-{cap}-{seed}.json"
    code = main(["cert-upper", f"{stem}-x.json", f"{stem}-y.json",
                 "--seed", str(seed), "--out", str(cert)])
    return code, main(["verify", str(cert)]) if code == 0 else None


def test_cert_upper_order_five_cap_one(tmp_path):
    # the elimination cascade put these at degree 16 and failed seeds 1, 17,
    # 23, 24 and 29; the reduced norms have degree 1 in w = z^5
    codes = {seed: _certify_random_pair(tmp_path, seed, 5, 1) for seed in range(40)}
    assert codes == {seed: (0, 0) for seed in range(40)}


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_cert_upper_high_orders_cap_four(tmp_path, n):
    # the cascade's top stage has degree 4 * 2^(n-1), 64 to 512, past its wall
    for seed in range(3):
        assert _certify_random_pair(tmp_path, seed, n, 4) == (0, 0)


def test_cert_upper_order_eight_cap_32_relative_separation(tmp_path):
    # one large root of the first reduced norm made a single threshold taken
    # from max|avoid| (0.121 here) too coarse to clear near the small roots
    assert _certify_random_pair(tmp_path, 7, 8, 32) == (0, 0)
