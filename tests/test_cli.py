"""Command-line contract: exit codes, file outputs, determinism."""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrank import cli, serialize
from crossrank.algebra import CrossedElement, GroupSpec
from crossrank.cli import build_parser, main
from crossrank.elimination import VERIFY_AGREEMENT_TOL
from crossrank.moebius import SU11Element, make_finite_subgroup

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


def _bezout_source(tmp_path, code=0):
    stem = tmp_path / "pair"
    assert main(["random", "--seed", "11", "--n", "2", "--out", str(stem)]) == 0
    out = tmp_path / "cert.json"
    assert main(["cert-upper", f"{stem}-x.json", f"{stem}-y.json",
                 "--seed", "11", "--out", str(out)]) == code
    return out


def _conjugation_source(tmp_path, code=0):
    sub = tmp_path / "subgroup.json"
    assert main(["random-subgroup", "--seed", "3", "--n", "4", "--out", str(sub)]) == 0
    out = tmp_path / "conjugation.json"
    assert main(["conjugate", str(sub), "--out", str(out)]) == code
    return out


def _winding_source(tmp_path, code=0):
    out = tmp_path / "obstruction.json"
    assert main(["cert-lower", "--n", "3", "--epsilon", "0.05",
                 "--out", str(out)]) == code
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


def _fractional_winding(payload):
    # truncated, 3.5 would read as the true winding 3
    assert payload["winding"] == 3
    payload["winding"] = 3.5


def _string_winding(payload):
    payload["winding"] = "3"


def _fractional_samples(payload):
    assert payload["samples"] == 1024
    payload["samples"] = 1024.7


def _boolean_trials(payload):
    # bool is a subclass of int, so a bare isinstance check accepts it
    payload["trials"] = True


def _float_order(payload):
    # integral, but a float is not a JSON integer
    assert payload["order"] == 4
    payload["order"] = 4.0


def _string_order(payload):
    payload["n"] = "two"


def _boolean_selector(payload):
    payload["m"] = True


def _contradicting_order(payload):
    # an integer, but the elements are of order 2
    assert payload["n"] == 2
    payload["n"] = 3


def _fractional_order(payload):
    payload["n"] = 3.5


def _string_seed(payload):
    payload["seed"] = "abc"


def _contradicting_selector(payload):
    # 5 mod 3 = 2 is primitive, but the element acts by m = 1
    assert payload["m"] == 1
    payload["m"] = 5


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
    pytest.param(_winding_source, _fractional_winding, 1, id="fractional-winding"),
    pytest.param(_winding_source, _string_winding, 1, id="string-winding"),
    pytest.param(_winding_source, _fractional_samples, 1, id="fractional-samples"),
    pytest.param(_winding_source, _boolean_trials, 1, id="boolean-trials"),
    pytest.param(_conjugation_source, _float_order, 1, id="float-order"),
    pytest.param(_bezout_source, _string_order, 1, id="bezout-string-order"),
    pytest.param(_bezout_source, _boolean_selector, 1, id="bezout-boolean-selector"),
    pytest.param(_bezout_source, _contradicting_order, 1, id="bezout-contradicting-order"),
    pytest.param(_winding_source, _fractional_order, 1, id="winding-fractional-order"),
    pytest.param(_winding_source, _string_seed, 1, id="winding-string-seed"),
    pytest.param(_winding_source, _contradicting_selector, 1,
                 id="winding-contradicting-selector"),
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


@pytest.mark.parametrize("writer, source, tamper", [
    ("bezout_to_obj", _bezout_source, _nudge_cofactor),
    ("winding_to_obj", _winding_source, _nudge_circle_min),
    ("rotation_action_to_obj", _conjugation_source, _fake_intertwining),
], ids=["cert-upper", "cert-lower", "conjugate"])
def test_certificate_command_exits_as_verify_on_its_file(tmp_path, capsys, monkeypatch,
                                                         writer, source, tamper):
    # a writer that damages the payload: the command judges the file it
    # wrote, not the object it built, so it fails as verify does
    write = getattr(serialize, writer)

    def damaged(*args):
        payload = write(*args)
        tamper(payload)
        return payload

    monkeypatch.setattr(serialize, writer, damaged)
    capsys.readouterr()
    out = source(tmp_path, code=2)
    captured = capsys.readouterr()
    assert f"{out}: " in captured.err
    assert str(out) not in captured.out
    assert main(["verify", str(out)]) == 2


@pytest.mark.parametrize("name", ["bezout", "winding", "conjugation", "bezout-cascade-n3"])
def test_verify_accepts_stored_certificates(name):
    # written by earlier releases from the commands of the sources above
    # (bezout-cascade-n3: random --seed 11 --n 3, then cert-upper --seed 11,
    # cofactors from the elimination cascade); the file format must stay
    # readable and the certificates verifiable
    assert main(["verify", str(DATA / f"{name}.json")]) == 0


def test_verify_rejects_obstruction_for_another_element(tmp_path, capsys):
    # 0.01 * z * delta^0 winds 3 times with circle minimum 1e-6, but the
    # perturbation -0.01 * z * delta^0 (norm 0.01 < delta = 0.05) reaches 0
    payload = json.loads((DATA / "winding.json").read_text())
    payload["element"]["comps"][0] = [[0.0, 0.0], [0.01, 0.0]]
    payload["circle_min"] = 1e-06
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(payload))
    assert main(["verify", str(scaled)]) == 2
    err = capsys.readouterr().err
    assert "element is not z * delta^0" in err
    assert "Traceback" not in err


WINDING = json.loads((DATA / "winding.json").read_text())
# every key verify reads; "seed" and "trial_circle_min" may be absent
WINDING_KEYS = ("type", "n", "m", "element", "circle_min", "winding", "samples",
                "delta", "trials", "trial_windings")
WINDING_NUMBERS = [(key,) for key in ("n", "m", "circle_min", "winding", "samples", "delta",
                                      "trials", "trial_circle_min", "seed")] + [
    ("trial_windings", 0), ("element", "n"), ("element", "m"), ("element", "comps", 0, 1, 0)]


def _verify_payload(path: Path, payload) -> tuple[int, str]:
    path.write_text(json.dumps(payload))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    return code, err.getvalue()


def _set(payload, where, value):
    *parents, last = where
    for key in parents:
        payload = payload[key]
    payload[last] = value


_circle_min_moved = st.builds(
    lambda shift, sign: ("circle_min", WINDING["circle_min"] + sign * shift),
    st.floats(2 * VERIFY_AGREEMENT_TOL, 1e6), st.sampled_from((-1.0, 1.0)))
_other_winding = st.tuples(
    st.just("winding"), st.integers(-2 ** 53, 2 ** 53).filter(lambda w: w != WINDING["winding"]))
# at n = 3 the margin (1 - delta)^3 > 6 delta^3 fails from delta ~ 0.355 on
_broken_delta = st.tuples(st.just("delta"), st.one_of(st.floats(-1e300, 0.0),
                                                      st.floats(0.36, 1e300)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.one_of(_circle_min_moved, _other_winding, _broken_delta))
def test_winding_value_tamper_exits_2(tmp_path_factory, change):
    key, value = change
    payload = json.loads(json.dumps(WINDING))
    payload[key] = value
    code, err = _verify_payload(tmp_path_factory.getbasetemp() / "tampered-winding.json",
                                payload)
    assert code == 2
    assert "Traceback" not in err


_not_a_number = st.one_of(st.text(max_size=8),
                          st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   max_size=3))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.tuples(st.just("remove"), st.sampled_from(WINDING_KEYS)),
                 st.tuples(st.sampled_from(WINDING_NUMBERS), _not_a_number)))
def test_winding_structure_tamper_exits_1(tmp_path_factory, change):
    payload = json.loads(json.dumps(WINDING))
    if change[0] == "remove":
        del payload[change[1]]
    else:
        _set(payload, *change)
    code, err = _verify_payload(tmp_path_factory.getbasetemp() / "damaged-winding.json",
                                payload)
    assert code == 1
    assert "Traceback" not in err


def test_cert_lower_phase_jump_exits_2(tmp_path, capsys):
    # z^16 turns by pi/2 between 64 samples
    out = tmp_path / "o.json"
    assert main(["cert-lower", "--n", "16", "--samples", "64", "--out", str(out)]) == 2
    assert "phase jump" in capsys.readouterr().err
    assert not out.exists()


def test_cert_lower_order_171(tmp_path):
    # d + 1 = 2 determinants of 171 x 171, whatever the sample count
    out = tmp_path / "o.json"
    assert main(["cert-lower", "--n", "171", "--epsilon", "1e-10", "--samples", "1024",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["winding"] == 171
    assert main(["verify", str(out)]) == 0


def _huge_generator(payload):
    payload["generator"]["b"] = [1e200, 0]


def _huge_subgroup_generator(payload):
    _huge_generator(payload["subgroup"])


@pytest.mark.parametrize("command, tamper", [
    ("verify", _huge_subgroup_generator),
    ("conjugate", _huge_generator),
])
def test_overflowing_su11_entry_is_malformed(tmp_path, capsys, command, tamper):
    # |b|^2 overflows a float; membership must fail as malformed input
    payload = json.loads((DATA / "conjugation.json").read_text())
    if command == "conjugate":
        payload = payload["subgroup"]
    tamper(payload)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    argv = [command, str(path)]
    if command == "conjugate":
        argv += ["--out", str(tmp_path / "out.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "not in SU(1,1)" in err
    assert "Traceback" not in err


def test_conjugate_out_of_precision_is_mathematical_failure(tmp_path, capsys):
    # a valid order-2 subgroup conjugated out by a boost of 4.5: its SL(2,R)
    # image misses the determinant check by round-off alone
    K = make_finite_subgroup(2, SU11Element(math.cosh(4.5), math.sinh(4.5)))
    sub = serialize.write_file(tmp_path / "subgroup.json", serialize.subgroup_to_obj(K))
    assert main(["conjugate", str(sub), "--out", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "determinant off by" in err
    assert "Traceback" not in err


def test_verify_truncated_json(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"type": "bezout", "n": 2')
    assert main(["verify", str(broken)]) == 1


DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("command, text", [
    ("verify", DEEP),
    ("conjugate", DEEP),
    ("verify", '{"type": "bezout", "cofactors": ' + DEEP + "}"),
], ids=["verify", "conjugate", "inside-bezout"])
def test_deeply_nested_json_is_malformed(tmp_path, capsys, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    argv = [command, str(path)]
    if command == "conjugate":
        argv += ["--out", str(tmp_path / "out.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err


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


def test_cert_lower_margin_past_float_factorials(tmp_path, capsys):
    # 171! overflows a float; the margin check still answers, and the
    # default epsilon 0.05 fails it at this order
    out = tmp_path / "o.json"
    assert main(["cert-lower", "--n", "171", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "margin" in err and "Traceback" not in err
    assert not out.exists()


def test_unallocatable_sample_count_is_malformed(tmp_path, capsys):
    # 2^44 complex samples take 256 TiB, beyond a 47-bit user address
    # space, so the allocation fails at once on any machine
    out = tmp_path / "o.json"
    assert main(["cert-lower", "--n", "3", "--samples", str(2 ** 44),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Unable to allocate" in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("flags, message", [
    (["--seed", str(10 ** 400)], "seed must lie in [0, 2^64)"),
    (["--seed", "-5"], "seed must lie in [0, 2^64)"),
    (["--n", "3"], "unrecognized arguments: --n 3"),
    (["--m", "2"], "unrecognized arguments: --m 2"),
])
def test_cert_upper_rejects_flags(tmp_path, capsys, flags, message):
    # the pair is valid, so only the flag can make cert-upper refuse it
    stem = tmp_path / "pair"
    assert main(["random", "--seed", "11", "--n", "2", "--out", str(stem)]) == 0
    out = tmp_path / "cert.json"
    assert main(["cert-upper", f"{stem}-x.json", f"{stem}-y.json", *flags,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cert-lower", "random", "random-subgroup"])
def test_seed_range(tmp_path, command):
    # seeded_generator keys Philox with 64 bits: 2^64 would alias seed 0
    out = str(tmp_path / "out")
    assert main([command, "--seed", str((1 << 64) - 1), "--out", out]) == 0
    assert main([command, "--seed", str(1 << 64), "--out", out]) == 1
    assert main([command, "--seed", str(10 ** 400), "--out", out]) == 1


@pytest.fixture
def fresh_parser():
    """A parser built by the test's own first ``main`` call."""
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_parser_constructed_once_per_process(fresh_parser, monkeypatch):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            # subparsers share the class; count only the top-level parser
            if kwargs.get("prog") == "crossrank":
                built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    for _ in range(3):
        assert main(["verify", str(DATA / "winding.json")]) == 0
    assert len(built) == 1


def test_repeated_calls_share_no_state(fresh_parser, tmp_path):
    argv = ["random", "--seed", "9", "--n", "2"]
    assert main([*argv, "--out", str(tmp_path / "first")]) == 0
    assert main([*argv, "--degree-cap", "0", "--out", str(tmp_path / "cap0")]) == 0
    assert main([*argv, "--out", str(tmp_path / "again")]) == 0
    for tag in ("x", "y"):
        first = (tmp_path / f"first-{tag}.json").read_bytes()
        assert (tmp_path / f"cap0-{tag}.json").read_bytes() != first
        assert (tmp_path / f"again-{tag}.json").read_bytes() == first


def test_usage_error_leaves_parser_usable(fresh_parser, capsys):
    assert main(["random", "--n", "abc", "--out", "x"]) == 1
    assert main(["verify", str(DATA / "winding.json")]) == 0
    assert "Traceback" not in capsys.readouterr().err


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
