"""Canonical JSON encoding for every persisted object.

Complex numbers are ``[re, im]`` pairs; a polynomial is the array of its
coefficient pairs indexed by the power of ``z``.  Serialization is
canonical (sorted keys, the compact separators ``","`` and ``":"`` with no
whitespace, round-trip-exact floats, one trailing newline), so identical
data produce byte-identical files.  Reading accepts any JSON whitespace,
so files written with indentation by earlier releases still read.  Every
number read must be finite: ``NaN``, ``Infinity``, a float literal that
overflows (``1e999``) and an integer beyond the float range are malformed
input, as is a string where a number belongs.  ``verify_obj`` dispatches
a certificate payload to its verifier by the ``"type"`` tag the writers
below emit.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any

from .algebra import AlgMatrix, CrossedElement, GroupSpec
from .elimination import (BezoutCertificate, VerificationReport, WindingObstruction,
                          verify_bezout, verify_winding)
from .liftrank import LiftResult
from .moebius import (ConjugationResult, FiniteCyclicSubgroup, RotationAction,
                      SU11Element, verify_conjugation)
from .poly import Poly


def dumps(obj: Any) -> str:
    # no indent: any indent makes ``json`` fall back to its pure-Python encoder
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_file(path: str | Path, obj: Any) -> Path:
    path = Path(path)
    path.write_text(dumps(obj), encoding="utf-8")
    return path


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text[:32]} is not allowed")
    return value


def _float_range_int(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer of {len(text)} digits is out of range")
    return value


def loads(text: str) -> Any:
    return json.loads(text, parse_float=_finite_float, parse_int=_float_range_int,
                      parse_constant=_reject_constant)


def read_file(path: str | Path) -> Any:
    return loads(Path(path).read_text(encoding="utf-8"))


def _real(value) -> float:
    """A JSON number as a float; a string such as ``"Infinity"`` is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


# -- complex / polynomial / crossed element

def complex_to_obj(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_obj(obj) -> complex:
    re, im = obj
    # two real arguments: a string in either place raises TypeError
    return complex(re, im)


def poly_to_obj(f: Poly) -> list[list[float]]:
    return f.coeffs.view(float).reshape(-1, 2).tolist()


def poly_from_obj(obj) -> Poly:
    # complex_from_obj inlined; this list build measured faster than both a
    # call per pair and np.asarray(obj, float).view(complex) at certificate sizes
    return Poly([complex(re, im) for re, im in obj], trim=0.0)


def crossed_to_obj(x: CrossedElement) -> dict:
    return {"n": x.spec.n, "m": x.spec.m,
            "comps": [poly_to_obj(c) for c in x.comps]}


def crossed_from_obj(obj) -> CrossedElement:
    spec = GroupSpec(int(obj["n"]), int(obj["m"]))
    return CrossedElement(spec, [poly_from_obj(c) for c in obj["comps"]])


# -- certificates

def bezout_to_obj(cert: BezoutCertificate) -> dict:
    return {
        "type": "bezout",
        "n": cert.spec.n,
        "m": cert.spec.m,
        "epsilon": cert.epsilon,
        "seed": cert.seed,
        "inputs": {"x": crossed_to_obj(cert.x), "y": crossed_to_obj(cert.y)},
        "approximants": {"a": crossed_to_obj(cert.a), "b": crossed_to_obj(cert.b)},
        "cofactors": {"c": crossed_to_obj(cert.c), "d": crossed_to_obj(cert.d)},
        "residual": cert.residual,
        "distance_x": cert.distance_x,
        "distance_y": cert.distance_y,
    }


def bezout_from_obj(obj) -> BezoutCertificate:
    return BezoutCertificate(
        x=crossed_from_obj(obj["inputs"]["x"]),
        y=crossed_from_obj(obj["inputs"]["y"]),
        a=crossed_from_obj(obj["approximants"]["a"]),
        b=crossed_from_obj(obj["approximants"]["b"]),
        c=crossed_from_obj(obj["cofactors"]["c"]),
        d=crossed_from_obj(obj["cofactors"]["d"]),
        epsilon=_real(obj["epsilon"]),
        residual=_real(obj["residual"]),
        distance_x=_real(obj["distance_x"]),
        distance_y=_real(obj["distance_y"]),
        seed=obj.get("seed"),
    )


def winding_to_obj(obs: WindingObstruction) -> dict:
    return {
        "type": "winding",
        "n": obs.spec.n,
        "m": obs.spec.m,
        "element": crossed_to_obj(obs.element),
        "circle_min": obs.circle_min,
        "winding": obs.winding,
        "samples": obs.samples,
        "delta": obs.delta,
        "trials": obs.trials,
        "trial_windings": list(obs.trial_windings),
        "trial_circle_min": obs.trial_circle_min,
        "seed": obs.seed,
    }


def winding_from_obj(obj) -> WindingObstruction:
    return WindingObstruction(
        element=crossed_from_obj(obj["element"]),
        circle_min=_real(obj["circle_min"]),
        winding=int(obj["winding"]),
        samples=int(obj["samples"]),
        delta=_real(obj["delta"]),
        trials=int(obj["trials"]),
        trial_windings=tuple(int(w) for w in obj["trial_windings"]),
        trial_circle_min=(None if obj.get("trial_circle_min") is None
                          else _real(obj["trial_circle_min"])),
        seed=obj.get("seed"),
    )


# -- disk symmetries

def su11_to_obj(g: SU11Element) -> dict:
    return {"a": complex_to_obj(g.a), "b": complex_to_obj(g.b)}


def su11_from_obj(obj) -> SU11Element:
    return SU11Element(complex_from_obj(obj["a"]), complex_from_obj(obj["b"]))


def subgroup_to_obj(subgroup: FiniteCyclicSubgroup) -> dict:
    return {"type": "subgroup",
            "generator": su11_to_obj(subgroup.generator),
            "order": subgroup.order,
            "sign": subgroup.sign}


def subgroup_from_obj(obj) -> FiniteCyclicSubgroup:
    built = FiniteCyclicSubgroup.build(su11_from_obj(obj["generator"]),
                                       int(obj["order"]))
    if "sign" in obj and int(obj["sign"]) != built.sign:
        raise ValueError("stored sign flag disagrees with the generator")
    return built


def rotation_action_to_obj(action: RotationAction,
                           subgroup: FiniteCyclicSubgroup) -> dict:
    return {
        "type": "conjugation",
        "subgroup": subgroup_to_obj(subgroup),
        "h": su11_to_obj(action.conjugation.h),
        "residual": action.conjugation.residual,
        "rotation_angles": list(action.conjugation.rotation_angles),
        "order": action.conjugation.order,
        "derived_spec": {"n": action.spec.n, "m": action.spec.m},
        "intertwining_residual": action.intertwining_residual,
    }


def rotation_action_from_obj(obj) -> RotationAction:
    h, derived = su11_from_obj(obj["h"]), obj["derived_spec"]
    angles = tuple(_real(a) for a in obj["rotation_angles"])
    return RotationAction(
        spec=GroupSpec(int(derived["n"]), int(derived["m"])),
        conjugation=ConjugationResult(h, _real(obj["residual"]), angles, int(obj["order"])),
        intertwining_residual=_real(obj["intertwining_residual"]))


# -- verification

def _verify_bezout_obj(obj) -> VerificationReport:
    return verify_bezout(bezout_from_obj(obj))


def _verify_winding_obj(obj) -> VerificationReport:
    return verify_winding(winding_from_obj(obj))


def _verify_conjugation_obj(obj) -> VerificationReport:
    return verify_conjugation(subgroup_from_obj(obj["subgroup"]),
                              rotation_action_from_obj(obj))


# keyed by the payload's "type" tag; each entry looks its reader and verifier
# up by name when called, so rebinding either name in this module takes effect
VERIFIERS = {
    "bezout": _verify_bezout_obj,
    "winding": _verify_winding_obj,
    "conjugation": _verify_conjugation_obj,
}


def verify_obj(obj) -> VerificationReport:
    """Re-verify a certificate payload; unknown types are malformed input."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind not in VERIFIERS:
        raise ValueError(f"unknown certificate type {kind!r}")
    return VERIFIERS[kind](obj)


# -- matrices and lifts

def matrix_to_obj(mat: AlgMatrix) -> dict:
    entries = []
    for row in mat.entries:
        for e in row:
            if isinstance(e, Poly):
                entries.append(poly_to_obj(e))
            elif isinstance(e, CrossedElement):
                entries.append(crossed_to_obj(e))
            else:
                raise TypeError(f"unsupported entry {type(e)!r}")
    return {"rows": mat.rows, "cols": mat.cols, "entries": entries}


def matrix_from_obj(obj) -> AlgMatrix:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    flat = []
    for entry in obj["entries"]:
        flat.append(crossed_from_obj(entry) if isinstance(entry, dict)
                    else poly_from_obj(entry))
    if len(flat) != rows * cols:
        raise ValueError("entry count does not match the declared shape")
    return AlgMatrix([flat[r * cols:(r + 1) * cols] for r in range(rows)])


def matrix_sha256(mat: AlgMatrix) -> str:
    return hashlib.sha256(dumps(matrix_to_obj(mat)).encode("utf-8")).hexdigest()


def lift_to_obj(result: LiftResult, input_matrix: AlgMatrix,
                seed: int | None = None) -> dict:
    return {
        "type": "lift",
        "input_sha256": matrix_sha256(input_matrix),
        "output": matrix_to_obj(result.output),
        "left_inverse": matrix_to_obj(result.left_inverse),
        "distance": result.distance,
        "residual": result.residual,
        "seed": seed,
    }


def lift_from_obj(obj) -> LiftResult:
    return LiftResult(
        output=matrix_from_obj(obj["output"]),
        left_inverse=matrix_from_obj(obj["left_inverse"]),
        distance=_real(obj["distance"]),
        residual=_real(obj["residual"]),
    )
