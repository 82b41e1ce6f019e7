"""The four workloads: seeded inputs, the timed operations, and the checks.

Each workload builds a fixed list of operations from ``--seed``.  A round
runs the whole list once, one operation at a time; later rounds repeat it
with the same inputs and the same per-operation random streams, so every
round must reproduce the first round's artifacts byte for byte.  The first
round's outputs are checked with ``reference``; later rounds are compared
with the first.

Workload classes share one interface:

* ``setup()`` builds the inputs (in a fresh process when timed);
* ``prepare(setup_dir)`` readies the in-process run, reusing what a timed
  set-up wrote;
* ``ops`` is the list of timed callables;
* ``inspect(i, result)`` -> ``(failed, artifact_size, identity)``, untimed,
  where ``identity`` holds the bytes a rerun must reproduce;
* ``check(i, result)`` -> list of reference-check failures, untimed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from crossrank import cli, elimination, liftrank, moebius, serialize
from crossrank.algebra import AlgMatrix, CrossedElement, GroupSpec
from crossrank.poly import Poly

import reference

EPS = 0.1
_MASK = (1 << 63) - 1


def generator(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence([int(k) & _MASK for k in key])))


def draw_coeffs(rng, degree: int, scale: float = 1.0) -> np.ndarray:
    size = degree + 1
    return scale * (rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size))


def draw_element(rng, n: int, degree: int) -> CrossedElement:
    """Dense components in a box, rescaled to a summed norm in [0.4, 0.9]
    (the draws and arithmetic of ``crossrank.randomness.random_crossed``)."""
    comps = [draw_coeffs(rng, degree) for _ in range(n)]
    scale = rng.uniform(0.4, 0.9) / sum(sum(abs(c) for c in comp) for comp in comps)
    return CrossedElement(GroupSpec(n), [Poly(c * scale) for c in comps])


def element_obj(x) -> dict:
    """Plain object of a crossed element, built without the serializer."""
    return {"n": x.spec.n, "m": x.spec.m,
            "comps": [[[c.real, c.imag] for c in p.coeffs] for p in x.comps]}


def matrix_arrays(mat) -> list[list[np.ndarray]]:
    return [[np.array(e.coeffs, dtype=complex) for e in row] for row in mat.entries]


def _same_element(obj, x) -> bool:
    ours = reference.element(element_obj(x))
    theirs = reference.element(obj)
    return ours[:2] == theirs[:2] and all(
        np.array_equal(a, b) for a, b in zip(ours[2], theirs[2]))


class Bezout:
    """Bezout certificates at epsilon 0.1 for n = 2, 3 at degree cap 4 and
    n = 4 at degree cap 2, each written to canonical JSON, read back and
    verified.

    The top-stage degree is ``cap * 2**(n-1)``: 8, 16 and 16.  At n = 4 a
    Bezout residual above 1e-8 fails about one certificate in 300 at cap 4
    and one in 3500 at cap 3, on some seeds only; cap 2 showed none in 6000.
    """

    ORDERS = ((2, 4), (3, 4), (4, 2))
    PER_ORDER = 64

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.inputs = []
        for n, cap in self.ORDERS:
            for k in range(self.PER_ORDER):
                rng = generator(self.seed, 1, n, k)
                x = draw_element(rng, n, cap)
                y = draw_element(rng, n, cap)
                self.inputs.append((x, y, (self.seed, 2, n, k)))

    def prepare(self, setup_dir: Path):
        self.setup()
        self.ops = [self._op(i, *item) for i, item in enumerate(self.inputs)]

    def _op(self, i, x, y, key):
        path = self.workdir / f"cert-{i}.json"

        def op():
            cert = elimination.bezout_certificate(x, y, EPS, generator(*key), seed=i)
            written = serialize.write_file(path, serialize.bezout_to_obj(cert))
            stored = serialize.bezout_from_obj(serialize.read_file(written))
            return elimination.verify_bezout(stored)
        return op

    def inspect(self, i, report):
        data = (self.workdir / f"cert-{i}.json").read_bytes()
        return not report.ok, len(data), data

    def check(self, i, report):
        obj = json.loads((self.workdir / f"cert-{i}.json").read_bytes())
        x, y, _ = self.inputs[i]
        failures = reference.check_bezout(obj, EPS)
        if not (_same_element(obj["inputs"]["x"], x) and _same_element(obj["inputs"]["y"], y)):
            failures.append("certificate inputs differ from the generated pair")
        return failures


class Verify:
    """``crossrank verify`` in-process over a seeded corpus, plus tampered
    copies that must be rejected."""

    BEZOUT_PER_ORDER = 4
    WINDING_ORDERS = (2, 3, 4, 5, 6)
    WINDING_SAMPLES = (1024, 4096)
    CONJUGATION_ORDERS = tuple(range(2, 9))
    NUDGE = 1e-3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Write the corpus and its manifest into ``workdir``."""
        out = self.workdir
        manifest = []

        def put(name, text, expect):
            (out / name).write_text(text, encoding="utf-8")
            manifest.append([name, expect])

        def bezout_obj(key, n, cap):
            rng = generator(*key)
            x = draw_element(rng, n, cap)
            y = draw_element(rng, n, cap)
            cert = elimination.bezout_certificate(x, y, EPS, rng, seed=key[-1])
            return serialize.bezout_to_obj(cert)

        def winding_obj(key, n, samples):
            obs = elimination.winding_obstruction(GroupSpec(n), 0.05, generator(*key),
                                                  samples=samples, seed=key[-1])
            return serialize.winding_to_obj(obs)

        tamper = {}
        for n, cap in Bezout.ORDERS:
            for k in range(self.BEZOUT_PER_ORDER):
                obj = bezout_obj((self.seed, 20, n, k), n, cap)
                put(f"bezout-{n}-{k}.json", serialize.dumps(obj), "accept")
                tamper.setdefault(f"bezout-{n}", obj)
        for n in self.WINDING_ORDERS:
            for samples in self.WINDING_SAMPLES:
                obj = winding_obj((self.seed, 21, n, samples), n, samples)
                put(f"winding-{n}-{samples}.json", serialize.dumps(obj), "accept")
                tamper.setdefault("winding", obj)
        for order in self.CONJUGATION_ORDERS:
            rng = generator(self.seed, 22, order)
            boost = rng.uniform(0.2, 1.2)
            p, q = rng.uniform(0.0, 2.0 * math.pi, 2)
            h = moebius.SU11Element(math.cosh(boost) * np.exp(1j * p),
                                    math.sinh(boost) * np.exp(1j * q))
            subgroup = moebius.make_finite_subgroup(order, h)
            action = moebius.rotation_action_of(subgroup)
            obj = serialize.rotation_action_to_obj(action, subgroup)
            put(f"conjugation-{order}.json", serialize.dumps(obj), "accept")
            tamper.setdefault("conjugation", obj)

        # one coefficient or stored value nudged by 1e-3: must not exit 0
        for name, obj in tamper.items():
            obj = json.loads(json.dumps(obj))
            if name.startswith("bezout"):
                obj["cofactors"]["c"]["comps"][0][0][0] += self.NUDGE
            elif name == "winding":
                obj["circle_min"] += self.NUDGE
            else:
                obj["residual"] += self.NUDGE
            put(f"nudged-{name}.json", serialize.dumps(obj), "reject")

        # NaN copies built from fixed keys, independent of the seed
        obj = bezout_obj((0, 30, 2, 0), 2, 4)
        obj["cofactors"]["c"]["comps"][0][0][0] = float("nan")
        put("nan-bezout.json", _dumps_nan(obj), "reject")
        obj = winding_obj((0, 31, 3, 1024), 3, 1024)
        obj["circle_min"] = float("nan")
        put("nan-winding.json", _dumps_nan(obj), "reject")

        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

    def prepare(self, setup_dir: Path):
        self.manifest = json.loads((setup_dir / "manifest.json").read_text())
        self.ops = [self._op(str(setup_dir / name)) for name, _ in self.manifest]
        self.files = [(setup_dir / name).read_bytes() for name, _ in self.manifest]

    @staticmethod
    def _op(path):
        def op():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(["verify", path])
        return op

    def inspect(self, i, code):
        expect = self.manifest[i][1]
        failed = (code != 0) if expect == "accept" else (code == 0)
        return failed, len(self.files[i]), str(code).encode()

    def check(self, i, code):
        name, expect = self.manifest[i]
        if expect != "accept":
            return []
        obj = json.loads(self.files[i])
        if obj["type"] == "bezout":
            return reference.check_bezout(obj)
        if obj["type"] == "winding":
            return reference.check_winding(obj)
        return reference.check_conjugation(obj)


def _dumps_nan(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


class Lift:
    """The acceptance suite's lifting inputs (criterion 5): 25 each of 3x2
    and 4x3 polynomial matrices (degree 3, scale 0.5) and of tuples for
    n = 2, 3 (degree 3), lifted at epsilon 0.1.

    These inputs do not depend on ``--seed``.  About one seeded random lift
    in a thousand fails with ``OracleFailure`` (every shape), which would
    make the failed share depend on the seed; the criterion-5 inputs are
    the fixed set the program's own tests already certify.  Each input is
    drawn from ``Philox(key=base)`` and the lift continues on that stream,
    as in the test.
    """

    PER_KIND = 25
    KINDS = (("matrix", 3, 2, 5100), ("matrix", 4, 3, 5200),
             ("tuple", 2, 0, 5400), ("tuple", 3, 0, 5450))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.items = []
        for kind, a, b, base in self.KINDS:
            for k in range(self.PER_KIND):
                rng = np.random.Generator(np.random.Philox(key=base + k))
                if kind == "matrix":
                    mat = AlgMatrix([[Poly(draw_coeffs(rng, 3, 0.5)) for _ in range(b)]
                                     for _ in range(a)])
                    elements = None
                else:
                    elements = [draw_element(rng, a, 3) for _ in range(a + 1)]
                    # the expectation matrix [E(b_j delta^k)]: entry (j, k)
                    # is component -k of b_j
                    mat = AlgMatrix([[b_j.component((a - k) % a) for k in range(a)]
                                     for b_j in elements])
                self.items.append((kind, mat, elements, rng.bit_generator.state))

    def prepare(self, setup_dir: Path):
        self.setup()
        self.ops = [self._op(*item) for item in self.items]

    @staticmethod
    def _op(kind, mat, elements, state):
        def stream():
            bits = np.random.Philox(key=0)
            bits.state = state
            return np.random.Generator(bits)

        if kind == "matrix":
            def op():
                res = liftrank.left_invertible_lift(mat, EPS, liftrank.disk_column_oracle,
                                                    stream())
                return serialize.dumps(serialize.lift_to_obj(res, mat)), None
        else:
            def op():
                tl = liftrank.lift_generating_tuple(elements, EPS, stream())
                return serialize.dumps(serialize.lift_to_obj(tl.lift, mat)), tl
        return op

    def inspect(self, i, result):
        text, tl = result
        data = text.encode("utf-8")
        if tl is not None:
            data += json.dumps([[element_obj(y) for y in tl.outputs],
                                [element_obj(w) for w in tl.witness]]).encode("utf-8")
        return False, len(text), data

    def check(self, i, result):
        text, tl = result
        kind, mat, elements, _ = self.items[i]
        obj = json.loads(text)
        if kind == "matrix":
            return reference.check_lift(obj, matrix_arrays(mat), EPS)
        n = elements[0].spec.n
        # the inner lift runs at epsilon / |v|, with |v| = n
        failures = reference.check_lift(obj, matrix_arrays(mat), EPS / n)
        failures += reference.check_tuple(
            [reference.element(element_obj(y)) for y in tl.outputs],
            [reference.element(element_obj(w)) for w in tl.witness],
            [reference.element(element_obj(b)) for b in elements], EPS)
        return failures


class Cli:
    """The command script a CI job runs, one ``crossrank`` child at a time."""

    def __init__(self, seed: int, workdir: Path, src: Path, shim: Path | None = None):
        self.seed = seed
        self.workdir = workdir
        self.src = src
        self.shim = shim
        self.max_rss_kb = 0

    def setup(self):
        s = [int(v) for v in generator(self.seed, 40).integers(0, 2**31, size=6)]
        certificates = ["c2.json", "c3.json", "w3.json", "w5.json", "w6.json", "j5.json"]
        # (argv, files written, files read); bounds reports on stdout.  The
        # two 4096-sample obstructions are the slowest commands: with two of
        # them the 90th percentile falls inside their group, not in a gap.
        self.script = [
            (["random", "--seed", str(s[0]), "--n", "2", "--degree-cap", "4", "--out", "p2"],
             ["p2-x.json", "p2-y.json"], []),
            (["random", "--seed", str(s[1]), "--n", "3", "--degree-cap", "4", "--out", "p3"],
             ["p3-x.json", "p3-y.json"], []),
            (["cert-upper", "p2-x.json", "p2-y.json", "--seed", str(s[0]),
              "--epsilon", "0.1", "--out", "c2.json"], ["c2.json"], []),
            (["cert-upper", "p3-x.json", "p3-y.json", "--seed", str(s[1]),
              "--epsilon", "0.1", "--out", "c3.json"], ["c3.json"], []),
            (["cert-lower", "--n", "3", "--samples", "1024", "--epsilon", "0.05",
              "--seed", str(s[2]), "--out", "w3.json"], ["w3.json"], []),
            (["cert-lower", "--n", "5", "--samples", "4096", "--epsilon", "0.05",
              "--seed", str(s[3]), "--out", "w5.json"], ["w5.json"], []),
            (["cert-lower", "--n", "6", "--samples", "4096", "--epsilon", "0.05",
              "--seed", str(s[4]), "--out", "w6.json"], ["w6.json"], []),
            (["random-subgroup", "--seed", str(s[5]), "--n", "5", "--out", "g5.json"],
             ["g5.json"], []),
            (["conjugate", "g5.json", "--out", "j5.json"], ["j5.json"], []),
            (["verify", *certificates], [], certificates),
            (["bounds", "--ltsr-a", "2", "--n", "3", "--matrix-size", "4", "--ltsr-b", "2"],
             [], []),
        ]

    def prepare(self, setup_dir: Path):
        self.setup()
        self.cwd = self.workdir / "cli"
        self.cwd.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.round = 0
        self.ops = [self._op(i) for i in range(len(self.script))]

    def subcommand(self, i) -> str:
        return self.script[i][0][0]

    def _op(self, i):
        argv = self.script[i][0]

        def op():
            if self.shim is None:
                cmd = [sys.executable, "-m", "crossrank.cli", *argv]
            else:
                spans = self.workdir / "spans" / f"{self.round}-{i}.jsonl"
                cmd = [sys.executable, str(self.shim), str(spans), *argv]
            with open(self.cwd / f"stdout-{i}", "wb") as out, \
                    open(self.cwd / f"stderr-{i}", "wb") as err:
                proc = subprocess.Popen(cmd, cwd=self.cwd, env=self.env,
                                        stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            return proc.returncode
        return op

    def inspect(self, i, code):
        _, writes, reads = self.script[i]
        data = (self.cwd / f"stdout-{i}").read_bytes()
        artifact = b"".join((self.cwd / f).read_bytes() for f in writes + reads)
        if code != 0:
            sys.stderr.write((self.cwd / f"stderr-{i}").read_text(errors="replace"))
        # the artifact is what the command writes or reads, else its report
        return code != 0, len(artifact or data), data + artifact

    def check(self, i, code):
        argv, writes, _ = self.script[i]
        read = lambda f: json.loads((self.cwd / f).read_text())
        command = argv[0]
        if command == "random":
            n, cap = int(argv[4]), int(argv[6])
            failures = []
            for f in writes:
                x = reference.element(read(f))
                total = reference.norm(x)
                if (x[0] != n or max(len(c) for c in x[2]) > cap + 1
                        or not 0.4 - 1e-9 <= total <= 0.9 + 1e-9):
                    failures.append(f"{f}: n={x[0]}, norm {total:.3f}")
            return failures
        if command == "cert-upper":
            return reference.check_bezout(read(writes[0]), EPS)
        if command == "cert-lower":
            obj = read(writes[0])
            failures = reference.check_winding(obj)
            if int(obj["n"]) != int(argv[2]) or int(obj["samples"]) != int(argv[4]):
                failures.append("obstruction parameters differ from the command")
            return failures
        if command == "random-subgroup":
            obj = read(writes[0])
            g = reference.su11(obj["generator"])
            power = np.linalg.matrix_power(g, int(obj["order"]))
            if not min(np.abs(power - np.eye(2)).max(), np.abs(power + np.eye(2)).max()) < 1e-8:
                return ["generator power is not plus or minus the identity"]
            return []
        if command == "conjugate":
            return reference.check_conjugation(read(writes[0]))
        if command == "bounds":
            got = json.loads((self.cwd / f"stdout-{i}").read_text())
            want = reference.expected_bounds(2, 3, 4, 2)
            return [] if got == want else [f"bounds {got} != {want}"]
        return []


WORKLOADS = {"bezout": Bezout, "verify": Verify, "lift": Lift, "cli": Cli}
