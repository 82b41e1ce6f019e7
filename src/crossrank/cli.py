"""Command-line front end for batch and CI use.

Subcommands generate certificates, re-verify stored ones, evaluate the
integer bound formulas, conjugate finite symmetry groups into rotations,
and produce reproducible random inputs.  Exit codes form the contract:
0 verified, 1 malformed input, 2 mathematical failure.  A certificate
command writes its payload, then exits as ``verify`` would on that file.
Standard output carries file paths (or the report for ``bounds``);
standard error carries human-readable diagnostics.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import serialize
from .algebra import GroupSpec
from .bounds import stable_rank_bounds
from .elimination import bezout_certificate, winding_obstruction
from .errors import ToolkitError
from .moebius import make_finite_subgroup, rotation_action_of
from .randomness import random_crossed, random_su11, seeded_generator

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_MATH = 2


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as malformed input rather than exiting 2, which
    the contract reserves for mathematical failures."""

    def error(self, message):
        raise ValueError(message)


def _checked(convert, accept, message):
    """An argparse ``type`` that converts its text, then rejects values
    ``accept`` refuses; argparse names ``convert`` when conversion fails."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(message)
        return value
    parse.__name__ = convert.__name__
    return parse


def _verify_file(path) -> int:
    """Re-verify the certificate stored at ``path``, reporting each failure
    as ``path: failure`` on standard error."""
    report = serialize.verify_obj(serialize.read_file(path))
    for failure in report.failures:
        print(f"{path}: {failure}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_MATH


def _write_verified(path, obj) -> int:
    """Write a certificate payload and exit as ``verify`` would on the file
    written, printing its path when it verifies."""
    out = serialize.write_file(path, obj)
    code = _verify_file(out)
    if code == EXIT_OK:
        print(out)
    return code


def _cmd_cert_upper(args) -> int:
    x = serialize.crossed_from_obj(serialize.read_file(args.x))
    y = serialize.crossed_from_obj(serialize.read_file(args.y))
    if x.spec != y.spec:
        raise ValueError(f"input group specs disagree: {x.spec} vs {y.spec}")
    rng = seeded_generator(args.seed)
    cert = bezout_certificate(x, y, args.epsilon, rng, seed=args.seed)
    return _write_verified(args.out, serialize.bezout_to_obj(cert))


def _cmd_cert_lower(args) -> int:
    spec = GroupSpec(args.n, args.m)
    rng = seeded_generator(args.seed)
    obs = winding_obstruction(spec, args.epsilon, rng, samples=args.samples,
                              seed=args.seed)
    return _write_verified(args.out, serialize.winding_to_obj(obs))


def _cmd_verify(args) -> int:
    return max([_verify_file(path) for path in args.certificate])


def _cmd_bounds(args) -> int:
    report = stable_rank_bounds(args.ltsr_a, group_order=args.n,
                                matrix_size=args.matrix_size, ltsr_b=args.ltsr_b)
    print(serialize.dumps(dataclasses.asdict(report)), end="")
    return EXIT_OK


def _cmd_conjugate(args) -> int:
    subgroup = serialize.subgroup_from_obj(serialize.read_file(args.subgroup))
    action = rotation_action_of(subgroup)
    return _write_verified(args.out, serialize.rotation_action_to_obj(action, subgroup))


def _cmd_random(args) -> int:
    spec = GroupSpec(args.n, args.m)
    rng = seeded_generator(args.seed)
    stem = Path(args.out)
    paths = []
    for tag in ("x", "y"):
        element = random_crossed(rng, spec, args.degree_cap)
        paths.append(serialize.write_file(
            stem.with_name(stem.name + f"-{tag}.json"),
            serialize.crossed_to_obj(element)))
    for p in paths:
        print(p)
    return EXIT_OK


def _cmd_random_subgroup(args) -> int:
    rng = seeded_generator(args.seed)
    subgroup = make_finite_subgroup(args.n, random_su11(rng), args.m)
    out = serialize.write_file(args.out, serialize.subgroup_to_obj(subgroup))
    print(out)
    return EXIT_OK


def _add_common(parser, *, group=False, epsilon=None, samples=False,
                degree_cap=False):
    parser.add_argument("--seed", default=0,
                        type=_checked(int, lambda v: 0 <= v < 1 << 64,
                                      "seed must lie in [0, 2^64)"),
                        help="64-bit seed for the counter-based generator")
    if group:
        parser.add_argument("--n", type=int, default=2, help="group order")
        parser.add_argument("--m", type=int, default=1,
                            help="primitive-root selector, coprime to n")
    if epsilon is not None:
        parser.add_argument("--epsilon", default=epsilon,
                            type=_checked(float, lambda v: v > 0,
                                          "epsilon must be positive"),
                            help="accuracy / perturbation margin")
    if samples:
        parser.add_argument("--samples", default=1024,
                            type=_checked(int, lambda v: v >= 64 and not v & (v - 1),
                                          "samples must be a power of two, at least 64"),
                            help="circle sample count (power of two, >= 64)")
    if degree_cap:
        parser.add_argument("--degree-cap", dest="degree_cap", default=4,
                            type=_checked(int, lambda v: v >= 0,
                                          "degree cap must be nonnegative"),
                            help="maximum component degree for random elements")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared by
    every later call in the process, so that repeated ``main`` calls pay
    only for parsing.  Callers must not mutate it (``add_argument``,
    ``set_defaults`` and the like), since the change would reach them all.
    """
    parser = _Parser(
        prog="crossrank",
        description="stable-rank certificates for crossed products of the "
                    "polynomial disk algebra")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cert-upper",
                       help="Bezout certificate that a pair generates")
    p.add_argument("x", help="JSON file with the first element")
    p.add_argument("y", help="JSON file with the second element")
    _add_common(p, epsilon=0.1)
    p.add_argument("--out", required=True, help="certificate output path")
    p.set_defaults(func=_cmd_cert_upper)

    p = sub.add_parser("cert-lower",
                       help="winding obstruction against single generators")
    _add_common(p, group=True, epsilon=0.05, samples=True)
    p.add_argument("--out", required=True, help="obstruction output path")
    p.set_defaults(func=_cmd_cert_lower)

    p = sub.add_parser("verify", help="re-verify stored certificates")
    p.add_argument("certificate", nargs="+", help="certificate JSON files")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="integer stable-rank bound formulas")
    p.add_argument("--ltsr-a", dest="ltsr_a", type=int, required=True,
                   help="stable rank of the base algebra")
    p.add_argument("--n", type=int, default=None, help="group order / index size")
    p.add_argument("--matrix-size", dest="matrix_size", type=int, default=None)
    p.add_argument("--ltsr-b", dest="ltsr_b", type=int, default=None,
                   help="stable rank of the larger algebra (reverse bound)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("conjugate",
                       help="conjugate a finite subgroup into rotations")
    p.add_argument("subgroup", help="subgroup JSON file")
    p.add_argument("--out", required=True, help="conjugation output path")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("random", help="write a reproducible random element pair")
    _add_common(p, group=True, degree_cap=True)
    p.add_argument("--out", required=True,
                   help="output stem; writes <stem>-x.json and <stem>-y.json")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("random-subgroup",
                       help="write a reproducible random conjugated subgroup "
                            "of order --n")
    _add_common(p, group=True)
    p.add_argument("--out", required=True, help="subgroup output path")
    p.set_defaults(func=_cmd_random_subgroup)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (json.JSONDecodeError, OSError, KeyError, TypeError, ValueError,
            MemoryError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
