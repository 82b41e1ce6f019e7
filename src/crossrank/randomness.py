"""Seeded randomness: one explicit 64-bit seed drives a counter-based
Philox stream, so every run is reproducible and parallelizable by seed.
No ambient entropy is consulted anywhere in the package."""
from __future__ import annotations

import numpy as np

from .algebra import CrossedElement, GroupSpec
from .moebius import SU11Element
from .poly import Poly

_MASK64 = (1 << 64) - 1


def seeded_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def random_poly(rng: np.random.Generator, max_degree: int, scale: float = 1.0) -> Poly:
    """Dense polynomial with coefficients uniform in a centered box."""
    size = int(max_degree) + 1
    coeffs = rng.uniform(-1.0, 1.0, size=size) + 1j * rng.uniform(-1.0, 1.0, size=size)
    return Poly(scale * coeffs)


def random_crossed(rng: np.random.Generator, spec: GroupSpec,
                   max_degree: int) -> CrossedElement:
    """Random crossed element rescaled to a summed norm uniform in [0.4, 0.9].

    Keeping norms below one keeps the elimination cascade (which squares
    magnitudes at every stage) numerically tame.
    """
    raw = CrossedElement(spec, [random_poly(rng, max_degree) for _ in range(spec.n)])
    norm = raw.l1_norm()
    if norm == 0.0:
        return raw
    return raw * (rng.uniform(0.4, 0.9) / norm)


def random_su11(rng: np.random.Generator) -> SU11Element:
    """Random hyperbolic-ish disk symmetry ``(cosh t e^{i p}, sinh t e^{i q})``
    with boost ``t`` uniform in [0.2, 1.2]."""
    t = rng.uniform(0.2, 1.2)
    p = rng.uniform(0.0, 2.0 * np.pi)
    q = rng.uniform(0.0, 2.0 * np.pi)
    return SU11Element(np.cosh(t) * np.exp(1j * p), np.sinh(t) * np.exp(1j * q))
