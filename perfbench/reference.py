"""Reference checks written from the definitions, apart from crossrank.

Everything here reads the canonical JSON objects the program writes (plain
lists of ``[re, im]`` pairs) and recomputes with NumPy alone:

* the twisted convolution ``(x*y)_g = sum_h x_h * alpha^h(y_{g-h})`` with
  ``alpha^h`` turning coefficient ``c_k`` into ``c_k * omega**(h*k)``;
* the Wiener norm ``sum |c_k|`` summed over group components or entries;
* products of polynomial matrices by ``np.convolve``;
* winding numbers of the determinant loop of the matrix embedding;
* the SU(1,1) conjugation that must make every group element diagonal.

A check returns a list of failure strings; an empty list means it passed.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

BEZOUT_TOL = 1e-6
LIFT_TOL = 1e-6
DIAGONAL_TOL = 1e-8


# -- parsing -----------------------------------------------------------------

def poly(obj) -> np.ndarray:
    """Coefficient array of a polynomial object, index = power of z."""
    return np.array([complex(float(re), float(im)) for re, im in obj],
                    dtype=complex)


def element(obj) -> tuple[int, int, list[np.ndarray]]:
    """``(n, m, comps)`` of a crossed-element object."""
    n, m = int(obj["n"]), int(obj["m"])
    comps = [poly(c) for c in obj["comps"]]
    if len(comps) != n:
        raise ValueError(f"expected {n} components, got {len(comps)}")
    return n, m, comps


def matrix(obj) -> list[list[np.ndarray]]:
    """Rows of a polynomial-matrix object."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    flat = [poly(e) for e in obj["entries"]]
    if len(flat) != rows * cols:
        raise ValueError("entry count does not match the shape")
    return [flat[r * cols:(r + 1) * cols] for r in range(rows)]


def su11(obj) -> np.ndarray:
    a = complex(*map(float, obj["a"]))
    b = complex(*map(float, obj["b"]))
    return np.array([[a, b], [b.conjugate(), a.conjugate()]], dtype=complex)


# -- polynomials and the twisted convolution ---------------------------------

def padd(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    out = np.zeros(max(len(f), len(g)), dtype=complex)
    out[:len(f)] += f
    out[:len(g)] += g
    return out


def pmul(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    if len(f) == 0 or len(g) == 0:
        return np.zeros(0, dtype=complex)
    return np.convolve(f, g)


def twist(c: np.ndarray, n: int, m: int, h: int) -> np.ndarray:
    """``alpha^h``: coefficient ``c_k`` times ``omega**(h*k)``."""
    k = np.arange(len(c))
    return c * np.exp(2j * np.pi * ((m * h * k) % n) / n)


def convolve(x, y):
    """Twisted convolution of two ``(n, m, comps)`` elements."""
    n, m, xs = x
    ny, my, ys = y
    if (n, m) != (ny, my):
        raise ValueError("elements over different groups")
    out = [np.zeros(0, dtype=complex) for _ in range(n)]
    for h in range(n):
        for j in range(n):
            out[(h + j) % n] = padd(out[(h + j) % n], pmul(xs[h], twist(ys[j], n, m, h)))
    return n, m, out


def add(x, y):
    return x[0], x[1], [padd(f, g) for f, g in zip(x[2], y[2])]


def sub(x, y):
    return x[0], x[1], [padd(f, -g) for f, g in zip(x[2], y[2])]


def unit(n: int, m: int):
    comps = [np.zeros(0, dtype=complex) for _ in range(n)]
    comps[0] = np.ones(1, dtype=complex)
    return n, m, comps


def wiener(f: np.ndarray) -> float:
    return float(np.sum(np.abs(f)))


def norm(x) -> float:
    """Summed Wiener norm of a crossed element."""
    return float(sum(wiener(c) for c in x[2]))


def matmul(a: list[list[np.ndarray]], b: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
    """Product of polynomial matrices, entries multiplied by ``np.convolve``."""
    inner = len(b)
    out = []
    for row in a:
        if len(row) != inner:
            raise ValueError("inner dimensions disagree")
        out_row = []
        for j in range(len(b[0])):
            acc = np.zeros(0, dtype=complex)
            for l in range(inner):
                acc = padd(acc, pmul(row[l], b[l][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def matrix_distance(a, b) -> float:
    return float(sum(wiener(padd(x, -y)) for ra, rb in zip(a, b) for x, y in zip(ra, rb)))


# -- certificate checks ------------------------------------------------------

def check_bezout(obj, eps: float | None = None) -> list[str]:
    """``c*a + d*b = delta^0`` to 1e-6 and ``|x-a|, |y-b| < epsilon``."""
    x = element(obj["inputs"]["x"])
    y = element(obj["inputs"]["y"])
    a = element(obj["approximants"]["a"])
    b = element(obj["approximants"]["b"])
    c = element(obj["cofactors"]["c"])
    d = element(obj["cofactors"]["d"])
    eps = float(obj["epsilon"]) if eps is None else eps
    failures = []
    residual = norm(sub(add(convolve(c, a), convolve(d, b)), unit(a[0], a[1])))
    if not residual < BEZOUT_TOL:
        failures.append(f"bezout residual {residual:.3e}")
    for name, p, q in (("x", x, a), ("y", y, b)):
        dist = norm(sub(p, q))
        if not dist < eps:
            failures.append(f"{name}-distance {dist:.3e} >= {eps}")
    return failures


def winding_of_embedding(x, samples: int) -> int:
    """Winding number of ``det pi(x)`` over ``samples`` circle points, where
    ``pi(x)`` has entry ``(h, k) = alpha^h(x_{k-h})``."""
    n, m, comps = x
    zs = np.exp(2j * np.pi * np.arange(samples) / samples)
    grid = np.empty((samples, n, n), dtype=complex)
    for h in range(n):
        for k in range(n):
            c = twist(comps[(k - h) % n], n, m, h)
            grid[:, h, k] = np.polyval(c[::-1], zs) if len(c) else 0.0
    dets = np.linalg.det(grid)
    if not np.all(np.abs(dets) > 0):
        raise ValueError("determinant loop passes through zero")
    turns = float(np.sum(np.angle(np.roll(dets, -1) / dets))) / (2 * math.pi)
    return int(round(turns))


def check_winding(obj) -> list[str]:
    """Stored and recomputed winding equal the group order."""
    x = element(obj["element"])
    n = x[0]
    failures = []
    stored = int(obj["winding"])
    if stored != n:
        failures.append(f"stored winding {stored} != n={n}")
    if any(int(w) != n for w in obj["trial_windings"]):
        failures.append("a trial winding differs from n")
    fresh = winding_of_embedding(x, int(obj["samples"]))
    if fresh != n:
        failures.append(f"recomputed winding {fresh} != n={n}")
    return failures


def check_conjugation(obj) -> list[str]:
    """``h^-1 g^k h`` is diagonal for every power of the generator, and the
    generator's conjugate rotates the disk by ``2 pi m / n`` of the derived
    spec.  (The program's conjugator satisfies ``g = h r h^-1``.)"""
    g = su11(obj["subgroup"]["generator"])
    order = int(obj["subgroup"]["order"])
    h = su11(obj["h"])
    h_inv = np.linalg.inv(h)
    failures = []
    power = np.eye(2, dtype=complex)
    for k in range(order):
        conj = h_inv @ power @ h
        off = max(abs(conj[0, 1]), abs(conj[1, 0]))
        if not off < DIAGONAL_TOL:
            failures.append(f"h^-1 g^{k} h off-diagonal {off:.3e}")
        if k == 1:
            n, m = int(obj["derived_spec"]["n"]), int(obj["derived_spec"]["m"])
            omega = cmath.exp(2j * math.pi * m / n)
            rot = conj[0, 0] / conj[1, 1]
            if not abs(rot - omega) < 1e-6:
                failures.append(f"rotation {rot:.6f} != omega {omega:.6f}")
        power = power @ g
    return failures


def check_lift(obj, source: list[list[np.ndarray]], eps: float) -> list[str]:
    """``Z X = I`` to 1e-6 and ``|X - M| < epsilon`` for a lift payload."""
    out = matrix(obj["output"])
    inv = matrix(obj["left_inverse"])
    cols = len(out[0])
    prod = matmul(inv, out)
    ident = [[np.ones(1, dtype=complex) if i == j else np.zeros(0, dtype=complex)
              for j in range(cols)] for i in range(cols)]
    failures = []
    residual = matrix_distance(prod, ident)
    if not residual < LIFT_TOL:
        failures.append(f"lift residual {residual:.3e}")
    dist = matrix_distance(out, source)
    if not dist < eps:
        failures.append(f"lift distance {dist:.3e} >= {eps}")
    return failures


def check_tuple(outputs, witness, inputs, eps: float) -> list[str]:
    """``sum_j w_j * y_j = delta^0`` to 1e-6 and ``|y_j - b_j| < epsilon``."""
    n, m = outputs[0][0], outputs[0][1]
    total = (n, m, [np.zeros(0, dtype=complex) for _ in range(n)])
    for w, y in zip(witness, outputs):
        total = add(total, convolve(w, y))
    failures = []
    residual = norm(sub(total, unit(n, m)))
    if not residual < LIFT_TOL:
        failures.append(f"witness residual {residual:.3e}")
    for j, (y, b) in enumerate(zip(outputs, inputs)):
        dist = norm(sub(y, b))
        if not dist < eps:
            failures.append(f"tuple distance {j}: {dist:.3e} >= {eps}")
    return failures


def expected_bounds(ltsr_a: int, n: int, matrix_size: int, ltsr_b: int) -> dict:
    """The integer bound formulas of the index-finite inclusion theory."""
    return {
        "ltsr_a": ltsr_a, "group_order": n, "matrix_size": matrix_size,
        "ltsr_b": ltsr_b,
        "crossed_product_bound": ltsr_a + n - 1,
        "cyclic_bound": ltsr_a + 1,
        "matrix_formula": -(-(ltsr_a - 1) // matrix_size) + 1,
        "reverse_bound": n * ltsr_b + n * n - n + 1,
    }
