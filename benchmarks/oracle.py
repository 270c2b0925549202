"""Independent float model of the gain operator Psi, used to band inputs.

The benchmark must judge the program's verdicts without asking the
program, so this module restates the paper's gain derivations for the
three certifiable families directly from a network description and its
derivation parameters, and builds the leading n-by-n truncation of

    psi_ij = gamma_ij / lambda_i

in floats.  Two numbers come out of it:

* ``lower``: the Perron root of the truncation (a dense eigensolve).
  Truncations of a nonnegative operator are monotone, so this is a lower
  bound on r(Psi); at least 1 means no certificate may be emitted.
* ``upper``: ``min_k ||Psi^k||_1^(1/k)`` for k <= 12, from column sums of
  powers over the columns whose whole k-step neighbourhood lies inside the
  truncation.  This is the program's own Gelfand bound, so a description
  with ``upper`` well below 1 must certify.

Every entry of Psi is quadratic in the coupling scale (chain off-diagonals,
traffic ``c``, Lur'e coupling blocks), so scaling the couplings by ``s``
scales both numbers by exactly ``s**2``; generators use this to hit a
target radius with one eigensolve per description.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TRUNCATION = 256
K_MAX = 12

# Traffic cell classes: neighbour offsets, exit multiplier (times e), and
# entry coefficient (times r); cells 1 and 3 are S1, the rest follow i % 8.
_TRAFFIC_CLASSES = {
    "S1": ((1,), 0), "S2": ((4,), 0), "S3": ((-4,), 0), "S4": ((-1, 4), 0),
    "S5": ((-4, 1), 1), "S6": ((1, 4), 0), "S7": ((-4, -1), 0),
    "S8": ((-1, 4), 2), "S9": ((-4, 1), 0),
}
_TRAFFIC_RESIDUE = {4: "S2", 5: "S3", 6: "S4", 1: "S5", 2: "S6", 7: "S7",
                    0: "S8", 3: "S9"}


@dataclass(frozen=True)
class Radius:
    lower: float
    upper: float

    def scaled(self, factor: float) -> "Radius":
        return Radius(self.lower * factor, self.upper * factor)


def _num(x) -> float:
    return float(Fraction(x)) if isinstance(x, str) else float(x)


def _seq(rule):
    """Index -> value for a number or a ``{"preamble", "cycle"}`` rule."""
    if not isinstance(rule, dict):
        v = _num(rule)
        return lambda i: v
    pre = [_num(v) for v in rule.get("preamble", [])]
    cyc = [_num(v) for v in rule["cycle"]]
    return lambda i: pre[i - 1] if i <= len(pre) else cyc[(i - len(pre) - 1) % len(cyc)]


def _chain_rows(coeff, derivation, n):
    diag, sub, sup = _seq(coeff["diag"]), _seq(coeff["sub"]), _seq(coeff["sup"])
    eps, delta = _num(derivation["eps"]), _num(derivation["delta"])
    for i in range(1, n + 1):
        lam = 2.0 * (diag(i) - eps - delta)
        row = {}
        if i > 1:
            row[-1] = sub(i) ** 2 / (2.0 * eps) / lam
        row[1] = sup(i) ** 2 / (2.0 * delta) / lam
        yield i, row


def _traffic_rows(coeff, derivation, n):
    v, l = _seq(coeff["v"]), _seq(coeff["l"])
    c, e, eps = _num(coeff["c"]), _num(coeff["e"]), _num(derivation["eps"])

    def flow(i):
        return v(i) / l(i)

    for i in range(1, n + 1):
        cls = "S1" if i in (1, 3) else _TRAFFIC_RESIDUE[i % 8]
        offsets, exit_mult = _TRAFFIC_CLASSES[cls]
        lam = 2.0 * (flow(i) + exit_mult * e - 2.0 * eps)
        dsq = sum((c * flow(i + off)) ** 2 for off in offsets)
        yield i, {off: dsq / (2.0 * eps) / lam for off in offsets}


def _lure_rows(coeff, derivation, n):
    m = np.asarray([[_num(x) for x in r] for r in derivation["M"]])
    kappa, eps = _num(derivation["kappa"]), _num(derivation["eps"])
    m_lo = float(np.linalg.eigvalsh(m)[0])
    lam = kappa - 2.0 * eps

    def gain(blocks):
        d = np.hstack(blocks)
        return float(np.linalg.eigvalsh(d.T @ m @ d)[-1]) / (m_lo * eps) / lam

    left = np.asarray([[_num(x) for x in r] for r in coeff["D_left"]])
    right = np.asarray([[_num(x) for x in r] for r in coeff["D_right"]])
    first, rest = gain([right]), gain([left, right])
    for i in range(1, n + 1):
        yield i, ({1: first} if i == 1 else {-1: rest, 1: rest})


_ROWS = {"linear-chain": _chain_rows, "traffic": _traffic_rows,
         "lure-banded": _lure_rows}
_BANDWIDTH = {"linear-chain": 1, "traffic": 4, "lure-banded": 1}


def psi_truncation(network: dict, derivation: dict, n: int = TRUNCATION) -> np.ndarray:
    """Dense leading n-by-n truncation of Psi for one description."""
    out = np.zeros((n, n))
    for i, row in _ROWS[network["family"]](network["coefficients"], derivation, n):
        for off, val in row.items():
            if 1 <= i + off <= n:
                out[i - 1, i + off - 1] = val
    return out


def radius(network: dict, derivation: dict, n: int = TRUNCATION) -> Radius:
    """Truncation Perron root and Gelfand bound of Psi."""
    psi = psi_truncation(network, derivation, n)
    lower = float(np.abs(np.linalg.eigvals(psi)).max())
    m = _BANDWIDTH[network["family"]]
    sums = np.ones(n)
    upper = np.inf
    for k in range(1, K_MAX + 1):
        sums = sums @ psi  # column sums of Psi^k
        inner = n - k * m
        if inner < 1:
            break
        upper = min(upper, float(sums[:inner].max()) ** (1.0 / k))
    return Radius(lower, upper)
