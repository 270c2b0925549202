"""Per-subsystem Lyapunov gain data and the infinite gain operator.

Each supported family admits quadratic subsystem Lyapunov functions
``V_i`` with linear internal gains: along subsystem trajectories

    d/dt V_i <= -lambda_i V_i + sum_j gamma_ij V_j + gamma_iu |u_i|^q.

The derivations here produce the sequences ``lambda_i``, ``gamma_ij``,
``gamma_iu`` together with the coercivity constants of ``V_i``, all as
eventually periodic (or certified closed-form) rules.  The *gain
operator* is the infinite nonnegative matrix with entries
``psi_ij = gamma_ij / lambda_i``; the network-level stability condition
is that its l1 spectral radius lies below one.

Because the operator inherits the band and the eventual periodicity of
the coefficients, its column sums, the column sums of all its powers,
and hence the Gelfand upper bounds ``||Psi^k||^(1/k)`` are computed
exactly on a finite window.  The lower bound is the larger of two
Collatz-Wielandt bounds, on the period symbol and on a short leading
section, exact for rational gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import (CannotCertifyError, DerivationError,
                     InvalidCertificateError, ParameterError, ResourceError,
                     ShapeError)
from .seqrules import (PeriodicRows, PeriodicSeq, Real, Seq, as_number,
                       exact_div)

if TYPE_CHECKING:
    from .network import NetworkGenerator

# --------------------------------------------------------------------------
# Subsystem Lyapunov function shapes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """V_i(x_i) = x_i^T M x_i with one symmetric positive definite M
    shared across the (spatially invariant) family."""

    m: tuple

    def matrix(self, i: int) -> np.ndarray:
        return np.asarray(self.m, dtype=float)


HALF_SQUARE = QuadraticForm(((0.5,),))  # V_i(x_i) = x_i^2 / 2 for scalar subsystems


# --------------------------------------------------------------------------
# Gain data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GainData:
    """Sequences (lambda_i, gamma_ij, gamma_iu, alpha bounds) plus exponents.

    ``gamma`` stores row i as a map from neighbor offset j - i to
    gamma_ij; rows and rates share the band structure of the generator.
    Uniform bounds over all i are exact for periodic rules and fall back
    to the certified declarations for closed-form rules.
    """

    lam: Seq
    gamma: PeriodicRows
    gamma_u: Seq
    alpha_lo: Seq
    alpha_hi: Seq
    p: Real
    q: Real
    bandwidth: int
    vform: QuadraticForm
    free_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.lam, PeriodicSeq) and self.lam.min() <= 0:
            raise DerivationError("decay rates must be positive")
        if self.alpha_lo.lower() <= 0:
            raise DerivationError("coercivity lower constants must be positive")

    @property
    def lam_lo(self) -> Real:
        return self.lam.lower()

    @property
    def lam_hi(self) -> Real:
        return self.lam.upper()

    @property
    def gamma_u_hi(self) -> Real:
        return self.gamma_u.upper()

    @property
    def gamma_hi(self) -> Real:
        """Exact sup over all single internal gains gamma_ij."""
        rows = self.gamma.preamble + self.gamma.cycle
        return max((max(r.values()) for r in rows if r), default=0)

    @property
    def alpha_lo_bound(self) -> Real:
        return self.alpha_lo.lower()

    @property
    def alpha_hi_bound(self) -> Real:
        return self.alpha_hi.upper()

    @property
    def conservative(self) -> bool:
        """True when any bound rests on a closed-form declaration rather
        than an exact periodic computation."""
        return not all(isinstance(s, PeriodicSeq)
                       for s in (self.lam, self.gamma_u, self.alpha_lo, self.alpha_hi))


def gamma_norm(g: GainData) -> Real:
    """Exact ``sup_j sum_i gamma_ij`` (the l1 operator norm of Gamma)."""
    return g.gamma.sup_column_sum()


# --------------------------------------------------------------------------
# Derivations
# --------------------------------------------------------------------------


def _as_rule(x, name: str) -> PeriodicSeq:
    if x is None:
        raise ParameterError(f"missing derivation parameter {name!r}")
    if isinstance(x, PeriodicSeq):
        return x
    return PeriodicSeq.constant(as_number(x))


def _require_quadratic_exponents(gen: NetworkGenerator) -> None:
    if gen.p != 2 or gen.q != 2:
        raise ParameterError(
            "quadratic-form derivations provide gain data for p = q = 2; "
            f"the generator declares p = {gen.p}, q = {gen.q}")


def optimize_chain_free_params(gen: NetworkGenerator, grid: int = 24):
    """Grid-search constant (eps, delta) minimizing the worst interior
    column criterion psi_(i,i-1) + psi_(i,i+1) of the chain derivation."""
    fam = gen.family
    pre, per = fam.structure
    idx = range(1, pre + per + 1)
    b_lo = float(fam.diag.min())
    best, best_val = None, math.inf
    fracs = [b_lo * (k + 1) / (2.0 * (grid + 1)) for k in range(grid)]
    for e in fracs:
        for d in fracs:
            worst = 0.0
            ok = True
            for i in idx:
                bd, bs, bp = (float(v) for v in fam.coefficients(i))
                lam = 2.0 * (bd - e - d)
                if lam <= 0:
                    ok = False
                    break
                worst = max(worst, (bs * bs / (2 * e) + bp * bp / (2 * d)) / lam)
            if ok and worst < best_val:
                best, best_val = (e, d), worst
    if best is None:
        raise DerivationError("no feasible (eps, delta) on the search grid")
    return best


def derive_gains_linear_chain(gen: NetworkGenerator, eps=None, delta=None) -> GainData:
    """Chain gains via Young's inequality on the off-diagonal couplings.

    With V_i = x_i^2/2 the split parameters eps_i, delta_i > 0 give
    ``lambda_i = 2 (b_ii - eps_i - delta_i)``,
    ``gamma_i(i-1) = b_i(i-1)^2 / (2 eps_i)`` and
    ``gamma_i(i+1) = b_i(i+1)^2 / (2 delta_i)``.
    When eps/delta are omitted they are chosen by a coarse grid search.
    """
    fam = gen.family
    _require_quadratic_exponents(gen)
    if eps is None and delta is None:
        eps, delta = optimize_chain_free_params(gen)
    eps_r, delta_r = _as_rule(eps, "eps"), _as_rule(delta, "delta")
    pre, per = fam.structure
    pre = max(pre, eps_r.preamble_len, delta_r.preamble_len)
    per = math.lcm(per, eps_r.period, delta_r.period)

    lam_vals, rows = [], []
    for i in range(1, pre + per + 1):
        bd, bs, bp = fam.coefficients(i)
        e_i, d_i = eps_r.at(i), delta_r.at(i)
        if e_i <= 0 or d_i <= 0:
            raise ParameterError("eps and delta must be positive")
        lam_i = 2 * (bd - e_i - d_i)
        if lam_i <= 0:
            where = f"preamble index {i}" if i <= pre else f"residue {(i - pre - 1) % per} of the cycle"
            raise DerivationError(
                f"nonpositive decay rate 2(b_ii - eps - delta) = {float(lam_i)} at {where}")
        lam_vals.append(lam_i)
        row = {}
        if bs != 0:
            row[-1] = exact_div(bs * bs, 2 * e_i)
        if bp != 0:
            row[1] = exact_div(bp * bp, 2 * d_i)
        rows.append(row)

    return GainData(
        lam=PeriodicSeq(tuple(lam_vals[:pre]), tuple(lam_vals[pre:])),
        gamma=PeriodicRows(tuple(rows[:pre]), tuple(rows[pre:]), bandwidth=1),
        gamma_u=PeriodicSeq.constant(0),
        alpha_lo=PeriodicSeq.constant(Fraction(1, 2)),
        alpha_hi=PeriodicSeq.constant(Fraction(1, 2)),
        p=2, q=2, bandwidth=1, vform=HALF_SQUARE,
        free_params={"eps": eps_r, "delta": delta_r})


def check_lure_lmi(a, m, e, g, kappa, l, r, tau, tol: float = 1e-9):
    """Negative-semidefiniteness test of the S-procedure block matrix.

    Returns ``(ok, worst_eigenvalue)`` for

        [[A'M + MA + kappa M - r l G'G,  M E + tau (r+l)/2 G'],
         [      (symmetric)           ,        -tau          ]].

    ``ok`` holds iff the largest eigenvalue stays below a scale-aware
    tolerance.  With tau = 1 this is the standard S-procedure relaxation
    of the sector-constrained decay inequality.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m = np.atleast_2d(np.asarray(m, dtype=float))
    n = a.shape[0]
    e = np.asarray(e, dtype=float).reshape(-1, 1)
    g = np.asarray(g, dtype=float).reshape(1, -1)
    if a.shape != (n, n) or m.shape != (n, n):
        raise ShapeError("A and M must be square of equal size")
    if e.shape[0] != n or g.shape[1] != n:
        raise ShapeError("E and G must match the block dimension")
    if tau < 0:
        raise ParameterError("the S-procedure multiplier tau must be nonnegative")
    kappa, l, r, tau = float(kappa), float(l), float(r), float(tau)
    tl = a.T @ m + m @ a + kappa * m - (r * l) * (g.T @ g)
    tr = m @ e + tau * 0.5 * (r + l) * g.T
    block = np.block([[tl, tr], [tr.T, np.array([[-tau]])]])
    block = 0.5 * (block + block.T)
    worst = float(np.linalg.eigvalsh(block)[-1])
    scale = float(np.abs(block).max()) if block.size else 0.0
    return worst <= tol * (1.0 + scale), worst


def derive_gains_lure(gen: NetworkGenerator, m_matrix, kappa, eps, tau=1.0) -> GainData:
    """Gains for the sector-bounded family from a user-supplied certificate.

    The caller provides the quadratic-form matrix M, the decay rate kappa
    certified by :func:`check_lure_lmi`, and the Young split eps.  Then

        alpha_lo = lambda_min(M), alpha_hi = lambda_max(M),
        lambda_i = kappa - 2 eps,
        gamma_ij = ||sqrt(M) D_i||^2 / (lambda_min(M) eps),
        gamma_iu = ||sqrt(M) B_i||^2 / eps,

    where D_i stacks the neighbor coupling blocks and the norm is the
    largest singular value (computed from the symmetric product).
    """
    fam = gen.family
    _require_quadratic_exponents(gen)
    try:
        m = np.atleast_2d(np.asarray(m_matrix, dtype=float))
        kappa, eps, tau = float(kappa), float(eps), float(tau)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"malformed Lur'e derivation parameter: {exc}") from None
    if m.shape != (fam.n, fam.n) or not np.allclose(m, m.T, atol=1e-12):
        raise InvalidCertificateError("M must be symmetric of the block dimension")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] <= 0:
        raise InvalidCertificateError(f"M is not positive definite (lambda_min = {eigs[0]:.3e})")
    m_lo, m_hi = float(eigs[0]), float(eigs[-1])
    if eps <= 0:
        raise ParameterError("eps must be positive")
    lam = kappa - 2.0 * eps
    if lam <= 0:
        raise DerivationError(f"kappa - 2 eps = {lam} is not positive")
    a, _, b = fam.blocks(1)
    ok, worst = check_lure_lmi(a, m, fam.e, fam.g, kappa, fam.sector_l, fam.sector_r, tau)
    if not ok:
        raise DerivationError(
            f"decay-rate matrix inequality fails: largest eigenvalue {worst:.3e} > 0")

    def sq_weighted_norm(mat: np.ndarray) -> float:
        if mat.size == 0 or not np.any(mat):
            return 0.0
        return float(np.linalg.eigvalsh(mat.T @ m @ mat)[-1])

    gamma_u = sq_weighted_norm(b) / eps
    rows = []
    for i in (1, 2):
        d = fam.blocks(i)[1]
        val = sq_weighted_norm(np.hstack([d[off] for off in sorted(d)])) / (m_lo * eps) if d else 0
        rows.append({off: val for off in d})
    return GainData(
        lam=PeriodicSeq.constant(lam),
        gamma=PeriodicRows((rows[0],), (rows[1],), bandwidth=1),
        gamma_u=PeriodicSeq.constant(gamma_u),
        alpha_lo=PeriodicSeq.constant(m_lo),
        alpha_hi=PeriodicSeq.constant(m_hi),
        p=2, q=2, bandwidth=1, vform=QuadraticForm(tuple(map(tuple, m.tolist()))),
        free_params={"kappa": kappa, "eps": eps, "tau": tau})


def derive_gains_traffic(gen: NetworkGenerator, eps=None) -> GainData:
    """Road-cell gains with V_i = x_i^2/2.

    Two Young splits (one for the neighbor inflows, one for the entry)
    give ``lambda_i = 2 (v_i/l_i + e_i - 2 eps_i)``, the aggregated
    neighbor gain ``gamma_ij = ||D_i||^2 / (2 eps_i)`` for every j in the
    cell's neighbor set, and ``gamma_iu = B_i^2 / (2 eps_i)``.
    """
    fam = gen.family
    _require_quadratic_exponents(gen)
    eps_r = _as_rule(eps if eps is not None else Fraction(1, 10), "eps")
    if eps_r.min() <= 0:
        raise ParameterError("eps must be positive")
    pre, per = fam.structure
    pre = max(pre, eps_r.preamble_len)
    per = math.lcm(per, eps_r.period)

    flow_lo = exact_div(fam.v.min(), fam.l.max())
    if flow_lo - 2 * eps_r.max() <= 0:
        raise DerivationError(
            "uniform decay fails: v_lo/l_hi - 2 sup(eps) = "
            f"{float(flow_lo - 2 * eps_r.max())} <= 0")

    lam_vals, rows, gu_vals = [], [], []
    for i in range(1, pre + per + 1):
        _, e_i, d, b_i = fam.cell(i)
        eps_i = eps_r.at(i)
        lam_vals.append(2 * (fam.flow(i) + e_i - 2 * eps_i))
        dsq = sum(w * w for w in d.values())
        rows.append({off: exact_div(dsq, 2 * eps_i) for off in d})
        gu_vals.append(exact_div(b_i * b_i, 2 * eps_i))

    return GainData(
        lam=PeriodicSeq(tuple(lam_vals[:pre]), tuple(lam_vals[pre:])),
        gamma=PeriodicRows(tuple(rows[:pre]), tuple(rows[pre:]), bandwidth=4),
        gamma_u=PeriodicSeq(tuple(gu_vals[:pre]), tuple(gu_vals[pre:])),
        alpha_lo=PeriodicSeq.constant(Fraction(1, 2)),
        alpha_hi=PeriodicSeq.constant(Fraction(1, 2)),
        p=2, q=2, bandwidth=4, vform=HALF_SQUARE,
        free_params={"eps": eps_r})


def traffic_small_gain_sufficient(gen: NetworkGenerator, eps) -> float:
    """Value of the family's conservative sufficient condition
    ``2 (c v_hi)^2 / (eps_lo l_lo^2) / (v_lo/l_hi - 2 eps_hi) < 1``."""
    fam = gen.family
    eps_r = _as_rule(eps, "eps")
    num = exact_div(2 * (fam.c * fam.v.max()) ** 2, eps_r.min() * fam.l.min() ** 2)
    den = exact_div(fam.v.min(), fam.l.max()) - 2 * eps_r.max()
    return float(exact_div(num, den))


# --------------------------------------------------------------------------
# The gain operator
# --------------------------------------------------------------------------

BAND_BUDGET = 4096  # most diagonals the band of a computed power Psi^k may span
SECTION_CAP = 64  # most rows of the leading section behind the lower bound


@dataclass(frozen=True)
class GainOperator:
    """Banded nonnegative infinite matrix psi_ij = gamma_ij / lambda_i."""

    rows: PeriodicRows

    @property
    def bandwidth(self) -> int:
        return self.rows.bandwidth

    @property
    def preamble_len(self) -> int:
        return self.rows.preamble_len

    @property
    def period(self) -> int:
        return self.rows.period

    def norm_1(self) -> Real:
        """Exact ||Psi||_{1,1} = sup_j sum_i psi_ij."""
        return self.rows.sup_column_sum()

    def require_band(self, k: int) -> None:
        """Refuse a computation with Psi^k when its band exceeds BAND_BUDGET."""
        if k * self.bandwidth > BAND_BUDGET:
            raise ResourceError(f"band of Psi^{k} spans {k * self.bandwidth} diagonals, "
                                f"over the budget {BAND_BUDGET}")

    def truncation(self, n: int) -> np.ndarray:
        """Dense leading n-by-n principal submatrix (float entries)."""
        out = np.zeros((n, n))
        for i in range(1, n + 1):
            for off, v in self.rows.row(i).items():
                j = i + off
                if 1 <= j <= n:
                    out[i - 1, j - 1] = float(v)
        return out


def build_gain_operator(g: GainData) -> GainOperator:
    """Divide each gain row by its decay rate, preserving periodicity."""
    if not isinstance(g.lam, PeriodicSeq):
        raise CannotCertifyError(
            "decay rates are not eventually periodic; apply a rate cap first")
    pre = max(g.gamma.preamble_len, g.lam.preamble_len)
    per = math.lcm(g.gamma.period, g.lam.period)
    rows = g.gamma.realign(pre, per)
    psi = rows.scale_rows(lambda i: exact_div(1, g.lam.at(i)))
    return GainOperator(rows=psi)


def adjoint_apply(op: GainOperator, v: list, out_len: int) -> list:
    """One application of Theta = Psi^T to the leading window of v.

    (Theta v)_i = sum_j psi_ji v_j needs v on [i - m, i + m]; the output
    is therefore valid on a window m shorter than the input.
    """
    if out_len + op.bandwidth > len(v):
        raise ParameterError("window too short for one adjoint application")
    out = []
    for i in range(1, out_len + 1):
        acc = 0
        for j, w in op.rows.column(i).items():
            acc += w * v[j - 1]
        out.append(acc)
    return out


def operator_power_column_sums(op: GainOperator, k_max: int) -> tuple[Real, ...]:
    """Exact ``(||Psi^0||_{1,1}, ..., ||Psi^k_max||_{1,1})`` from one run of
    ``k_max`` adjoint applications.

    Column j of Psi^k sums to (Theta^k 1)_j; the vector Theta^k 1 is
    eventually periodic with preamble ``preamble + k m``, so its supremum
    is the maximum over its first ``preamble + k m + period`` entries, all
    valid in a starting window of ``preamble + 2 k_max m + period``.
    """
    if k_max < 0:
        raise ParameterError("power must be nonnegative")
    op.require_band(k_max)
    m = op.bandwidth
    v = [1] * (op.preamble_len + 2 * k_max * m + op.period)
    norms = [1]
    for k in range(1, k_max + 1):
        v = adjoint_apply(op, v, len(v) - m)
        norms.append(max(v[:op.preamble_len + k * m + op.period]))
    return tuple(norms)


@dataclass(frozen=True)
class SpectralBracket:
    """Two-sided evidence on the spectral radius of the gain operator.

    ``upper`` is the best Gelfand bound min_k ||Psi^k||^(1/k) (a true
    upper bound for every k).  ``lower`` is the larger of two
    Collatz-Wielandt bounds, exact for rational gains; ``lower_from``
    names its source, ``"symbol"`` or ``"section"``.
    """

    lower: Real
    upper: Real
    k_used: int
    satisfied: bool
    lower_from: str

    def to_dict(self) -> dict:
        return {"lower": float(self.lower), "lower_from": self.lower_from,
                "upper": float(self.upper), "k_used": self.k_used,
                "satisfied": bool(self.satisfied)}


def _perron_vector(a: np.ndarray) -> list[Fraction]:
    """``|x|`` for an eigenvector x of the nonnegative ``a`` at an eigenvalue
    of largest modulus r, so ``a |x| >= r |x|``; scaled to max 1, float noise
    below 1e-12 dropped and the rest rounded to rationals (relative 1e-12)."""
    vals, vecs = np.linalg.eig(a)
    x = np.abs(vecs[:, np.argmax(np.abs(vals))])
    return [Fraction(t).limit_denominator(10 ** 12) if t >= 1e-12 else Fraction(0)
            for t in (x / x.max()).tolist()]


def _collatz_wielandt(op: GainOperator, v: list, first: int, count: int) -> Real:
    """``s = min (Theta v)_j / v_j`` over the support of ``v`` in entries first + 1
    to first + count, so that ``Theta v >= s v`` holds there (and off the support)."""
    theta = adjoint_apply(op, v, first + count)
    return min(t / x for t, x in zip(theta[first:], v[first:first + count]) if x)


def _certified_root(s: Real, k: int) -> float:
    """Float k-th root of s rounded up to a true upper bound, or inf when nine
    candidates fall short (``float(s)`` underflows) or s does not fit a float."""
    try:
        x = float(s) ** (1.0 / k)
        for _ in range(9):
            if Fraction(x) ** k >= s:
                return x
            x = math.nextafter(x, math.inf)
    except OverflowError:
        pass
    return math.inf


def spectral_bracket(op: GainOperator, k_max: int = 12) -> SpectralBracket:
    """Bracket the l1 spectral radius of the gain operator.

    The Gelfand estimates are exact column-sum computations; the k = 1
    value is kept in exact arithmetic so that rational inputs give a
    rational upper bound whenever the plain norm is already the best
    estimate, and higher roots are rounded up so every candidate is a
    true upper bound (a k whose root cannot be certified is left out).
    The lower bound is the larger of the symbol and the section bounds.
    """
    if k_max < 1:
        raise ParameterError("k_max must be at least 1")
    norms = operator_power_column_sums(op, k_max)
    best, best_k = norms[1], 1
    for k in range(2, k_max + 1):
        est = _certified_root(norms[k], k)
        if est < best:
            best, best_k = est, k
    pre, m, per = op.preamble_len, op.bandwidth, op.period
    # Symbol: w periodic past the preamble with Phi(1)^T w >= s w has Theta^k w
    # >= s^k w far out, so ||Psi^k|| >= s^k; past preamble + m, Theta w = Phi(1)^T w.
    w = _perron_vector(np.array(op.rows.symbol(), dtype=float).T)
    v = [w[(j - pre - 1) % per] for j in range(1, pre + 2 * m + per + 1)]
    symbol = _collatz_wielandt(op, v, pre + m, per)
    # Section: Psi dominates its leading sections; a short one catches an
    # isolated eigenvalue that comes from the preamble.
    v = _perron_vector(op.truncation(min(pre + 2 * per, SECTION_CAP)).T)
    section = _collatz_wielandt(op, v + [0] * m, 0, len(v))
    lower, lower_from = (symbol, "symbol") if symbol >= section else (section, "section")
    return SpectralBracket(lower=lower, upper=best, k_used=best_k,
                           satisfied=bool(best < 1), lower_from=lower_from)


# --------------------------------------------------------------------------
# Assumption checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    ok: bool
    value: float
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "value": None if math.isinf(self.value) else self.value,
                "detail": self.detail}


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts for the four uniformity requirements on the gain data:
    coercivity bounds, uniform decay, uniform input gain, and a finite
    Gamma column-sum norm."""

    checks: tuple[AssumptionCheck, ...]
    conservative: bool

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.ok)

    @property
    def first_failed(self) -> str | None:
        return self.failed[0] if self.failed else None

    def to_dict(self) -> dict:
        return {"ok": self.ok, "failed": list(self.failed),
                "conservative": self.conservative,
                "checks": [c.to_dict() for c in self.checks]}


def check_assumptions(g: GainData) -> AssumptionReport:
    """Evaluate the uniformity assumptions; never raises on violations."""
    a_lo, a_hi = float(g.alpha_lo_bound), float(g.alpha_hi_bound)
    lam_lo = float(g.lam_lo)
    gu_hi = float(g.gamma_u_hi)
    gnorm = float(gamma_norm(g))
    checks = (
        AssumptionCheck("alpha", 0 < a_lo <= a_hi < math.inf, a_lo,
                        f"coercivity constants within [{a_lo:g}, {a_hi:g}]"),
        AssumptionCheck("lambda_lo", lam_lo > 0, lam_lo,
                        f"uniform decay rate inf lambda_i = {lam_lo:g}"),
        AssumptionCheck("gamma_u", gu_hi < math.inf, gu_hi,
                        f"uniform input gain sup gamma_iu = {gu_hi:g}"),
        AssumptionCheck("gamma_norm", gnorm < math.inf, gnorm,
                        f"sup of Gamma column sums = {gnorm:g}"),
    )
    return AssumptionReport(checks=checks, conservative=g.conservative)
