"""Per-subsystem Lyapunov gain data and the infinite gain operator.

Each supported family admits quadratic subsystem Lyapunov functions
``V_i`` with linear internal gains: along subsystem trajectories

    d/dt V_i <= -lambda_i V_i + sum_j gamma_ij V_j + gamma_iu |u_i|^q.

The derivations here produce the sequences ``lambda_i``, ``gamma_ij``,
``gamma_iu`` as eventually periodic (or certified closed-form) rules, held
once each in a :class:`GainData` with the quadratic form of ``V_i``, which
states its own coercivity constants: a uniform bound is read off its
sequence, the band off ``gamma``.  The *gain operator* is the infinite
nonnegative matrix with entries ``psi_ij = gamma_ij / lambda_i``; the
network-level stability condition is that its l1 spectral radius is below one.

The chain and traffic derivations and the operator run on the integer form
of their tables (:mod:`sgain.seqrules`): a stored value costs int products
and one gcd, and a `Fraction` is formed only where a value leaves for a
report or the certificate layer.  Lur'e gains are floats and stay so.

The operator inherits the band and the eventual periodicity of the
coefficients, so Psi is a :class:`PeriodicRows`, and Theta = Psi^T maps an
eventually periodic :class:`PeriodicSeq` to another.  One eigen-solve of
the period symbol gives its Perron vector x.  The power table iterates
``Theta^k w`` from one positive int start vector w that x rounds to; the
weighted norms ``sup_j (Theta^k w)_j / w_j``, and hence the Gelfand upper
bounds, are exact maxima over a preamble and one cycle.  The lower bound
is the larger of two Collatz-Wielandt bounds, on the period symbol (with
x itself) and on a short leading section, exact for rational gains.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import (CannotCertifyError, DerivationError,
                     InvalidCertificateError, ParameterError, ResourceError,
                     ShapeError)
from .seqrules import (PeriodicRows, PeriodicSeq, Real, Seq, as_integer, as_rule, common_den,
                       exact_div, joint)

if TYPE_CHECKING:
    from .families import LinearChain, LureBanded, Traffic

# --------------------------------------------------------------------------
# Subsystem Lyapunov function shapes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """V_i(x_i) = x_i^T M x_i with one symmetric positive definite M
    shared across the (spatially invariant) family."""

    m: tuple

    def matrix(self) -> np.ndarray:
        return np.asarray(self.m, dtype=float)

    @functools.cached_property
    def alpha(self) -> tuple[float, float]:
        """V_i's coercivity constants ``(alpha_lo, alpha_hi)``, the extreme
        eigenvalues of M: ``alpha_lo |x_i|^2 <= V_i(x_i) <= alpha_hi |x_i|^2``."""
        eigs = np.linalg.eigvalsh(self.matrix())
        return float(eigs[0]), float(eigs[-1])


HALF_SQUARE = QuadraticForm(((0.5,),))  # V_i(x_i) = x_i^2 / 2 for scalar subsystems


# --------------------------------------------------------------------------
# Gain data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GainData:
    """Sequences (lambda_i, gamma_ij, gamma_iu) of the quadratic V_i ``vform``,
    which states V_i's coercivity constants (:attr:`QuadraticForm.alpha`).

    ``gamma`` stores row i as a map from neighbor offset j - i to
    gamma_ij, within the band ``gamma.bandwidth`` of the family.
    Uniform bounds over all i are each sequence's ``lower()`` or
    ``upper()``: exact for periodic rules, the certified declarations for
    closed-form rules.
    """

    lam: Seq
    gamma: PeriodicRows
    gamma_u: Seq
    vform: QuadraticForm
    free_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.lam, PeriodicSeq) and self.lam.min() <= 0:
            raise DerivationError("decay rates must be positive")
        if self.vform.alpha[0] <= 0:
            raise DerivationError("coercivity lower constants must be positive")

    @property
    def gamma_hi(self) -> Real:
        """Exact sup over all single internal gains gamma_ij."""
        rows = self.gamma.preamble + self.gamma.cycle
        return self.gamma.value_of(max((max(r.values()) for r in rows if r), default=0))

    @property
    def conservative(self) -> bool:
        """True when any bound rests on a closed-form declaration rather
        than an exact periodic computation."""
        return not all(isinstance(s, PeriodicSeq) for s in (self.lam, self.gamma_u))


# --------------------------------------------------------------------------
# Derivations
# --------------------------------------------------------------------------


def _as_rule(x, name: str) -> PeriodicSeq:
    if x is None:
        raise ParameterError(f"missing derivation parameter {name!r}")
    return as_rule(x, name)


def optimize_chain_free_params(fam: LinearChain) -> tuple[PeriodicSeq, PeriodicSeq]:
    """The (eps, delta) minimizing every row sum psi_(i,i-1) + psi_(i,i+1) of the
    chain derivation: ``eps_i + delta_i = b_ii / 2`` in the ratio ``|b_i(i-1)| : |b_i(i+1)|``,
    for the row sum ``(|b_i(i-1)| + |b_i(i+1)|)^2 / b_ii^2``.  The side of a zero
    coupling, whose parameter must still be positive, gets ``b_ii / 100``."""
    t = fam.block_table
    eps, delta = [], []
    for a, d, _ in t.entries(t.preamble_len + t.period):  # b_ii = -a / t.den, and so on
        bs, bp = abs(d.get(-1, 0)), abs(d.get(1, 0))
        e = (-a, 100 * t.den) if bs == 0 else (
            -49 * a, 100 * t.den) if bp == 0 else (-a * bs, 2 * t.den * (bs + bp))
        eps.append(e)
        delta.append((-a * e[1] - 2 * t.den * e[0], 2 * t.den * e[1]))  # b_ii / 2 - eps_i
    return tuple(PeriodicSeq.of_quotients(rule, t.preamble_len) for rule in (eps, delta))


def derive_gains_linear_chain(fam: LinearChain, eps=None, delta=None) -> GainData:
    """Chain gains via Young's inequality on the off-diagonal couplings.

    With V_i = x_i^2/2 the split parameters eps_i, delta_i > 0 give
    ``lambda_i = 2 (b_ii - eps_i - delta_i)``,
    ``gamma_i(i-1) = b_i(i-1)^2 / (2 eps_i)`` and
    ``gamma_i(i+1) = b_i(i+1)^2 / (2 delta_i)``.
    When eps/delta are omitted they take :func:`optimize_chain_free_params`'s split.
    """
    if eps is None and delta is None:
        eps, delta = optimize_chain_free_params(fam)
    eps_r, delta_r = _as_rule(eps, "eps"), _as_rule(delta, "delta")
    pre, per = joint(*fam.structure, eps_r, delta_r)
    n, t = pre + per, fam.block_table
    nums, q = common_den(eps_r.ratios(n) + delta_r.ratios(n))  # eps_i, delta_i over q
    lam, gamma = [], []
    for i, (a, d, _) in enumerate(t.entries(n), start=1):  # b_ii = -a / t.den, and so on
        e_i, d_i = nums[i - 1], nums[n + i - 1]
        if e_i <= 0 or d_i <= 0:
            raise ParameterError("eps and delta must be positive")
        lam_i = -2 * (a * q + (e_i + d_i) * t.den)  # over t.den q
        if lam_i <= 0:
            where = f"preamble index {i}" if i <= pre else f"residue {(i - pre - 1) % per} of the cycle"
            raise DerivationError(
                f"nonpositive decay rate 2(b_ii - eps - delta) = {lam_i / (t.den * q)} at {where}")
        lam.append((lam_i, t.den * q))
        gamma.append({off: (b * b * q, 2 * split * t.den ** 2)
                      for off, b, split in ((-1, d.get(-1), e_i), (1, d.get(1), d_i)) if b})

    return GainData(
        lam=PeriodicSeq.of_quotients(lam, pre),
        gamma=PeriodicRows.of_quotients(gamma, pre, bandwidth=fam.bandwidth),
        gamma_u=PeriodicSeq.constant(0), vform=HALF_SQUARE,
        free_params={"eps": eps_r, "delta": delta_r})


LMI_TOL = 1e-9  # relative tolerance of check_lure_lmi's largest eigenvalue


def check_lure_lmi(a, m, e, g, kappa, l, r, tau):
    """Negative-semidefiniteness test of the S-procedure block matrix.

    Returns ``(ok, worst_eigenvalue)`` for

        [[A'M + MA + kappa M - tau r l G'G,  M E + tau (r+l)/2 G'],
         [        (symmetric)             ,        -tau          ]].

    ``ok`` holds iff the largest eigenvalue is at most ``LMI_TOL (1 +
    scale)``, scale the largest entry's magnitude.  This is the S-procedure
    relaxation, with multiplier tau on the sector constraint
    ``(phi - l s)(r s - phi) >= 0``, of the decay inequality
    ``2 x'M(Ax + E phi) <= -kappa x'Mx``; ``A`` is the family's own, without
    the sector channel.
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
    tl = a.T @ m + m @ a + kappa * m - (tau * r * l) * (g.T @ g)
    tr = m @ e + tau * 0.5 * (r + l) * g.T
    block = np.block([[tl, tr], [tr.T, np.array([[-tau]])]])
    block = 0.5 * (block + block.T)
    worst = float(np.linalg.eigvalsh(block)[-1])
    scale = float(np.abs(block).max()) if block.size else 0.0
    return worst <= LMI_TOL * (1.0 + scale), worst


def derive_gains_lure(fam: LureBanded, M, kappa, eps, tau=None) -> GainData:
    """Gains for the sector-bounded family from a user-supplied certificate.

    The caller provides the quadratic-form matrix M, the decay rate kappa
    certified by :func:`check_lure_lmi` (tau 1 when None), and the Young split eps.  Its form
    ``V_i = x_i'M x_i`` states the coercivity constants ``lambda_min(M)`` and
    ``lambda_max(M)`` (:attr:`QuadraticForm.alpha`), and

        lambda_i = kappa - 2 eps,
        gamma_ij = ||sqrt(M) D_i||^2 / (lambda_min(M) eps),
        gamma_iu = ||sqrt(M) B_i||^2 / eps,

    where D_i stacks the neighbor coupling blocks and the norm is the
    largest singular value (computed from the symmetric product).
    """
    m = np.array(M, dtype=float, ndmin=2)
    kappa, eps, tau = float(kappa), float(eps), 1.0 if tau is None else float(tau)
    if m.shape != (fam.n, fam.n) or not np.allclose(m, m.T, atol=1e-12):
        raise InvalidCertificateError("M must be symmetric of the block dimension")
    vform = QuadraticForm(tuple(map(tuple, m.tolist())))
    m_lo = vform.alpha[0]
    if m_lo <= 0:
        raise InvalidCertificateError(f"M is not positive definite (lambda_min = {m_lo:.3e})")
    if eps <= 0:
        raise ParameterError("eps must be positive")
    lam = kappa - 2.0 * eps
    if lam <= 0:
        raise DerivationError(f"kappa - 2 eps = {lam} is not positive")
    b = fam.block_table.at(1)[2]
    ok, worst = check_lure_lmi(fam.a, m, fam.e, fam.g, kappa, fam.sector_l, fam.sector_r, tau)
    if not ok:
        raise DerivationError(
            f"decay-rate matrix inequality fails: largest eigenvalue {worst:.3e} > 0")

    def sq_weighted_norm(mat: np.ndarray) -> float:
        return float(np.linalg.eigvalsh(mat.T @ m @ mat)[-1]) if np.any(mat) else 0.0

    def row(i: int) -> dict:
        d = fam.block_table.at(i)[1]
        val = sq_weighted_norm(np.hstack([d[off] for off in sorted(d)])) / (m_lo * eps) if d else 0
        return {off: val for off in d}

    return GainData(
        lam=PeriodicSeq.constant(lam),
        gamma=PeriodicRows.tabulate(row, *fam.structure, bandwidth=fam.bandwidth),
        gamma_u=PeriodicSeq.constant(sq_weighted_norm(b) / eps), vform=vform,
        free_params={"kappa": kappa, "eps": eps, "tau": tau})


def derive_gains_traffic(fam: Traffic, eps=None) -> GainData:
    """Road-cell gains with V_i = x_i^2/2.

    Two Young splits (one for the neighbor inflows, one for the entry)
    give ``lambda_i = -2 (A_ii + 2 eps_i) = 2 (v_i/l_i + e_i - 2 eps_i)``,
    the aggregated neighbor gain ``gamma_ij = ||D_i||^2 / (2 eps_i)`` for
    every j in the cell's neighbor set, and ``gamma_iu = B_i^2 / (2 eps_i)``,
    all read off the cell's blocks.  eps is 1/10 when None.
    """
    eps_r = _as_rule(eps if eps is not None else "1/10", "eps")
    if eps_r.min() <= 0:
        raise ParameterError("eps must be positive")
    pre, per = joint(*fam.structure, eps_r)
    n, t = pre + per, fam.block_table

    (v_lo, l_hi, e_hi), r = common_den(x.as_integer_ratio()
                                       for x in (fam.v.min(), fam.l.max(), eps_r.max()))
    margin = v_lo * r - 2 * e_hi * l_hi  # (v_lo/l_hi - 2 sup(eps)) l_hi r
    if margin <= 0:
        raise DerivationError(
            f"uniform decay fails: v_lo/l_hi - 2 sup(eps) = {margin / (l_hi * r)} <= 0")

    nums, q = common_den(eps_r.ratios(n))  # eps_i over q
    lam, gamma, gamma_u = [], [], []
    for (a, d, b_i), e_i in zip(t.entries(n), nums):  # A_ii = a / t.den, and so on
        den = 2 * e_i * t.den ** 2  # of every neighbor's gain and the input gain
        lam.append((-2 * (a * q + 2 * e_i * t.den), t.den * q))
        gamma.append(dict.fromkeys(d, (sum(w * w for w in d.values()) * q, den)))
        gamma_u.append((b_i * b_i * q, den))

    return GainData(
        lam=PeriodicSeq.of_quotients(lam, pre),
        gamma=PeriodicRows.of_quotients(gamma, pre, bandwidth=fam.bandwidth),
        gamma_u=PeriodicSeq.of_quotients(gamma_u, pre), vform=HALF_SQUARE,
        free_params={"eps": eps_r})


def traffic_small_gain_sufficient(fam: Traffic, eps) -> float:
    """Value of the family's conservative sufficient condition
    ``2 (c v_hi)^2 / (eps_lo l_lo^2) / (v_lo/l_hi - 2 eps_hi) < 1``."""
    eps_r = _as_rule(eps, "eps")
    (c, v_hi, v_lo, l_hi, l_lo, e_hi, e_lo), q = common_den(x.as_integer_ratio() for x in (
        fam.c, fam.v.max(), fam.v.min(), fam.l.max(), fam.l.min(), eps_r.max(), eps_r.min()))
    return 2 * (c * v_hi) ** 2 * l_hi / (e_lo * l_lo ** 2 * (v_lo * q - 2 * e_hi * l_hi))


# --------------------------------------------------------------------------
# The gain operator
# --------------------------------------------------------------------------

K_MAX = 12  # default largest power k of the Gelfand upper bounds
BAND_BUDGET = 4096  # most diagonals the band of a computed power Psi^k may span
SECTION_CAP = 64  # most rows of the leading section behind the lower bound
START_SCALE, START_FLOOR = 10 ** 6, 10 ** 3  # start vector max(ceil(S x), F), x the Perron vector


def build_gain_operator(g: GainData) -> PeriodicRows:
    """The rows of Psi: each gain row divided by its decay rate, preserving
    periodicity; in integer form unless a gain is a float."""
    if not isinstance(g.lam, PeriodicSeq):
        raise CannotCertifyError(
            "decay rates are not eventually periodic; apply a rate cap first")
    pre, per = joint(0, 1, g.gamma, g.lam)
    rows, d = g.gamma.integer_form
    if d is None:  # float gains: psi_ij = gamma_ij * (1 / lambda_i)
        return PeriodicRows.tabulate(
            lambda i: {off: v * (1 / g.lam.at(i)) for off, v in g.gamma.row(i).items()},
            pre, per, bandwidth=g.gamma.bandwidth)
    # psi_ij = (v / d) / (lam / q): v / d is gamma_ij, lam / q is lambda_i
    return PeriodicRows.of_quotients(
        [{off: (v * q, d * lam) for off, v in row.items()}
         for row, (lam, q) in zip(rows.entries(pre + per), g.lam.ratios(pre + per))],
        pre, bandwidth=g.gamma.bandwidth)


def adjoint_apply(theta: PeriodicRows, v: PeriodicSeq) -> PeriodicSeq:
    """One application of Theta = Psi^T, given as ``psi.transpose()``, to v.

    (Theta v)_i = sum_j psi_ji v_j reads v on [i - m, i + m], so the image
    is periodic past ``max(v.preamble_len + m, theta.preamble_len)`` with the
    lcm of the two periods.
    """
    m = theta.bandwidth
    pre, per = joint(v.preamble_len + m, v.period, theta)
    n = pre + per
    vals = v.head(n + m)
    out = []
    for i, row in enumerate(theta.head(n)):
        acc = 0
        for off, w in row.items():
            acc += w * vals[i + off]
        out.append(acc)
    return PeriodicSeq(tuple(out[:pre]), tuple(out[pre:]))


@dataclass(frozen=True)
class PowerTable:
    """The iterates ``Theta^k w`` of ``Theta = Psi^T`` for k <= k_max from one
    positive start vector w, and the w-weighted norms
    ``||Theta^k||_w = sup_j (Theta^k w)_j / w_j`` they give.  Rational Psi runs
    on Theta's integer form: ``iterates[k]`` holds int numerators over ``d^k``."""

    start: PeriodicSeq
    d: int
    iterates: tuple[PeriodicSeq, ...]
    norms: tuple[Real, ...]


def _extreme(pairs, d: int | None, better) -> Real:
    """The largest (``better = operator.gt``) or least (``operator.lt``) of ``t / (d y)``
    over ``pairs``, the first of equals: ints compared by cross-multiplication give one
    Fraction; with d None (float Theta) each quotient is divided out by :func:`exact_div`."""
    pairs = iter(pairs)
    top, bot = next(pairs)
    if d is None:
        best = exact_div(top, bot)
        for t, y in pairs:
            if better(q := exact_div(t, y), best):
                best = q
        return best
    for t, y in pairs:
        if better(t * bot, top * y):
            top, bot = t, y
    return Fraction(top, bot * d)


def _start_vector(psi: PeriodicRows, num: list[int], den: int) -> PeriodicSeq:
    """The positive ints ``max(ceil(START_SCALE x), START_FLOOR)`` over their
    gcd, x = num / den, in the cycle's phase: entry i is ``x[(i - preamble - 1) % period]``."""
    w = [max(-(-p * START_SCALE // den), START_FLOOR) for p in num]
    g, pre, per = math.gcd(*w), psi.preamble_len, psi.period
    return PeriodicSeq.tabulate(lambda j: w[(j - pre - 1) % per] // g, pre, per)


def operator_power_column_sums(psi: PeriodicRows, k_max: int,
                               start: PeriodicSeq | None = None) -> PowerTable:
    """The power table of ``k_max`` adjoint applications from ``start``, by
    default the symbol's start vector (see :func:`spectral_bracket`); from the
    constant 1 the norms are the plain ``||Psi^k||_{1,1}``.  Column j of Psi^k
    weighted by w sums to (Theta^k w)_j, so each norm is exact and, for
    rational Psi, no entry pays a gcd (see :attr:`PeriodicRows.integer_form`).
    """
    k_max = as_integer(k_max, "k_max")
    if k_max < 0:
        raise ParameterError("power must be nonnegative")
    if k_max * psi.bandwidth > BAND_BUDGET:
        raise ResourceError(f"band of Psi^{k_max} spans {k_max * psi.bandwidth} "
                            f"diagonals, over the budget {BAND_BUDGET}")
    rows, d = psi.transpose().integer_form
    w = start or _start_vector(psi, *_perron_vector(np.array(psi.symbol(), dtype=float).T))
    if w.min() <= 0:
        raise ParameterError("the start vector must be positive")
    iterates, norms = [w], []
    for _ in range(k_max):
        iterates.append(adjoint_apply(rows, iterates[-1]))
    for k, v in enumerate(iterates):
        n, dk = v.preamble_len + v.period, None if d is None else d ** k
        norms.append(_extreme(zip(v.head(n), w.head(n)), dk, operator.gt))
    return PowerTable(start=w, d=d or 1, iterates=tuple(iterates), norms=tuple(norms))


@dataclass(frozen=True)
class SpectralBracket:
    """Two-sided evidence on the spectral radius of the gain operator.

    ``upper`` is the best Gelfand bound min_k ||Theta^k||_w^(1/k) of the
    power ``table`` (a true upper bound for every k: the w-weighted sup
    norm is equivalent to the plain one).  ``lower`` is the larger of two
    Collatz-Wielandt bounds, exact for rational gains; ``lower_from``
    names its source, ``"symbol"`` or ``"section"``.
    """

    lower: Real
    upper: Real
    k_used: int
    satisfied: bool
    lower_from: str
    table: PowerTable | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"lower": float(self.lower), "lower_from": self.lower_from,
                "upper": float(self.upper), "k_used": self.k_used,
                "satisfied": bool(self.satisfied)}


def _perron_vector(a: np.ndarray) -> tuple[list[int], int]:
    """``|x|`` for an eigenvector x of the nonnegative ``a`` at an eigenvalue
    of largest modulus r, so ``a |x| >= r |x|``; scaled to max 1 and float
    noise below 1e-12 dropped, as the binary rationals the eigensolve
    returned: int numerators over one power of two, each entry exactly."""
    vals, vecs = np.linalg.eig(a)
    x = np.abs(vecs[:, np.argmax(np.abs(vals))])
    return common_den(t.as_integer_ratio() if t >= 1e-12 else (0, 1)
                      for t in (x / x.max()).tolist())


def _collatz_wielandt(rows, v, d: int | None) -> Real:
    """``s = min (Theta v)_j / v_j`` over the rows ``(j, row)`` of Theta's
    integer form (``d`` its denominator, None for float Theta; ``j`` 0-based)
    at which ``v(j)`` is nonzero: ``Theta v >= s v`` holds there and wherever
    v is zero.  ``v(j)`` reads int numerators, whose common denominator
    cancels in the quotient."""
    return _extreme([(sum(w * v(j + o) for o, w in row.items()), y)
                     for j, row in rows if (y := v(j))], d, operator.lt)


def _certified_root(s: Real, k: int) -> float:
    """Float k-th root of s rounded up to a true upper bound, or inf when nine
    candidates fall short (``float(s)`` underflows) or s does not fit a float.
    A candidate ``a/b`` is checked against ``s = n/q`` as ``a^k q >= n b^k``."""
    try:
        n, q = s.as_integer_ratio()
        x = float(s) ** (1.0 / k)
        for _ in range(9):
            a, b = x.as_integer_ratio()
            if a ** k * q >= n * b ** k:
                return x
            x = math.nextafter(x, math.inf)
    except OverflowError:
        pass
    return math.inf


def spectral_bracket(psi: PeriodicRows, k_max: int = K_MAX) -> SpectralBracket:
    """Bracket the l1 spectral radius of the gain operator.

    One eigen-solve of the period symbol gives its Perron vector x: the
    power table starts from the positive int vector it rounds to, and the
    symbol lower bound uses x itself, as the eigensolve returned it.  The
    Gelfand estimates are exact; the k = 1 value is kept in exact
    arithmetic so that rational inputs give a rational upper bound whenever
    it is the best estimate, and higher roots are rounded up so every
    candidate is a true upper bound (a k whose root cannot be certified is
    left out).  The lower bound is the larger of the symbol and the section
    bounds.  Both apply Theta's integer form to the Perron vectors' int
    numerators over a power of two: on rational gains one Fraction per
    bound, on float gains the floats of the vectors' values, since scaling
    by a power of two commutes with rounding.  The root checks run on ints.
    """
    k_max = as_integer(k_max, "k_max")
    if k_max < 1:
        raise ParameterError("k_max must be at least 1")
    x, den = _perron_vector(np.array(psi.symbol(), dtype=float).T)
    table = operator_power_column_sums(psi, k_max, _start_vector(psi, x, den))
    norms = table.norms
    roots = [(norms[1], 1)] + [(_certified_root(norms[k], k), k) for k in range(2, k_max + 1)]
    best, best_k = min(roots, key=lambda root: root[0])  # ties keep the smaller k
    rows, d = psi.transpose().integer_form
    m, per = psi.bandwidth, psi.period
    size = min(psi.preamble_len + 2 * per, SECTION_CAP)
    v = _perron_vector(psi.section(size).T)[0]
    # Symbol: laid out in the cycle's phase, x has Theta^k x >= s^k x far out, so
    # ||Psi^k|| >= s^k: past preamble + m, Theta's cycle row r reads x at residue m + r + offset.
    symbol = _collatz_wielandt(enumerate(rows.cycle, m), lambda j: x[j % per], d)
    # Section: Psi dominates its leading sections; a short one catches an
    # isolated eigenvalue that comes from the preamble.
    section = _collatz_wielandt(enumerate(rows.head(size)), lambda j: v[j] if j < size else 0, d)
    lower, lower_from = (symbol, "symbol") if symbol >= section else (section, "section")
    return SpectralBracket(lower=lower, upper=best, k_used=best_k,
                           satisfied=bool(best < 1), lower_from=lower_from, table=table)


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

    def to_dict(self) -> dict:
        return {"ok": self.ok, "failed": list(self.failed),
                "conservative": self.conservative,
                "checks": [c.to_dict() for c in self.checks]}


def check_assumptions(g: GainData) -> AssumptionReport:
    """Evaluate the uniformity assumptions; never raises on violations."""
    a_lo, a_hi = g.vform.alpha
    lam_lo = float(g.lam.lower())
    gu_hi = float(g.gamma_u.upper())
    gnorm = float(g.gamma.sup_column_sum())
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
