"""Small-gain certificates and the composite Lyapunov function.

Given gain data whose operator satisfies the spectral condition, a
positive scaling vector mu with uniform bounds is constructed from a
truncated Neumann series.  For any shift strictly above the spectral
radius (witnessed through a Gelfand norm estimate), the vector

    eta = sum_{k=0}^{K} Theta^k 1 / shift^(k+1),      Theta = Psi^T,

is bounded below by 1/shift and, once K is large enough that
``||Theta^(K+1)|| <= shift^(K+1)``, satisfies ``Theta eta <= shift * eta``
componentwise *exactly* (the truncated series absorbs its own remainder
with the right sign).  Setting ``mu_i = eta_i / lambda_i`` then yields

    -lambda_i mu_i + sum_j mu_j gamma_ji <= -lambda_inf mu_i,
    lambda_inf = (1 - shift) * inf_i lambda_i,

which is the pointwise inequality certifying that
``V(x) = sum_i mu_i V_i(x_i)`` dissipates at rate lambda_inf.  All
quantities inherit the eventual periodicity of the gain data, so the
infinitely-quantified inequality reduces to a finite, exact scan.

Unbounded decay-rate rules are handled by capping: rates are replaced by
``min(lambda_i, h)``, which preserves the dissipation inequalities,
makes the rates eventually periodic, and (for h large enough) keeps the
spectral condition intact.  A certificate built against capped rates is
automatically valid for the original ones.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (CannotCertifyError, InternalInconsistencyError,
                     ParameterError, ShapeError, SmallGainViolatedError)
from .gains import (GainData, GainOperator, SpectralBracket, adjoint_apply,
                    build_gain_operator, operator_power_column_sums,
                    spectral_bracket)
from .network import TruncatedNetwork
from .seqrules import ClosedFormSeq, PeriodicSeq, Real, as_number, exact_div

# --------------------------------------------------------------------------
# Step-5 rate capping
# --------------------------------------------------------------------------


def cap_decay_rates(g: GainData, h: Real) -> GainData:
    """Replace every decay rate by min(lambda_i, h); other data unchanged.

    The subsystem dissipation inequalities remain valid with the reduced
    rates, so any certificate for the capped data transfers to the
    original data.  Nondecreasing closed-form rules that cross h become
    exactly periodic (constant h beyond a finite preamble).
    """
    if h <= 0:
        raise ParameterError("rate cap h must be positive")
    lam = g.lam
    if isinstance(lam, PeriodicSeq):
        capped: PeriodicSeq | ClosedFormSeq = lam.map(lambda v: min(v, h))
    elif lam.nondecreasing:
        if lam.upper() <= h:
            capped = lam  # cap inactive, rule unchanged
        else:
            capped = _periodize_nondecreasing_cap(lam, h)
    else:
        fn = lam.fn
        capped = ClosedFormSeq(fn=lambda i: min(fn(i), h),
                               inf=min(lam.inf, h), sup=min(lam.sup, h),
                               nondecreasing=False, label=f"min({lam.label}, h)")
    return dataclasses.replace(g, lam=capped)


def _periodize_nondecreasing_cap(lam: ClosedFormSeq, h: Real,
                                 max_preamble: int = 100_000) -> PeriodicSeq:
    if lam.at(1) >= h:
        return PeriodicSeq((), (h,))
    lo, hi = 1, 2
    while lam.at(hi) < h:
        lo, hi = hi, hi * 2
        if hi > max_preamble:
            raise CannotCertifyError(
                f"rate rule stays below the cap {h} past index {max_preamble}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lam.at(mid) < h:
            lo = mid
        else:
            hi = mid
    preamble = tuple(lam.at(i) for i in range(1, hi))
    return PeriodicSeq(preamble, (h,))


# --------------------------------------------------------------------------
# Neumann-series vector
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaVector:
    """Truncated resolvent vector with a certified geometric tail bound."""

    lam_shift: Real
    eta: PeriodicSeq
    terms_used: int
    witness_order: int
    tail_bound: float
    worst_residual: float
    checked_len: int


def neumann_eta(op: GainOperator, lam_shift: Real, terms: int = 60,
                k_max: int = 16) -> EtaVector:
    """Partial sums of ``sum_k Theta^k 1 / lam_shift^(k+1)`` on the band.

    The witness order m0, the first k <= ``k_max`` with ``||Theta^k|| <
    lam_shift^k``, certifies geometric decay of the series blocks and hence
    the tail bound.  The series stops at a multiple of m0, where its last
    iterate shows ``Theta eta <= lam_shift * eta`` componentwise exactly.
    """
    if lam_shift <= 0:
        raise ParameterError("lam_shift must be positive")
    norms = operator_power_column_sums(op, k_max)
    m0 = next((k for k in range(1, k_max + 1) if norms[k] < lam_shift ** k), None)
    if m0 is None:
        raise CannotCertifyError(
            f"no Gelfand witness ||Theta^k||^(1/k) < {float(lam_shift):g} "
            f"for k <= {k_max}; small-gain condition not established")

    # Stop the series at a multiple of the witness order: submultiplicativity
    # gives ||Theta^(a m0)|| <= ||Theta^m0||^a < shift^(a m0), so the exact
    # check of the last iterate below closes there.
    k_eff = max(1, math.ceil((int(terms) + 1) / m0)) * m0 - 1
    op.require_band(k_eff + 1)

    m, period = op.bandwidth, op.period
    pre_len = op.preamble_len + k_eff * m
    checked = pre_len + 2 * period
    horizon = max(checked, pre_len + m + period)  # also the Gelfand horizon of Theta^(k_eff+1)

    inv = exact_div(1, lam_shift)
    v = [1] * (horizon + (k_eff + 1) * m)
    coef = inv
    eta = [coef] * checked
    for _ in range(k_eff):
        v = adjoint_apply(op, v, len(v) - m)
        coef = coef * inv
        for i in range(checked):
            eta[i] += coef * v[i]
    v = adjoint_apply(op, v, len(v) - m)  # Theta^(k_eff + 1) 1
    shift_pow = lam_shift ** (k_eff + 1)
    top = max(v)
    worst = float(exact_div(top, shift_pow)) - 1.0
    if top > shift_pow:
        raise InternalInconsistencyError(
            f"series residual positive ({worst:g}) despite the witness")

    eta_seq = PeriodicSeq(tuple(eta[:pre_len]), tuple(eta[pre_len:pre_len + period]))
    for offset in range(period):  # repetition across the next cycle, exact for rationals
        a, b = eta[pre_len + offset], eta[pre_len + period + offset]
        if a != b and (not isinstance(a, float) or abs(a - b) > 1e-12 * max(1.0, abs(a))):
            raise InternalInconsistencyError("eta lost its periodic structure")

    w = float(norms[m0]) / float(lam_shift) ** m0
    c_blocks = max(float(norms[b]) / float(lam_shift) ** b for b in range(m0))
    tail = (c_blocks * m0 / float(lam_shift)) * w ** ((k_eff + 1) // m0) / (1.0 - w)
    return EtaVector(lam_shift=lam_shift, eta=eta_seq, terms_used=k_eff,
                     witness_order=m0, tail_bound=tail, worst_residual=worst,
                     checked_len=checked)


# --------------------------------------------------------------------------
# Certificates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallGainCertificate:
    """Scaling vector and decay rate for the composite Lyapunov function."""

    mu: PeriodicSeq
    mu_lo: Real
    mu_hi: Real
    lambda_inf: Real
    r_tilde: Real
    rho: Real
    bracket: SpectralBracket
    h_cap: Real | None = None
    eta: EtaVector | None = None

    def to_dict(self) -> dict:
        return {
            "schema": "sgain/1",
            "r_tilde": float(self.r_tilde),
            "lambda_inf": float(self.lambda_inf),
            "rho": float(self.rho),
            "mu": {"preamble": [float(v) for v in self.mu.preamble],
                   "period": [float(v) for v in self.mu.cycle],
                   "mu_lo": float(self.mu_lo), "mu_hi": float(self.mu_hi)},
            "bracket": self.bracket.to_dict(),
            "h_cap": None if self.h_cap is None else float(self.h_cap),
        }


def certificate_from_dict(obj: dict) -> SmallGainCertificate:
    """Read back ``SmallGainCertificate.to_dict``, every number as a float."""
    def num(v):
        return float(as_number(v))

    try:
        mu, br = obj["mu"], obj["bracket"]
        return SmallGainCertificate(
            mu=PeriodicSeq(tuple(map(num, mu["preamble"])), tuple(map(num, mu["period"]))),
            mu_lo=num(mu["mu_lo"]), mu_hi=num(mu["mu_hi"]),
            lambda_inf=num(obj["lambda_inf"]), r_tilde=num(obj["r_tilde"]),
            rho=num(obj["rho"]),
            bracket=SpectralBracket(lower=num(br["lower"]), upper=num(br["upper"]),
                                    k_used=br["k_used"], satisfied=br["satisfied"],
                                    lower_from=br.get("lower_from", "section")),
            h_cap=None if obj.get("h_cap") is None else num(obj["h_cap"]))
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed certificate: {exc}") from None


@dataclass(frozen=True)
class CertificateReport:
    """Result of the pointwise scan of the scaling inequality."""

    ok: bool
    worst_margin: float
    worst_index: int
    n_checked: int
    tol: float
    exhaustive: bool

    def to_dict(self) -> dict:
        return {"ok": self.ok, "worst_margin": self.worst_margin,
                "worst_index": self.worst_index, "n_checked": self.n_checked,
                "tol": self.tol, "exhaustive": self.exhaustive}


def verify_certificate(cert: SmallGainCertificate, g: GainData,
                       check_horizon: int = 0) -> CertificateReport:
    """Scan ``-lambda_i mu_i + sum_j mu_j gamma_ji + lambda_inf mu_i <= tol``.

    The horizon covers every preamble, two full combined periods, and a
    bandwidth margin; when rates, gains and mu are all eventually
    periodic this finite scan certifies the inequality for every index.
    Violations are reported, never raised.
    """
    lam_periodic = isinstance(g.lam, PeriodicSeq)
    periods = [cert.mu.period, g.gamma.period] + ([g.lam.period] if lam_periodic else [])
    p_hat = math.lcm(*periods)
    base = max(cert.mu.preamble_len, g.gamma.preamble_len,
               g.lam.preamble_len if lam_periodic else 0)
    horizon = base + 2 * p_hat + g.bandwidth + max(0, int(check_horizon))

    worst, worst_i = -math.inf, 0
    scale = 0.0
    for i in range(1, horizon + 1):
        mu_i = cert.mu.at(i)
        term = g.lam.at(i) * mu_i
        incoming = sum(cert.mu.at(j) * v for j, v in g.gamma.column(i).items())
        margin = float(-term + incoming + cert.lambda_inf * mu_i)
        scale = max(scale, abs(float(term)))
        if margin > worst:
            worst, worst_i = margin, i
    tol = 1e-9 * (1.0 + scale)
    return CertificateReport(ok=worst <= tol, worst_margin=worst,
                             worst_index=worst_i, n_checked=horizon, tol=tol,
                             exhaustive=lam_periodic)


def build_certificate(g: GainData, bracket: SpectralBracket, rho: Real | None = None,
                      *, terms: int = 60) -> SmallGainCertificate:
    """Construct and verify the scaling vector for bounded-rate gain data.

    The contraction factor is placed a tenth of the way from the bracket
    upper bound to one, pulled closer when a smaller slack ``rho`` is
    requested, so that ``lambda_inf = (1 - r_tilde) inf lambda_i``
    respects ``lambda_inf >= (1 - upper) inf lambda_i - rho``.  The
    certificate is scanned pointwise before being returned; an emitted
    certificate is therefore always verified.
    """
    if not bracket.satisfied:
        exc = SmallGainViolatedError(
            f"spectral bracket [{float(bracket.lower):g}, {float(bracket.upper):g}] "
            "does not establish r < 1")
        exc.bracket = bracket
        raise exc
    if not isinstance(g.lam, PeriodicSeq):
        raise CannotCertifyError(
            "decay rates are not eventually periodic; apply cap_decay_rates first")
    lam_lo = g.lam.min()
    upper = bracket.upper
    if rho is None:
        rho = exact_div((1 - upper) * lam_lo, 10)
    if rho <= 0:
        raise ParameterError("slack rho must be positive")
    r_tilde = upper + min(exact_div(1 - upper, 10), exact_div(rho, lam_lo))
    lam_inf = (1 - r_tilde) * lam_lo

    op = build_gain_operator(g)
    # r_tilde > upper >= ||Psi^k_used||^(1/k_used): a witness order exists up to k_used.
    eta_vec = neumann_eta(op, r_tilde, terms=terms, k_max=bracket.k_used)

    pre = max(eta_vec.eta.preamble_len, g.lam.preamble_len)
    period = math.lcm(eta_vec.eta.period, g.lam.period)
    mu_vals = [exact_div(eta_vec.eta.at(i), g.lam.at(i)) for i in range(1, pre + period + 1)]
    mu = PeriodicSeq(tuple(mu_vals[:pre]), tuple(mu_vals[pre:]))
    cert = SmallGainCertificate(mu=mu, mu_lo=mu.min(), mu_hi=mu.max(),
                                lambda_inf=lam_inf, r_tilde=r_tilde, rho=rho,
                                bracket=bracket, eta=eta_vec)
    report = verify_certificate(cert, g)
    if not report.ok:
        raise InternalInconsistencyError(
            f"freshly built certificate failed its scan: margin "
            f"{report.worst_margin:g} at index {report.worst_index}")
    return cert


def certify(g: GainData, *, rho: Real | None = None, k_max: int = 12,
            terms: int = 60, h_start: Real | None = None,
            h_doublings: int = 40):
    """End-to-end certification: bracket the spectral radius, cap rates
    when they are unbounded, and build a verified certificate.

    Returns ``(certificate, gain data actually certified, operator,
    bracket)``.  Raises :class:`SmallGainViolatedError` when the bracket
    refutes or fails to establish the condition for bounded rates, and
    :class:`CannotCertifyError` when no cap in the doubling schedule
    certifies.
    """
    if isinstance(g.lam, PeriodicSeq):
        op = build_gain_operator(g)
        bracket = spectral_bracket(op, k_max=k_max)
        cert = build_certificate(g, bracket, rho, terms=terms)
        return cert, g, op, bracket
    lam_lo = g.lam.lower()
    if lam_lo <= 0:
        raise CannotCertifyError("no uniform positive decay rate")
    h = h_start if h_start is not None else 2 * max(1, math.ceil(float(lam_lo)))
    last = None
    for _ in range(max(1, int(h_doublings))):
        gh = cap_decay_rates(g, h)
        if not isinstance(gh.lam, PeriodicSeq):
            raise CannotCertifyError(
                "capped rates are still aperiodic (rule not marked nondecreasing)")
        op = build_gain_operator(gh)
        bracket = spectral_bracket(op, k_max=k_max)
        if bracket.satisfied:
            cert = build_certificate(gh, bracket, rho, terms=terms)
            return dataclasses.replace(cert, h_cap=h), gh, op, bracket
        last = bracket
        h = h * 2
    exc = CannotCertifyError(
        "no cap in the doubling schedule satisfied the small-gain condition"
        + (f" (last upper {float(last.upper):g})" if last else ""))
    exc.bracket = last
    raise exc


# --------------------------------------------------------------------------
# Composite Lyapunov function
# --------------------------------------------------------------------------


class CompositeLyapunov:
    """V(x) = sum_i mu_i V_i(x_i) with exact coercivity constants.

    Coercivity: ``mu_lo alpha_lo |x|_p^p <= V(x) <= mu_hi alpha_hi |x|_p^p``.
    Dissipation: ``D+ V <= -lambda_inf V + mu_hi gamma_u_hi |u|_{q,inf}^q``.
    """

    def __init__(self, cert: SmallGainCertificate, gains: GainData):
        self.cert = cert
        self.gains = gains
        self.coercivity_lo = cert.mu_lo * gains.alpha_lo_bound
        self.coercivity_hi = cert.mu_hi * gains.alpha_hi_bound
        self.input_coefficient = cert.mu_hi * gains.gamma_u_hi
        self.lambda_inf = cert.lambda_inf
        self.p = gains.p
        self.q = gains.q

    def bind(self, net: TruncatedNetwork) -> "BoundLyapunov":
        return BoundLyapunov(self, net)


class BoundLyapunov:
    """V restricted to one truncation, evaluated as one quadratic form."""

    def __init__(self, lyap: CompositeLyapunov, net: TruncatedNetwork):
        self.lyap = lyap
        self.net = net
        blocks = []
        for i in range(1, net.n_subsystems + 1):
            mu_i = float(lyap.cert.mu.at(i))
            blocks.append(mu_i * lyap.gains.vform.matrix(i))
        self._q = sp.block_diag(blocks, format="csr")

    def value(self, x: np.ndarray) -> float:
        return float(self.values(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def values(self, states: np.ndarray) -> np.ndarray:
        """V of every row of ``states``, as one row-wise quadratic form."""
        if states.shape[-1] != self.net.dim:
            raise ShapeError(f"state has dimension {states.shape[-1]}, "
                             f"network needs {self.net.dim}")
        return np.einsum("ij,ij->i", states, (self._q @ states.T).T)


def assemble_lyapunov(cert: SmallGainCertificate, g: GainData) -> CompositeLyapunov:
    return CompositeLyapunov(cert, g)


@dataclass(frozen=True)
class TrajectoryBound:
    """Exponential envelope from the dissipation inequality.

    For any 0 < eps < lambda_inf the value function obeys
    ``V(t) <= exp(-eps t) V(0) + chi(||u||)`` with
    ``chi(r) = mu_hi gamma_u_hi r^q / (lambda_inf - eps)``, which yields
    the norm-level estimate with prefactor ``(2 alpha_hi mu_hi /
    (alpha_lo mu_lo))^(1/p)`` and gain ``(2 chi(r)/(alpha_lo mu_lo))^(1/p)``.
    """

    eps: float
    lambda_inf: float
    chi_coef: float
    q: float
    p: float
    omega_lo: float
    omega_hi: float

    def chi(self, u_norm: float) -> float:
        return self.chi_coef * float(u_norm) ** self.q

    def envelope_v(self, t, v0: float, u_norm: float):
        return np.exp(-self.eps * np.asarray(t, dtype=float)) * v0 + self.chi(u_norm)

    def envelope_norm(self, t, x0_norm: float, u_norm: float):
        pref = (2.0 * self.omega_hi / self.omega_lo) ** (1.0 / self.p)
        gain = (2.0 * self.chi(u_norm) / self.omega_lo) ** (1.0 / self.p)
        decay = np.exp(-self.eps * np.asarray(t, dtype=float) / self.p)
        return pref * decay * x0_norm + gain


def iss_trajectory_bound(lyap: CompositeLyapunov, eps: float) -> TrajectoryBound:
    """Envelope descriptor for a chosen margin eps in (0, lambda_inf)."""
    lam_inf = float(lyap.lambda_inf)
    eps = float(eps)
    if not 0 < eps < lam_inf:
        raise ParameterError(f"eps must lie in (0, {lam_inf:g}), got {eps:g}")
    return TrajectoryBound(
        eps=eps, lambda_inf=lam_inf,
        chi_coef=float(lyap.input_coefficient) / (lam_inf - eps),
        q=float(lyap.q), p=float(lyap.p),
        omega_lo=float(lyap.coercivity_lo), omega_hi=float(lyap.coercivity_hi))
