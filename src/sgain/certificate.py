"""Small-gain certificates and the composite Lyapunov function.

Given gain data whose operator satisfies the spectral condition, a
positive scaling vector mu with uniform bounds is constructed from a
truncated Neumann series.  For any shift above the bracket's upper bound,
the bracket's power table, iterated from one positive start vector w,
gives the vector

    eta = sum_{k=0}^{K} Theta^k w / (max w * shift^(k+1)),      Theta = Psi^T,

which is bounded below by ``w / (max w * shift)`` and, once
``Theta^(K+1) w <= shift^(K+1) w``, satisfies ``Theta eta <= shift * eta``
componentwise *exactly* (the truncated series absorbs its own remainder
with the right sign).  The series stops at the first such K + 1, which is
at most the power behind the upper bound, so it reads only iterates the
table holds.  Setting ``mu_i = eta_i / lambda_i`` then yields

    -lambda_i mu_i + sum_j mu_j gamma_ji <= -lambda_inf mu_i,
    lambda_inf = (1 - shift) * inf_i lambda_i,

which is the pointwise inequality certifying that
``V(x) = sum_i mu_i V_i(x_i)`` dissipates at rate lambda_inf;
:class:`CompositeLyapunov` is that V, with its coercivity constants and
the ISS envelope of its dissipation.  All quantities inherit the eventual
periodicity of the gain data, so the infinitely-quantified inequality
reduces to a finite scan over a horizon the inputs fix, exact (with zero
tolerance) when every number in it is rational.

Unbounded decay rates are capped: ``min(lambda_i, h)`` keeps the
dissipation inequalities, makes the rates eventually periodic and (for h
large enough) keeps the spectral condition, so a certificate for capped
rates is valid for the original ones.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (CannotCertifyError, InternalInconsistencyError,
                     ParameterError, SmallGainViolatedError)
from .gains import (K_MAX, GainData, PowerTable, SpectralBracket, adjoint_apply,
                    build_gain_operator, spectral_bracket)
from .seqrules import (IGNORED, REQUIRED, ClosedFormSeq, PeriodicSeq, Real, as_flag, as_float,
                       as_integer, as_numbers, as_text, exact_div, joint, read)

# --------------------------------------------------------------------------
# Step-5 rate capping
# --------------------------------------------------------------------------

CAP_DOUBLINGS = 40  # caps tried for unbounded decay rates: h, 2 h, ..., 2^39 h
CAP_PREAMBLE = 100_000  # most preamble entries a capped closed-form rule may take


def cap_decay_rates(g: GainData, h: Real) -> GainData:
    """Replace every decay rate by min(lambda_i, h); other data unchanged.

    The subsystem dissipation inequalities remain valid with the reduced
    rates, so any certificate for the capped data transfers to the
    original data.  Nondecreasing closed-form rules that cross h become
    exactly periodic (constant h beyond a finite preamble); any other
    closed-form rule stays aperiodic and raises :class:`CannotCertifyError`.
    """
    if h <= 0:
        raise ParameterError("rate cap h must be positive")
    lam = g.lam
    if isinstance(lam, PeriodicSeq):
        capped = lam.map(lambda v: min(v, h))
    elif lam.nondecreasing and lam.upper() > h:
        capped = _periodize_nondecreasing_cap(lam, h)
    else:
        raise CannotCertifyError("closed-form rates cap to eventually periodic ones only when "
                                 f"marked nondecreasing with sup above the cap {h}")
    return dataclasses.replace(g, lam=capped)


def _periodize_nondecreasing_cap(lam: ClosedFormSeq, h: Real) -> PeriodicSeq:
    lo, hi = 0, 1
    while lam.at(hi) < h:
        lo, hi = hi, hi * 2
        if hi > CAP_PREAMBLE:
            raise CannotCertifyError(
                f"rate rule stays below the cap {h} past index {CAP_PREAMBLE}")
    # the first index with lam >= h lies in (lo, hi]
    hi = lo + 1 + bisect.bisect_left(range(lo + 1, hi + 1), h, key=lam.at)
    preamble = tuple(lam.at(i) for i in range(1, hi))
    return PeriodicSeq(preamble, (h,))


# --------------------------------------------------------------------------
# Neumann-series vector
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaVector:
    """Truncated resolvent vector of ``terms_used + 1`` terms, K in the
    module docstring; ``worst_residual`` is ``sup_j (Theta^(K+1) w)_j /
    (shift^(K+1) w_j) - 1 <= 0``."""

    eta: PeriodicSeq
    terms_used: int
    worst_residual: float


def neumann_eta(powers: PowerTable, lam_shift: Real) -> EtaVector:
    """Partial sums of ``sum_k Theta^k w / (max w * lam_shift^(k+1))`` as a
    periodic sequence, w the table's start vector.

    The series stops at K, where K + 1 is the first power of the table with
    ``||Theta^(K+1)||_w <= lam_shift^(K+1)``, compared exactly: that is
    ``Theta^(K+1) w <= lam_shift^(K+1) w`` componentwise, which gives
    ``Theta eta <= lam_shift * eta``.  ``Theta^k w`` is periodic past the
    preamble of the k-th iterate, so eta is periodic past that of the K-th.
    A float shift adds ``coef * (x_k / d^k)`` for the int numerators ``x_k``
    of rational Psi (int division rounds correctly, as ``float(Fraction)``
    does); a rational one keeps eta exact.
    """
    if lam_shift <= 0:
        raise ParameterError("lam_shift must be positive")
    shift = Fraction(lam_shift)
    norms = powers.norms
    close = next((k for k in range(1, len(norms)) if norms[k] <= shift ** k), None)
    if close is None:
        raise CannotCertifyError(
            f"no power with ||Theta^k||_w <= {float(lam_shift):g}^k for "
            f"k <= {len(norms) - 1}; small-gain condition not established")

    iterates, d, top = powers.iterates[:close], powers.d, powers.start.max()
    pre_len, period = iterates[-1].preamble_len, iterates[-1].period
    n = pre_len + period
    inv = exact_div(1, lam_shift)
    coef = exact_div(inv, top)
    eta = [coef * x for x in iterates[0].head(n)]
    for k, v in enumerate(iterates[1:], start=1):
        coef, dk = coef * inv, d ** k
        for i, x in enumerate(v.head(n)):
            eta[i] += coef * (x / dk if isinstance(coef, float) else exact_div(x, dk))
    return EtaVector(eta=PeriodicSeq(tuple(eta[:pre_len]), tuple(eta[pre_len:])),
                     terms_used=close - 1,
                     worst_residual=float(norms[close] / shift ** close) - 1.0)


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
    scan: CertificateReport | None = field(default=None, compare=False)

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


# A certificate as ``SmallGainCertificate.to_dict`` writes it; a file written
# before ``lower_from`` was reported reads ``"section"``, and its retired
# ``n_used`` and ``lower_converged`` are accepted and not read.
_MU = {**dict.fromkeys(("preamble", "period"),
                       (lambda x, path: as_numbers(x, path, item=as_float), REQUIRED)),
       "mu_lo": (as_float, REQUIRED), "mu_hi": (as_float, REQUIRED)}
_BRACKET = {"lower": (as_float, REQUIRED), "upper": (as_float, REQUIRED),
            "k_used": (as_integer, REQUIRED), "satisfied": (as_flag, REQUIRED),
            "lower_from": (lambda x, path: as_text(x, path, ("symbol", "section")), "section"),
            "n_used": (None, IGNORED), "lower_converged": (None, IGNORED)}
_CERTIFICATE = {**dict.fromkeys(("r_tilde", "lambda_inf", "rho"), (as_float, REQUIRED)),
                "mu": (lambda x, path: read(x, _MU, path), REQUIRED),
                "bracket": (lambda x, path: read(x, _BRACKET, path), REQUIRED),
                "h_cap": (as_float, None), "schema": (None, IGNORED)}


def certificate_from_dict(obj: dict) -> SmallGainCertificate:
    """Read back ``SmallGainCertificate.to_dict``, every number as a float: the
    object, or the ``certificate`` entry of a report that holds one."""
    path = "certificate" if "certificate" in obj else ""
    c = read(obj.get("certificate", obj), _CERTIFICATE, path)
    mu = c["mu"]
    return SmallGainCertificate(mu=PeriodicSeq(mu["preamble"], mu["period"]), mu_lo=mu["mu_lo"],
                                mu_hi=mu["mu_hi"], lambda_inf=c["lambda_inf"],
                                r_tilde=c["r_tilde"], rho=c["rho"],
                                bracket=SpectralBracket(**c["bracket"]), h_cap=c["h_cap"])


@dataclass(frozen=True)
class CertificateReport:
    """Result of the pointwise scan of the scaling inequality."""

    ok: bool
    worst_margin: float
    worst_index: int
    n_checked: int
    tol: float
    exhaustive: bool


def verify_certificate(cert: SmallGainCertificate, g: GainData) -> CertificateReport:
    """Scan ``-lambda_i mu_i + sum_j mu_j gamma_ji + lambda_inf mu_i <= tol``.

    The horizon covers every preamble, two full combined periods, and a
    bandwidth margin; when rates, gains and mu are all eventually
    periodic this finite scan certifies the inequality for every index.
    ``tol`` is 0 when every margin is exact (int or Fraction data), else
    ``1e-9 (1 + scale)``.  The scan also fails unless mu is positive and
    within the certificate's bounds, ``0 < mu_lo <= mu_i <= mu_hi``, which
    the coercivity of V rests on, and unless ``lambda_inf > 0``: a
    certificate that claims no decay certifies nothing.  Violations are
    reported, never raised.
    """
    lam_periodic = isinstance(g.lam, PeriodicSeq)
    pre, per = joint(0, 1, cert.mu, g.gamma, *[g.lam] * lam_periodic)
    horizon = pre + 2 * per + g.gamma.bandwidth

    mu = cert.mu.head(horizon)
    lam = g.lam.head(horizon) if lam_periodic else [g.lam.at(i) for i in range(1, horizon + 1)]
    incoming = adjoint_apply(g.gamma.transpose(), cert.mu).head(horizon)
    worst, worst_i = -math.inf, 0
    top, exact = -math.inf, True
    scale = 0.0
    for i, (mu_i, lam_i, in_i) in enumerate(zip(mu, lam, incoming), start=1):
        term = lam_i * mu_i
        margin = -term + in_i + cert.lambda_inf * mu_i
        exact = exact and isinstance(margin, (int, Fraction))
        top = max(top, margin)
        scale = max(scale, abs(float(term)))
        if (f := float(margin)) > worst:
            worst, worst_i = f, i
    tol = 0.0 if exact else 1e-9 * (1.0 + scale)
    sound = cert.lambda_inf > 0 and 0 < cert.mu_lo <= cert.mu.min() and cert.mu.max() <= cert.mu_hi
    return CertificateReport(ok=sound and bool(top <= 0 if exact else worst <= tol),
                             worst_margin=worst, worst_index=worst_i,
                             n_checked=horizon, tol=tol, exhaustive=lam_periodic)


def build_certificate(g: GainData, bracket: SpectralBracket,
                      rho: Real | None = None) -> SmallGainCertificate:
    """Construct and verify the scaling vector for bounded-rate gain data.

    The contraction factor is placed a tenth of the way from the bracket
    upper bound to one, pulled closer when a smaller slack ``rho`` is
    requested, so that ``lambda_inf = (1 - r_tilde) inf lambda_i``
    respects ``lambda_inf >= (1 - upper) inf lambda_i - rho``.  The series
    runs on the bracket's power table, so ``bracket`` comes from
    :func:`spectral_bracket` on the operator of ``g``.  The certificate is
    scanned pointwise before being returned, and carries that scan as
    ``scan``; an emitted certificate is therefore always verified.
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
    if bracket.table is None:
        raise ParameterError("the bracket carries no power table; use spectral_bracket")
    lam_lo = g.lam.min()
    upper = bracket.upper
    if rho is None:
        rho = exact_div((1 - upper) * lam_lo, 10)
    if rho <= 0:
        raise ParameterError("slack rho must be positive")
    r_tilde = upper + min(exact_div(1 - upper, 10), exact_div(rho, lam_lo))
    lam_inf = (1 - r_tilde) * lam_lo

    # r_tilde >= upper >= ||Theta^k_used||_w^(1/k_used): the series closes by k_used.
    eta = neumann_eta(bracket.table, r_tilde).eta
    mu = PeriodicSeq.tabulate(lambda i: exact_div(eta.at(i), g.lam.at(i)),
                              *joint(0, 1, eta, g.lam))
    cert = SmallGainCertificate(mu=mu, mu_lo=mu.min(), mu_hi=mu.max(),
                                lambda_inf=lam_inf, r_tilde=r_tilde, rho=rho,
                                bracket=bracket)
    report = verify_certificate(cert, g)
    if not report.ok:
        raise InternalInconsistencyError(
            f"freshly built certificate failed its scan: margin "
            f"{report.worst_margin:g} at index {report.worst_index}")
    return dataclasses.replace(cert, scan=report)


def certify(g: GainData, *, rho: Real | None = None, k_max: int = K_MAX):
    """End-to-end certification: bracket the spectral radius, cap rates
    when they are unbounded, and build a verified certificate.

    Returns ``(certificate, gain data actually certified)``; the bracket is
    the certificate's.  Raises :class:`SmallGainViolatedError` when the bracket
    refutes or fails to establish the condition for bounded rates, and
    :class:`CannotCertifyError` when no cap in the doubling schedule
    certifies.  Caps double from ``2 max(1, ceil(inf lambda))`` (from the midpoint
    of inf and sup if a nondecreasing rule's sup is not above it), below the sup.
    """
    caps = [None]  # bounded rates: no cap
    if not isinstance(g.lam, PeriodicSeq):
        lam_lo = g.lam.lower()
        if lam_lo <= 0:
            raise CannotCertifyError("no uniform positive decay rate")
        lam_hi = g.lam.upper()
        h = 2 * max(1, math.ceil(float(lam_lo)))
        if g.lam.nondecreasing and h >= lam_hi:
            h = exact_div(lam_lo + lam_hi, 2)
        caps = [h * 2 ** j for j in range(CAP_DOUBLINGS)]
        caps = [c for c in caps if c < lam_hi] or caps[:1]  # a cap >= sup stays aperiodic
    for h in caps:
        gh = g if h is None else cap_decay_rates(g, h)
        bracket = spectral_bracket(build_gain_operator(gh), k_max=k_max)
        if h is None or bracket.satisfied:
            return dataclasses.replace(build_certificate(gh, bracket, rho), h_cap=h), gh
    exc = CannotCertifyError("no cap in the doubling schedule satisfied the small-gain "
                             f"condition (last upper {float(bracket.upper):g})")
    exc.bracket = bracket
    raise exc


# --------------------------------------------------------------------------
# Composite Lyapunov function
# --------------------------------------------------------------------------


class CompositeLyapunov:
    """V(x) = sum_i mu_i V_i(x_i) with its coercivity constants, and the
    exponential envelope its dissipation inequality gives.

    Coercivity: ``mu_lo alpha_lo |x|_2^2 <= V(x) <= mu_hi alpha_hi |x|_2^2``,
    with ``(alpha_lo, alpha_hi)`` the form's own (:attr:`QuadraticForm.alpha`).
    Dissipation: ``D+ V <= -lambda_inf V + mu_hi sup gamma_iu |u|_{2,inf}^2``.
    For any 0 < eps < lambda_inf this gives ``V(t) <= exp(-eps t) V(0) +
    chi(||u||)`` with ``chi(r) = mu_hi sup gamma_iu r^2 / (lambda_inf - eps)``,
    and the norm-level estimate with prefactor ``(2 alpha_hi mu_hi /
    (alpha_lo mu_lo))^(1/2)`` and gain ``(2 chi(r)/(alpha_lo mu_lo))^(1/2)``.
    """

    def __init__(self, cert: SmallGainCertificate, gains: GainData):
        self.cert = cert
        self.gains = gains
        alpha_lo, alpha_hi = gains.vform.alpha
        self.coercivity_lo = cert.mu_lo * alpha_lo
        self.coercivity_hi = cert.mu_hi * alpha_hi
        self.input_coefficient = cert.mu_hi * gains.gamma_u.upper()

    def chi(self, u_norm: float, eps: float) -> float:
        """The input gain of the envelope for a margin eps in (0, lambda_inf)."""
        lam_inf, eps = float(self.cert.lambda_inf), float(eps)
        if not 0 < eps < lam_inf:
            raise ParameterError(f"eps must lie in (0, {lam_inf:g}), got {eps:g}")
        return float(self.input_coefficient) / (lam_inf - eps) * float(u_norm) ** 2.0

    def envelope_v(self, t, v0: float, u_norm: float, eps: float):
        return np.exp(-float(eps) * np.asarray(t, dtype=float)) * v0 + self.chi(u_norm, eps)

    def envelope_norm(self, t, x0_norm: float, u_norm: float, eps: float):
        lo = float(self.coercivity_lo)
        pref = (2.0 * float(self.coercivity_hi) / lo) ** 0.5
        gain = (2.0 * self.chi(u_norm, eps) / lo) ** 0.5
        return pref * np.exp(-float(eps) * np.asarray(t, dtype=float) / 2.0) * x0_norm + gain
