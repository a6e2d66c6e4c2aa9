"""Mellin-transform delay analysis for the secure downlink queue.

Arrival and service processes are characterised by Mellin transforms in the
exponential (SNR) domain; the steady-state kernel

    K(s, T) = [M_psi(1-s)]^T / (1 - M_zeta(1+s) * M_psi(1-s))

upper-bounds the delay-violation probability at horizon T, and the window
determinacy is the difference of the two clamped kernel infima.

The service transform reduces to the double integral H(s) over the Eve and
user SNR densities; it is evaluated by tensor-product Gauss-Legendre
quadrature after substituting both variables onto the unit interval, with
order doubling until the requested tolerance is met.  Only the exp tensor
depends on s, so each rung of the doubling costs one exp and one
matrix-vector pair.  Of the rest, the order x order log ratio, the nodes
and the weights depend only on (lambda_E, rho*delta^2, order), so one
byte-bounded LRU shares them across codewords and blocklengths; each
ServiceModel adds the codeword and blocklength terms once per order it
reaches and keeps them until its determinacy is done.  dH/ds, which the
floor probe and the searches below read, weights the exp tensor of the
accepted rung by the slope of the log integrand, once per s and only at
that rung.  d^2H/ds^2, which the searches read through ``_transforms``
and the floor probe never reads, weights that tensor by the slope once
more on its first read: from the accepted rung's buffer while it still
holds s, else after integrating H and dH/ds again at that rung, with the
same bits either way.

log K(s, T) is convex on the stability interval: T*log M_psi(1-s) is a
log-moment-generating function, the log product
P(s) = log M_zeta(1+s) + log M_psi(1-s) is a sum of two of them, and
-log(1 - e^P) is convex and increasing in P.  So the stability edge is the
one root of P and the kernel infimum is the floor or the one root of
d/ds log K.  The arrival half of P is known in closed form, so the edge
search models only log M_psi, by its tangents (below it) and chords (above
it), and takes its next probe from the root of the exact-arrival model.
A tangent root is a certified upper bound on the edge, so once one lies
within BISECT_TOL of a probed stable point the search stops there, with no
probe past the edge to confirm it; a chord root is only a lower bound and
can read unstable in floating point, so it is always probed.
The infimum search is safeguarded Newton inside a shrinking bracket.  Both
searches read H through ``service_mellin_u_with_error``; the two horizons
of a determinacy share the model's H cache.

A determinacy decides the floor first.  By convexity, where d/ds log K >= 0
at S_FLOOR for both horizons each infimum is the floor itself, and the
stability edge plays no part in either bound; the determinacy then
integrates H at the floor alone, reads H and dH/ds there and searches no
edge.  Otherwise the edge search and both infimum searches run.  A caller
that reports the edge searches it with ``stability_edge``.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import LinkStats
from .fbc import SecrecyParams, dispersion

LN2 = math.log(2.0)
# both improper H(s) integrals are cut where the exponential weight of the
# mapped variable is e^-40
OUTER_TRUNCATION_MULT = 40.0
INNER_TRUNCATION_MULT = 40.0
# H(s) order doubling starts at this Gauss-Legendre order
BASE_ORDER = 16
# search controls for the stability edge and the kernel infimum: the edge is
# located to within BISECT_TOL on its stable side, and an edge beyond S_CAP
# is reported as S_CAP; the infimum is searched on
# [S_FLOOR, s_max * (1 - S_MAX_MARGIN)]
S_FLOOR = 1e-4
S_MAX_MARGIN = 1e-6
BISECT_TOL = 1e-8
S_CAP = 64.0
# the infimum search stops once its Newton model predicts that log K can fall
# by no more than this (the bound is then within about this share of the
# infimum), or once the Newton step is below BISECT_TOL, which keeps rounding
# noise in K near the minimum from stalling it
LOG_K_TOL = 1e-14
MAX_SEARCH_STEPS = 100
# the shared H(s) quadrature geometry is kept up to this many bytes of
# arrays, orders 16-128 of about a dozen (lambda_E, rho*delta^2) pairs; a
# single geometry of order 512 or more is larger and is never kept
GEOMETRY_BUDGET_BYTES = 2 << 20


class StabilityError(RuntimeError):
    """Kernel denominator not positive: M_zeta(1+s)*M_psi(1-s) >= 1."""

    def __init__(self, product: float, s: float | None = None):
        self.product = product
        self.s = s
        super().__init__(f"stability violated: transform product {product:.6g}"
                         + (f" at s={s:.6g}" if s is not None else ""))


class QuadratureError(RuntimeError):
    """Service-transform quadrature failed to converge."""


class SearchError(RuntimeError):
    """A search used up MAX_SEARCH_STEPS probes without closing its bracket."""


@dataclass
class ArrivalModel:
    """Poisson packet arrivals: lambda_pkts packets/slot of pkt_bits bits.

    ``paper_literal`` treats the per-slot arrival bits as Poisson(x*lambda)
    (transform exp(x*lambda*(e^(s-1)-1))); ``standard_compound`` is the
    compound-Poisson bit arrival exp(lambda*(e^((s-1)*x)-1)).  Both equal 1
    at s = 1; the compound form is the one the queue oracle validates.
    """

    lambda_pkts: float
    pkt_bits: int
    variant: str = "standard_compound"

    def __post_init__(self):
        if self.lambda_pkts <= 0:
            raise ValueError("lambda_pkts must be positive")
        if int(self.pkt_bits) != self.pkt_bits or self.pkt_bits <= 0:
            raise ValueError("pkt_bits must be a positive integer")
        self.pkt_bits = int(self.pkt_bits)
        if self.variant not in ("paper_literal", "standard_compound"):
            raise ValueError(f"unknown arrival variant: {self.variant}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and order doubling of the H(s) double integral."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-14
    max_subdivisions: int = 8

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


# the coarse profile scores allocations inside the RL loop; the fine one
# scores analyze, simulate and evaluate
QUADRATURE_PROFILES = {
    "train": QuadratureSpec(rel_tol=1e-3, abs_tol=1e-12, max_subdivisions=6),
    "eval": QuadratureSpec(),
}


@dataclass
class DelayWindow:
    """Slot-count window (t_min, t_max) with 0 <= t_min < t_max."""

    t_min: int
    t_max: int

    def __post_init__(self):
        if int(self.t_min) != self.t_min or int(self.t_max) != self.t_max:
            raise ValueError("window bounds must be integers")
        self.t_min = int(self.t_min)
        self.t_max = int(self.t_max)
        if not 0 <= self.t_min < self.t_max:
            raise ValueError("require 0 <= t_min < t_max")


@dataclass
class ServiceModel:
    """Secure-transmission service process: link stats + secrecy coding.

    Holds a per-instance cache of H(s) evaluations, keyed by s, so that the
    searches at several horizons reuse the expensive quadrature.  Each entry
    is (H, error estimate, dH/ds, d^2H/ds^2, accepted order); d^2H/ds^2 is
    None until its first read (``_h_curvature``).  ``_h_tensors`` keeps the
    s-independent quadrature tensors of each order reached, keyed by order:
    order^2 floats of the model's own per order (128 KiB at order 128),
    2 * order^2 at an order that has been accepted, plus a reference to the
    shared geometry (another order^2), freed with the model or when
    ``delay_determinacy`` or ``stability_edge`` returns, so that a caller
    who keeps models keeps only their H values.  Geometry of orders up to
    256 may stay in the module's LRU, which never holds more than
    GEOMETRY_BUDGET_BYTES.
    """

    stats: LinkStats
    secrecy: SecrecyParams
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    _h_cache: dict = field(default_factory=dict, repr=False)
    _h_tensors: dict = field(default_factory=dict, repr=False)


@dataclass
class ViolationBound:
    """min(1, inf_s K(s, T)) plus search diagnostics."""

    bound: float
    s_star: float
    s_max: float
    vacuous: bool
    raw_inf: float


@dataclass
class DeterminacyResult:
    """Window-determinacy bound varpi plus all diagnostics."""

    varpi: float
    bound_tmin: float
    bound_tmax: float
    s_star_tmin: float
    s_star_tmax: float
    ordering_ok: bool
    clamped: dict
    quadrature_error_estimate: float


def _arrival_exponent(model: ArrivalModel):
    """(rate, scale) with log M_zeta(s) = scale * expm1(rate * (s - 1))."""
    if model.variant == "paper_literal":
        return 1.0, model.pkt_bits * model.lambda_pkts
    return float(model.pkt_bits), model.lambda_pkts


def arrival_mellin(s: float, model: ArrivalModel) -> float:
    """Mellin transform of the per-slot arrival increment at argument s.

    Saturates to +inf instead of overflowing; the caller sees the point as
    unstable.
    """
    rate, scale = _arrival_exponent(model)
    inner = rate * (s - 1.0)
    if inner > 700.0:
        return math.inf
    expo = scale * math.expm1(inner)
    if expo > 700.0:
        return math.inf
    return math.exp(expo)


@lru_cache(maxsize=64)
def _gl_nodes(order: int):
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True)
class _Geometry:
    """The half of the H(s) quadrature at one order that depends only on
    (lambda_E, m = rho*delta^2, order), not on s, the codeword or the
    blocklength.  Its arrays are read-only, since models share them."""

    wo: np.ndarray              # outer weights
    wi: np.ndarray              # inner weights
    gamma_e: np.ndarray         # outer nodes, in Eve's SNR
    log_ratio: np.ndarray       # log1p(gamma_e) - log1p(gamma_k), (order, order)
    decay: np.ndarray           # gamma_e / m
    v_e: np.ndarray             # Eve's channel dispersion at gamma_e

    @classmethod
    def build(cls, lam_e, m, order):
        """Map both improper integrals onto the unit interval by the exact
        exponential substitutions gamma_e = -ln(1-q)/lambda_E and
        gamma_k = gamma_e - m*ln(1-p), so the truncation multipliers become
        fixed sub-unit upper limits."""
        q_hi = -math.expm1(-OUTER_TRUNCATION_MULT)
        p_hi = -math.expm1(-INNER_TRUNCATION_MULT)
        xq, wq = _gl_nodes(order)
        xo, wo = xq * q_hi, wq * q_hi
        xi, wi = xq * p_hi, wq * p_hi

        gamma_e = -np.log1p(-xo) / lam_e                       # (order,)
        gamma_k = gamma_e[:, None] - m * np.log1p(-xi)[None, :]  # (order, order)
        log_ratio = np.log1p(gamma_e)[:, None] - np.log1p(gamma_k, out=gamma_k)
        arrays = (wo, wi, gamma_e, log_ratio, gamma_e / m, dispersion(gamma_e))
        for x in arrays:
            x.flags.writeable = False
        return cls(*arrays)

    @property
    def nbytes(self):
        return sum(x.nbytes for x in (self.wo, self.wi, self.gamma_e, self.log_ratio,
                                      self.decay, self.v_e))


class _GeometryCache:
    """Least-recently-used ``_Geometry`` by the exact (lambda_E, m, order),
    holding at most GEOMETRY_BUDGET_BYTES of arrays.  A geometry larger than
    the whole budget is built for its caller and not kept, so it dies with
    the models that use it.  Not locked: the package shares no model or
    cache across threads (sweep workers are processes)."""

    def __init__(self):
        self.entries = OrderedDict()
        self.nbytes = 0

    def __call__(self, lam_e, m, order):
        key = (lam_e, m, order)
        geo = self.entries.get(key)
        if geo is not None:
            self.entries.move_to_end(key)
            return geo
        geo = _Geometry.build(lam_e, m, order)
        if geo.nbytes <= GEOMETRY_BUDGET_BYTES:
            self.entries[key] = geo
            self.nbytes += geo.nbytes
            while self.nbytes > GEOMETRY_BUDGET_BYTES:
                self.nbytes -= self.entries.popitem(last=False)[1].nbytes
        return geo


_geometry = _GeometryCache()


@dataclass
class _HTensors:
    """One model's H(s) quadrature at one order: the shared geometry plus
    the codeword and blocklength terms.

    The log integrand of H is a * log_ratio + a * pen_e - gamma_e / m plus
    the constant a * pen_u - upsilon/delta^2, so only the exp depends on s.
    ``work`` and ``slope`` are (order, order) and the model's own.  ``h``
    leaves the exp tensor in ``work``; ``dh`` weights it by the slope in
    place and records its a in ``sloped_at``, and ``ddh`` weights it once
    more.  ``slope`` is built by the first ``dh`` call, so an order the
    doubling never accepts never pays for it.
    """

    geo: _Geometry
    pen_e: np.ndarray
    pen_u: float
    los_log: float              # -upsilon/delta^2
    work: np.ndarray            # the exp tensor of the last h(a), or its sloped form
    slope: np.ndarray | None = None  # ln2 * d/ds of the log integrand
    sloped_at: float | None = None   # the a whose sloped tensor ``work`` holds

    @classmethod
    def build(cls, stats, secrecy, order):
        geo = _geometry(stats.lambda_eve, stats.snr_scale, order)
        return cls(geo, secrecy.pen_e_of_dispersion(geo.v_e), secrecy.pen_u,
                   stats.los_log, np.empty_like(geo.log_ratio))

    def h(self, a):
        """H at a = s/ln2: one exp tensor, left in ``work``, and one
        matrix-vector pair."""
        geo = self.geo
        weight = np.multiply(a, geo.log_ratio, out=self.work)
        weight += (a * self.pen_e - geo.decay)[:, None]
        np.exp(weight, out=weight)
        self.sloped_at = None
        return math.exp(self.los_log + a * self.pen_u) * float(geo.wo @ (weight @ geo.wi))

    def dh(self, a):
        """dH/ds at the a of the last ``h`` call.

        The log integrand is linear in s with slope
        (log1p gamma_e - log1p gamma_k + pen_e + pen_u)/ln2, so dH/ds
        weights the exp tensor in ``work`` by that slope, in place.
        """
        geo = self.geo
        if self.slope is None:
            self.slope = geo.log_ratio + (self.pen_e + self.pen_u)[:, None]
        sloped = np.multiply(self.work, self.slope, out=self.work)
        self.sloped_at = a
        return math.exp(self.los_log + a * self.pen_u) * float(geo.wo @ (sloped @ geo.wi)) / LN2

    def ddh(self, a):
        """d^2H/ds^2 at a: the sloped tensor of a weighted by the slope once
        more, in place.  Unless ``work`` holds that sloped tensor, H and
        dH/ds at a are integrated again first, which gives the same bits."""
        if self.sloped_at != a:
            self.h(a)
            self.dh(a)
        geo = self.geo
        self.work *= self.slope
        self.sloped_at = None
        return (math.exp(self.los_log + a * self.pen_u) * float(geo.wo @ (self.work @ geo.wi))
                / (LN2 * LN2))


def _h_tail_bound(s, stats, secrecy):
    """Analytic bound on the truncated outer tail, gamma_e past
    OUTER_TRUNCATION_MULT / lambda_E.  The inner tail is not included."""
    a = s / LN2
    m = stats.snr_scale
    lam_e = stats.lambda_eve
    prefac = math.exp(stats.los_log + a * (secrecy.pen_u + secrecy.pen_e_max))
    # (1+g_e)^a * (1+g_k)^-a <= 1 on the wedge, so the outer tail integrand
    # is dominated by lam_e*exp(-(lam_e + 1/m)*gamma_e)
    expo = -OUTER_TRUNCATION_MULT * (1.0 + 1.0 / (m * lam_e))
    outer = prefac * lam_e / (lam_e + 1.0 / m) * math.exp(max(expo, -700.0))
    return outer


def service_mellin_u(s: float, model: ServiceModel) -> float:
    """H(s): Mellin transform of the success-branch rate factor u.

    Double integral of u^(-s/ln2) over gamma_Eve in [0, inf) against the
    exponential Eve density and gamma_k in [gamma_Eve, inf) against the
    (sub-normalised) user SNR density, with the user dispersion taken as 1.
    """
    val, _ = service_mellin_u_with_error(s, model)
    return val


def service_mellin_u_with_error(s: float, model: ServiceModel):
    """(H(s), error estimate): H at the first order that agrees with half of
    it within the tolerances, plus the analytic tail bound.  The cache entry
    also keeps dH/ds, formed only at that order, and the order itself.
    """
    if s < 0:
        raise ValueError("transform argument must be >= 0")
    cached = model._h_cache.get(s)
    if cached is not None:
        return cached[:2]
    spec = model.quadrature
    tensors = model._h_tensors
    a = s / LN2
    order = BASE_ORDER
    prev = None
    for _ in range(spec.max_subdivisions):
        t = tensors.get(order)
        if t is None:
            t = tensors[order] = _HTensors.build(model.stats, model.secrecy, order)
        val = t.h(a)
        if prev is not None:
            err = abs(val - prev)
            if err <= max(spec.abs_tol, spec.rel_tol * abs(val)):
                err += _h_tail_bound(s, model.stats, model.secrecy)
                model._h_cache[s] = (val, err, t.dh(a), None, order)
                return val, err
        prev = val
        order *= 2
    raise QuadratureError(
        f"H(s={s:.6g}) did not converge within {spec.max_subdivisions} refinements")


def _h_curvature(s, model):
    """d^2H/ds^2 at an s whose H is cached, formed on its first read.

    It is formed at the order the doubling accepted for s: from the sloped
    tensor that dH/ds left in that order's ``work`` while it is still s's,
    else after integrating H and dH/ds again there, on the model's tensors
    or, once they are released, on tensors built for this read alone.
    """
    val, err, dh, ddh, order = model._h_cache[s]
    if ddh is None:
        t = (model._h_tensors.get(order)
             or _HTensors.build(model.stats, model.secrecy, order))
        ddh = t.ddh(s / LN2)
        model._h_cache[s] = (val, err, dh, ddh, order)
    return ddh


def _service_transform(s: float, model: ServiceModel) -> float:
    """M_psi(1-s) = (1 - eps_e) * H(s) + eps_e: decode failures serve 0 bits."""
    eps = model.secrecy.epsilon_e
    return (1.0 - eps) * service_mellin_u(s, model) + eps


def kernel_from_values(m_arrival: float, m_service: float, horizon: int) -> float:
    """Steady-state kernel from precomputed transform values."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    product = m_arrival * m_service
    if not product < 1.0:
        raise StabilityError(product)
    return m_service ** horizon / (1.0 - product)


def kernel(s: float, horizon: int, arrival: ArrivalModel,
           service: ServiceModel) -> float:
    """K(s, T) = [M_psi(1-s)]^T / (1 - M_zeta(1+s)*M_psi(1-s))."""
    m_arr = arrival_mellin(1.0 + s, arrival)
    m_srv = _service_transform(s, service)
    try:
        return kernel_from_values(m_arr, m_srv, horizon)
    except StabilityError as exc:
        raise StabilityError(exc.product, s) from None


def lemma1_kernel(s: float, horizon: int, arrival: ArrivalModel,
                  service: ServiceModel) -> float:
    """Closed-form kernel assembled directly from the bound expression:

        [(1-eps)*H + eps]^T / (1 - e^(x*lambda*(e^s - 1)) * [(1-eps)*H + eps])

    Uses the literal Poisson-bit arrival factor regardless of the arrival
    variant; pair with variant="paper_literal" for exact agreement with
    kernel().
    """
    eps = service.secrecy.epsilon_e
    bracket = (1.0 - eps) * service_mellin_u(s, service) + eps
    expo = arrival.pkt_bits * arrival.lambda_pkts * math.expm1(s)
    m_arr = math.inf if expo > 700.0 else math.exp(expo)
    return kernel_from_values(m_arr, bracket, horizon)


def stability_product(s: float, arrival: ArrivalModel, service: ServiceModel) -> float:
    m_arr = arrival_mellin(1.0 + s, arrival)
    if math.isinf(m_arr):
        return math.inf
    return m_arr * _service_transform(s, service)


def _transforms(s: float, arrival: ArrivalModel, service: ServiceModel):
    """M_zeta(1+s), M_psi(1-s) and the first two s-derivatives of the log of
    each, as (m_arr, m_srv, (d_arr, dd_arr), (d_srv, dd_srv)).  The one
    reader of d^2H/ds^2, so the first call at an s forms it.
    """
    m_arr = arrival_mellin(1.0 + s, arrival)
    rate, scale = _arrival_exponent(arrival)
    d_arr = _arrival_log_slope(s, rate, scale)
    eps = service.secrecy.epsilon_e
    h, _ = service_mellin_u_with_error(s, service)
    m_srv = (1.0 - eps) * h + eps
    d_srv = (1.0 - eps) * service._h_cache[s][2] / m_srv
    return (m_arr, m_srv, (d_arr, rate * d_arr),
            (d_srv, (1.0 - eps) * _h_curvature(s, service) / m_srv - d_srv * d_srv))


def _arrival_log_slope(s, rate, scale):
    """d/ds log M_zeta(1+s) = scale*rate*exp(rate*s), saturated to +inf."""
    return math.inf if rate * s > 700.0 else scale * rate * math.exp(rate * s)


def _exact_arrival_root(rate, scale, c0, c1, lo, hi=math.inf):
    """Root above lo of f(s) = scale*expm1(rate*s) + c0 + c1*s, where f(lo) < 0.

    f is convex, so Newton steps that start where f >= 0 descend onto the
    root and never pass it; an unbounded hi is first replaced by doubling
    from lo.  f and f' at hi are carried, not evaluated again.  Where f
    overflows the step is a bisection instead.  Returns the last point with
    f >= 0: lo itself when f(lo) >= 0 after all, and a finite hi when the
    root lies past it.  Costs no H.
    """
    def f(s):
        x = rate * s
        if x > 700.0:
            return math.inf, math.inf
        return scale * math.expm1(x) + c0 + c1 * s, scale * rate * math.exp(x) + c1

    if f(lo)[0] >= 0.0:
        return lo
    if math.isinf(hi):
        hi = 2.0 * lo
        while (f_hi := f(hi))[0] < 0.0:
            lo, hi = hi, 2.0 * hi
    elif (f_hi := f(hi))[0] < 0.0:
        return hi
    for _ in range(MAX_SEARCH_STEPS):
        v, d = f_hi
        s = hi - v / d if math.isfinite(v) and d > 0.0 else 0.5 * (lo + hi)
        if not lo < s < hi:
            break
        f_s = f(s)
        if f_s[0] < 0.0:
            lo = s
        else:
            hi, f_hi = s, f_s
    return hi


def stability_smax(arrival: ArrivalModel, service: ServiceModel) -> float | None:
    """Right edge of the stability interval, or None when it is empty.

    The product is probed at the floor; if already >= 1 there the interval
    is treated as empty (bound vacuous).  Otherwise the edge is the root of
    the convex log product P(s) = A(s) + L(s), with the arrival part
    A(s) = scale*expm1(rate*s) exact and L(s) = log M_psi(1-s) a convex
    log-MGF.  Only L is modelled, so the two bounds below cost no H:

    - the tangent of L at a probe lies below L, so the root of A plus that
      tangent is an upper bound on the edge;
    - the chord of L between a stable lo and an unstable hi lies above L
      there, so the root of A plus that chord is a lower bound.

    Each step probes the tighter upper bound (from the floor it lands just
    past the edge), or the lower bound once the two are within BISECT_TOL.
    Once the upper bound is within BISECT_TOL of the stable lo, the
    tangent has proved the bracket [lo, upper] and lo is returned with no
    further probe; a probe there would cost a whole H ladder at the dearest
    s of the search, and its H would lie past s_max*(1 - S_MAX_MARGIN),
    where no bound or error estimate reads it.  The chord root stays
    probed: it is only a lower bound on the edge, and in floating point it
    can read unstable, so the end returned is always a probed stable one.
    A bound past S_CAP probes S_CAP itself, which is returned when stable.
    Far past the edge H may not converge (at high rho the upper bound from
    the floor can overshoot there): a probe more than twice the stable side
    that raises QuadratureError only caps the later probes, which then
    halve the gap to it; a failure within twice the stable side, where a
    doubling climb would probe too, is raised.

    Returns a probed stable lo whose tangent bound certifies the edge
    within BISECT_TOL above it, or the stable side of a probed bracket no
    wider than BISECT_TOL; raises SearchError when MAX_SEARCH_STEPS probes
    do neither.
    """
    rate, scale = _arrival_exponent(arrival)

    def probe(s):
        m_arr, m_srv, _, (d_srv, _) = _transforms(s, arrival, service)
        return m_arr * m_srv < 1.0, math.log(m_srv), d_srv

    def model_root(l_x, slope, x, lo, hi):
        """Root of A plus the line through (x, l_x) with the given slope."""
        return _exact_arrival_root(rate, scale, l_x - slope * x, slope, lo, hi)

    lo = S_FLOOR
    stable, l_lo, g_lo = probe(lo)
    if not stable:
        return None
    hi, l_hi, g_hi = math.inf, math.nan, math.nan
    ceiling = math.inf      # lowest probe whose H did not converge
    for _ in range(MAX_SEARCH_STEPS):
        upper = model_root(l_lo, g_lo, lo, lo, hi)
        if hi < math.inf:
            upper = min(upper, model_root(l_hi, g_hi, hi, lo, hi))
        if upper - lo <= BISECT_TOL:
            return lo
        s = upper
        if hi < math.inf:
            lower = model_root(l_lo, (l_hi - l_lo) / (hi - lo), lo, lo, hi)
            if lo < lower and upper - lower <= BISECT_TOL:
                s = lower
        s = min(s, S_CAP)
        top = min(hi, ceiling)
        if not lo < s < top:
            s = 0.5 * (lo + top)
        try:
            stable, l_s, g_s = probe(s)
        except QuadratureError:
            if s <= 2.0 * lo:
                raise
            ceiling = s
            continue
        if stable:
            if s == S_CAP:
                return s
            lo, l_lo, g_lo = s, l_s, g_s
        else:
            hi, l_hi, g_hi = s, l_s, g_s
        if hi - lo <= BISECT_TOL:
            return lo
    raise SearchError(f"stability edge not bracketed within {MAX_SEARCH_STEPS} "
                      f"probes: stable at {lo:.17g}, unstable at {hi:.17g}")


def _log_kernel_probe(s, horizon, arrival, service):
    """(K(s, T), d/ds log K, d^2/ds^2 log K); K = inf off the stability set.

    log K = T*log M_psi - log(1 - e^P) with e^P the transform product.
    """
    m_arr, m_srv, (d_arr, dd_arr), (d_srv, dd_srv) = _transforms(s, arrival, service)
    try:
        k = kernel_from_values(m_arr, m_srv, horizon)
    except StabilityError:
        return math.inf, math.inf, math.inf
    product = m_arr * m_srv
    g1 = product / (1.0 - product)          # d/dP of -log(1 - e^P)
    p1 = d_arr + d_srv
    f1 = horizon * d_srv + g1 * p1
    f2 = horizon * dd_srv + g1 * (dd_arr + dd_srv) + g1 * p1 * p1 / (1.0 - product)
    return k, f1, f2


def violation_bound(horizon: int, arrival: ArrivalModel, service: ServiceModel,
                    s_max: float | None = None) -> ViolationBound:
    """min(1, inf_{s in stability interval} K(s, T)) with the optimizing s.

    log K is convex, so its infimum on [S_FLOOR, hi] with
    hi = s_max*(1 - S_MAX_MARGIN) is the floor when d/ds log K >= 0 there,
    else the root of d/ds log K.  Every H value already cached on the
    interval (the stability search, another horizon) is a free probe that
    narrows the bracket; safeguarded Newton steps from the best probe then
    locate the root, falling back to geometric bisection when a step leaves
    the bracket.  The bound is K at the best probe, so it comes only from
    converged H values.  An empty stability interval yields the vacuous
    bound 1.
    """
    if s_max is None:
        s_max = stability_smax(arrival, service)
    if s_max is None:
        return ViolationBound(1.0, S_FLOOR, math.nan, True, math.inf)

    lo_end = S_FLOOR
    hi_end = max(lo_end, s_max * (1.0 - S_MAX_MARGIN))
    probes = {}

    def probe(s):
        probes[s] = _log_kernel_probe(s, horizon, arrival, service)
        return probes[s][1]

    probe(lo_end)
    for s in list(service._h_cache):
        if lo_end < s <= hi_end:
            probe(s)
    # the root of f' = d/ds log K lies in [lo, hi]: f' < 0 at a probed lo
    # (else lo = hi = the floor), f' >= 0 at hi once hi is probed
    lo, hi = lo_end, hi_end
    for s, (_, f1, _) in probes.items():
        if f1 < 0.0:
            lo = max(lo, s)
        else:
            hi = min(hi, s)
    for _ in range(MAX_SEARCH_STEPS):
        if hi - lo <= BISECT_TOL:
            if hi not in probes:
                probe(hi)
            break
        s_best = min(probes, key=lambda x: probes[x][0])
        _, f1, f2 = probes[s_best]
        s = math.nan
        if 0.0 < f2 < math.inf:
            step = f1 / f2
            if 0.5 * f1 * step <= LOG_K_TOL or abs(step) <= BISECT_TOL:
                break
            s = s_best - step
        if not lo < s < hi:
            s = math.sqrt(lo * hi)
        if probe(s) < 0.0:
            lo = s
        else:
            hi = s
    s_star = min(probes, key=lambda x: probes[x][0])
    f_star = probes[s_star][0]
    if not math.isfinite(f_star):
        return ViolationBound(1.0, S_FLOOR, s_max, True, math.inf)
    return ViolationBound(min(1.0, f_star), float(s_star), float(s_max), False,
                          float(f_star))


def stability_edge(arrival: ArrivalModel, service: ServiceModel) -> float:
    """The right edge s_max of the stability interval as ``analyze`` reports
    it: the edge ``stability_smax`` returns, or NaN when the interval is
    empty.  The model's quadrature tensors are released on return; its H
    values stay cached."""
    try:
        s_max = stability_smax(arrival, service)
    finally:
        service._h_tensors.clear()
    return math.nan if s_max is None else float(s_max)


def delay_determinacy(window: DelayWindow, arrival: ArrivalModel,
                      service: ServiceModel) -> DeterminacyResult:
    """Window-determinacy bound: clamped inf-kernel difference of Lemma form.

    varpi = bound(t_min) - bound(t_max), clamped to [0, 1]; ordering_ok
    records the checkable surrogate bound(t_max) <= bound(t_min) of the
    kernel-ordering constraint.

    K is probed at S_FLOOR for both horizons first, from H and dH/ds there
    alone.  An unstable floor gives the vacuous bound at once: both bounds
    1 and both s_star S_FLOOR.  Where the floor is stable and d/ds log K >= 0
    there for both horizons, each infimum is the floor by convexity: each
    bound is min(1, K(S_FLOOR, T)) and both s_star are S_FLOOR.  In neither
    case is an edge searched.  Otherwise ``stability_smax`` and a
    ``violation_bound`` per horizon run, and the quadrature error estimate
    is the larger one of the two H values behind the reported bounds, at
    s_star_tmin and s_star_tmax, so probes that no bound uses do not move
    it; at the floor it is the floor H's.  The model's quadrature tensors
    are released on return; its H values stay cached.
    """
    t_min, t_max = window.t_min, window.t_max
    try:
        # K and d/ds log K at the floor as _log_kernel_probe forms them, from
        # H and dH/ds alone
        h, err = service_mellin_u_with_error(S_FLOOR, service)
        eps = service.secrecy.epsilon_e
        m_srv = (1.0 - eps) * h + eps
        product = arrival_mellin(1.0 + S_FLOOR, arrival) * m_srv
        vacuous = not product < 1.0
        if vacuous:
            raw_min = raw_max = math.inf
            s_star_min = s_star_max = S_FLOOR
        else:
            d_srv = (1.0 - eps) * service._h_cache[S_FLOOR][2] / m_srv
            g1 = product / (1.0 - product)
            p1 = _arrival_log_slope(S_FLOOR, *_arrival_exponent(arrival)) + d_srv
            if t_min * d_srv + g1 * p1 >= 0.0 and t_max * d_srv + g1 * p1 >= 0.0:
                raw_min = m_srv ** t_min / (1.0 - product)
                raw_max = m_srv ** t_max / (1.0 - product)
                s_star_min = s_star_max = S_FLOOR
            else:
                edge = stability_smax(arrival, service)
                b_min, b_max = (violation_bound(t, arrival, service, s_max=edge)
                                for t in (t_min, t_max))
                raw_min, raw_max = b_min.raw_inf, b_max.raw_inf
                s_star_min, s_star_max = b_min.s_star, b_max.s_star
                vacuous = b_min.vacuous
                err = max(service._h_cache[s_star_min][1],
                          service._h_cache[s_star_max][1])
    finally:
        service._h_tensors.clear()
    bound_min, bound_max = min(1.0, raw_min), min(1.0, raw_max)
    ordering_ok = bound_max <= bound_min + 1e-12
    return DeterminacyResult(
        varpi=min(1.0, max(0.0, bound_min - bound_max)),
        bound_tmin=bound_min,
        bound_tmax=bound_max,
        s_star_tmin=s_star_min,
        s_star_tmax=s_star_max,
        ordering_ok=ordering_ok,
        clamped={"tmin": raw_min > 1.0, "tmax": raw_max > 1.0, "vacuous": vacuous,
                 "ordering": not ordering_ok},
        quadrature_error_estimate=err,
    )
