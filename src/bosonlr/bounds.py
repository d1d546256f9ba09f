"""Analytic certificate right-hand sides as explicit numeric functions.

Every evaluator spells out its constant term-by-term instead of hiding an
abstract prefactor, so experiments can assert measured <= bound and audit
the arithmetic.  These are certificates, not tight estimates: looseness of
several orders of magnitude is expected and the experiments report the
measured/bound ratio alongside the pass flag.

All evaluators work in log space and only exponentiate at the end; a
result of ``inf`` is a valid (trivially true) certificate for parameter
corners where the double-precision range is exhausted.
"""

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError

_LOG_MAX = 709.0  # log of the largest finite double


@dataclass(frozen=True)
class BoundInputs:
    """Parameter pack shared by the bound evaluators.

    ``sigma`` is the graph growth constant (see
    :class:`bosonlr.lattice.SurfaceEstimate`); the moment-growth exponent
    consumes the maximum vertex degree instead, which callers pass to
    :func:`gronwall_rate` directly.  Hopping amplitude is normalized to
    one (time measured in inverse hopping units); evaluators assume that
    normalization.
    """

    p: float = 0.0
    M: float = 1.0
    sigma: float = 0.0
    d: int = 1
    r: int = 1
    lam: float = 1.0
    m: int = 1
    t: float = 0.0
    size_X: int = 1
    size_Y: int = 1
    norm_A: float = 1.0
    norm_B: float = 1.0
    v_inf: float = 0.0


def _exp(logv: float) -> float:
    if logv == -math.inf:
        return 0.0
    if logv > _LOG_MAX:
        return math.inf
    return math.exp(logv)


def _log_expm1(x: float) -> float:
    """log(e^x - 1) without overflow; -inf at x <= 0."""
    if x <= 0.0:
        return -math.inf
    if x < 30.0:
        return math.log(math.expm1(x))
    return x + math.log1p(-math.exp(-x))


def gronwall_rate(p: float, sigma: float) -> float:
    """Exponential growth rate of time-evolved occupation moments.

    The differential inequality for the p-th moment closes with rate
    p * sigma * (2^(p-1) + 1), sigma being the neighbor-count bound
    (maximum vertex degree).
    """
    if p < 1:
        raise InvalidArgumentError("moment exponent must satisfy p >= 1")
    if sigma <= 0:
        raise InvalidArgumentError("neighbor-count parameter must be positive")
    return float(p * sigma * (2.0 ** (p - 1) + 1.0))


def lr_kappa(sigma: float, r: int, d: int) -> float:
    """Velocity constant of the hopping light cone: 4 sqrt(2) sigma^2 (2r)^d."""
    if sigma <= 0 or r < 1 or d < 1:
        raise InvalidArgumentError("need sigma > 0, r >= 1, d >= 1")
    return float(4.0 * math.sqrt(2.0) * sigma**2 * (2.0 * r) ** d)


def lr_bound(inp: BoundInputs) -> float:
    """Shell-restriction error of occupation-cutoff dynamics.

    C * lam * m^d * |A| * (kappa lam t)^(m+1) / (m+1)! with the prefactor
    C = (2 + |v|_inf) * sigma^2 * r^(2d) * |X| reconstructed from the
    iterated-commutator term count; kappa from :func:`lr_kappa`.
    """
    if inp.m < 1:
        raise InvalidArgumentError("shell count m must be >= 1")
    if inp.lam < 1:
        raise InvalidArgumentError("cutoff level must be >= 1")
    t = abs(inp.t)
    if t == 0.0:
        return 0.0
    kappa = lr_kappa(inp.sigma, inp.r, inp.d)
    prefactor = (
        math.log(2.0 + inp.v_inf)
        + 2.0 * math.log(inp.sigma)
        + 2.0 * inp.d * math.log(inp.r)
        + math.log(inp.size_X)
        + math.log(inp.lam)
        + inp.d * math.log(inp.m)
    )
    series = (inp.m + 1) * math.log(kappa * inp.lam * t) - math.lgamma(inp.m + 2)
    return _exp(prefactor + series) * inp.norm_A


def _cutoff_log_terms(inp: BoundInputs, eta: float) -> list[float]:
    t = abs(inp.t)
    log_lam = math.log(inp.lam)
    log_M = math.log(inp.M)
    log_X = math.log(inp.size_X)
    log_Y = math.log(inp.size_Y)
    log_sigma2 = 2.0 * math.log(inp.sigma)
    half = 0.5 * (-inp.p * log_lam + log_M + log_Y)
    # contribution of configurations already above the cutoff
    term1 = math.log1p(math.exp(eta * t / 2)) if eta * t / 2 < _LOG_MAX else eta * t / 2
    term1 += half
    # hopping leakage through the cutoff during the evolution
    term2 = (
        math.log(4.0)
        + log_Y
        + (1.0 - inp.p / 2.0) * log_lam
        + _log_expm1(eta * t / 2)
        + log_sigma2
        + 0.5 * log_M
    )
    # same two mechanisms on the observable side, weighted by |X|^p
    term3 = eta * t + half + 0.5 * inp.p * log_X
    term4 = (
        (
            math.log(4.0)
            + log_Y
            + (1.0 - inp.p / 2.0) * log_lam
            + math.log(t)
            + eta * t / 2
            + log_sigma2
            + 0.5 * (log_M + inp.p * log_X)
        )
        if t > 0.0
        else -math.inf
    )
    return [term1, term2, term3, term4]


def cutoff_bound(inp: BoundInputs, eta: float) -> float:
    """Error of replacing the dynamics by its occupation-cutoff version.

    Explicit sum of the four mechanisms by which a cutoff at level ``lam``
    on region Y is felt, each scaling like lam^(-p/2+1) or better, times
    |A| |B|.  ``eta`` is the moment growth rate from :func:`gronwall_rate`.
    """
    if inp.p < 2:
        raise InvalidArgumentError("cutoff bound needs p >= 2")
    if inp.M < 1:
        raise InvalidArgumentError("cutoff bound needs a moment constant M >= 1")
    if inp.lam < 1:
        raise InvalidArgumentError("cutoff level must be >= 1")
    if inp.sigma <= 0:
        raise InvalidArgumentError("growth constant must be positive")
    total = sum(_exp(v) for v in _cutoff_log_terms(inp, eta))
    return total * inp.norm_A * inp.norm_B


def lrb_decay_exponent(d: int, p: float) -> float:
    """Predicted algebraic decay power d - p/2 + 1 of evolved correlations.

    Negative only under the moment hypothesis p > 2d + 2, which is
    enforced here because a nonnegative exponent certifies nothing.
    """
    if p <= 2 * d + 2:
        raise InvalidArgumentError(
            f"decay exponent needs p > 2d+2 (got p = {p}, d = {d})"
        )
    return float(d - p / 2.0 + 1.0)
