import math

import pytest

from bosonlr import (
    BoundInputs,
    InvalidArgumentError,
    cutoff_bound,
    gronwall_rate,
    lr_bound,
    lr_kappa,
    lrb_decay_exponent,
)


def lr_bound_direct(inp: BoundInputs) -> float:
    """Plain-arithmetic twin of ``lr_bound`` (overflow-prone)."""
    t = abs(inp.t)
    if t == 0.0:
        return 0.0
    kappa = lr_kappa(inp.sigma, inp.r, inp.d)
    C = (2.0 + inp.v_inf) * inp.sigma**2 * inp.r ** (2 * inp.d) * inp.size_X
    return (
        C
        * inp.lam
        * inp.m**inp.d
        * inp.norm_A
        * (kappa * inp.lam * t) ** (inp.m + 1)
        / math.factorial(inp.m + 1)
    )


def cutoff_bound_direct(inp: BoundInputs, eta: float) -> float:
    """Plain-arithmetic twin of ``cutoff_bound`` (overflow-prone)."""
    t = abs(inp.t)
    lam, p, M, X, Y, s2 = inp.lam, inp.p, inp.M, inp.size_X, inp.size_Y, inp.sigma**2
    term1 = (1.0 + math.exp(eta * t / 2)) * math.sqrt(lam**-p * M * Y)
    term2 = 4.0 * Y * lam ** (-p / 2 + 1) * (math.exp(eta * t / 2) - 1.0) * s2 * math.sqrt(M)
    term3 = math.exp(eta * t) * math.sqrt(lam**-p * X**p * M * Y)
    term4 = 4.0 * Y * lam ** (-p / 2 + 1) * t * math.exp(eta * t / 2) * s2 * math.sqrt(M * X**p)
    return (term1 + term2 + term3 + term4) * inp.norm_A * inp.norm_B


def test_gronwall_rate_values():
    assert gronwall_rate(1, 2) == 4.0
    assert gronwall_rate(2, 2) == 12.0
    assert gronwall_rate(4, 4) == 144.0
    with pytest.raises(InvalidArgumentError):
        gronwall_rate(0.5, 2)


def test_lr_kappa_direct_substitution():
    # 4 sqrt(2) sigma^2 (2r)^d at sigma=2, r=1, d=1
    assert lr_kappa(2, 1, 1) == pytest.approx(4 * math.sqrt(2) * 4 * 2)
    assert lr_kappa(3, 2, 2) == pytest.approx(4 * math.sqrt(2) * 9 * 16)


def base_lr():
    return BoundInputs(sigma=2.0, d=1, r=1, lam=2, m=2, t=0.5, size_X=1, norm_A=1.0, v_inf=1.0)


def base_cutoff():
    return BoundInputs(
        p=6.0, M=2.0, sigma=3.0, d=1, r=1, lam=2, t=0.25, size_X=1, size_Y=4, norm_A=1.0, norm_B=1.0
    )


def _with(inp, **kw):
    from dataclasses import replace

    return replace(inp, **kw)


def test_lr_bound_zero_time_and_monotonicity():
    assert lr_bound(_with(base_lr(), t=0.0)) == 0.0
    prev = 0.0
    for t in (0.1, 0.2, 0.4, 0.8):
        val = lr_bound(_with(base_lr(), t=t))
        assert val > prev
        prev = val
    prev = 0.0
    for lam in (1, 2, 3, 4):
        val = lr_bound(_with(base_lr(), lam=lam))
        assert val > prev
        prev = val


def test_lr_bound_matches_direct_evaluation():
    for m in (1, 2, 4):
        for t in (0.05, 0.3, 1.0):
            inp = _with(base_lr(), m=m, t=t)
            assert lr_bound(inp) == pytest.approx(lr_bound_direct(inp), rel=1e-12)


def test_lr_bound_validation():
    with pytest.raises(InvalidArgumentError):
        lr_bound(_with(base_lr(), m=0))
    with pytest.raises(InvalidArgumentError):
        lr_bound(_with(base_lr(), lam=0.5))


def test_cutoff_bound_zero_time_terms():
    inp = _with(base_cutoff(), t=0.0)
    eta = gronwall_rate(inp.p, 2)
    # at t = 0 the two evolution-leakage terms vanish; the remaining two are
    # 2 sqrt(lam^-p M |Y|) and sqrt(lam^-p |X|^p M |Y|)
    expected = 2 * math.sqrt(inp.lam**-inp.p * inp.M * inp.size_Y) + math.sqrt(
        inp.lam**-inp.p * inp.size_X**inp.p * inp.M * inp.size_Y
    )
    assert cutoff_bound(inp, eta) == pytest.approx(expected, rel=1e-12)


def test_cutoff_bound_matches_direct_evaluation():
    eta = 10.0
    for t in (0.0, 0.1, 0.5):
        for lam in (1, 2, 4):
            inp = _with(base_cutoff(), t=t, lam=lam)
            assert cutoff_bound(inp, eta) == pytest.approx(cutoff_bound_direct(inp, eta), rel=1e-12)


def test_cutoff_bound_lambda_scaling():
    # doubling lambda at p=6 shrinks the lam^(-p/2+1) terms by exactly 4x
    from bosonlr.bounds import _cutoff_log_terms

    eta = 10.0
    t1 = _cutoff_log_terms(_with(base_cutoff(), lam=2), eta)
    t2 = _cutoff_log_terms(_with(base_cutoff(), lam=4), eta)
    for i in (1, 3):  # the lam^(1-p/2) terms
        assert math.exp(t1[i] - t2[i]) == pytest.approx(4.0, rel=1e-12)


def test_cutoff_bound_monotone_decreasing_in_lambda():
    eta = 10.0
    prev = math.inf
    for lam in (1, 2, 4, 8, 64, 1024, 10**5, 10**7):
        val = cutoff_bound(_with(base_cutoff(), lam=lam), eta)
        assert val < prev
        prev = val
    assert prev < 1e-6  # vanishes as the cutoff is lifted


def test_cutoff_bound_monotone_increasing_in_t_M_norms():
    eta = 5.0
    for key, vals in (("t", (0.1, 0.3, 1.0)), ("M", (1.0, 2.0, 8.0)), ("norm_A", (0.5, 1.0, 3.0))):
        prev = 0.0
        for v in vals:
            val = cutoff_bound(_with(base_cutoff(), **{key: v}), eta)
            assert val > prev
            prev = val


def test_cutoff_bound_overflow_is_inf_not_error():
    inp = _with(base_cutoff(), t=50.0)
    eta = gronwall_rate(6, 2)  # eta t is far beyond double range
    assert cutoff_bound(inp, eta) == math.inf


def test_cutoff_bound_validation():
    eta = 5.0
    with pytest.raises(InvalidArgumentError):
        cutoff_bound(_with(base_cutoff(), p=1.5), eta)
    with pytest.raises(InvalidArgumentError):
        cutoff_bound(_with(base_cutoff(), M=0.5), eta)


def test_decay_exponent():
    assert lrb_decay_exponent(1, 6) == -1.0
    assert lrb_decay_exponent(1, 8) == -2.0
    assert lrb_decay_exponent(2, 8) == -1.0
    with pytest.raises(InvalidArgumentError):
        lrb_decay_exponent(1, 4)  # p = 2d+2 excluded


def test_everything_positive_on_grid():
    eta = 12.0
    for lam in (1, 3):
        for t in (0.0, 0.7):
            for m in (1, 3):
                base = _with(base_lr(), lam=lam, t=t, m=m)
                assert lr_bound(base) >= 0.0
                assert cutoff_bound(_with(base_cutoff(), lam=lam, t=t), eta) > 0.0
