import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefl.accountant import (
    DEFAULT_ALPHA_GRID,
    DegenerateBudgetError,
    RdpParams,
    accumulate_privacy,
    log_moments,
    make_ledger,
    max_participation_rounds,
    participation_fraction,
)
from sparsefl.oracles import analytic_full_batch_log_moment, log_moment_trapezoid


def log_moment(q, sigma, alpha):
    return log_moments(q, sigma, (alpha,))[0]


def test_full_batch_matches_analytic():
    for alpha in (2.0, 4.0, 8.0, 16.0):
        for sigma in (0.4, 0.5, 0.6, 1.0):
            got = log_moment(1.0, sigma, alpha)
            want = analytic_full_batch_log_moment(sigma, alpha)
            assert got == pytest.approx(want, rel=1e-6)


def test_unit_variance_order_two_is_one():
    assert log_moment(1.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-9)


def test_zero_sampling_rate_is_free():
    assert log_moment(0.0, 0.6, 8.0) == 0.0


def test_matches_high_resolution_quadrature():
    got = log_moment(0.167, 0.5, 16.0)
    oracle = log_moment_trapezoid(0.167, 0.5, 16.0)
    assert got == pytest.approx(oracle, rel=1e-8)
    # regression anchor for the integer-order moment at this (q, sigma)
    assert got == pytest.approx(451.3638165349539, rel=1e-9)


@pytest.mark.parametrize(
    "q, sigma, orders",
    [
        (0.02, 0.45, DEFAULT_ALPHA_GRID),
        (0.3, 1.0, DEFAULT_ALPHA_GRID),
        (0.9, 1.8, DEFAULT_ALPHA_GRID),
        (0.05, 0.1, (1.5,)),
        (0.001, 0.001, (1.5,)),
        (0.05, 0.001, (1.5,)),
        (0.5, 0.001, (1.5,)),
    ],
    ids=["0.02-0.45", "0.3-1.0", "0.9-1.8", "0.05-0.1", "0.001-0.001", "0.05-0.001", "0.5-0.001"],
)
def test_every_default_order_matches_trapezoid_oracle(q, sigma, orders):
    # Covers the fractional order's quadrature and every integer order's
    # closed form, up to the largest order in the default grid. At sigma 0.1
    # the integrand's peaks are 0.1 wide; only the quadrature order is checked.
    # At sigma 0.001 the log integrand's peak is near 4e5, so rounding in the
    # scaled integrand limits how tight a tolerance quad can meet.
    for alpha, got in zip(orders, log_moments(q, sigma, orders)):
        assert got == pytest.approx(log_moment_trapezoid(q, sigma, alpha), rel=1e-8), alpha


def test_never_exceeds_full_batch_cost():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = float(rng.uniform(0.0, 1.0))
        sigma = float(rng.uniform(0.3, 2.0))
        alpha = float(rng.integers(2, 40))
        assert log_moment(q, sigma, alpha) <= analytic_full_batch_log_moment(sigma, alpha) + 1e-9


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        log_moment(-0.1, 1.0, 2.0)
    with pytest.raises(ValueError):
        log_moment(1.1, 1.0, 2.0)
    with pytest.raises(ValueError):
        log_moment(0.5, 0.0, 2.0)
    with pytest.raises(ValueError):
        log_moment(0.5, 1.0, 1.0)


@settings(max_examples=20)
@given(
    q=st.floats(0.01, 0.99),
    sigma=st.floats(0.4, 2.0),
    alpha=st.sampled_from([2.0, 4.0, 8.0, 16.0, 32.0]),
)
def test_monotone_in_sampling_rate(q, sigma, alpha):
    lower = log_moment(q * 0.5, sigma, alpha)
    upper = log_moment(q, sigma, alpha)
    assert upper >= lower - 1e-9


@settings(max_examples=20)
@given(q=st.floats(0.05, 1.0), sigma=st.floats(0.4, 2.0))
def test_monotone_in_order(q, sigma):
    values = [log_moment(q, sigma, a) for a in (2.0, 4.0, 8.0, 16.0)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


@settings(max_examples=20)
@given(q=st.floats(0.05, 1.0), alpha=st.sampled_from([2.0, 8.0, 32.0]))
def test_nonincreasing_in_noise(q, alpha):
    values = [log_moment(q, sigma, alpha) for sigma in (0.4, 0.8, 1.6)]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_offset_example_at_zero_exposures():
    params = RdpParams(q=0.25, sigma_hat=0.6, delta=1e-3, tau=60)
    eps = accumulate_privacy(0, params)
    assert eps == pytest.approx(0.027884535025868212, rel=1e-12)


def test_accumulation_linear_in_exposures():
    # Each order's bound is a line in the exposure count t: its RDP
    # t * tau * moment / (alpha - 1) plus log((alpha - 1) / alpha)
    # - (log delta + log alpha) / (alpha - 1). The guarantee is the lowest
    # line at t, so it is concave in t, not linear.
    params = RdpParams(q=0.3, sigma_hat=1.0, delta=1e-3, tau=7)
    moments = log_moments(0.3, 1.0, DEFAULT_ALPHA_GRID)
    for t in (0, 1, 2, 5, 40, 1000):
        lines = [
            t * 7 * rdp / (alpha - 1.0)
            + math.log((alpha - 1.0) / alpha)
            - (math.log(1e-3) + math.log(alpha)) / (alpha - 1.0)
            for alpha, rdp in zip(DEFAULT_ALPHA_GRID, moments)
        ]
        assert accumulate_privacy(t, params) == pytest.approx(min(lines), rel=1e-12)


def test_accumulate_example_order_two():
    # At q = 1 every order has the closed form alpha (alpha - 1) / (2 sigma^2),
    # so one round at sigma 1 costs alpha / 2 plus the conversion offset;
    # order 4 gives the least.
    params = RdpParams(q=1.0, sigma_hat=1.0, delta=1e-3, tau=1)
    eps = accumulate_privacy(1, params)
    want = 2.0 + (math.log(1000.0) + 3.0 * math.log(0.75) - math.log(4.0)) / 3.0
    assert eps == pytest.approx(want, rel=1e-9)
    assert eps == pytest.approx(3.552804900168968, rel=1e-12)


def test_accumulate_monotone_in_exposures():
    params = RdpParams(q=0.2, sigma_hat=0.8, delta=1e-3, tau=10)
    values = [accumulate_privacy(t, params) for t in range(0, 40, 5)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_accumulate_rejects_negative_exposures():
    params = RdpParams(q=0.2, sigma_hat=0.8)
    with pytest.raises(ValueError):
        accumulate_privacy(-1, params)


def test_inversion_examples():
    # By the closed form above, 5 rounds cost 9.9991 at order 3 and 6 cost
    # 11.4991; 14 rounds cost 19.5215 at order 2 and 15 cost 20.5215.
    params = RdpParams(q=1.0, sigma_hat=1.0, delta=1e-3, tau=1)
    assert max_participation_rounds(10.0, params) == 5
    assert max_participation_rounds(20.0, params) == 14


def test_inversion_zero_when_budget_below_offset():
    params = RdpParams(q=1.0, sigma_hat=1.0, delta=1e-3, tau=1)
    offset = accumulate_privacy(0, params)
    assert max_participation_rounds(offset * 0.9, params) == 0


def test_inversion_unbounded_when_sampling_never_happens():
    params = RdpParams(q=0.0, sigma_hat=1.0, delta=1e-3, tau=1)
    assert max_participation_rounds(8.0, params) > 10**12


@settings(max_examples=15)
@given(
    q=st.floats(0.01, 1.0),
    sigma=st.floats(0.4, 2.0),
    eps=st.floats(1.0, 20.0),
)
def test_inversion_brackets_the_budget(q, sigma, eps):
    params = RdpParams(q=q, sigma_hat=sigma, delta=1e-3, tau=60)
    t_hat = max_participation_rounds(eps, params)
    assert accumulate_privacy(t_hat, params) <= eps
    assert accumulate_privacy(t_hat + 1, params) > eps


# (q, sigma_hat, eps_budget, tau, t_hat) on the default grid and delta; the
# fractional order 1.5 is the minimizing order at t_hat on 12 of the 20.
PINNED_T_HATS = [
    (0.7515, 0.1, 182.8, 1, 2),
    (0.9553, 0.12, 7.7, 10, 0),
    (0.0011, 0.14, 0.8, 60, 0),
    (0.9696, 0.17, 38.8, 1, 1),
    (0.002, 0.2, 27.4, 10, 1),
    (0.0011, 0.24, 39.3, 60, 9),
    (0.0014, 0.29, 8.0, 1, 9),
    (0.0579, 0.35, 36.9, 10, 5),
    (0.0035, 0.42, 136.1, 60, 1612),
    (0.0032, 0.5, 6.4, 1, 1601),
    (0.0055, 0.6, 110.4, 10, 32080),
    (0.0143, 0.72, 76.1, 60, 1280),
    (0.006, 0.86, 2.4, 1, 4474),
    (0.0142, 1.02, 0.9, 10, 17),
    (0.1633, 1.23, 69.6, 60, 55),
    (0.1321, 1.47, 3.0, 1, 59),
    (0.2942, 1.75, 127.8, 10, 488),
    (0.0105, 2.1, 116.3, 60, 82790),
    (0.1977, 2.51, 17.3, 1, 1757),
    (0.159, 3.0, 35.8, 10, 1082),
]


def test_inversion_is_pinned_across_noise_levels():
    got = [
        max_participation_rounds(eps, RdpParams(q=q, sigma_hat=sigma, tau=tau))
        for q, sigma, eps, tau, _ in PINNED_T_HATS
    ]
    assert got == [t_hat for *_, t_hat in PINNED_T_HATS]


def test_participation_fraction_equal_budgets():
    out = participation_fraction([7, 7, 7, 7], 2)
    assert np.allclose(out, 0.5)


def test_participation_fraction_example():
    out = participation_fraction([10, 10, 10, 70], 2)
    assert np.allclose(out, [0.2, 0.2, 0.2, 1.0])


def test_participation_fraction_saturates_at_one():
    out = participation_fraction([5, 5, 5], 3)
    assert np.allclose(out, 1.0)


def test_participation_fraction_degenerate():
    with pytest.raises(DegenerateBudgetError):
        participation_fraction([0, 0, 0], 2)


def test_participation_fraction_rejects_negative():
    with pytest.raises(ValueError):
        participation_fraction([3, -1, 2], 2)


def test_params_validation():
    bad = [
        dict(q=-0.1, sigma_hat=1.0),
        dict(q=1.1, sigma_hat=1.0),
        dict(q=1.2, sigma_hat=1.0),
        dict(q=0.5, sigma_hat=0.0),
        dict(q=0.5, sigma_hat=1.0, delta=0.0),
        dict(q=0.5, sigma_hat=1.0, tau=0),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            RdpParams(**kwargs)


def test_ledger_matches_standalone_accounting():
    params = RdpParams(q=0.1, sigma_hat=1.0, delta=1e-3, tau=60)
    ledger = make_ledger(6.0, params)
    assert ledger.t_hat == max_participation_rounds(6.0, params)
    assert ledger.t_hat > 0
    assert ledger.spent(1) <= 6.0
    for t in (0, 1, ledger.t_hat):
        assert ledger.spent(t) == accumulate_privacy(t, params)
    assert ledger.spent(ledger.t_hat) <= 6.0
    assert ledger.spent(ledger.t_hat + 1) > 6.0


def test_ledger_exhausted_at_birth_when_budget_tiny():
    params = RdpParams(q=0.5, sigma_hat=0.6, delta=1e-3, tau=60)
    ledger = make_ledger(0.5, params)
    assert ledger.t_hat == 0
    assert ledger.spent(1) > 0.5
