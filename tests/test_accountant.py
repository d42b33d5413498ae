import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from sparsefl.accountant import (
    DEFAULT_ALPHA_GRID,
    DegenerateBudgetError,
    RdpParams,
    _conversion_offsets,
    _log_add_exp,
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


def _loop_accumulate(t_bar, params):
    """accumulate_privacy as a Python loop over the orders: the reference."""
    moments = log_moments(params.q, params.sigma_hat, DEFAULT_ALPHA_GRID).tolist()
    offsets = _conversion_offsets(params.delta).tolist()
    return min(
        t_bar * params.tau * rdp / (alpha - 1.0) + offset
        for alpha, rdp, offset in zip(DEFAULT_ALPHA_GRID, moments, offsets)
    )


def _first_estimate(eps_budget, params):
    """max_participation_rounds' best order before its one-round nudges, as a loop."""
    best = 0
    moments = log_moments(params.q, params.sigma_hat, DEFAULT_ALPHA_GRID).tolist()
    offsets = _conversion_offsets(params.delta).tolist()
    for alpha, rdp, offset in zip(DEFAULT_ALPHA_GRID, moments, offsets):
        numerator = (alpha - 1.0) * (eps_budget - offset)
        if numerator <= 0.0:
            continue
        if rdp == 0.0:
            best = 10**15
            continue
        best = max(best, int(min(numerator / (params.tau * rdp), 1e15)))
    return best


def _loop_max_rounds(eps_budget, params):
    """max_participation_rounds as a Python loop over the orders: the reference."""
    best = _first_estimate(eps_budget, params)
    while best > 0 and _loop_accumulate(best, params) > eps_budget:
        best -= 1
    while best < 10**15 and _loop_accumulate(best + 1, params) <= eps_budget:
        best += 1
    return best


def test_array_accounting_matches_the_order_loops():
    rng = np.random.default_rng(24)
    for _ in range(2000):
        q = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-4.0, 0.0)]))
        params = RdpParams(
            q=q,
            sigma_hat=float(10.0 ** rng.uniform(-0.5, 1.0)),
            delta=float(10.0 ** rng.uniform(-8.0, -1.0)),
            tau=int(rng.integers(1, 11)),
        )
        eps = float(10.0 ** rng.uniform(-1.0, 2.0))
        t_hat = max_participation_rounds(eps, params)
        assert t_hat == _loop_max_rounds(eps, params), (params, eps)
        for t in (t_hat, t_hat + 1):
            got, want = accumulate_privacy(t, params), _loop_accumulate(t, params)
            assert float.hex(got) == float.hex(want), (params, t)


# Budgets on a round boundary, where rounding puts the first estimate one
# round off: (q, sigma_hat, tau, delta, budget hex, first estimate, answer).
NUDGED_INVERSIONS = [
    (0.01992419670418447, 1.6093788681716292, 5, 1e-3, "0x1.c7693c58c7222p+0", 319, 320),
    (0.00874899173180572, 6.840519587752957, 60, 1e-5, "0x1.6bf172bcb8b5bp+0", 1170, 1169),
]


@pytest.mark.parametrize("q, sigma, tau, delta, budget, first, t_hat", NUDGED_INVERSIONS)
def test_inversion_nudges_its_first_estimate_by_one_round(q, sigma, tau, delta, budget, first, t_hat):
    params = RdpParams(q=q, sigma_hat=sigma, delta=delta, tau=tau)
    eps = float.fromhex(budget)
    assert _first_estimate(eps, params) == first
    assert max_participation_rounds(eps, params) == t_hat
    assert accumulate_privacy(t_hat, params) <= eps < accumulate_privacy(t_hat + 1, params)


def test_log_moments_are_read_only():
    for q in (0.0, 0.3):
        moments = log_moments(q, 1.0, DEFAULT_ALPHA_GRID)
        with pytest.raises(ValueError, match="read-only"):
            moments[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        _conversion_offsets(1e-3)[0] = 1.0


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


# SHA-256 of log_moments(q, sigma_hat, alphas).tobytes(): privacy_hetero's 24
# pairs q = 5 / n (shard sizes 40..270) at sigma_hat 0.8 first. A faster
# accountant must keep every byte; a change that moves them on purpose updates
# these and says why.
PINNED_MOMENT_SHA256 = {
    (5 / 40, 0.8, DEFAULT_ALPHA_GRID): "556f6a2fe88e500c6f3a73391e7aac8bd2021319080758ebca8a21e6c3c42196",
    (5 / 50, 0.8, DEFAULT_ALPHA_GRID): "9c0840a3a82fa63d85eb0df5b489415e364cf004fc98058e91a9478633438f7b",
    (5 / 60, 0.8, DEFAULT_ALPHA_GRID): "a906b46b41cf2ab5a67517ad67c0414439860f3dec02ab0bace4cc8025c1f5a8",
    (5 / 70, 0.8, DEFAULT_ALPHA_GRID): "a971f4e8a53a07454542bba0c6c0142a25e0f8dad25b611662dd830b571100e6",
    (5 / 80, 0.8, DEFAULT_ALPHA_GRID): "15b2023037a44254846eacc73663f3f9553ed7d6ab69427d8cd05f8376a9dda9",
    (5 / 90, 0.8, DEFAULT_ALPHA_GRID): "0345f4d3fa19c217d228202ce1d7fff20beeffaeb78d66e927064f6aae6b27bf",
    (5 / 100, 0.8, DEFAULT_ALPHA_GRID): "51405378c3f75db3038491fd7d22fa07d56da123752664a1872a5c27a4e66aa2",
    (5 / 110, 0.8, DEFAULT_ALPHA_GRID): "cdea86c4c14c611b31b30cdabb6a1db385ad5bb1261cf6d77bb8776e61d1a551",
    (5 / 120, 0.8, DEFAULT_ALPHA_GRID): "a2c33af01a4e34182fdcc9c03aa45f997ad31df78264b33c5367e749945953b8",
    (5 / 130, 0.8, DEFAULT_ALPHA_GRID): "1124fc71a2870da12771bab7dcb0890dfe9c069ecc88397d8614bc057fdd7bf3",
    (5 / 140, 0.8, DEFAULT_ALPHA_GRID): "428ff31c58210e2c68129203a3a3a429b8d0b04b80162c421ab6505364a5292a",
    (5 / 150, 0.8, DEFAULT_ALPHA_GRID): "571d0acb60a031258288eee27bade594e539530b70f8a59ea4f4441d581f7766",
    (5 / 160, 0.8, DEFAULT_ALPHA_GRID): "510542ff2ba7ee2864167e8eb0ac384c2debbd7d9583a8219cd7f6fe67e2b314",
    (5 / 170, 0.8, DEFAULT_ALPHA_GRID): "144092581e8df9c5ab0c89a656a318def82ce98d771256d05b364b43976fba81",
    (5 / 180, 0.8, DEFAULT_ALPHA_GRID): "127af3d07bf3797e9acb6d6bfef3ce25379805b33c695edfcbc1d6effb6bda20",
    (5 / 190, 0.8, DEFAULT_ALPHA_GRID): "c9204b9c73f2f713d80b75215322285b1ea152a16b0c63f90b45e81f5252f0dc",
    (5 / 200, 0.8, DEFAULT_ALPHA_GRID): "a5512e1fb9f38795e945e7517f863ce18b30b86658e837c0afadef646fada241",
    (5 / 210, 0.8, DEFAULT_ALPHA_GRID): "5482f52909271de89ed0c651dc090bf27433294f583d3eafde8f70a1b4100fb1",
    (5 / 220, 0.8, DEFAULT_ALPHA_GRID): "6fc18f2bf0a097bd6029b99ed3fe2611267aa190923f814c68c735587dee54e3",
    (5 / 230, 0.8, DEFAULT_ALPHA_GRID): "2c92ffaefb14b1b0e02e9618c7461171a353ec9ab3afdf374a478ae8636bc22a",
    (5 / 240, 0.8, DEFAULT_ALPHA_GRID): "ac5d9346865a39cf3fdd1880d219172b4ab107832aa9cf45a7cbeef68b92e962",
    (5 / 250, 0.8, DEFAULT_ALPHA_GRID): "73c2ac80ebfcbe34843b87b0be8de763e4b2e95cdac690c9ca9aea2c34567b37",
    (5 / 260, 0.8, DEFAULT_ALPHA_GRID): "cd4824d176fec07755d629e43278eb9f479dec88c9c86fcfa48c9a6f001f9350",
    (5 / 270, 0.8, DEFAULT_ALPHA_GRID): "b2add586bb492b26b883f4ba157468644b00e3fb5957517797c65c9c84441a36",
    # train_mlp's one pair, then the edges: full batch, a peak near 4e5, q near 1.
    (0.16, 1.0, DEFAULT_ALPHA_GRID): "e0b7a117f214c2dd7277e777ffc72bf1b4eb0d554b1ecb2132c4cc989687f4f0",
    (1.0, 0.8, DEFAULT_ALPHA_GRID): "84e9be4c3f73a14e7f200dc420b9aff60aa7fbb452d3b5c648b3cb9a3dd7375d",
    (0.001, 0.001, DEFAULT_ALPHA_GRID): "6d137c64f6b5d9ea8c06d9331b6c7658b144ad55347a49e99bd6251eb8c94215",
    (0.05, 0.001, DEFAULT_ALPHA_GRID): "113c9745801d201acce94d143e6e8627cd706b290112aff0b80a5b56913f0d81",
    (0.5, 0.001, DEFAULT_ALPHA_GRID): "7edb745a40d280530c727b527693f7bbdbbe98523ce6cea2d8a9a2db0dd2259b",
    (0.999, 3.0, DEFAULT_ALPHA_GRID): "0f1b8607daea3b2561002111d2f61b86b39a9b9b75c5cba55df4f8417769b6e8",
    # Other widths of the binomial table, and the quadrature alone.
    (0.05, 0.8, (1.5,)): "b3e4bf4d55d8895ec15c7125432bca0bd2d3475e1fa8a3caf21a8d54cb677a6e",
    (0.05, 0.8, (2.0,)): "16050f37fb1e4fd24e0b0f35e4216130b2770d4e3e2b9e789646040c5f0d0849",
    (0.05, 0.8, (2.0, 5.0, 64.0)): "0d3e730f16ba5e845c22a8bcbb92240ceb32c5257459dff7050b8583712fbea1",
}


def _pair_id(key):
    q, sigma, alphas = key
    orders = "grid" if alphas == DEFAULT_ALPHA_GRID else "-".join(map(str, alphas))
    return f"q{q:.6g}-s{sigma}-{orders}"


@pytest.mark.parametrize(
    "q, sigma, alphas", list(PINNED_MOMENT_SHA256), ids=map(_pair_id, PINNED_MOMENT_SHA256)
)
def test_log_moment_bytes_are_pinned(q, sigma, alphas):
    got = hashlib.sha256(log_moments(q, sigma, alphas).tobytes()).hexdigest()
    assert got == PINNED_MOMENT_SHA256[(q, sigma, alphas)]


def _scipy_integer_moments(q, sigma, alphas):
    """Integer-order log moments through scipy's gammaln and logsumexp: the reference."""
    a = np.array(alphas)[:, None]
    k = np.arange(a.max() + 1.0)
    in_sum = k <= a
    log_binom = gammaln(a + 1.0) - gammaln(k + 1.0) - gammaln(np.where(in_sum, a - k, 0.0) + 1.0)
    log_terms = (
        log_binom
        + (a - k) * math.log1p(-q)
        + k * math.log(q)
        + (k * k - k) / (2.0 * sigma * sigma)
    )
    return np.maximum(logsumexp(np.where(in_sum, log_terms, -np.inf), axis=1), 0.0)


def test_integer_orders_match_scipy_logsumexp_bit_for_bit():
    rng = np.random.default_rng(26)
    integer_grid = DEFAULT_ALPHA_GRID[1:]
    for _ in range(200):
        q = float(10.0 ** rng.uniform(-3.0, 0.0))
        sigma = float(10.0 ** rng.uniform(-3.0, 0.5))
        for alphas in (integer_grid, (2.0,), (64.0,), (5.0, 2.0, 17.0)):
            got = log_moments(q, sigma, alphas)
            assert got.tobytes() == _scipy_integer_moments(q, sigma, alphas).tobytes(), (q, sigma)


def test_scalar_log_add_exp_is_numpys_bit_for_bit():
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 30.0, 20000)
    y = x + rng.choice([-1.0, 1.0], x.size) * 10.0 ** rng.uniform(-17.0, 3.0, x.size)
    pairs = list(zip(x.tolist(), y.tolist()))
    pairs += [(v, v) for v in (0.0, -3.5, 700.0, math.inf, -math.inf)] + [(0.0, -0.0)]
    pairs += [(-math.inf, v) for v in (-800.0, -1.0, 0.0, 2.5, 1e5)]
    pairs += [(1.0, 41.0), (41.0, 1.0), (-745.0, 0.0), (0.0, -1e4), (math.inf, -math.inf)]
    pairs += [(math.nan, 1.0), (1.0, math.nan)]
    got = np.array([_log_add_exp(a, b) for a, b in pairs])
    with np.errstate(invalid="ignore"):  # the NaN pairs
        want = np.logaddexp(*np.array(pairs).T)
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert differ.size == 0, pairs[differ[0]]


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
