"""Renyi differential privacy accounting for the subsampled Gaussian mechanism.

A client that participates in ``t_bar`` rounds runs ``tau`` noisy local steps
per round, each on a subsampled batch (sampling fraction ``q``) with noise
multiplier ``sigma_hat``. The moment of order ``alpha`` accumulated per step is

    log E_{z ~ N(0, sigma_hat)} [ (1 - q + q * mu1(z) / mu0(z))**alpha ]

where mu0 and mu1 are the N(0, sigma_hat) and N(1, sigma_hat) densities. The
total budget after ``t_bar`` rounds converts to an (epsilon, delta) guarantee
by minimizing over one fixed grid of orders, DEFAULT_ALPHA_GRID.

At an integer order the moment has the exact binomial closed form

    log sum_{k=0}^{alpha} C(alpha, k) (1 - q)**(alpha - k) q**k exp((k**2 - k) / (2 sigma_hat**2))

(Mironov, Talwar and Zhang, "Renyi Differential Privacy of the Sampled
Gaussian Mechanism", arXiv:1908.10530), evaluated in log space with gammaln
and logsumexp. A fractional order has no finite sum; QUADPACK's adaptive
Gauss-Kronrod rule (scipy.integrate.quad) integrates it over z in
[-20 sigma_hat, alpha + 20 sigma_hat], split at the peaks z = 0 and z = alpha
and at z0 = sigma_hat**2 ln(1/q - 1) + 1/2, where the mixture's two terms are
equal. The upper limit scales with alpha because the integrand's mass
concentrates near z = alpha.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

DEFAULT_ALPHA_GRID: tuple[float, ...] = (1.5,) + tuple(float(a) for a in range(2, 65))
_ORDERS = np.array(DEFAULT_ALPHA_GRID)
_MAX_T_HAT = 10**15


class AccountantOverflowError(ArithmeticError):
    """A log moment evaluated to a non-finite value, or its quadrature did not converge."""


class DegenerateBudgetError(ValueError):
    """Every client's participation forecast is zero."""


class BudgetOverrunError(RuntimeError):
    """A client's spent epsilon exceeded its budget during a run."""


@dataclass(frozen=True)
class RdpParams:
    """Mechanism parameters shared by all accountant operations.

    q: per-step subsampling fraction, in [0, 1].
    sigma_hat: noise multiplier, > 0.
    delta: target failure probability, in (0, 1).
    tau: local steps per participated round.
    """

    q: float
    sigma_hat: float
    delta: float = 1e-3
    tau: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {self.q}")
        if not self.sigma_hat > 0.0:
            raise ValueError(f"sigma_hat must be positive, got {self.sigma_hat}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.tau < 1:
            raise ValueError(f"tau must be at least 1, got {self.tau}")


def _integer_moments(q: float, sigma_hat: float, alphas: np.ndarray) -> np.ndarray:
    """Exact log moments at integer orders, from the binomial expansion.

    All orders are one [orders, k] array evaluation: row alpha holds the
    terms k = 0..alpha, padded with -inf up to the largest order.
    """
    if q == 1.0:
        return (alphas * alphas - alphas) / (2.0 * sigma_hat * sigma_hat)
    a = alphas[:, None]
    k = np.arange(alphas.max(initial=0.0) + 1.0)
    in_sum = k <= a
    log_binom = gammaln(a + 1.0) - gammaln(k + 1.0) - gammaln(np.where(in_sum, a - k, 0.0) + 1.0)
    log_terms = (
        log_binom
        + (a - k) * math.log1p(-q)
        + k * math.log(q)
        + (k * k - k) / (2.0 * sigma_hat * sigma_hat)
    )
    return logsumexp(np.where(in_sum, log_terms, -np.inf), axis=1)


def _quadrature_moment(q: float, sigma_hat: float, alpha: float) -> float:
    """Log moment at any order: adaptive quadrature of the integrand, scaled to 1 at its peak."""
    lo, hi = -20.0 * sigma_hat, alpha + 20.0 * sigma_hat
    inv_two_var = 1.0 / (2.0 * sigma_hat * sigma_hat)
    log_keep = math.log1p(-q) if q < 1.0 else -math.inf
    z0 = sigma_hat * sigma_hat * math.log(1.0 / q - 1.0) + 0.5 if q < 1.0 else 0.0

    def log_integrand(z: float) -> float:
        """alpha log(1 - q + q mu1/mu0) + log mu0, less mu0's normalizing constant."""
        log_base = np.logaddexp(log_keep, math.log(q) + (2.0 * z - 1.0) * inv_two_var)
        return alpha * log_base - z * z * inv_two_var

    points = sorted({z for z in (0.0, alpha, z0) if lo < z < hi})
    peak = max(map(log_integrand, points))
    # Rounding in log_integrand(z) - peak caps the relative accuracy near 1e-16 |peak|.
    value, _, _, *failed = quad(
        lambda z: math.exp(log_integrand(z) - peak),
        lo,
        hi,
        points=points,
        epsabs=0.0,
        epsrel=max(1e-13, 1e-16 * abs(peak)),
        full_output=1,
    )
    if failed or not value > 0.0:
        raise AccountantOverflowError(
            f"log moment quadrature did not converge at q={q}, sigma_hat={sigma_hat}, alpha={alpha}"
        )
    return peak + math.log(value / (sigma_hat * math.sqrt(2.0 * math.pi)))


@functools.lru_cache(maxsize=4096)
def log_moments(q: float, sigma_hat: float, alphas: tuple[float, ...]) -> np.ndarray:
    """Log moment of one subsampled noisy step at every order (nats), cached.

    alphas is a tuple of floats, each above 1. Integer orders use the exact
    binomial sum; any other order uses the adaptive quadrature. Accumulation
    and inversion share one call per (q, sigma) pair, so the result is
    read-only.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if sigma_hat <= 0.0:
        raise ValueError(f"sigma_hat must be positive, got {sigma_hat}")
    if any(alpha <= 1.0 for alpha in alphas):
        raise ValueError(f"every order must exceed 1, got {alphas}")
    orders = np.array(alphas, dtype=float)
    out = np.zeros(orders.size)
    if q > 0.0:
        exact = orders == np.floor(orders)
        out[exact] = _integer_moments(q, sigma_hat, orders[exact])
        out[~exact] = [_quadrature_moment(q, sigma_hat, a) for a in orders[~exact].tolist()]
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise AccountantOverflowError(
            f"accountant overflow: non-finite moment for q={q}, "
            f"sigma_hat={sigma_hat}, alpha={orders[bad[0]]}"
        )
    # The true moment is >= 1 by Jensen, so its log is >= 0; rounding in the
    # log-space sums can leave a tiny negative residue.
    out = np.maximum(out, 0.0)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=64)
def _conversion_offsets(delta: float) -> np.ndarray:
    """Additive terms converting an RDP bound at each default order to epsilon at delta.

    Cached per delta, read-only: every accumulate_privacy call reads them.
    """
    log_inv_delta = math.log(1.0 / delta)
    out = np.array(
        [
            (log_inv_delta + (alpha - 1.0) * math.log1p(-1.0 / alpha) - math.log(alpha))
            / (alpha - 1.0)
            for alpha in DEFAULT_ALPHA_GRID
        ]
    )
    out.setflags(write=False)
    return out


def accumulate_privacy(t_bar: int, params: RdpParams) -> float:
    """Tightest epsilon after t_bar participated rounds.

    For each order the accumulated RDP is t_bar * tau * log_moment / (alpha - 1);
    the returned epsilon is the minimum over the grid of the converted guarantee.
    """
    if t_bar < 0:
        raise ValueError(f"t_bar must be nonnegative, got {t_bar}")
    moments = log_moments(params.q, params.sigma_hat, DEFAULT_ALPHA_GRID)
    rdp = t_bar * params.tau * moments / (_ORDERS - 1.0)
    return float((rdp + _conversion_offsets(params.delta)).min())


def max_participation_rounds(eps_budget: float, params: RdpParams) -> int:
    """Largest round count whose accumulated guarantee stays within eps_budget.

    Inverts the accumulation per order (floor of the budget headroom over the
    per-round cost; a zero cost allows every round), takes the best order,
    then nudges by at most one round so that
    accumulate_privacy(t) <= eps_budget < accumulate_privacy(t + 1) holds
    exactly under floating point.
    """
    if not eps_budget > 0.0:
        raise ValueError(f"eps_budget must be positive, got {eps_budget}")
    moments = log_moments(params.q, params.sigma_hat, DEFAULT_ALPHA_GRID)
    numerator = (_ORDERS - 1.0) * (eps_budget - _conversion_offsets(params.delta))
    with np.errstate(divide="ignore", invalid="ignore"):
        rounds = np.minimum(numerator / (params.tau * moments), float(_MAX_T_HAT))
    best = int(rounds.max(where=numerator > 0.0, initial=0.0))
    while best > 0 and accumulate_privacy(best, params) > eps_budget:
        best -= 1
    while best < _MAX_T_HAT and accumulate_privacy(best + 1, params) <= eps_budget:
        best += 1
    return best


def participation_fraction(t_hats: np.ndarray | list[int], n_channels: int) -> np.ndarray:
    """Target participation fractions min(N * t_hat_i / sum(t_hat), 1)."""
    t = np.asarray(t_hats, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_hats must be a nonempty vector")
    if np.any(t < 0):
        raise ValueError("participation forecasts must be nonnegative")
    if n_channels < 1:
        raise ValueError(f"n_channels must be positive, got {n_channels}")
    total = t.sum()
    if total == 0:
        raise DegenerateBudgetError("all participation forecasts are zero")
    return np.minimum(n_channels * t / total, 1.0)


@dataclass(frozen=True)
class PrivacyLedger:
    """One client's budget, mechanism and participation allowance t_hat.

    The simulator's participation counter is the ledger's exposure count, so
    the ledger itself never changes after make_ledger.
    """

    eps_budget: float
    params: RdpParams
    t_hat: int

    def spent(self, t_bar: int) -> float:
        """Tightest epsilon after t_bar participated rounds."""
        return accumulate_privacy(t_bar, self.params)


def make_ledger(eps_budget: float, params: RdpParams) -> PrivacyLedger:
    """Build a ledger whose t_hat is the budget's participation allowance."""
    return PrivacyLedger(eps_budget, params, max_participation_rounds(eps_budget, params))
