"""Independent brute-force and quadrature oracles.

Everything here re-derives a quantity the library computes elsewhere, by a
deliberately different method: a fixed trapezoid rule instead of adaptive quadrature,
exhaustive enumeration instead of Hungarian matching, grid search instead of
parametric sweeps, bisection instead of Newton's method. The oracles back the `verify` CLI subcommand and the
acceptance tests; they are slow by design and not part of the training path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
from scipy.special import logsumexp

from .accountant import accumulate_privacy, log_moments, max_participation_rounds, RdpParams
from .scheduler import (
    RoundContext,
    SchedulerConfig,
    VirtualQueues,
    feasible_edges,
    schedule_round,
    validate_decision,
)
from .wireless import ChannelRealization, ComputeParams, RadioParams, path_gain

# Level grid of brute_force_joint_energy: points per scan, and zooms onto the
# best point's neighbours after the first scan.
_SCAN_POINTS = 400
_SCAN_ZOOMS = 3

def analytic_full_batch_log_moment(sigma_hat: float, alpha: float) -> float:
    """Closed-form log moment without subsampling: alpha(alpha-1)/(2 sigma^2)."""
    return alpha * (alpha - 1.0) / (2.0 * sigma_hat * sigma_hat)


def log_moment_trapezoid(
    q: float, sigma_hat: float, alpha: float, num_points: int = 2_000_001
) -> float:
    """Trapezoid-rule log moment of the subsampled Gaussian mechanism.

    Same integrand as the production accountant, different quadrature rule and
    node count, written from scratch so a shared discretization bug cannot
    hide.
    """
    if q == 0.0:
        return 0.0
    lo = -20.0 * sigma_hat
    hi = alpha + 20.0 * sigma_hat
    z = np.linspace(lo, hi, num_points)
    step = (hi - lo) / (num_points - 1)
    log_ratio = (2.0 * z - 1.0) / (2.0 * sigma_hat * sigma_hat)
    if q == 1.0:
        log_mixture = log_ratio
    else:
        log_mixture = np.logaddexp(math.log1p(-q), math.log(q) + log_ratio)
    log_density = -(z * z) / (2.0 * sigma_hat * sigma_hat) - math.log(
        sigma_hat * math.sqrt(2.0 * math.pi)
    )
    log_terms = alpha * log_mixture + log_density
    log_weights = np.full(num_points, math.log(step))
    log_weights[0] += math.log(0.5)
    log_weights[-1] += math.log(0.5)
    value = float(logsumexp(log_terms + log_weights))
    return max(value, 0.0)


def check_inversion(q: float, sigma_hat: float, eps_budget: float, tau: int = 1) -> bool:
    """accumulate(T) <= budget < accumulate(T + 1) for the inverted round count."""
    params = RdpParams(q=q, sigma_hat=sigma_hat, tau=tau)
    t_hat = max_participation_rounds(eps_budget, params)
    below = accumulate_privacy(t_hat, params)
    above = accumulate_privacy(t_hat + 1, params)
    return below <= eps_budget < above


def random_round_context(
    rng: np.random.Generator,
    n_clients: int,
    n_channels: int,
    model_dim: int = 50,
    tau: int = 2,
    e_max_j: float = 1e9,
    lam: float = 50.0,
    q_de: float | None = None,
    d_avg: float = 1.0,
) -> tuple[RoundContext, SchedulerConfig, VirtualQueues]:
    """A small random scheduling instance for oracle comparisons."""
    distances = rng.uniform(20.0, 300.0, n_clients)
    uplink = np.empty((n_clients, n_channels))
    downlink = np.empty(n_clients)
    for i in range(n_clients):
        for j in range(n_channels):
            uplink[i, j] = path_gain(float(distances[i])) * float(rng.exponential(1.0))
        downlink[i] = path_gain(float(distances[i])) * float(rng.exponential(1.0))
    radio = RadioParams(
        bandwidth_hz=float(rng.uniform(1e4, 3e4)),
        noise_w=10.0 ** (-107.0 / 10.0) * 1e-3,
        downlink_power_w=0.2,
        max_power_w=1.0,
    )
    sizes = rng.integers(20, 200, n_clients)
    compute = ComputeParams(
        cycles_per_sample=1e4,
        cpu_freq_hz=np.array([rng.uniform(1.2e9, 2.4e9) for _ in range(n_clients)]),
        capacitance=1e-28,
    )
    ctx = RoundContext(
        model_dim=model_dim,
        tau=tau,
        eligible=np.arange(n_clients),
        dataset_sizes=sizes,
        channels=ChannelRealization(uplink_gains=uplink, downlink_gains=downlink),
        radio=radio,
        compute=compute,
    )
    cfg = SchedulerConfig(lam=lam, d_avg=d_avg, e_max_j=e_max_j)
    queues = VirtualQueues(
        q_fa=rng.uniform(0.0, 5.0, n_clients),
        q_de=float(rng.uniform(0.0, 3.0)) if q_de is None else q_de,
    )
    return ctx, cfg, queues


def _smooth_delay(ctx: RoundContext, i: int, j: int, s: float, power_w: float) -> float:
    gain = float(ctx.channels.uplink_gains[i, j])
    snr = power_w * gain / ctx.radio.noise_w
    rate = ctx.radio.bandwidth_hz * math.log2(1.0 + snr)
    return (32.0 * s * ctx.model_dim + ctx.model_dim) / rate + float(
        ctx.d_down[i] + ctx.d_local[i]
    )


def drift_penalty_value(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
    assigned_channel: np.ndarray,
    s: np.ndarray,
    powers: np.ndarray,
) -> float:
    """Drift-plus-penalty objective of a decision, summed client by client.

    Uses the smooth payload model. Raises ValueError on an unknown or reused
    channel, an ineligible client, or a rate outside (0, 1] or a power outside
    (0, max]; the energy cap is not checked. An empty assignment scores
    q_de * (0 - d_avg).
    """
    value = 0.0
    worst = 0.0
    used: set[int] = set()
    for i in np.flatnonzero(assigned_channel >= 0).tolist():
        j = int(assigned_channel[i])
        if j >= ctx.n_channels:
            raise ValueError("assignment names an unknown channel")
        if j in used:
            raise ValueError("assignment reuses a channel")
        if i not in ctx.eligible:
            raise ValueError("assignment schedules an ineligible client")
        if not 0.0 < s[i] <= 1.0 + 1e-12:
            raise ValueError(f"rate out of range for client {i}")
        if not 0.0 < powers[i] <= ctx.radio.max_power_w * (1.0 + 1e-12):
            raise ValueError(f"power out of range for client {i}")
        used.add(j)
        value += queues.q_fa[i] - cfg.lam * ctx.weights[i] * float(s[i])
        delay = _smooth_delay(ctx, i, j, float(s[i]), float(powers[i]))
        worst = max(worst, delay)
    return value + queues.q_de * (worst - cfg.d_avg)


def brute_force_assignment(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
    s: np.ndarray,
    powers: np.ndarray,
    edges: np.ndarray,
) -> tuple[float, np.ndarray] | None:
    """Exhaustive best assignment: every client subset times every channel order.

    Returns (objective value, assignment vector) or None when no client has a
    feasible edge. Only viable for a handful of clients and channels.
    """
    rows = [int(i) for i in ctx.eligible if edges[i].any()]
    if not rows:
        return None
    required = min(ctx.n_channels, len(rows))
    best_value = math.inf
    best = None
    for subset in itertools.combinations(rows, required):
        for perm in itertools.permutations(range(ctx.n_channels), required):
            if not all(edges[i, j] for i, j in zip(subset, perm)):
                continue
            candidate = np.full(ctx.n_clients, -1, dtype=int)
            candidate[list(subset)] = perm
            value = drift_penalty_value(ctx, cfg, queues, candidate, s, powers)
            if value < best_value - 1e-15:
                best_value, best = value, candidate
    if best is None:
        return None
    return best_value, best


def _rate_grid(s_th: float, step: float) -> np.ndarray:
    count = int(math.floor((1.0 - s_th) / step + 1e-12)) + 1
    grid = s_th + step * np.arange(count)
    if grid[-1] < 1.0 - 1e-12:
        grid = np.append(grid, 1.0)
    return grid


def grid_search_sparsification(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
    assigned_channel: np.ndarray,
    powers: np.ndarray,
    step: float = 1e-3,
) -> tuple[float, np.ndarray]:
    """Exact minimum of the objective over the per-client rate grid.

    Enumerates candidate straggler delays (every client's delay at every grid
    rate); at each candidate level every client takes the largest grid rate
    that stays at or below it. Any grid point's own level is among the
    candidates, so the sweep minimum equals the full grid-product minimum
    without enumerating the product.
    """
    assigned = np.flatnonzero(assigned_channel >= 0)
    grid = _rate_grid(cfg.s_th, step)
    base = float(queues.q_fa[assigned].sum()) - queues.q_de * cfg.d_avg
    if assigned.size == 0:
        s = np.ones(ctx.n_clients)
        return base, s
    delays = np.stack(
        [
            np.array(
                [
                    _smooth_delay(ctx, int(i), int(assigned_channel[i]), float(g), float(powers[i]))
                    for g in grid
                ]
            )
            for i in assigned
        ]
    )
    levels = np.unique(delays)
    p = ctx.weights[assigned]
    best_value = math.inf
    best_idx = None
    for level in levels:
        idx = np.array(
            [np.searchsorted(delays[k], level, side="right") - 1 for k in range(len(assigned))]
        )
        if np.any(idx < 0):
            continue
        chosen = grid[idx]
        realized = max(delays[k][idx[k]] for k in range(len(assigned)))
        value = base - cfg.lam * float(p @ chosen) + queues.q_de * realized
        if value < best_value - 1e-15:
            best_value = value
            best_idx = idx
    s = np.ones(ctx.n_clients)
    s[assigned] = grid[best_idx]
    return best_value, s


def enumerate_sparsification(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
    assigned_channel: np.ndarray,
    powers: np.ndarray,
    step: float,
) -> float:
    """Dense product enumeration over the rate grid (coarse steps only)."""
    assigned = np.flatnonzero(assigned_channel >= 0)
    grid = _rate_grid(cfg.s_th, step)
    base = float(queues.q_fa[assigned].sum()) - queues.q_de * cfg.d_avg
    if assigned.size == 0:
        return base
    delays = [
        np.array(
            [
                _smooth_delay(ctx, int(i), int(assigned_channel[i]), float(g), float(powers[i]))
                for g in grid
            ]
        )
        for i in assigned
    ]
    p = ctx.weights[assigned]
    best = math.inf
    for combo in itertools.product(range(len(grid)), repeat=len(assigned)):
        value = base
        worst = 0.0
        for k, gi in enumerate(combo):
            value -= cfg.lam * p[k] * grid[gi]
            worst = max(worst, delays[k][gi])
        value += queues.q_de * worst
        best = min(best, value)
    return best


def brute_force_joint(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
    step: float = 1e-3,
) -> float:
    """Joint assignment-and-rate minimum at full power by product enumeration.

    Callers must arrange a loose energy cap: the objective only improves with
    transmit power, so full power is then jointly optimal and the oracle needs
    to sweep only assignments and rates. The objective is piecewise linear in
    the rate vector, so a plain grid can sit a whole step away from the
    optimum; each client's axis is therefore augmented with the rates that
    equalize its delay against every member's delay at the boundary rates.
    Every vertex of the objective then lies on the product grid and the
    minimum is exact, not just step-accurate. Practical for two or three
    clients.
    """
    edges = feasible_edges(ctx, cfg)
    rows = [int(i) for i in ctx.eligible if edges[i].any()]
    if not rows:
        raise ValueError("no feasible client; loosen the instance")
    required = min(ctx.n_channels, len(rows))
    grid = _rate_grid(cfg.s_th, step)
    p_max = ctx.radio.max_power_w
    dim = ctx.model_dim
    best = math.inf
    for subset in itertools.combinations(rows, required):
        for perm in itertools.permutations(range(ctx.n_channels), required):
            if not all(edges[i, j] for i, j in zip(subset, perm)):
                continue
            rates = []
            fixed = []
            for i, j in zip(subset, perm):
                snr = p_max * float(ctx.channels.uplink_gains[i, j]) / ctx.radio.noise_w
                rates.append(ctx.radio.bandwidth_hz * math.log2(1.0 + snr))
                fixed.append(float(ctx.d_down[i] + ctx.d_local[i]))
            levels = [
                (32.0 * bound * dim + dim) / rates[k] + fixed[k]
                for k in range(required)
                for bound in (cfg.s_th, 1.0)
            ]
            axes = []
            for k in range(required):
                crossings = [
                    ((level - fixed[k]) * rates[k] - dim) / (32.0 * dim) for level in levels
                ]
                extra = np.clip(np.array(crossings), cfg.s_th, 1.0)
                axes.append(np.unique(np.concatenate([grid, extra])))
            base = sum(queues.q_fa[i] for i in subset) - queues.q_de * cfg.d_avg
            linear = np.zeros(1)
            worst = np.zeros(1)
            for k, (i, j) in enumerate(zip(subset, perm)):
                axis_shape = [1] * required
                axis_shape[k] = axes[k].size
                delays = np.array(
                    [_smooth_delay(ctx, i, j, float(g), p_max) for g in axes[k]]
                ).reshape(axis_shape)
                contrib = (-cfg.lam * ctx.weights[i] * axes[k]).reshape(axis_shape)
                linear = linear + contrib
                worst = np.maximum(worst, delays)
            total = base + linear + queues.q_de * worst
            best = min(best, float(total.min()))
    return best


def _edge_best_rate(
    ctx: RoundContext, cfg: SchedulerConfig, i: int, j: int, x: np.ndarray
) -> np.ndarray:
    """Largest rate edge (i, j) can send in x seconds of upload; nan below s_th.

    A power P serves rate s when the smooth payload fits the time,
    32 s dim + dim <= x R(P), and the payload plus one rounding bit fits the
    energy headroom H, P (32 s dim + dim + 1) <= H R(P). The time budget rises
    with P and the energy budget falls, so the best power is full power or
    the crossing of the two budgets, found by bisection on log P.
    """
    gain = float(ctx.channels.uplink_gains[i, j])
    headroom = cfg.e_max_j - float(ctx.e_comp[i])
    dim = ctx.model_dim

    def budgets(power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rate = ctx.radio.bandwidth_hz * np.log1p(power * gain / ctx.radio.noise_w) / math.log(2.0)
        return x * rate, headroom * rate / power - 1.0

    log_hi = np.full(x.shape, math.log(ctx.radio.max_power_w))
    by_time, by_energy = budgets(np.exp(log_hi))
    bits = np.minimum(by_time, by_energy)
    crossing = by_time > by_energy
    if crossing.any():
        log_lo = log_hi - 80.0
        for _ in range(64):
            log_mid = 0.5 * (log_lo + log_hi)
            fits = np.greater_equal(*budgets(np.exp(log_mid))[::-1])
            log_lo = np.where(fits, log_mid, log_lo)
            log_hi = np.where(fits, log_hi, log_mid)
        bits = np.where(crossing, budgets(np.exp(log_lo))[0], bits)
    s = np.minimum((bits - dim) / (32.0 * dim), 1.0)
    return np.where(s >= cfg.s_th, s, np.nan)


def _edge_breakpoints(
    ctx: RoundContext, cfg: SchedulerConfig, i: int, j: int
) -> np.ndarray:
    """Upload times at which edge (i, j) first reaches s_th and s = 1, by bisection."""
    targets = np.array([cfg.s_th, 1.0])
    lo = np.zeros(2)
    hi = np.ones(2)
    while np.any(~(_edge_best_rate(ctx, cfg, i, j, hi) >= targets)):
        hi *= 2.0
        if hi[0] > 1e30:
            raise ValueError(f"edge ({i}, {j}) never reaches s = 1")
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        reached = _edge_best_rate(ctx, cfg, i, j, mid) >= targets
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid)
    return hi


def brute_force_joint_energy(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
) -> float:
    """Joint assignment, power and rate minimum under the energy cap, by level scans.

    Enumerates every assignment of min(channels, feasible clients) clients.
    For each it scans the straggler level l: every member takes its best rate
    at l (_edge_best_rate), and the level scores
    sum(q_fa - lam * p * s) + q_de * (l - d_avg). The scan covers every
    member's own breakpoints and a uniform grid between the lowest and the
    highest, then zooms _SCAN_ZOOMS times onto the neighbours of its best point.
    Each scanned level is a feasible decision, so the result bounds the
    optimum from above; it is exact where the optimum sits on a breakpoint.
    Practical for a few clients.
    """
    edges = feasible_edges(ctx, cfg)
    rows = [int(i) for i in ctx.eligible if edges[i].any()]
    if not rows:
        raise ValueError("no feasible client; loosen the instance")
    required = min(ctx.n_channels, len(rows))
    fixed = {i: float(ctx.d_down[i] + ctx.d_local[i]) for i in rows}
    breaks = {
        (i, j): fixed[i] + _edge_breakpoints(ctx, cfg, i, j)
        for i in rows
        for j in range(ctx.n_channels)
        if edges[i, j]
    }
    best = math.inf
    for subset in itertools.combinations(rows, required):
        for perm in itertools.permutations(range(ctx.n_channels), required):
            if not all(edges[i, j] for i, j in zip(subset, perm)):
                continue
            members = list(zip(subset, perm))
            own = np.concatenate([breaks[edge] for edge in members])
            base = sum(queues.q_fa[i] for i in subset)

            def scan(levels: np.ndarray) -> np.ndarray:
                value = base + queues.q_de * (levels - cfg.d_avg)
                for i, j in members:
                    s = _edge_best_rate(ctx, cfg, i, j, levels - fixed[i])
                    value = value - cfg.lam * ctx.weights[i] * s
                return np.where(np.isnan(value), np.inf, value)

            levels = np.unique(np.concatenate([own, np.linspace(own.min(), own.max(), _SCAN_POINTS)]))
            for _ in range(_SCAN_ZOOMS + 1):
                values = scan(levels)
                k = int(np.argmin(values))
                best = min(best, float(values[k]))
                around = levels[max(k - 1, 0)], levels[min(k + 1, levels.size - 1)]
                levels = np.linspace(*around, _SCAN_POINTS)
    return best


def run_verify() -> tuple[int, list[str]]:
    """Condensed oracle suite for the CLI; returns (failures, report lines)."""
    lines: list[str] = []
    failures = 0

    def record(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        failures += 0 if ok else 1
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    worst_rel = 0.0
    for alpha in (2.0, 4.0, 8.0, 16.0):
        for sigma in (0.4, 0.5, 0.6, 1.0):
            got = log_moments(1.0, sigma, (alpha,))[0]
            want = analytic_full_batch_log_moment(sigma, alpha)
            worst_rel = max(worst_rel, abs(got - want) / want)
    record("accountant-analytic", worst_rel < 1e-6, f"max relative error {worst_rel:.2e}")

    rng = np.random.default_rng(20260819)
    worst_abs = 0.0
    for _ in range(10):
        q = float(rng.uniform(0.01, 1.0))
        sigma = float(rng.uniform(0.4, 2.0))
        alpha = float(rng.integers(2, 33))
        got = log_moments(q, sigma, (alpha,))[0]
        ref = log_moment_trapezoid(q, sigma, alpha)
        worst_abs = max(worst_abs, abs(got - ref) / max(1.0, abs(ref)))
    record("accountant-quadrature", worst_abs < 1e-7, f"max mismatch {worst_abs:.2e}")

    bad = 0
    for _ in range(10):
        q = float(rng.uniform(0.01, 1.0))
        sigma = float(rng.uniform(0.4, 2.0))
        eps = float(rng.uniform(1.0, 20.0))
        if not check_inversion(q, sigma, eps):
            bad += 1
    record("accountant-inversion", bad == 0, f"{bad} of 10 budgets bracketed wrong")

    bad = 0
    for _ in range(100):
        n_cl = int(rng.integers(2, 7))
        n_ch = int(rng.integers(2, 6))
        ctx, cfg, queues = random_round_context(rng, n_cl, n_ch, q_de=0.0, e_max_j=0.05)
        # At s_th = 1 every rate is 1, and with no delay debt the round is
        # the assignment problem alone.
        cfg = replace(cfg, s_th=1.0)
        edges = feasible_edges(ctx, cfg)
        s = np.ones(n_cl)
        powers = np.full(n_cl, ctx.radio.max_power_w)
        reference = brute_force_assignment(ctx, cfg, queues, s, powers, edges)
        if reference is None:
            continue
        try:
            decision = schedule_round(ctx, cfg, queues)
        except Exception:
            bad += 1
            continue
        got = sum(queues.q_fa[i] - cfg.lam * ctx.weights[i] for i in decision.participants)
        if abs(got - reference[0]) > 1e-9:
            bad += 1
    record("assignment-enumeration", bad == 0, f"{bad} of 100 instances mismatched")

    bad = 0
    for _ in range(10):
        ctx, cfg, queues = random_round_context(rng, 3, 3)
        decision = schedule_round(ctx, cfg, queues)
        assigned, s, powers = decision.assigned_channel, decision.rates, decision.powers
        solver_v = drift_penalty_value(ctx, cfg, queues, assigned, s, powers)
        oracle_v, _ = grid_search_sparsification(ctx, cfg, queues, assigned, powers, step=1e-3)
        coarse_smart, _ = grid_search_sparsification(ctx, cfg, queues, assigned, powers, step=0.05)
        coarse_dense = enumerate_sparsification(ctx, cfg, queues, assigned, powers, step=0.05)
        if solver_v > oracle_v + 1e-6 or abs(coarse_smart - coarse_dense) > 1e-9:
            bad += 1
    record("sparsification-grid", bad == 0, f"{bad} of 10 instances mismatched")

    bad = 0
    for _ in range(5):
        ctx, cfg, queues = random_round_context(rng, 2, 2)
        decision = schedule_round(ctx, cfg, queues)
        oracle_v = brute_force_joint(ctx, cfg, queues, step=1e-3)
        assigned, s, powers = decision.assigned_channel, decision.rates, decision.powers
        if drift_penalty_value(ctx, cfg, queues, assigned, s, powers) > oracle_v + 1e-6:
            bad += 1
    record("joint-round", bad == 0, f"{bad} of 5 instances above the oracle")

    bad = capped = 0
    for k in range(6):
        e_max_j = float(np.exp(rng.uniform(math.log(0.02), math.log(2.0))))
        ctx, cfg, queues = random_round_context(rng, 2 + k % 2, 2, model_dim=500, e_max_j=e_max_j)
        decision = schedule_round(ctx, cfg, queues)
        capped += bool(np.any(decision.powers[decision.participants] < ctx.radio.max_power_w))
        try:
            validate_decision(ctx, cfg, decision, optimized=True)
        except AssertionError:
            bad += 1
            continue
        assigned, s, powers = decision.assigned_channel, decision.rates, decision.powers
        value = drift_penalty_value(ctx, cfg, queues, assigned, s, powers)
        if value > brute_force_joint_energy(ctx, cfg, queues) + 1e-6:
            bad += 1
    record(
        "joint-round-energy",
        bad == 0,
        f"{bad} of 6 instances above the oracle or over the cap ({capped} below full power)",
    )

    # Its own generator, so the lines above keep their draws.
    frac_rng = np.random.default_rng(20261019)
    worst_rel = 0.0
    for q, sigma in zip(frac_rng.uniform(0.01, 1.0, 5).tolist(), [0.1, 0.4, 1.0, 2.0, 0.001]):
        ref = log_moment_trapezoid(q, sigma, 1.5)
        worst_rel = max(worst_rel, abs(log_moments(q, sigma, (1.5,))[0] - ref) / ref)
    record("accountant-fractional", worst_rel < 1e-8, f"order 1.5, max rel error {worst_rel:.2e}")

    return failures, lines
