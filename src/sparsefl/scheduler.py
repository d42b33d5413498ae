"""Joint client-channel assignment, transmit power, and sparsification control.

Each round minimizes a drift-plus-penalty objective

    V = sum_assigned (q_fa[i] - lam * p[i] * s[i]) + q_de * (d_round - d_avg)

over one-to-one client-channel assignments, per-client transmit powers, and
per-client sparsification rates, where d_round is the slowest assigned
client's delay and the virtual queues q_fa (participation credit) and q_de
(delay debt) feed back long-run fairness and delay targets.

Fixing the straggler level l (the round delay) decouples the clients: each
edge (i, j) then has a best power and rate in closed form (_LevelModel), and
one Hungarian matching over the costs q_fa[i] - lam * p[i] * s_ij(l) gives
M(l); V is the minimum over l of M(l) + q_de * (l - d_avg). M never increases
with l and, while no energy cap binds, is concave between consecutive edge
breakpoints, so branch and bound over the sorted breakpoints is exact. Where
a cap binds the winning matching's own objective is convex in l and is then
minimized by bounded Brent search.

schedule_round runs three named steps: optimal_assignment (the level sweep
and its matchings), optimal_sparsification (the winner's assignment, level,
rates and powers) and optimal_power (the Newton solve for a binding edge's
power). Each is called through its module global, so a wrapper bound to the
name sees every call. oracles.drift_penalty_value scores a decision
independently.

The objective's uplink payload is the smooth 32 * s * dim + dim bits; the
energy constraint keeps one bit of slack for the realized, rounded payload.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from types import EllipsisType

import numpy as np
from numpy.typing import ArrayLike
from scipy.optimize import linear_sum_assignment, minimize_scalar

from . import wireless
from .wireless import ChannelRealization, ComputeParams, DeadLinkError, RadioParams

_ENERGY_MARGIN = 1e-6
# Cap on Newton steps for a binding-branch power; it converges in far fewer.
_NEWTON_STEPS = 50

BASELINE_POLICIES = ("random", "round_robin", "delay_min")
OPTIMIZED_POLICY = "lyapunov"
POLICIES = (OPTIMIZED_POLICY,) + BASELINE_POLICIES


class EmptyRoundError(RuntimeError):
    """No client can be scheduled this round."""


@dataclass
class VirtualQueues:
    """Participation-credit queues (one per client) and the delay-debt queue."""

    q_fa: np.ndarray
    q_de: float = 0.0

    @classmethod
    def zeros(cls, n_clients: int) -> "VirtualQueues":
        return cls(q_fa=np.zeros(n_clients), q_de=0.0)


@dataclass(frozen=True)
class SchedulerConfig:
    lam: float = 50.0
    d_avg: float = 1.0
    e_max_j: float = 10.0
    s_th: float = 0.05

    def __post_init__(self) -> None:
        if self.lam < 0 or self.d_avg <= 0 or self.e_max_j <= 0:
            raise ValueError("lam must be nonnegative; d_avg and e_max_j positive")
        if not 0.0 < self.s_th <= 1.0:
            raise ValueError("s_th must be in (0, 1]")


@dataclass(frozen=True)
class RoundContext:
    """The round's cost model: every delay and energy the solvers score.

    is_eligible is the eligible set as a [clients] mask. weights are each
    eligible client's share p_i of the eligible set's samples (zero for
    ineligible clients). They, d_down, d_local, and e_comp are fixed per
    client for the round; only the uplink leg depends on the decision
    variables, through the [clients, channels] uplink SNR per watt of
    transmit power. full_rate is every edge's uplink rate at full power,
    priced once here for every solver that reads it.

    Channels and CPU frequencies may carry a leading [rounds] axis, stacking
    rounds that share the eligible set, sizes and radio; the derived arrays
    other than weights then carry it too.
    Only delay_min baselines and build_decision accept such a context.
    """

    model_dim: int
    tau: int
    eligible: np.ndarray
    dataset_sizes: np.ndarray
    channels: ChannelRealization
    radio: RadioParams
    compute: ComputeParams
    is_eligible: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    d_down: np.ndarray = field(init=False)
    d_local: np.ndarray = field(init=False)
    e_comp: np.ndarray = field(init=False)
    snr_per_w: np.ndarray = field(init=False)
    full_rate: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        radio = self.radio
        down_snr = radio.downlink_power_w * self.channels.downlink_gains / radio.noise_w
        down_rate = wireless.shannon_rate(radio, down_snr)
        if not np.all(down_rate > 0):
            raise DeadLinkError("downlink rates must be positive for every client")
        compute, freq = self.compute, self.compute.cpu_freq_hz
        work = self.tau * np.asarray(self.dataset_sizes, dtype=np.int64) * compute.cycles_per_sample
        sizes, eligible = self.dataset_sizes, self.eligible
        is_eligible = np.zeros(self.n_clients, dtype=bool)
        is_eligible[eligible] = True
        weights = np.zeros(self.n_clients)
        weights[eligible] = sizes[eligible] / sizes[eligible].sum()
        object.__setattr__(self, "is_eligible", is_eligible)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(
            self, "d_down", wireless.downlink_payload_bits(self.model_dim) / down_rate
        )
        object.__setattr__(self, "d_local", work / freq)
        object.__setattr__(self, "e_comp", compute.capacitance * work * freq**2 / 2.0)
        snr_per_w = self.channels.uplink_gains / radio.noise_w
        object.__setattr__(self, "snr_per_w", snr_per_w)
        object.__setattr__(
            self, "full_rate", wireless.shannon_rate(radio, radio.max_power_w * snr_per_w)
        )

    @property
    def n_clients(self) -> int:
        return self.channels.uplink_gains.shape[-2]

    @property
    def n_channels(self) -> int:
        return self.channels.uplink_gains.shape[-1]


@dataclass
class ScheduleDecision:
    """One round's scheduling outcome with its realized uplink costs.

    assigned_channel holds -1 for clients left out. Rates, powers and uplink
    costs are zero for unscheduled clients; the fixed per-client delays and
    compute energy stay in the RoundContext. v_trace holds the optimizing
    policy's incumbents, non-increasing: the level sweep's, then Brent's
    refinement if it improved on them (empty for baselines). Its last entry
    is the emitted decision's objective as the solver scored it. A decision
    on a stacked RoundContext has one row per round and a [rounds] round_delay.
    """

    assigned_channel: np.ndarray
    rates: np.ndarray
    powers: np.ndarray
    e_comm: np.ndarray
    round_delay: float | np.ndarray
    v_trace: tuple[float, ...] = ()

    @property
    def participants(self) -> np.ndarray:
        return np.flatnonzero(self.assigned_channel >= 0)


def update_queues(
    queues: VirtualQueues, decision: ScheduleDecision, beta: np.ndarray, d_avg: float
) -> VirtualQueues:
    """One-step queue recursion, clamped at zero.

    Participation credit grows by one for each scheduled client and drains by
    beta for everyone; delay debt grows by the round delay and drains by d_avg.
    """
    served = (decision.assigned_channel >= 0).astype(float)
    q_fa = np.maximum(queues.q_fa + served - beta, 0.0)
    q_de = max(queues.q_de + decision.round_delay - d_avg, 0.0)
    return VirtualQueues(q_fa=q_fa, q_de=q_de)


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right sum; np.sum's pairwise order would move the last bits."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def feasible_edges(ctx: RoundContext, cfg: SchedulerConfig) -> np.ndarray:
    """Boolean [clients, channels] map of edges that can meet the energy cap.

    An edge is kept when the transmit energy of the dense payload plus one bit
    of rounding slack, in the zero-power limit, stays below the cap's
    headroom, so any rate in (0, 1] admits a feasible power on a kept edge,
    and its full-power rate is positive, so a payload can cross it.
    """
    headroom = cfg.e_max_j - ctx.e_comp
    dense_payload = wireless.payload_bits(ctx.model_dim, 1.0) + 1.0
    limit_energy = wireless.zero_power_energy(ctx.radio, dense_payload, ctx.snr_per_w)
    live = ctx.full_rate > 0.0
    fits = limit_energy * (1.0 + _ENERGY_MARGIN) < headroom[:, None]
    return ctx.is_eligible[:, None] & live & fits


def optimal_power(
    radio: RadioParams, snr_per_w: np.ndarray, headroom: np.ndarray, x: ArrayLike, bits: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Power and uplink rate solving R(P) * (H - x * P) = bits * P on binding edges.

    F(P) = R(P) * (H - x * P) - bits * P is concave with F(0) = 0, rises at
    zero when the headroom H covers `bits` in the zero-power limit and is
    negative at full power when the cap binds there, so Newton's method from
    full power falls monotonically onto its positive root.
    """
    power = np.full(snr_per_w.shape, radio.max_power_w)
    falling = np.ones(snr_per_w.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        rate = wireless.shannon_rate(radio, power * snr_per_w)
        rate_slope = wireless.shannon_rate_slope(radio, snr_per_w, power)
        room = headroom - x * power
        step = (rate * room - bits * power) / (rate_slope * room - x * rate - bits)
        # The fall is monotone, so a step that is not positive is rounding
        # noise at the root; an element stops once its step is below 1e-15 P.
        power = np.where(falling & (step > 0.0), power - step, power)
        falling &= step > 1e-15 * power
        if not falling.any():
            break
    else:
        raise RuntimeError("binding-branch power did not converge")
    return power, wireless.shannon_rate(radio, power * snr_per_w)


def _matching(cost: np.ndarray) -> tuple[float, tuple[np.ndarray, np.ndarray]] | None:
    """Minimum-cost matching of cost's rows to its columns, or None.

    Returns the matching's cost and its (rows, columns) index pair. Infinite
    entries are excluded edges; None means no matching of min(rows, columns)
    rows avoids them all.
    """
    try:
        row_ind, col_ind = linear_sum_assignment(cost)
    except ValueError as exc:
        if str(exc) != "cost matrix is infeasible":
            raise
        return None
    return _sum_in_order(cost[row_ind, col_ind]), (row_ind, col_ind)


def _level_sweep(
    levels: np.ndarray, match_at, q_de: float, d_avg: float
) -> tuple[list[float], float, tuple | None]:
    """Branch and bound for the minimum over sorted levels of M(l) + q_de * (l - d_avg).

    match_at(l) returns (M(l), matching), or None when no full matching
    exists at l; M never increases with l, so every level in [a, b] scores at
    least M(b) + q_de * (a - d_avg). An interval is dropped once that bound
    reaches the incumbent and is otherwise split at its middle level. Returns
    the incumbents (non-increasing), the best level and its assignment; ties
    go to the lowest level.
    """
    best_value, best_level, best_choice = math.inf, math.inf, None
    trace: list[float] = []

    def visit(level: float) -> float:
        nonlocal best_value, best_level, best_choice
        found = match_at(level)
        if found is None:
            return math.inf
        total, choice = found
        value = total + q_de * (level - d_avg)
        if value < best_value or (value == best_value and level < best_level):
            best_value, best_level, best_choice = value, level, choice
            trace.append(value)
        return total

    top = levels.size - 1
    m_top = visit(float(levels[top]))
    if q_de <= 0.0 or top == 0 or m_top == math.inf:
        return trace, best_level, best_choice
    visit(float(levels[0]))
    heap = [(m_top + q_de * (levels[0] - d_avg), 0, top, m_top)]
    while heap:
        bound, lo, hi, m_hi = heapq.heappop(heap)
        if bound >= best_value or hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        m_mid = visit(float(levels[mid]))
        heapq.heappush(heap, (m_mid + q_de * (levels[lo] - d_avg), lo, mid, m_mid))
        heapq.heappush(heap, (m_hi + q_de * (levels[mid] - d_avg), mid, hi, m_hi))
    return trace, best_level, best_choice


class _LevelModel:
    """Every candidate edge's best rate and power as functions of the level.

    The per-edge arrays are [rows, channels]: row k holds client rows[k], one
    of the eligible clients with an energy-feasible channel, in eligible order.

    At level l an edge has x = l - d_down - d_local seconds to upload. While
    its cap is slack it sends at full power and its rate rises linearly from
    s_th at bp_lo to 1 at bp_hi: its delay is slope * s + offset. The cap
    allows rates up to s_sw at full power, less one bit of rounding slack; a
    cap that binds before s = 1 does so from bp_sw on. The edge then sends at
    the power where the delay and energy constraints meet, and its rate rises
    concavely until bp_hi. binding says whether any edge has such a branch.
    Infeasible edges have bp_lo = inf; a dead link's slope is 1, not inf, so
    its (level - offset) / slope is -inf, not NaN.
    """

    def __init__(self, ctx: RoundContext, cfg: SchedulerConfig) -> None:
        self.ctx, self.s_th, p_max = ctx, cfg.s_th, ctx.radio.max_power_w
        edges = feasible_edges(ctx, cfg)
        rows = self.rows = ctx.eligible[edges[ctx.eligible].any(axis=1)]
        if rows.size == 0:
            raise EmptyRoundError("no eligible client has an energy-feasible channel")
        edges, self.snr_per_w, rate = edges[rows], ctx.snr_per_w[rows], ctx.full_rate[rows]
        shape = edges.shape
        self.headroom = np.repeat((cfg.e_max_j - ctx.e_comp[rows])[:, None], shape[1], axis=1)
        self.fixed = np.repeat((ctx.d_down[rows] + ctx.d_local[rows])[:, None], shape[1], axis=1)
        mask, values = wireless.smooth_payload_pieces(ctx.model_dim)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.slope = np.where(rate > 0.0, values / rate, 1.0)
            self.offset = mask / rate + ctx.d_down[rows, None] + ctx.d_local[rows, None]
            bits_at_cap = self.headroom * rate / p_max
            s_sw = wireless.smooth_payload_rate(ctx.model_dim, bits_at_cap) - 1.0 / values
        self.bp_lo = np.where(edges, self.slope * self.s_th + self.offset, np.inf)
        self.bp_hi = self.slope + self.offset
        self.bp_sw = np.full(shape, np.inf)
        self.p_hi = np.full(shape, p_max)
        binds = edges & (s_sw < 1.0)
        low = binds & (s_sw < self.s_th)
        self.binding = bool(binds.any())
        if self.binding:
            self.bp_sw[binds] = self.slope[binds] * s_sw[binds] + self.offset[binds]
            self.bp_hi[binds], self.p_hi[binds] = self._curve_point(binds, 1.0)
        if low.any():
            self.bp_lo[low] = self._curve_point(low, self.s_th)[0]
        breakpoints = (self.bp_lo[edges], self.bp_hi[edges], self.bp_sw[binds & ~low])
        self.levels = np.unique(np.concatenate(breakpoints))

    def _curve_point(self, at: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
        """Level and power at which the binding branch of the edges at reaches rate s."""
        payload = wireless.smooth_payload_bits(self.ctx.model_dim, s)
        power, rate = optimal_power(
            self.ctx.radio, self.snr_per_w[at], self.headroom[at], 0.0, payload + 1.0
        )
        return payload / rate + self.fixed[at], power

    def at_level(
        self, level: float, at: tuple | EllipsisType = ...
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rates, powers and usability of the edges `at` indexes (all of them by default).

        A binding edge's rate is the smaller of its time and energy budgets
        at the solved power, so both constraints hold to rounding.
        """
        usable = level >= self.bp_lo[at]
        s = ((level - self.offset[at]) / self.slope[at]).clip(self.s_th, 1.0)
        if not self.binding:
            return s, self.p_hi[at], usable
        power = np.where(level > self.bp_sw[at], self.p_hi[at], self.ctx.radio.max_power_w)
        bind = usable & (level > self.bp_sw[at]) & (level < self.bp_hi[at])
        if bind.any():
            x = level - self.fixed[at][bind]
            headroom = self.headroom[at][bind]
            snr_per_w = self.snr_per_w[at][bind]
            power[bind], rate = optimal_power(self.ctx.radio, snr_per_w, headroom, x, 1.0)
            bits = np.minimum(x * rate, headroom * rate / power[bind] - 1.0)
            dim = self.ctx.model_dim
            s[bind] = np.clip(wireless.smooth_payload_rate(dim, bits), self.s_th, 1.0)
        return s, power, usable


def optimal_assignment(
    model: _LevelModel, cfg: SchedulerConfig, queues: VirtualQueues
) -> tuple[list[float], float, tuple[np.ndarray, np.ndarray]]:
    """Branch and bound over the straggler level, one Hungarian matching per visited level.

    Returns the incumbents, the winning level and its matching as (model
    rows, channels).
    """
    rows = model.rows
    q_fa, lam_w = queues.q_fa[rows, None], cfg.lam * model.ctx.weights[rows, None]

    def match_at(level: float) -> tuple[float, tuple[np.ndarray, np.ndarray]] | None:
        s, _, usable = model.at_level(level)
        return _matching(np.where(usable, q_fa - lam_w * s, np.inf))

    trace, level, matching = _level_sweep(model.levels, match_at, queues.q_de, cfg.d_avg)
    if matching is None:
        raise EmptyRoundError("no feasible assignment")
    return trace, level, matching


def optimal_sparsification(
    model: _LevelModel,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
    matching: tuple[np.ndarray, np.ndarray],
    level: float,
    trace: list[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assignment vector, rates and powers of the winning matching at its level.

    When one of its edges' caps binds, the level is first refined by Brent's
    method between the levels at which all its edges are usable and all have
    reached s = 1; an improved objective is appended to trace.
    """
    ctx = model.ctx
    clients = model.rows[matching[0]]
    q_fa, lam_w = queues.q_fa[clients], cfg.lam * ctx.weights[clients]
    if queues.q_de > 0.0 and np.isfinite(model.bp_sw[matching]).any():

        def value_at(x: float) -> float:
            linear = _sum_in_order(q_fa - lam_w * model.at_level(x, matching)[0])
            return linear + queues.q_de * (x - cfg.d_avg)

        bounds = (float(model.bp_lo[matching].max()), float(model.bp_hi[matching].max()))
        polished = minimize_scalar(value_at, bounds=bounds, method="bounded", options={"xatol": 0})
        if polished.fun < trace[-1]:
            level = float(polished.x)
            trace.append(float(polished.fun))
    assigned = np.full(ctx.n_clients, -1, dtype=int)
    assigned[clients] = matching[1]
    s = np.ones(ctx.n_clients)
    powers = np.full(ctx.n_clients, ctx.radio.max_power_w)
    s[clients], powers[clients], _ = model.at_level(level, matching)
    return assigned, s, powers


def schedule_round(
    ctx: RoundContext, cfg: SchedulerConfig, queues: VirtualQueues
) -> ScheduleDecision:
    """Drift-plus-penalty decision: the matching and level, then its rates and powers."""
    model = _LevelModel(ctx, cfg)
    trace, level, matching = optimal_assignment(model, cfg, queues)
    assigned, s, powers = optimal_sparsification(model, cfg, queues, matching, level, trace)
    return build_decision(ctx, assigned, s, powers, tuple(trace))


def build_decision(
    ctx: RoundContext,
    assigned_channel: np.ndarray,
    s: ArrayLike,
    powers: ArrayLike,
    v_trace: tuple[float, ...] = (),
) -> ScheduleDecision:
    """Realized costs of an assignment, with the rounded uplink payload.

    s and powers broadcast against assigned_channel. Unassigned clients get
    zero rate, power and costs; an all -1 assignment is the empty decision.
    On a stacked context assigned_channel is [rounds, clients] and each round
    gets its own round delay.
    """
    shape = assigned_channel.shape
    at = np.nonzero(assigned_channel >= 0)
    s_at, p_at = (np.broadcast_to(v, shape)[at] for v in (s, powers))
    edges = at + (assigned_channel[at],)
    up_rate = wireless.shannon_rate(ctx.radio, p_at * ctx.snr_per_w[edges])
    if not np.all(up_rate > 0):
        raise DeadLinkError("link rates must be positive for a scheduled client")
    out = {name: np.zeros(shape) for name in ("e_comm", "rates", "powers")}
    d_up = wireless.payload_bits(ctx.model_dim, s_at) / up_rate
    out["e_comm"][at] = p_at * d_up
    out["rates"][at] = s_at
    out["powers"][at] = p_at
    total_delay = np.zeros(shape)
    total_delay[at] = ctx.d_down[at] + ctx.d_local[at] + d_up
    round_delay = total_delay.max(axis=-1, initial=0.0)
    return ScheduleDecision(
        assigned_channel=assigned_channel.copy(),
        round_delay=float(round_delay) if round_delay.ndim == 0 else round_delay,
        v_trace=v_trace,
        **out,
    )


def validate_decision(
    ctx: RoundContext, cfg: SchedulerConfig, decision: ScheduleDecision, optimized: bool
) -> None:
    """Assert a decision's structure and, for the optimizing policy, its limits.

    Every policy keeps rates in (0, 1] and powers in (0, max]; only the
    optimizing policy is held to the rate floor s_th and the energy cap.
    """
    clients = decision.participants
    chans = decision.assigned_channel[clients]
    if np.any(chans >= ctx.n_channels):
        raise ValueError("assignment names an unknown channel")
    if np.bincount(chans).max(initial=0) > 1:
        raise ValueError("assignment reuses a channel")
    if not ctx.is_eligible[clients].all():
        raise ValueError("assignment schedules an ineligible client")
    s, powers = decision.rates[clients], decision.powers[clients]
    rate_ok = (0.0 < s) & (s <= 1.0 + 1e-12)
    power_ok = (0.0 < powers) & (powers <= ctx.radio.max_power_w * (1.0 + 1e-12))
    bad = np.flatnonzero(~(rate_ok & power_ok))
    if bad.size:
        what = "power" if rate_ok[bad[0]] else "rate"
        raise ValueError(f"{what} out of range for client {clients[bad[0]]}")
    if not optimized:
        return
    low = clients[s < cfg.s_th - 1e-12]
    if low.size:
        raise AssertionError(f"client {low[0]} below the rate floor")
    total = decision.e_comm[clients] + ctx.e_comp[clients]
    over = np.flatnonzero(total > cfg.e_max_j + 1e-9)
    if over.size:
        raise AssertionError(f"client {clients[over[0]]} exceeds the energy cap: {total[over[0]]}")


def baseline_schedule(
    ctx: RoundContext,
    policy: str,
    round_num: int,
    rng: np.random.Generator | None,
    s_value: float = 1.0,
) -> ScheduleDecision:
    """Dense reference policies: random, round_robin, or delay_min.

    All run at maximum power. random draws from rng, which the other policies
    never read; round_robin walks fixed client groups of channel size in
    cyclic order, skipping ineligible members; delay_min greedily takes the
    lowest-delay client-channel pairs at the given rate. delay_min also takes
    a stacked context and decides all of its rounds at once.
    """
    if policy not in BASELINE_POLICIES:
        raise ValueError(f"unknown baseline policy {policy!r}")
    if ctx.eligible.size == 0:
        raise EmptyRoundError("no eligible clients")
    if ctx.d_down.ndim > 1 and policy != "delay_min":
        raise ValueError(f"{policy} takes one round at a time")
    assigned_channel = np.full(ctx.d_down.shape, -1, dtype=int)
    p_max = ctx.radio.max_power_w
    if policy == "random":
        count = min(ctx.n_channels, ctx.eligible.size)
        chosen = rng.choice(ctx.eligible, size=count, replace=False)
        assigned_channel[chosen] = rng.permutation(ctx.n_channels)[:count]
    elif policy == "round_robin":
        n_groups = math.ceil(ctx.n_clients / ctx.n_channels)
        first = (round_num % n_groups) * ctx.n_channels
        members = np.arange(first, min(first + ctx.n_channels, ctx.n_clients))
        chosen = members[ctx.is_eligible[members]]
        assigned_channel[chosen] = np.arange(chosen.size)
    else:
        # Each step takes every round's least delay in its client-major matrix,
        # so ties go to the lower client, then the lower channel, and retires
        # that row and column. Dead links rank after every live one but can
        # still be taken; ineligible clients never are.
        payload = wireless.smooth_payload_bits(ctx.model_dim, s_value)
        with np.errstate(divide="ignore"):
            delays = payload / ctx.full_rate + ctx.d_down[..., None] + ctx.d_local[..., None]
        delays = np.where(
            ctx.is_eligible[:, None], np.minimum(delays, np.finfo(float).max), np.inf
        )
        lead = delays.shape[:-2]
        r = np.indices(lead, sparse=True)
        for _ in range(min(ctx.n_channels, ctx.eligible.size)):
            i, j = np.divmod(delays.reshape(*lead, -1).argmin(axis=-1), ctx.n_channels)
            assigned_channel[(*r, i)] = j
            delays[(*r, i)] = np.inf
            delays[(*r, slice(None), j)] = np.inf
    return build_decision(ctx, assigned_channel, s_value, p_max)
