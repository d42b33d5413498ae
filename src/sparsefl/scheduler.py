"""Joint client-channel assignment, transmit power, and sparsification control.

Each round minimizes a drift-plus-penalty objective

    V = sum_assigned (q_fa[i] - lam * p[i] * s[i]) + q_de * (d_round - d_avg)

over one-to-one client-channel assignments, per-client transmit powers, and
per-client sparsification rates, where d_round is the slowest assigned
client's delay and the virtual queues q_fa (participation credit) and q_de
(delay debt) feed back long-run fairness and delay targets.

Block structure: for fixed rates and powers the assignment problem is a
bottleneck-augmented matching solved exactly by sweeping the possible
round-delay levels with one Hungarian matching per level; for a fixed
assignment the optimal power is the largest energy-feasible value; for fixed
assignment and powers the rate problem is an exact parametric sweep over the
straggler's delay. The three blocks alternate until the objective stops
improving, so the objective trace is non-increasing.

Inside the objective the uplink payload is the smooth function
32 * s * dim + dim bits (no integer rounding), which keeps the block solvers
exact; realized decisions use the rounded payload, which differs by less than
one bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike
from scipy.optimize import linear_sum_assignment

from . import wireless
from .wireless import ChannelRealization, ComputeParams, RadioParams

_BIG_COST = 1e18
_POWER_FLOOR_FRACTION = 1e-12
_ENERGY_MARGIN = 1e-6
# Instances with at most this many candidate assignments are solved by
# enumerating every assignment instead of alternating against one incumbent.
_EXHAUSTIVE_LIMIT = 24

BASELINE_POLICIES = ("random", "round_robin", "delay_min")
OPTIMIZED_POLICY = "lyapunov"
POLICIES = (OPTIMIZED_POLICY,) + BASELINE_POLICIES


class EmptyRoundError(RuntimeError):
    """No client can be scheduled this round."""


class EnergyInfeasibleError(RuntimeError):
    """A client cannot meet the energy cap at any positive transmit power."""


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
    loop_tol: float = 1e-6
    loop_max_iters: int = 50

    def __post_init__(self) -> None:
        if self.lam < 0 or self.d_avg <= 0 or self.e_max_j <= 0:
            raise ValueError("lam must be nonnegative; d_avg and e_max_j positive")
        if not 0.0 < self.s_th <= 1.0:
            raise ValueError("s_th must be in (0, 1]")
        if self.loop_tol <= 0 or self.loop_max_iters < 1:
            raise ValueError("loop_tol must be positive and loop_max_iters at least 1")


@dataclass(frozen=True)
class RoundContext:
    """The round's cost model: every delay and energy the solvers score.

    weights are the aggregation weights over the eligible set (zero for
    ineligible clients). d_down, d_local, and e_comp are fixed per client for
    the round; only the uplink leg depends on the decision variables, and the
    uplink methods take client and channel index arrays (or scalars) that
    broadcast against the rates and powers.
    """

    model_dim: int
    tau: int
    eligible: np.ndarray
    weights: np.ndarray
    dataset_sizes: np.ndarray
    channels: ChannelRealization
    radio: RadioParams
    compute: list[ComputeParams]
    d_down: np.ndarray = field(init=False)
    d_local: np.ndarray = field(init=False)
    e_comp: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        down_rate = wireless.link_rate(
            self.radio.downlink_power_w,
            self.channels.downlink_gains,
            self.radio.interference_w,
            self.radio,
        )
        if not np.all(down_rate > 0):
            raise ValueError("downlink rates must be positive for every client")
        cycles = np.array([c.cycles_per_sample for c in self.compute])
        freq = np.array([c.cpu_freq_hz for c in self.compute])
        capacitance = np.array([c.capacitance for c in self.compute])
        work = self.tau * np.asarray(self.dataset_sizes, dtype=np.int64) * cycles
        object.__setattr__(
            self, "d_down", wireless.downlink_payload_bits(self.model_dim) / down_rate
        )
        object.__setattr__(self, "d_local", work / freq)
        object.__setattr__(self, "e_comp", capacitance * work * freq**2 / 2.0)

    @property
    def n_clients(self) -> int:
        return self.channels.uplink_gains.shape[0]

    @property
    def n_channels(self) -> int:
        return self.channels.uplink_gains.shape[1]

    def uplink_rate(
        self, clients: ArrayLike, channels: ArrayLike, power_w: ArrayLike
    ) -> np.ndarray:
        return wireless.link_rate(
            power_w,
            self.channels.uplink_gains[clients, channels],
            self.radio.interference_w,
            self.radio,
        )

    def smooth_delay(
        self, clients: ArrayLike, channels: ArrayLike, s: ArrayLike, power_w: ArrayLike
    ) -> np.ndarray:
        """Round delay under the un-rounded payload model; a dead link's is inf."""
        rate = self.uplink_rate(clients, channels, power_w)
        payload = 32.0 * s * self.model_dim + self.model_dim
        with np.errstate(divide="ignore"):
            return payload / rate + self.d_down[clients] + self.d_local[clients]

    def uplink_energy(
        self, clients: ArrayLike, channels: ArrayLike, s: ArrayLike, power_w: ArrayLike
    ) -> np.ndarray:
        """Transmit energy of the rounded payload."""
        rate = self.uplink_rate(clients, channels, power_w)
        return power_w * wireless.payload_bits(self.model_dim, s) / rate


@dataclass
class ScheduleDecision:
    """One round's scheduling outcome with realized costs.

    assigned_channel holds -1 for clients left out. Cost vectors are zero for
    unscheduled clients. v_trace records the objective after each block pass
    for the optimizing policy (empty for baselines).
    """

    assigned_channel: np.ndarray
    rates: np.ndarray
    powers: np.ndarray
    d_down: np.ndarray
    d_local: np.ndarray
    d_up: np.ndarray
    e_comm: np.ndarray
    e_comp: np.ndarray
    round_delay: float
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
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _check_structure(
    ctx: RoundContext, assigned_channel: np.ndarray, s: np.ndarray, powers: np.ndarray
) -> np.ndarray:
    assigned = np.flatnonzero(assigned_channel >= 0)
    chans = assigned_channel[assigned]
    if len(np.unique(chans)) != len(chans):
        raise ValueError("assignment reuses a channel")
    if np.any(assigned_channel >= ctx.n_channels):
        raise ValueError("assignment names an unknown channel")
    if not set(ctx.eligible.tolist()).issuperset(assigned.tolist()):
        raise ValueError("assignment schedules an ineligible client")
    rate_ok = (0.0 < s[assigned]) & (s[assigned] <= 1.0 + 1e-12)
    power_ok = (0.0 < powers[assigned]) & (
        powers[assigned] <= ctx.radio.max_power_w * (1.0 + 1e-12)
    )
    bad = np.flatnonzero(~(rate_ok & power_ok))
    if bad.size:
        what = "power" if rate_ok[bad[0]] else "rate"
        raise ValueError(f"{what} out of range for client {assigned[bad[0]]}")
    return assigned


def drift_penalty_value(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
    assigned_channel: np.ndarray,
    s: np.ndarray,
    powers: np.ndarray,
) -> float:
    """Drift-plus-penalty objective of a candidate decision.

    Uses the smooth payload model; energy feasibility is the callers'
    responsibility. An empty assignment scores q_de * (0 - d_avg).
    """
    assigned = _check_structure(ctx, assigned_channel, s, powers)
    value = _sum_in_order(queues.q_fa[assigned] - cfg.lam * ctx.weights[assigned] * s[assigned])
    delays = ctx.smooth_delay(assigned, assigned_channel[assigned], s[assigned], powers[assigned])
    worst = float(np.max(delays, initial=0.0))
    return value + queues.q_de * (worst - cfg.d_avg)


def feasible_edges(ctx: RoundContext, cfg: SchedulerConfig) -> np.ndarray:
    """Boolean [clients, channels] map of edges that can meet the energy cap.

    An edge is kept when the dense-payload transmit energy in the zero-power
    limit stays below the cap's headroom, so any rate in (0, 1] admits a
    feasible power on a kept edge.
    """
    gains = ctx.channels.uplink_gains
    headroom = cfg.e_max_j - ctx.e_comp
    noise_total = ctx.radio.interference_w + ctx.radio.noise_w
    dense_payload = wireless.payload_bits(ctx.model_dim, 1.0)
    with np.errstate(divide="ignore"):
        limit_energy = dense_payload * math.log(2.0) * noise_total / (
            ctx.radio.bandwidth_hz * gains
        )
    eligible = np.zeros(ctx.n_clients, dtype=bool)
    eligible[ctx.eligible] = True
    return (
        eligible[:, None]
        & (gains > 0)
        & (limit_energy * (1.0 + _ENERGY_MARGIN) < headroom[:, None])
    )


def optimal_power(
    ctx: RoundContext, cfg: SchedulerConfig, assigned_channel: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Largest energy-feasible power per assigned client, capped at max power.

    The transmit energy is strictly increasing in power, so the cap binds at
    the root of e_comm(P) = e_max - e_comp, found by bisection that keeps the
    feasible side of the bracket. All clients bisect at once; each stops on
    its own bracket width.
    """
    p_max = ctx.radio.max_power_w
    powers = np.full(ctx.n_clients, p_max)
    clients = np.flatnonzero(assigned_channel >= 0)
    headroom = cfg.e_max_j - ctx.e_comp[clients]
    if np.any(headroom <= 0):
        i = clients[np.argmax(headroom <= 0)]
        raise EnergyInfeasibleError(f"client {i}: compute energy alone exceeds the cap")
    capped = ctx.uplink_energy(clients, assigned_channel[clients], s[clients], p_max) > headroom
    if not capped.any():
        return powers
    clients, headroom = clients[capped], headroom[capped]
    chans, rates = assigned_channel[clients], s[clients]
    lo = np.full(clients.size, p_max * _POWER_FLOOR_FRACTION)
    unreachable = ctx.uplink_energy(clients, chans, rates, lo) > headroom
    if np.any(unreachable):
        i = clients[np.argmax(unreachable)]
        raise EnergyInfeasibleError(f"client {i}: energy cap unreachable at any power")
    hi = np.full(clients.size, p_max)
    live = np.ones(clients.size, dtype=bool)
    for _ in range(200):
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        ok = ctx.uplink_energy(clients, chans, rates, mid) <= headroom
        lo = np.where(live & ok, mid, lo)
        hi = np.where(live & ~ok, mid, hi)
        live &= hi - lo > 1e-15 * p_max
    powers[clients] = lo
    return powers


def _energy_rate_cap(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    clients: np.ndarray,
    channels: np.ndarray,
    power_w: np.ndarray,
) -> np.ndarray:
    """Largest rate each client can send at its power within the energy cap.

    Solved from the payload's linearity in the rate, minus one bit of slack so
    the rounded payload stays feasible too. Never below s_th: any power the
    power step emits is feasible at the rate floor.
    """
    headroom = cfg.e_max_j - ctx.e_comp[clients]
    rate = ctx.uplink_rate(clients, channels, power_w)
    smooth = (headroom * rate / power_w - ctx.model_dim) / (32.0 * ctx.model_dim)
    return np.clip(smooth - 1.0 / (32.0 * ctx.model_dim), cfg.s_th, 1.0)


def optimal_sparsification(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
    assigned_channel: np.ndarray,
    powers: np.ndarray,
) -> np.ndarray:
    """Exact rate vector minimizing the objective for a fixed assignment.

    With zero delay debt the objective strictly falls as any rate rises, so
    every assigned client sends as densely as its energy cap allows. Otherwise
    each assigned client's delay is linear in its rate, and the minimum is
    found by sweeping the round delay over the breakpoints where some client
    saturates at its rate ceiling: every client tracks the largest rate that
    keeps it no slower than the sweep level, making the objective a convex
    piecewise-linear function of the level whose minimizer sits on a
    breakpoint.
    """
    s = np.ones(ctx.n_clients)
    assigned = np.flatnonzero(assigned_channel >= 0)
    if assigned.size == 0:
        return s
    chans = assigned_channel[assigned]
    caps = _energy_rate_cap(ctx, cfg, assigned, chans, powers[assigned])
    if queues.q_de <= 0.0:
        s[assigned] = caps
        return s
    rate = ctx.uplink_rate(assigned, chans, powers[assigned])
    slopes = 32.0 * ctx.model_dim / rate
    offsets = ctx.model_dim / rate + ctx.d_down[assigned] + ctx.d_local[assigned]
    level_lo = float(np.max(slopes * cfg.s_th + offsets))
    saturation = slopes * caps + offsets
    level_hi = float(np.max(saturation))
    levels = np.unique(
        np.concatenate([[level_lo, level_hi], saturation[saturation > level_lo]])
    )
    p = ctx.weights[assigned]
    best_value = math.inf
    best_level = level_lo
    for level in levels:
        rates = np.clip((level - offsets) / slopes, cfg.s_th, caps)
        value = -cfg.lam * float(p @ rates) + queues.q_de * level
        if value < best_value - 1e-15:
            best_value = value
            best_level = level
    s[assigned] = np.clip((best_level - offsets) / slopes, cfg.s_th, caps)
    return s


def optimal_assignment(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
    s: np.ndarray,
    powers: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """Best one-to-one assignment for fixed rates and powers.

    The per-client cost q_fa - lam * p * s does not depend on the channel, and
    the delay term couples clients only through the slowest one. Sweeping the
    candidate slowest-delay levels (one per distinct edge delay) and solving a
    Hungarian matching restricted to edges no slower than the level yields the
    exact minimizer. With zero delay debt one unrestricted matching suffices.
    As many clients are scheduled as the feasible edges allow, up to the
    channel count.
    """
    rows = ctx.eligible[edges[ctx.eligible].any(axis=1)]
    if rows.size == 0:
        raise EmptyRoundError("no client has an energy-feasible channel")
    linear = (queues.q_fa[rows] - cfg.lam * ctx.weights[rows] * s[rows])[:, None]
    row_edges = edges[rows]

    if queues.q_de <= 0.0:
        choice = _matching(ctx, rows, np.where(row_edges, linear, _BIG_COST))
        if choice is None:
            raise EmptyRoundError("no feasible assignment")
        return choice[1]

    delays = ctx.smooth_delay(
        rows[:, None], np.arange(ctx.n_channels), s[rows, None], powers[rows, None]
    )
    best_total = math.inf
    best = None
    for level in np.unique(delays[row_edges]):
        choice = _matching(ctx, rows, np.where(row_edges & (delays <= level), linear, _BIG_COST))
        if choice is None:
            continue
        linear_sum, assigned_channel = choice
        chosen = assigned_channel[rows]
        picked = np.flatnonzero(chosen >= 0)
        total = linear_sum + queues.q_de * float(delays[picked, chosen[picked]].max())
        if total < best_total - 1e-15:
            best_total = total
            best = assigned_channel
    if best is None:
        raise EmptyRoundError("no feasible assignment")
    return best


def _matching(
    ctx: RoundContext, rows: np.ndarray, cost: np.ndarray
) -> tuple[float, np.ndarray] | None:
    """Minimum-cost matching of rows to channels, or None.

    Entries at _BIG_COST are excluded edges. Returns the matching only when it
    schedules min(channels, len(rows)) clients without touching one.
    """
    row_ind, col_ind = linear_sum_assignment(cost)
    kept = cost[row_ind, col_ind] < _BIG_COST / 2
    if kept.sum() < min(ctx.n_channels, rows.size):
        return None
    assigned_channel = np.full(ctx.n_clients, -1, dtype=int)
    assigned_channel[rows[row_ind[kept]]] = col_ind[kept]
    return _sum_in_order(cost[row_ind[kept], col_ind[kept]]), assigned_channel


def _optimize_given_assignment(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
    assigned: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Alternate power and rates for a fixed assignment until V settles.

    Power never falls across iterations (the rate step keeps every client
    inside the energy cap at the current power), so the value trace is
    non-increasing.
    """
    s = np.ones(ctx.n_clients)
    powers = optimal_power(ctx, cfg, assigned, s)
    s = optimal_sparsification(ctx, cfg, queues, assigned, powers)
    value = drift_penalty_value(ctx, cfg, queues, assigned, s, powers)
    inner = [value]
    for _ in range(cfg.loop_max_iters):
        powers = optimal_power(ctx, cfg, assigned, s)
        s = optimal_sparsification(ctx, cfg, queues, assigned, powers)
        value = drift_penalty_value(ctx, cfg, queues, assigned, s, powers)
        if inner[-1] - value <= cfg.loop_tol:
            inner.append(min(value, inner[-1]))
            break
        inner.append(value)
    return s, powers, inner


def _exhaustive_schedule(
    ctx: RoundContext,
    cfg: SchedulerConfig,
    queues: VirtualQueues,
    edges: np.ndarray,
    rows: list[int],
    required: int,
) -> ScheduleDecision:
    """Optimize power and rates for every feasible assignment; keep the best."""
    best_value = math.inf
    best: tuple[np.ndarray, np.ndarray, np.ndarray, list[float]] | None = None
    for subset in itertools.combinations(rows, required):
        for perm in itertools.permutations(range(ctx.n_channels), required):
            if not all(edges[i, j] for i, j in zip(subset, perm)):
                continue
            assigned = np.full(ctx.n_clients, -1, dtype=int)
            for i, j in zip(subset, perm):
                assigned[i] = j
            s, powers, inner = _optimize_given_assignment(ctx, cfg, queues, assigned)
            if inner[-1] < best_value - 1e-15:
                best_value = inner[-1]
                best = (assigned, s, powers, inner)
    if best is None:
        raise EmptyRoundError("no feasible assignment")
    assigned, s, powers, inner = best
    powers = optimal_power(ctx, cfg, assigned, s)
    final = drift_penalty_value(ctx, cfg, queues, assigned, s, powers)
    inner.append(min(final, inner[-1]))
    return build_decision(ctx, assigned, s, powers, tuple(inner))


def schedule_round(
    ctx: RoundContext, cfg: SchedulerConfig, queues: VirtualQueues
) -> ScheduleDecision:
    """Alternate the three block solvers until the objective settles.

    Instances small enough to enumerate every assignment are solved that way,
    which makes the result exactly optimal there. Otherwise, starts from a
    dense, full-power matching; each pass reruns assignment, power, then
    rates, and a pass is kept only if it improves the objective by more than
    the loop tolerance, so the recorded trace is non-increasing and the
    emitted decision is the best iterate seen. A reassignment can strand a
    client on a channel where its old power breaks the energy cap, and the
    repair can cost more delay than the reassignment saved; reverting such a
    pass keeps every iterate feasible. A closing power pass can only raise
    powers at the final rates, never the objective.
    """
    if ctx.eligible.size == 0:
        raise EmptyRoundError("no eligible clients")
    edges = feasible_edges(ctx, cfg)
    rows = ctx.eligible[edges[ctx.eligible].any(axis=1)].tolist()
    if not rows:
        raise EmptyRoundError("no client has an energy-feasible channel")
    required = min(ctx.n_channels, len(rows))
    if math.comb(len(rows), required) * math.perm(ctx.n_channels, required) <= _EXHAUSTIVE_LIMIT:
        return _exhaustive_schedule(ctx, cfg, queues, edges, rows, required)
    s = np.ones(ctx.n_clients)
    powers = np.full(ctx.n_clients, ctx.radio.max_power_w)
    assigned = optimal_assignment(ctx, cfg, queues, s, powers, edges)
    powers = optimal_power(ctx, cfg, assigned, s)
    s = optimal_sparsification(ctx, cfg, queues, assigned, powers)
    value = drift_penalty_value(ctx, cfg, queues, assigned, s, powers)
    trace = [value]
    for _ in range(cfg.loop_max_iters):
        cand_assigned = optimal_assignment(ctx, cfg, queues, s, powers, edges)
        cand_powers = optimal_power(ctx, cfg, cand_assigned, s)
        cand_s = optimal_sparsification(ctx, cfg, queues, cand_assigned, cand_powers)
        cand_value = drift_penalty_value(
            ctx, cfg, queues, cand_assigned, cand_s, cand_powers
        )
        if cand_value >= value - cfg.loop_tol:
            break
        assigned, powers, s, value = cand_assigned, cand_powers, cand_s, cand_value
        trace.append(value)
    powers = optimal_power(ctx, cfg, assigned, s)
    final = drift_penalty_value(ctx, cfg, queues, assigned, s, powers)
    trace.append(min(final, value))
    return build_decision(ctx, assigned, s, powers, tuple(trace))


def build_decision(
    ctx: RoundContext,
    assigned_channel: np.ndarray,
    s: np.ndarray,
    powers: np.ndarray,
    v_trace: tuple[float, ...] = (),
) -> ScheduleDecision:
    """Realized costs of an assignment, with the rounded uplink payload.

    Unassigned clients get zero rate, power and costs; an all -1 assignment is
    the empty decision.
    """
    clients = np.flatnonzero(assigned_channel >= 0)
    up_rate = ctx.uplink_rate(clients, assigned_channel[clients], powers[clients])
    if not np.all(up_rate > 0):
        raise ValueError("link rates must be positive for a scheduled client")
    out = {
        name: np.zeros(ctx.n_clients)
        for name in ("d_down", "d_local", "d_up", "e_comm", "e_comp", "rates", "powers")
    }
    d_up = wireless.payload_bits(ctx.model_dim, s[clients]) / up_rate
    out["d_down"][clients] = ctx.d_down[clients]
    out["d_local"][clients] = ctx.d_local[clients]
    out["d_up"][clients] = d_up
    out["e_comm"][clients] = powers[clients] * d_up
    out["e_comp"][clients] = ctx.e_comp[clients]
    out["rates"][clients] = s[clients]
    out["powers"][clients] = powers[clients]
    total_delay = ctx.d_down[clients] + ctx.d_local[clients] + d_up
    return ScheduleDecision(
        assigned_channel=assigned_channel.copy(),
        round_delay=float(np.max(total_delay, initial=0.0)),
        v_trace=v_trace,
        **out,
    )


def validate_decision(
    ctx: RoundContext, cfg: SchedulerConfig, decision: ScheduleDecision, enforce_energy: bool
) -> None:
    """Assert the structural and, optionally, energy constraints of a decision."""
    _check_structure(ctx, decision.assigned_channel, decision.rates, decision.powers)
    for i in decision.participants:
        if decision.rates[i] < cfg.s_th - 1e-12:
            raise AssertionError(f"client {i} below the rate floor")
        if enforce_energy:
            total = decision.e_comm[i] + decision.e_comp[i]
            if total > cfg.e_max_j + 1e-9:
                raise AssertionError(f"client {i} exceeds the energy cap: {total}")


def baseline_schedule(
    ctx: RoundContext,
    policy: str,
    round_num: int,
    rng: np.random.Generator,
    s_value: float = 1.0,
) -> ScheduleDecision:
    """Dense reference policies: random, round_robin, or delay_min.

    All run at maximum power. round_robin walks fixed client groups of channel
    size in cyclic order, skipping ineligible members; delay_min greedily takes
    the lowest-delay client-channel pairs at the given rate.
    """
    if policy not in BASELINE_POLICIES:
        raise ValueError(f"unknown baseline policy {policy!r}")
    if ctx.eligible.size == 0:
        raise EmptyRoundError("no eligible clients")
    assigned_channel = np.full(ctx.n_clients, -1, dtype=int)
    p_max = ctx.radio.max_power_w
    if policy == "random":
        count = min(ctx.n_channels, ctx.eligible.size)
        chosen = rng.choice(ctx.eligible, size=count, replace=False)
        assigned_channel[chosen] = rng.permutation(ctx.n_channels)[:count]
    elif policy == "round_robin":
        n_groups = math.ceil(ctx.n_clients / ctx.n_channels)
        group = round_num % n_groups
        members = range(group * ctx.n_channels, min((group + 1) * ctx.n_channels, ctx.n_clients))
        eligible = set(int(i) for i in ctx.eligible)
        j = 0
        for i in members:
            if i in eligible:
                assigned_channel[i] = j
                j += 1
    else:
        # A stable sort of the client-major delay matrix breaks ties by
        # (client, channel); dead links have infinite delay and rank last.
        clients = np.sort(ctx.eligible)
        delays = ctx.smooth_delay(clients[:, None], np.arange(ctx.n_channels), s_value, p_max)
        rows, cols = np.unravel_index(np.argsort(delays, axis=None, kind="stable"), delays.shape)
        used_clients: set[int] = set()
        used_channels: set[int] = set()
        for i, j in zip(clients[rows].tolist(), cols.tolist()):
            if i in used_clients or j in used_channels:
                continue
            assigned_channel[i] = j
            used_clients.add(i)
            used_channels.add(j)
            if len(used_clients) == min(ctx.n_channels, ctx.eligible.size):
                break
    s = np.full(ctx.n_clients, s_value)
    powers = np.full(ctx.n_clients, p_max)
    return build_decision(ctx, assigned_channel, s, powers)
