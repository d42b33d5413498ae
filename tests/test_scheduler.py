import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefl.oracles import (
    brute_force_assignment,
    brute_force_joint,
    brute_force_joint_energy,
    grid_search_sparsification,
    random_round_context,
)
from sparsefl import scheduler
from sparsefl.scheduler import (
    POLICIES,
    EmptyRoundError,
    RoundContext,
    SchedulerConfig,
    ScheduleDecision,
    VirtualQueues,
    baseline_schedule,
    build_decision,
    drift_penalty_value,
    feasible_edges,
    optimal_power,
    schedule_round,
    update_queues,
    validate_decision,
)
from sparsefl.wireless import (
    ChannelRealization,
    ComputeParams,
    RadioParams,
    realize_channels,
    round_costs,
)

from conftest import loose_scheduler_config, make_context, sorted_greedy_assignment


def test_update_queues_recursion():
    queues = VirtualQueues(q_fa=np.array([0.5, 0.0, 2.0]), q_de=1.0)
    decision = ScheduleDecision(
        assigned_channel=np.array([0, -1, 1]),
        rates=np.zeros(3),
        powers=np.zeros(3),
        e_comm=np.zeros(3),
        round_delay=0.7,
    )
    beta = np.array([0.4, 0.3, 0.9])
    out = update_queues(queues, decision, beta, d_avg=1.0)
    assert np.allclose(out.q_fa, [1.1, 0.0, 2.1])
    assert out.q_de == pytest.approx(0.7)
    # drain below zero clamps
    drained = update_queues(VirtualQueues(q_fa=np.zeros(3), q_de=0.0), decision, beta, 5.0)
    assert np.allclose(drained.q_fa, [0.6, 0.0, 0.1])
    assert drained.q_de == 0.0


def test_round_context_link_snrs_keep_their_float_order():
    """Downlink SNR is (P * g) / N, uplink P * (g / N), bit for bit, at the noise floor N."""
    rng = np.random.default_rng(3)
    n, m, dim = 40, 5, 100
    noise = 3e-14 + 2e-14  # interference plus thermal noise, summed as the simulator does
    radio = RadioParams(bandwidth_hz=15e3, noise_w=noise, downlink_power_w=0.2, max_power_w=1.0)
    channels = realize_channels(rng.uniform(1e-12, 1e-9, n), m, rng)
    ctx = RoundContext(
        model_dim=dim,
        tau=2,
        eligible=np.arange(n),
        dataset_sizes=np.full(n, 20),
        channels=channels,
        radio=radio,
        compute=ComputeParams(
            cycles_per_sample=1e4, cpu_freq_hz=np.full(n, 2e9), capacitance=1e-28
        ),
    )
    p_dl, g_dl, g_ul = radio.downlink_power_w, channels.downlink_gains, channels.uplink_gains
    power = rng.uniform(0.01, 1.0, (n, m))

    def rate(snr):
        return radio.bandwidth_hz * np.log2(1.0 + snr)

    down, up = rate((p_dl * g_dl) / noise), rate(power * (g_ul / noise))
    assert np.array_equal(ctx.d_down, 32 * dim / down)
    assert np.array_equal(ctx.uplink_rate(np.arange(n)[:, None], np.arange(m), power), up)
    # On these draws the other association order moves some rates, so a swap shows.
    assert not np.array_equal(down, rate(p_dl * (g_dl / noise)))
    assert not np.array_equal(up, rate((power * g_ul) / noise))


def test_round_context_derives_weights_over_the_eligible_set():
    """p_i is an eligible client's share of the eligible samples, and is_eligible the
    eligible set's mask, both [clients] even when stacked."""
    rng = np.random.default_rng(8)
    n, m = 6, 2
    sizes, eligible = rng.integers(20, 200, n), np.array([0, 2, 3, 5])
    want = np.zeros(n)
    want[eligible] = sizes[eligible] / sizes[eligible].sum()
    radio = RadioParams(bandwidth_hz=15e3, noise_w=2e-14, downlink_power_w=0.2, max_power_w=1.0)
    for rounds in ((), (3,)):
        ctx = RoundContext(
            model_dim=100,
            tau=2,
            eligible=eligible,
            dataset_sizes=sizes,
            channels=ChannelRealization(
                rng.uniform(1e-9, 1e-8, rounds + (n, m)), np.full(rounds + (n,), 1e-7)
            ),
            radio=radio,
            compute=ComputeParams(
                cycles_per_sample=1e4, cpu_freq_hz=np.full(rounds + (n,), 2e9), capacitance=1e-28
            ),
        )
        assert ctx.d_down.shape == rounds + (n,)
        assert np.array_equal(ctx.is_eligible, np.isin(np.arange(n), eligible))
        assert np.array_equal(ctx.weights, want)
        assert not ctx.weights[[1, 4]].any()


def test_scheduler_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SchedulerConfig(d_avg=0.0)
    with pytest.raises(ValueError):
        SchedulerConfig(s_th=0.0)
    with pytest.raises(ValueError):
        SchedulerConfig(e_max_j=0.0)


def test_feasible_edges_prunes_dead_gains_and_hot_compute():
    gains = np.array([[1e-9, 0.0], [1e-9, 1e-9], [1e-9, 1e-9]])
    ctx = make_context(gains, sizes=np.array([40, 40, 10**9]))
    cfg = loose_scheduler_config(e_max_j=10.0)
    edges = feasible_edges(ctx, cfg)
    assert not edges[0, 1]
    assert edges[0, 0] and edges[1, 0] and edges[1, 1]
    # client 2's compute energy alone blows the cap, so no edge survives
    assert not edges[2].any()


def test_optimal_power_maxes_out_under_loose_cap():
    ctx, cfg, queues = random_round_context(np.random.default_rng(0), 4, 2, e_max_j=1e9)
    decision = schedule_round(ctx, cfg, queues)
    assert decision.participants.size == 2
    assert np.all(decision.powers[decision.participants] == ctx.radio.max_power_w)


def test_optimal_power_binds_the_energy_cap():
    gains = np.array([[1e-10, 5e-11]])
    ctx = make_context(gains, model_dim=2000, tau=1, sizes=np.array([10]))
    assert float(ctx.e_comp[0]) < 1e-3
    cfg = SchedulerConfig(lam=50.0, d_avg=1.0, e_max_j=2e-3, s_th=0.05)
    decision = schedule_round(ctx, cfg, VirtualQueues.zeros(1))
    assert decision.rates[0] == 1.0
    power = float(decision.powers[0])
    assert 0.0 < power < ctx.radio.max_power_w
    rate = ctx.uplink_rate(0, decision.assigned_channel[0], power)
    payload = 32 * 2000 + 2000
    energy = power * payload / rate + float(ctx.e_comp[0])
    assert energy <= cfg.e_max_j + 1e-9
    # The cap binds with one bit of rounding slack on top of the payload.
    assert power * (payload + 1) / rate + float(ctx.e_comp[0]) == pytest.approx(
        cfg.e_max_j, rel=1e-6
    )


def test_binding_power_settles_where_rounding_noise_flips_the_step():
    """Near this root F's rounding noise is larger than 1e-15 of the power."""
    radio = RadioParams(
        bandwidth_hz=10475.79314704276, noise_w=1e-14, downlink_power_w=0.2, max_power_w=1.0
    )
    headroom, bits = 0.07616065764936628, 165001.0
    power, rate = optimal_power(
        radio, np.array([155.91553682247476]), np.array([headroom]), 0.0, bits
    )
    assert 0.0 < power[0] < radio.max_power_w
    assert power[0] * bits / rate[0] == pytest.approx(headroom, rel=1e-12)


def test_optimal_power_never_exceeds_the_energy_cap():
    rng = np.random.default_rng(21)
    capped = 0
    for _ in range(40):
        ctx, cfg, queues = random_round_context(rng, 3, 3, model_dim=500, e_max_j=0.05)
        try:
            decision = schedule_round(ctx, cfg, queues)
        except EmptyRoundError:
            continue
        clients = decision.participants
        capped += int(np.sum(decision.powers[clients] < ctx.radio.max_power_w))
        assert np.all(decision.e_comm[clients] + ctx.e_comp[clients] <= cfg.e_max_j)
    assert capped >= 10


def test_optimal_sparsification_dense_when_no_delay_debt():
    ctx, cfg, queues = random_round_context(np.random.default_rng(1), 4, 2, q_de=0.0)
    decision = schedule_round(ctx, cfg, queues)
    assert decision.participants.size == 2
    assert np.all(decision.rates[decision.participants] == pytest.approx(1.0))


def test_optimal_sparsification_beats_grid_oracle():
    rng = np.random.default_rng(2)
    for _ in range(6):
        ctx, cfg, queues = random_round_context(rng, 3, 3)
        decision = schedule_round(ctx, cfg, queues)
        assigned, s, powers = decision.assigned_channel, decision.rates, decision.powers
        value = drift_penalty_value(ctx, cfg, queues, assigned, s, powers)
        oracle_value, _ = grid_search_sparsification(
            ctx, cfg, queues, assigned, powers, step=1e-3
        )
        assert value <= oracle_value + 1e-6


def test_optimal_sparsification_respects_floor():
    rng = np.random.default_rng(3)
    ctx, _, _ = random_round_context(rng, 3, 3)
    cfg = SchedulerConfig(lam=0.0, d_avg=1e-9, e_max_j=1e9, s_th=0.2)
    # lam=0 with heavy delay debt pushes every rate to the floor
    queues = VirtualQueues(q_fa=np.zeros(3), q_de=50.0)
    decision = schedule_round(ctx, cfg, queues)
    s = decision.rates[decision.participants]
    assert s.size == 3
    assert np.all(s >= 0.2 - 1e-12)
    assert np.min(s) == pytest.approx(0.2)


def _assignment_value(ctx, cfg, queues):
    """schedule_round's objective at s_th = 1, where every rate is 1."""
    decision = schedule_round(ctx, cfg, queues)
    assert np.all(decision.rates[decision.participants] == 1.0)
    return drift_penalty_value(
        ctx, cfg, queues, decision.assigned_channel, decision.rates, decision.powers
    )


def test_optimal_assignment_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(25):
        ctx, cfg, queues = random_round_context(rng, 5, 3, q_de=0.0, e_max_j=0.05)
        cfg = replace(cfg, s_th=1.0)
        edges = feasible_edges(ctx, cfg)
        if not edges.any():
            continue
        s = np.ones(5)
        powers = np.full(5, ctx.radio.max_power_w)
        reference = brute_force_assignment(ctx, cfg, queues, s, powers, edges)
        assert reference is not None
        assert _assignment_value(ctx, cfg, queues) == pytest.approx(reference[0], abs=1e-9)


def test_optimal_assignment_never_uses_pruned_edges():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ctx, cfg, queues = random_round_context(rng, 4, 2)
        # A dead uplink prunes every edge of client 1.
        gains = ctx.channels.uplink_gains.copy()
        gains[1, :] = 0.0
        ctx = replace(ctx, channels=replace(ctx.channels, uplink_gains=gains))
        edges = feasible_edges(ctx, cfg)
        assert not edges[1].any()
        assigned = schedule_round(ctx, cfg, queues).assigned_channel
        assert assigned[1] == -1
        for i in np.flatnonzero(assigned >= 0):
            assert edges[i, assigned[i]]


def test_optimal_assignment_schedules_as_many_as_channels():
    ctx, cfg, queues = random_round_context(np.random.default_rng(6), 6, 3)
    assert feasible_edges(ctx, cfg).all()
    assigned = schedule_round(ctx, cfg, queues).assigned_channel
    assert (assigned >= 0).sum() == 3
    used = assigned[assigned >= 0]
    assert len(set(used.tolist())) == 3


def test_schedule_round_calls_its_steps_through_the_module_globals(monkeypatch):
    """Wrappers bound to the step names see every call, as the benchmark's spans do."""
    calls = {"optimal_assignment": 0, "optimal_sparsification": 0, "optimal_power": 0}

    def counted(name):
        step = getattr(scheduler, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return step(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(scheduler, name, counted(name))
    gains = np.array([[1e-10, 5e-11]])
    ctx = make_context(gains, model_dim=2000, tau=1, sizes=np.array([10]))
    cfg = SchedulerConfig(lam=50.0, d_avg=1.0, e_max_j=2e-3, s_th=0.05)
    decision = schedule_round(ctx, cfg, VirtualQueues(q_fa=np.zeros(1), q_de=1.0))
    assert decision.powers[0] < ctx.radio.max_power_w
    assert calls["optimal_assignment"] == 1
    assert calls["optimal_sparsification"] == 1
    assert calls["optimal_power"] >= 1


def test_loose_cap_schedule_round_solves_no_power(monkeypatch):
    """Where no cap binds every edge sends at full power, and no Newton pass runs."""
    calls = []
    step = scheduler.optimal_power

    def counted(*args, **kwargs):
        calls.append(args)
        return step(*args, **kwargs)

    monkeypatch.setattr(scheduler, "optimal_power", counted)
    ctx, cfg, queues = random_round_context(np.random.default_rng(3), 6, 3, q_de=5.0)
    decision = schedule_round(ctx, cfg, queues)
    assert decision.participants.size > 0
    assert np.all(decision.powers[decision.participants] == ctx.radio.max_power_w)
    assert calls == []


def test_schedule_round_trace_never_increases():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(2, 4))
        ctx, cfg, queues = random_round_context(rng, n, m)
        decision = schedule_round(ctx, cfg, queues)
        trace = np.asarray(decision.v_trace)
        assert trace.size >= 1
        assert np.all(np.diff(trace) <= 1e-12)
        validate_decision(ctx, cfg, decision, optimized=True)


def test_schedule_round_reports_drift_penalty_of_emitted_decision():
    ctx, cfg, queues = random_round_context(np.random.default_rng(8), 6, 2)
    decision = schedule_round(ctx, cfg, queues)
    value = drift_penalty_value(
        ctx, cfg, queues, decision.assigned_channel, decision.rates, decision.powers
    )
    assert value == pytest.approx(decision.v_trace[-1], abs=1e-9)


def test_schedule_round_matches_joint_brute_force_two_by_two():
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(6):
        ctx, cfg, queues = random_round_context(rng, 2, 2)
        decision = schedule_round(ctx, cfg, queues)
        oracle_value = brute_force_joint(ctx, cfg, queues, step=2e-3)
        assert decision.v_trace[-1] <= oracle_value + 1e-6
        hits += 1
    assert hits == 6


def _binding_instance(rng, shape):
    """model_dim 500 with e_max_j log-uniform on [0.02, 2]: about a quarter of
    the feasible edges cannot send s = 1 at full power within the cap."""
    e_max_j = float(np.exp(rng.uniform(np.log(0.02), np.log(2.0))))
    return random_round_context(rng, *shape, model_dim=500, e_max_j=e_max_j)


def test_schedule_round_matches_energy_oracle_when_caps_bind():
    rng = np.random.default_rng(10)
    capped_edges = edges_seen = below_full_power = 0
    for k in range(24):
        ctx, cfg, queues = _binding_instance(rng, (2, 2) if k % 2 == 0 else (3, 2))
        edges = feasible_edges(ctx, cfg)
        full_rate = ctx.uplink_rate(np.arange(ctx.n_clients)[:, None], np.arange(2), 1.0)
        energy = (33 * ctx.model_dim + 1) / full_rate + ctx.e_comp[:, None]
        capped_edges += int((edges & (energy > cfg.e_max_j)).sum())
        edges_seen += int(edges.sum())
        decision = schedule_round(ctx, cfg, queues)
        validate_decision(ctx, cfg, decision, optimized=True)
        below_full_power += bool(np.any(decision.powers[decision.participants] < 1.0))
        value = drift_penalty_value(
            ctx, cfg, queues, decision.assigned_channel, decision.rates, decision.powers
        )
        assert value == pytest.approx(decision.v_trace[-1], abs=1e-9)
        assert value <= brute_force_joint_energy(ctx, cfg, queues) + 1e-9
    assert 0.1 < capped_edges / edges_seen < 0.5
    assert below_full_power >= 3


@pytest.mark.parametrize(
    "shape, binding", [((5, 3), False), ((6, 3), False), ((5, 4), False), ((5, 3), True)]
)
def test_schedule_round_no_worse_than_energy_oracle_at_larger_sizes(shape, binding):
    # Several matchings compete at these sizes, so under binding caps an
    # optimum strictly inside a breakpoint interval of a matching other than
    # the winner would show here.
    rng = np.random.default_rng(100 * shape[0] + shape[1] + 50 * binding)
    below_full_power = 0
    for _ in range(8):
        if binding:
            ctx, cfg, queues = _binding_instance(rng, shape)
        else:
            ctx, cfg, queues = random_round_context(
                rng,
                *shape,
                model_dim=int(rng.integers(2000, 5001)),
                q_de=float(rng.uniform(5.0, 150.0)),
            )
        decision = schedule_round(ctx, cfg, queues)
        validate_decision(ctx, cfg, decision, optimized=True)
        below_full_power += bool(np.any(decision.powers[decision.participants] < 1.0))
        assert decision.v_trace[-1] <= brute_force_joint_energy(ctx, cfg, queues) + 1e-9
    assert below_full_power >= 2 if binding else below_full_power == 0


@pytest.mark.xfail(
    strict=True,
    reason="a binding cap's optimum inside a losing matching's breakpoint interval is missed",
)
def test_schedule_round_finds_a_binding_optimum_inside_an_interval():
    # Draw 35 of this stream: client 1 alone scores -31.1065 on its binding
    # branch, between breakpoints; client 0's credit is raised until it alone
    # scores -30.93 at a breakpoint. The oracle picks client 1.
    rng = np.random.default_rng(5)
    for _ in range(36):
        e_max_j = float(np.exp(rng.uniform(np.log(0.01), np.log(0.5))))
        model_dim = int(rng.integers(200, 3000))
        q_de = float(np.exp(rng.uniform(np.log(0.5), np.log(300.0))))
        ctx, cfg, queues = random_round_context(
            rng, 2, 1, model_dim=model_dim, e_max_j=e_max_j, q_de=q_de
        )
    alone = queues.q_fa.copy()
    alone[1] = 1e6
    solo = schedule_round(ctx, cfg, replace(queues, q_fa=alone)).v_trace[-1]
    queues.q_fa[0] += -30.93 - solo
    decision = schedule_round(ctx, cfg, queues)
    assert decision.v_trace[-1] <= brute_force_joint_energy(ctx, cfg, queues) + 1e-9


def test_schedule_round_on_an_unsorted_gapped_eligible_set_matches_the_energy_oracle():
    """Eligible [6, 3, 0, 5, 4] of 7: client 5's links are dead, client 3's channel 1 is
    dead, and the cap sits between the two costliest live edges' dense energies, so
    exactly one edge binds. The level sweep sees rows [6, 3, 0, 4], not client ids."""
    below_full_power = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        ctx, cfg, queues = random_round_context(
            rng, 7, 2, model_dim=500, q_de=float(rng.uniform(5.0, 50.0))
        )
        gains = ctx.channels.uplink_gains.copy()
        gains[5] = 0.0
        gains[3, 1] = 0.0
        channels = ChannelRealization(gains, ctx.channels.downlink_gains)
        ctx = replace(ctx, eligible=np.array([6, 3, 0, 5, 4]), channels=channels)
        live = np.array([[6, 0], [6, 1], [3, 0], [0, 0], [0, 1], [4, 0], [4, 1]]).T
        energy = (33 * ctx.model_dim + 1) / ctx.uplink_rate(*live, 1.0) + ctx.e_comp[live[0]]
        second, first = np.sort(energy)[-2:]
        cfg = replace(cfg, e_max_j=float(second + first) / 2.0)
        decision = schedule_round(ctx, cfg, queues)
        validate_decision(ctx, cfg, decision, optimized=True)
        assert decision.assigned_channel[[1, 2, 5]].tolist() == [-1, -1, -1]
        below_full_power += bool(np.any(decision.powers[decision.participants] < 1.0))
        oracle = brute_force_joint_energy(ctx, cfg, queues)
        assert decision.v_trace[-1] == pytest.approx(oracle, abs=1e-9)
    assert below_full_power >= 1


def test_energy_oracle_agrees_with_full_power_oracle_under_loose_caps():
    rng = np.random.default_rng(13)
    for _ in range(4):
        ctx, cfg, queues = random_round_context(rng, 2, 2, model_dim=400)
        full_power = brute_force_joint(ctx, cfg, queues, step=2e-3)
        assert brute_force_joint_energy(ctx, cfg, queues) == pytest.approx(full_power, abs=1e-9)


def test_optimal_assignment_matches_brute_force_with_delay_debt():
    # Under loose caps every power is full, so the delay debt prices the
    # straggler exactly as the full-power enumeration does.
    rng = np.random.default_rng(12)
    for _ in range(25):
        ctx, cfg, queues = random_round_context(rng, 5, 3, q_de=float(rng.uniform(5.0, 150.0)))
        cfg = replace(cfg, s_th=1.0)
        edges = feasible_edges(ctx, cfg)
        s = np.ones(5)
        powers = np.full(5, ctx.radio.max_power_w)
        reference = brute_force_assignment(ctx, cfg, queues, s, powers, edges)
        assert _assignment_value(ctx, cfg, queues) == pytest.approx(reference[0], abs=1e-9)


def test_schedule_round_energy_cap_respected_when_tight():
    gains = np.array([[2e-10, 1e-10], [1.5e-10, 1e-10], [1e-10, 2e-10]])
    ctx = make_context(gains, model_dim=2000, tau=1, sizes=np.array([10, 10, 10]))
    cfg = SchedulerConfig(lam=10.0, d_avg=5.0, e_max_j=2e-3, s_th=0.05)
    queues = VirtualQueues(q_fa=np.array([1.0, 2.0, 0.5]), q_de=1.5)
    decision = schedule_round(ctx, cfg, queues)
    validate_decision(ctx, cfg, decision, optimized=True)
    for i in decision.participants:
        assert decision.e_comm[i] + ctx.e_comp[i] <= cfg.e_max_j + 1e-9


def test_schedule_round_raises_when_nobody_eligible():
    ctx = make_context(np.full((3, 2), 1e-9), eligible=np.array([], dtype=int))
    with pytest.raises(EmptyRoundError):
        schedule_round(ctx, loose_scheduler_config(), VirtualQueues.zeros(3))


def test_schedule_round_raises_when_energy_prunes_everyone():
    ctx = make_context(np.full((3, 2), 1e-9), sizes=np.full(3, 10**9))
    cfg = SchedulerConfig(lam=50.0, d_avg=1.0, e_max_j=1e-3, s_th=0.05)
    with pytest.raises(EmptyRoundError):
        schedule_round(ctx, cfg, VirtualQueues.zeros(3))


def test_schedule_round_raises_without_a_complete_matching():
    """Channel 1 is dead for all three clients, so no matching fills both channels."""
    ctx = make_context(np.array([[1e-9, 0.0]] * 3))
    with pytest.raises(EmptyRoundError, match="no feasible assignment"):
        schedule_round(ctx, loose_scheduler_config(), VirtualQueues.zeros(3))


def test_round_robin_walks_fixed_groups():
    ctx = make_context(np.full((4, 2), 1e-9))
    rng = np.random.default_rng(0)
    seen = []
    for t in range(4):
        decision = baseline_schedule(ctx, "round_robin", t, rng)
        seen.append(sorted(decision.participants.tolist()))
    assert seen == [[0, 1], [2, 3], [0, 1], [2, 3]]


def test_round_robin_skips_ineligible_members():
    ctx = make_context(np.full((4, 2), 1e-9), eligible=np.array([0, 2, 3]))
    decision = baseline_schedule(ctx, "round_robin", 0, np.random.default_rng(0))
    assert decision.participants.tolist() == [0]


def test_delay_min_prefers_strong_links():
    gains = np.array([[1e-12, 1e-12], [1e-8, 1e-8], [1e-9, 1e-9]])
    ctx = make_context(gains)
    decision = baseline_schedule(ctx, "delay_min", 0, np.random.default_rng(0))
    assert sorted(decision.participants.tolist()) == [1, 2]


def test_delay_min_ranks_dead_links_last():
    ctx = make_context(np.array([[1e-9, 0.0], [1e-9, 1e-9], [1e-9, 1e-9]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decision = baseline_schedule(ctx, "delay_min", 0, np.random.default_rng(0))
    assert decision.participants.size == 2
    assert decision.assigned_channel[0] != 1
    assert np.all(decision.e_comm[decision.participants] > 0)


def test_delay_min_forced_onto_a_dead_link_raises():
    ctx = make_context(np.array([[0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="link rates must be positive"):
            baseline_schedule(ctx, "delay_min", 0, np.random.default_rng(0))


@st.composite
def greedy_contexts(draw):
    """One-round or stacked contexts whose quantized gains tie and may be dead.

    Equal sizes, CPU speeds and downlink gains tie the fixed delay legs too;
    the eligible set is a shuffled, possibly gapped subset of the clients.
    """
    n_clients, n_channels = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    lead = draw(st.sampled_from([(), (1,), (2,), (3,)]))

    def array(values, shape):
        size = math.prod(shape)
        return np.reshape(draw(st.lists(values, min_size=size, max_size=size)), shape)

    gains = array(st.sampled_from([0.0, 1e-10, 1e-9, 1e-9, 1e-8]), lead + (n_clients, n_channels))
    return make_context(
        gains,
        sizes=array(st.sampled_from([20, 40]), (n_clients,)),
        eligible=draw(st.lists(st.integers(0, n_clients - 1), min_size=1, unique=True)),
        downlink_gains=array(st.sampled_from([1e-8, 1e-7]), lead + (n_clients,)),
    )


@settings(max_examples=300)
@given(ctx=greedy_contexts(), s_value=st.sampled_from([0.05, 0.4, 1.0]))
def test_delay_min_matches_the_sorted_greedy(ctx, s_value):
    assigned = sorted_greedy_assignment(ctx, s_value)
    try:
        expected = build_decision(ctx, assigned, s_value, ctx.radio.max_power_w)
    except ValueError as exc:
        # The reference took a dead link.
        with pytest.raises(ValueError, match=str(exc)):
            baseline_schedule(ctx, "delay_min", 0, None, s_value=s_value)
        return
    decision = baseline_schedule(ctx, "delay_min", 0, None, s_value=s_value)
    assert np.array_equal(decision.assigned_channel, expected.assigned_channel)
    assert np.array_equal(decision.round_delay, expected.round_delay)


def test_round_context_rejects_dead_downlink():
    with pytest.raises(ValueError, match="downlink"):
        make_context(np.full((2, 2), 1e-9), downlink_gains=np.array([1e-7, 0.0]))


def _decision(ctx, cfg, queues, policy):
    if policy == "lyapunov":
        return schedule_round(ctx, cfg, queues)
    return baseline_schedule(ctx, policy, 0, np.random.default_rng(3), s_value=0.4)


@pytest.mark.parametrize("shape", [(3, 2), (10, 3), (50, 10)])
@pytest.mark.parametrize("policy", POLICIES)
def test_build_decision_matches_scalar_round_costs(shape, policy):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    ctx, cfg, queues = random_round_context(rng, *shape, model_dim=300, e_max_j=0.05)
    decision = _decision(ctx, cfg, queues, policy)
    assert decision.participants.size == min(shape)
    rebuilt = build_decision(ctx, decision.assigned_channel, decision.rates, decision.powers)
    worst = 0.0
    for i in range(ctx.n_clients):
        j = int(decision.assigned_channel[i])
        if j < 0:
            assert decision.e_comm[i] == 0.0
            continue
        ref = round_costs(
            ctx.model_dim,
            float(decision.rates[i]),
            float(decision.powers[i]),
            float(ctx.channels.uplink_gains[i, j]),
            float(ctx.channels.downlink_gains[i]),
            int(ctx.dataset_sizes[i]),
            ctx.tau,
            ctx.radio,
            replace(ctx.compute, cpu_freq_hz=float(ctx.compute.cpu_freq_hz[i])),
        )
        assert decision.e_comm[i] == pytest.approx(ref.e_comm, rel=1e-12)
        assert rebuilt.e_comm[i] == decision.e_comm[i]
        for name in ("d_down", "d_local", "e_comp"):
            assert getattr(ctx, name)[i] == pytest.approx(getattr(ref, name), rel=1e-12)
        worst = max(worst, ref.total_delay)
    assert decision.round_delay == pytest.approx(worst, rel=1e-12)


def test_random_baseline_structure():
    ctx = make_context(np.full((5, 3), 1e-9), eligible=np.array([0, 1, 4]))
    rng = np.random.default_rng(11)
    for _ in range(5):
        decision = baseline_schedule(ctx, "random", 0, rng, s_value=0.7)
        parts = decision.participants
        assert parts.size == 3
        assert set(parts.tolist()) <= {0, 1, 4}
        used = decision.assigned_channel[parts]
        assert len(set(used.tolist())) == parts.size
        assert np.all(decision.rates[parts] == 0.7)
        assert np.all(decision.powers[parts] == ctx.radio.max_power_w)
        assert decision.v_trace == ()


def test_baseline_rejects_unknown_policy():
    ctx = make_context(np.full((2, 2), 1e-9))
    with pytest.raises(ValueError):
        baseline_schedule(ctx, "greedy", 0, np.random.default_rng(0))
    with pytest.raises(EmptyRoundError):
        baseline_schedule(
            make_context(np.full((2, 2), 1e-9), eligible=np.array([], dtype=int)),
            "random",
            0,
            np.random.default_rng(0),
        )


def test_validate_decision_catches_duplicate_channels():
    ctx = make_context(np.full((3, 2), 1e-9))
    cfg = loose_scheduler_config()
    decision = baseline_schedule(ctx, "random", 0, np.random.default_rng(1))
    decision.assigned_channel[decision.participants[0]] = decision.assigned_channel[
        decision.participants[1]
    ]
    with pytest.raises(ValueError, match="assignment reuses a channel"):
        validate_decision(ctx, cfg, decision, optimized=False)
    gapped = make_context(np.full((3, 2), 1e-9), eligible=np.array([2, 0]))
    for assigned, message in (
        ([0, -1, 2], "assignment names an unknown channel"),
        ([1, 0, -1], "assignment schedules an ineligible client"),
    ):
        decision = ScheduleDecision(np.array(assigned), np.ones(3), np.ones(3), np.zeros(3), 0.0)
        with pytest.raises(ValueError, match=message):
            validate_decision(gapped, cfg, decision, optimized=False)


def test_validate_decision_holds_only_the_optimizing_policy_to_its_limits():
    ctx = make_context(np.array([[1e-9, 1e-9], [1e-9, 1e-9], [1e-10, 1e-10]]))
    assigned = np.array([-1, 0, 1])
    sparse = build_decision(ctx, assigned, np.array([1.0, 1.0, 0.01]), np.ones(3))
    validate_decision(ctx, loose_scheduler_config(), sparse, optimized=False)
    with pytest.raises(AssertionError, match="client 2 below the rate floor"):
        validate_decision(ctx, loose_scheduler_config(), sparse, optimized=True)
    dense = build_decision(ctx, assigned, np.ones(3), np.ones(3))
    total = dense.e_comm + ctx.e_comp
    assert total[1] < total[2]
    cfg = loose_scheduler_config(e_max_j=float(total[1] + total[2]) / 2.0)
    validate_decision(ctx, cfg, dense, optimized=False)
    with pytest.raises(AssertionError, match="client 2 exceeds the energy cap"):
        validate_decision(ctx, cfg, dense, optimized=True)
