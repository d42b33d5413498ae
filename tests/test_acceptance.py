"""Release criteria, one test and one printed verdict line each.

Every test measures its own wall time and folds the stated runtime budget
into the verdict, so a pass means both the tolerance and the budget held.
Run with `pytest tests/test_acceptance.py -v`; the collected verdict lines
are echoed again in the terminal summary section.
"""

import time
from dataclasses import replace

import numpy as np

from sparsefl.cli import emit_metrics_csv
from sparsefl.config import ExperimentConfig
from sparsefl.dpsgd import generate_mask
from sparsefl.model_data import ModelSpec, ModelWeights, per_sample_loss_grads
from sparsefl.oracles import (
    brute_force_assignment,
    brute_force_joint,
    check_inversion,
    drift_penalty_value,
    grid_search_sparsification,
    random_round_context,
)
from sparsefl.accountant import log_moments
from sparsefl.scheduler import feasible_edges, schedule_round
from sparsefl.simulator import build_state, run_experiment, run_round
from sparsefl import streams

from conftest import ACCEPTANCE_LINES, fast_config


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_accountant_analytic_form():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (2.0, 4.0, 8.0, 16.0):
        for sigma in (0.4, 0.5, 0.6, 1.0):
            got = log_moments(1.0, sigma, (alpha,))[0]
            want = alpha * (alpha - 1.0) / (2.0 * sigma * sigma)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _verdict(1, "accountant analytic form", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s < 5s")


def test_criterion_02_budget_inversion_bracketing():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(100):
        q = float(rng.uniform(0.01, 1.0))
        sigma = float(rng.uniform(0.4, 2.0))
        eps = float(rng.uniform(1.0, 20.0))
        if not check_inversion(q, sigma, eps):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 30.0
    _verdict(2, "budget inversion bracketing", ok, f"{bad}/100 wrong, {elapsed:.1f}s < 30s")


def test_criterion_03_mask_statistics():
    rng = np.random.default_rng(303)
    g = rng.standard_normal(400)
    g_sq = float(g @ g)
    t0 = time.perf_counter()
    ok = True
    details = []
    for s in (0.1, 0.3, 0.5, 0.9):
        norms = np.empty(10_000)
        norms_sq = np.empty(10_000)
        for k in range(10_000):
            masked = g * generate_mask(g.size, s, rng)
            norms_sq[k] = masked @ masked
            norms[k] = np.sqrt(norms_sq[k])
        rel = abs(norms_sq.mean() - s * g_sq) / (s * g_sq)
        se = norms.std(ddof=1) / np.sqrt(norms.size)
        bound_ok = norms.mean() <= np.sqrt(s) * np.sqrt(g_sq) + 3.0 * se
        ok = ok and rel < 0.02 and bound_ok
        details.append(f"s={s}: rel {rel:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(3, "sparsification mask statistics", ok, "; ".join(details) + f", {elapsed:.1f}s < 10s")


def test_criterion_04_gradient_oracle():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst = 0.0
    h = 1e-6
    for hidden in (None, 6):
        spec = ModelSpec(feature_dim=5, num_classes=3, hidden_units=hidden)
        for _ in range(20):
            w = ModelWeights(0.5 * rng.standard_normal(spec.dim), spec)
            x = rng.standard_normal((4, 5))
            y = rng.integers(0, 3, 4)
            _, grads = per_sample_loss_grads(w, x, y)
            grad = grads.mean(axis=0)
            fd = np.empty(spec.dim)
            for d in range(spec.dim):
                bumped = w.values.copy()
                bumped[d] += h
                up, _ = per_sample_loss_grads(ModelWeights(bumped, spec), x, y)
                bumped[d] -= 2.0 * h
                down, _ = per_sample_loss_grads(ModelWeights(bumped, spec), x, y)
                fd[d] = (up - down) / (2.0 * h)
            worst = max(worst, float(np.linalg.norm(grad - fd) / np.linalg.norm(fd)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    _verdict(4, "per-sample gradient oracle", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s < 10s")


def test_criterion_05_assignment_oracle():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    bad = skipped = 0
    for k in range(1000):
        n_clients = int(rng.integers(2, 7))
        n_channels = int(rng.integers(1, 6))
        # At s_th = 1 every rate is 1. Under loose caps every power is full, so
        # the round is the assignment problem with the delay debt; under the
        # tight caps the debt is zero and powers do not enter the objective.
        caps = dict(e_max_j=1e9) if k % 2 == 0 else dict(e_max_j=0.05, q_de=0.0)
        ctx, cfg, queues = random_round_context(
            rng, n_clients, n_channels, model_dim=40, tau=2, **caps
        )
        cfg = replace(cfg, s_th=1.0)
        edges = feasible_edges(ctx, cfg)
        if not edges.any():
            skipped += 1
            continue
        s = np.ones(n_clients)
        powers = np.full(n_clients, ctx.radio.max_power_w)
        reference, _ = brute_force_assignment(ctx, cfg, queues, s, powers, edges)
        decision = schedule_round(ctx, cfg, queues)
        value = drift_penalty_value(
            ctx, cfg, queues, decision.assigned_channel, decision.rates, decision.powers
        )
        if abs(value - reference) > 1e-9 or np.any(decision.rates[decision.participants] != 1.0):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and skipped < 100 and elapsed < 30.0
    _verdict(
        5,
        "assignment vs enumeration",
        ok,
        f"{bad} mismatches, {skipped} degenerate skips of 1000, {elapsed:.1f}s < 30s",
    )


def test_criterion_06_sparsification_oracle():
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    bad = 0
    worst = -np.inf
    for k in range(50):
        if k < 25:
            ctx, cfg, queues = random_round_context(rng, 3, 3, e_max_j=1e9)
        else:
            ctx, cfg, queues = random_round_context(
                rng, 3, 3, model_dim=5000, e_max_j=1e9, q_de=float(rng.uniform(30.0, 150.0))
            )
        decision = schedule_round(ctx, cfg, queues)
        assigned, s, powers = decision.assigned_channel, decision.rates, decision.powers
        solver_v = drift_penalty_value(ctx, cfg, queues, assigned, s, powers)
        oracle_v, _ = grid_search_sparsification(ctx, cfg, queues, assigned, powers, step=1e-3)
        worst = max(worst, solver_v - oracle_v)
        if solver_v > oracle_v + 1e-6:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60.0
    _verdict(
        6,
        "sparsification solver vs grid",
        ok,
        f"{bad}/50 above grid, worst excess {worst:.2e}, {elapsed:.1f}s < 60s",
    )


def test_criterion_07_joint_round_oracle():
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(20):
        if k < 10:
            ctx, cfg, queues = random_round_context(rng, 2, 2, model_dim=40, tau=2, e_max_j=1e9)
        else:
            ctx, cfg, queues = random_round_context(
                rng,
                2,
                2,
                model_dim=5000,
                tau=2,
                e_max_j=1e9,
                q_de=float(rng.uniform(30.0, 150.0)),
            )
        decision = schedule_round(ctx, cfg, queues)
        value = drift_penalty_value(
            ctx, cfg, queues, decision.assigned_channel, decision.rates, decision.powers
        )
        reference = brute_force_joint(ctx, cfg, queues, step=2e-3)
        worst = max(worst, abs(value - reference))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict(7, "joint round vs brute force", ok, f"max |diff| {worst:.2e}, {elapsed:.1f}s < 60s")


def test_criterion_08_queue_feasibility():
    cfg = ExperimentConfig(
        seed=3,
        rounds=500,
        num_clients=10,
        num_channels=3,
        num_train=1000,
        num_test=200,
        feature_dim=8,
        num_classes=4,
        tau=5,
        batch_size=5,
        sigma_hat=0.0,
        lam=20.0,
        d_avg_calibration_rounds=5,
        d_avg_margin=1.5,
    )
    t0 = time.perf_counter()
    state = build_state(cfg, "lyapunov")
    rows = []
    while len(rows) < cfg.rounds and (row := run_round(state)) is not None:
        rows.append(row)
    elapsed = time.perf_counter() - t0
    rounds = len(rows)
    backlog = float(state.queues.q_fa.sum() + state.queues.q_de) / rounds
    shortfall = float((state.participation / rounds - state.betas).min())
    delays = np.array([row.round_delay_s for row in rows])
    delay_ratio = float(delays.mean() / state.sched_cfg.d_avg)
    ok = (
        rounds == 500
        and backlog < 0.05
        and shortfall >= -0.05
        and delay_ratio <= 1.05
        and elapsed < 120.0
    )
    _verdict(
        8,
        "queue feasibility",
        ok,
        f"Q/T {backlog:.4f}, min(part-beta) {shortfall:+.4f}, "
        f"delay/d_avg {delay_ratio:.3f}, {elapsed:.1f}s < 120s",
    )


def test_criterion_09_adaptive_clipping_direction():
    base = ExperimentConfig(
        rounds=200,
        num_clients=10,
        num_channels=3,
        num_train=2000,
        num_test=400,
        feature_dim=10,
        num_classes=10,
        tau=5,
        batch_size=5,
        sigma_hat=0.6,
        s_fixed=0.25,
        clip_c=5.0,
        eta=0.05,
        separation=2.0,
        eps_min=4.0,
        eps_max=20.0,
    )
    t0 = time.perf_counter()
    diffs = []
    for seed in range(5):
        final = {}
        for adaptive in (True, False):
            trace = run_experiment(replace(base, seed=seed, adaptive_clip=adaptive), "random")
            final[adaptive] = trace.rows[-1].accuracy
        diffs.append(final[True] - final[False])
    elapsed = time.perf_counter() - t0
    diffs = np.array(diffs)
    se = float(diffs.std(ddof=1) / np.sqrt(diffs.size))
    margin = float(diffs.mean())
    ok = margin >= 2.0 * se and elapsed < 300.0
    _verdict(
        9,
        "adaptive clipping beats fixed",
        ok,
        f"margin {margin:.4f} vs 2*SE {2 * se:.4f}, {elapsed:.1f}s < 300s",
    )


def test_criterion_10_lambda_delay_monotonicity():
    base = ExperimentConfig(
        rounds=200,
        num_clients=10,
        num_channels=3,
        num_train=2000,
        num_test=400,
        feature_dim=10,
        num_classes=10,
        hidden_units=20,
        bandwidth_hz=1000.0,
        tau=5,
        batch_size=5,
        sigma_hat=0.0,
        s_fixed=0.25,
        s_th=0.05,
        eta=0.05,
        separation=2.0,
        d_avg_margin=0.9,
    )
    t0 = time.perf_counter()
    ok = True
    details = []
    for seed in (0, 1, 2):
        cums = []
        for lam in (5.0, 50.0, 500.0):
            trace = run_experiment(replace(base, seed=seed, lam=lam), "lyapunov")
            cums.append(trace.rows[-1].cum_delay_s)
        ok = ok and cums[0] <= cums[1] + 1e-9 and cums[1] <= cums[2] + 1e-9
        details.append(f"seed {seed}: {cums[0]:.1f}/{cums[1]:.1f}/{cums[2]:.1f}s")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _verdict(
        10,
        "delay grows with lambda",
        ok,
        "; ".join(details) + f", {elapsed:.1f}s < 300s",
    )


def test_criterion_11_policy_comparison():
    base = ExperimentConfig(
        rounds=200,
        num_clients=10,
        num_channels=3,
        num_train=2000,
        num_test=400,
        feature_dim=10,
        num_classes=10,
        hidden_units=20,
        bandwidth_hz=2000.0,
        tau=5,
        batch_size=5,
        sigma_hat=0.0,
        s_fixed=1.0,
        s_th=1.0,
        eta=0.05,
        separation=2.0,
        d_avg_margin=1.0,
        lam=50.0,
    )
    policies = ("lyapunov", "round_robin", "random", "delay_min")
    t0 = time.perf_counter()
    acc = {p: [] for p in policies}
    cum = {p: [] for p in policies}
    for seed in range(5):
        for policy in policies:
            trace = run_experiment(replace(base, seed=seed), policy)
            acc[policy].append(trace.rows[-1].accuracy)
            cum[policy].append(trace.rows[-1].cum_delay_s)
    elapsed = time.perf_counter() - t0
    ly_acc = float(np.mean(acc["lyapunov"]))
    ly_cum = float(np.mean(cum["lyapunov"]))
    acc_ok = True
    for policy in policies[1:]:
        vals = np.array(acc[policy])
        acc_ok = acc_ok and ly_acc >= vals.mean() - vals.std(ddof=1) / np.sqrt(vals.size)
    delay_ok = ly_cum < np.mean(cum["round_robin"]) and ly_cum < np.mean(cum["random"])
    ok = acc_ok and delay_ok and elapsed < 600.0
    _verdict(
        11,
        "optimizer beats baselines",
        ok,
        f"acc {ly_acc:.3f} (rr {np.mean(acc['round_robin']):.3f}, "
        f"rand {np.mean(acc['random']):.3f}, dmin {np.mean(acc['delay_min']):.3f}); "
        f"cum delay {ly_cum:.1f}s vs rr {np.mean(cum['round_robin']):.1f}s, "
        f"rand {np.mean(cum['random']):.1f}s; {elapsed:.1f}s < 600s",
    )


def test_criterion_12_byte_identical_csv(tmp_path):
    cfg = fast_config(rounds=5, policies=("lyapunov", "random"))
    paths = []
    for run in range(2):
        traces = [run_experiment(cfg, policy) for policy in cfg.policies]
        path = tmp_path / f"run{run}.csv"
        emit_metrics_csv(traces, str(path))
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    ok = first == second and len(first) > 0
    _verdict(12, "byte-identical reruns", ok, f"{len(first)} bytes, identical={first == second}")
