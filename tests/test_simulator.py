import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefl import simulator, streams
from sparsefl.accountant import BudgetOverrunError
from sparsefl.cli import emit_metrics_csv
from sparsefl.config import ConfigError, ExperimentConfig
from sparsefl.model_data import ModelSpec, ModelWeights, per_sample_loss_grads
from sparsefl.scheduler import POLICIES
from sparsefl.simulator import build_state, run_experiment, run_round
from sparsefl.wireless import dbm_to_watts, realize_channels

from conftest import clip_per_sample, fast_config
from test_model_data import write_idx_images, write_idx_labels


def rows_as_tuples(trace):
    return [
        (
            r.round,
            r.policy,
            r.accuracy,
            r.loss,
            r.round_delay_s,
            r.cum_delay_s,
            r.participants,
            r.mean_s,
            r.q_de,
            r.max_q_fa,
            r.term_sparsification,
            r.term_dp,
            r.eligible,
        )
        for r in trace.rows
    ]


def test_same_seed_reproduces_the_run_exactly():
    cfg = fast_config(rounds=5)
    a = run_experiment(cfg, "lyapunov")
    b = run_experiment(cfg, "lyapunov")
    assert rows_as_tuples(a) == rows_as_tuples(b)
    assert np.array_equal(a.participation, b.participation)
    assert a.d_avg_s == b.d_avg_s


def test_different_seeds_differ():
    a = run_experiment(fast_config(rounds=4), "random")
    b = run_experiment(fast_config(rounds=4, seed=12), "random")
    assert rows_as_tuples(a) != rows_as_tuples(b)


def test_cumulative_delay_is_the_running_sum():
    trace = run_experiment(fast_config(rounds=6), "lyapunov")
    total = 0.0
    for row in trace.rows:
        assert row.round_delay_s >= 0.0
        total += row.round_delay_s
        assert row.cum_delay_s == pytest.approx(total, rel=1e-12)


def test_round_indices_and_policy_tag():
    trace = run_experiment(fast_config(rounds=5), "delay_min")
    assert [r.round for r in trace.rows] == list(range(5))
    assert all(r.policy == "delay_min" for r in trace.rows)
    assert trace.truncated_at is None


def test_participation_counter_matches_rows():
    trace = run_experiment(fast_config(rounds=6), "round_robin")
    assert trace.participation.sum() == sum(r.participants for r in trace.rows)
    assert all(0 <= r.participants <= 2 for r in trace.rows)


def test_metrics_stay_in_range():
    trace = run_experiment(fast_config(rounds=6), "lyapunov")
    for row in trace.rows:
        assert 0.0 <= row.accuracy <= 1.0
        assert np.isfinite(row.loss)
        assert 0.0 <= row.mean_s <= 1.0
        assert row.q_de >= 0.0
        assert row.max_q_fa >= 0.0
        assert row.eligible >= row.participants


def test_retirement_is_permanent_and_respects_forecasts():
    cfg = fast_config(rounds=20, eps_min=0.5, eps_max=0.5)
    trace = run_experiment(cfg, "round_robin")
    assert np.all(trace.t_hats == 4)
    assert trace.truncated_at == 12
    assert len(trace.rows) == 12
    assert np.all(trace.participation == 4)
    eligible = [r.eligible for r in trace.rows]
    assert eligible == sorted(eligible, reverse=True)


def test_disabled_accounting_keeps_everyone_eligible():
    cfg = fast_config(rounds=6, sigma_hat=0.0)
    trace = run_experiment(cfg, "round_robin")
    assert np.all(trace.t_hats == -1)
    assert np.allclose(build_state(cfg, "round_robin").betas, 2.0 / 6.0)
    assert all(r.eligible == 6 for r in trace.rows)
    assert trace.truncated_at is None


def test_shards_below_the_batch_are_charged_whole():
    # A shard smaller than batch_size trains on all its rows every step, so
    # its accountant samples with q = 1, not batch_size / n.
    cfg = fast_config(
        num_clients=3, partition="sizes", partition_sizes=(3, 5, 40), batch_size=5, rounds=3
    )
    state = build_state(cfg, "round_robin")
    assert state.sizes.tolist() == [3, 5, 40]
    assert [ledger.params.q for ledger in state.ledgers] == [1.0, 1.0, 0.125]
    trace = run_experiment(cfg, "round_robin")
    assert trace.t_hats.tolist() == [ledger.t_hat for ledger in state.ledgers]
    assert trace.participation[0] > 0


def test_build_state_holds_the_training_set_once():
    """After set-up the memory still held is the data plus at most 1 MiB.

    A 784-64-10 MLP on 2,000 train and 1,000 test rows: the features are
    about 18 MiB, and a copy of the train rows per shard would add 12 MiB.
    The peak is not bounded: the data synthesis has a temporary of its own.
    """
    cfg = fast_config(
        num_clients=20,
        num_channels=5,
        num_train=2000,
        num_test=1000,
        feature_dim=784,
        num_classes=10,
        hidden_units=64,
        partition="iid",
        sigma_hat=1.0,
        eps_min=10.0,
        eps_max=20.0,
        tau=10,
        batch_size=16,
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = build_state(cfg, "round_robin")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    data = state.train_pool.features.nbytes + state.test_set.features.nbytes
    assert held <= data + 2**20


def test_degenerate_budgets_raise_at_setup():
    from sparsefl.accountant import DegenerateBudgetError

    cfg = fast_config(eps_min=0.1, eps_max=0.1)
    with pytest.raises(DegenerateBudgetError):
        build_state(cfg, "lyapunov")


def test_energy_starved_lyapunov_records_empty_rounds():
    cfg = fast_config(rounds=3, e_max_j=1e-9)
    trace = run_experiment(cfg, "lyapunov")
    assert len(trace.rows) == 3
    for row in trace.rows:
        assert row.participants == 0
        assert row.round_delay_s == 0.0
        assert row.mean_s == 0.0


def test_lyapunov_round_without_a_complete_matching_is_empty(monkeypatch):
    """Channel 1 dead for every client: no matching fills both channels, so nobody uploads."""

    def channel_1_dead(*args):
        channels = realize_channels(*args)
        channels.uplink_gains[:, 1] = 0.0
        return channels

    monkeypatch.setattr(simulator, "realize_channels", channel_1_dead)
    state = build_state(fast_config(num_clients=3, d_avg_s=1.0), "lyapunov")
    row = run_round(state)
    assert (row.participants, row.round_delay_s, row.mean_s) == (0, 0.0, 0.0)
    assert state.queues.q_de == 0.0 and not state.participation.any()


def test_fixed_rate_baselines_report_it():
    cfg = fast_config(rounds=4, s_fixed=0.25)
    trace = run_experiment(cfg, "random")
    for row in trace.rows:
        if row.participants:
            assert row.mean_s == pytest.approx(0.25)


def test_d_avg_passthrough_and_calibration():
    explicit = run_experiment(fast_config(rounds=2, d_avg_s=0.42), "lyapunov")
    assert explicit.d_avg_s == 0.42
    calibrated = run_experiment(fast_config(rounds=2), "lyapunov")
    assert calibrated.d_avg_s > 0.0


def test_interference_joins_the_noise_floor_once():
    """interference_dbm adds its Watts to the thermal noise floor, which slows every link."""
    quiet = build_state(fast_config(rounds=2), "lyapunov")
    noisy = build_state(fast_config(rounds=2, interference_dbm=-100.0), "lyapunov")
    assert quiet.radio.noise_w == dbm_to_watts(-107.0)
    assert noisy.radio.noise_w == dbm_to_watts(-100.0) + dbm_to_watts(-107.0)
    assert noisy.sched_cfg.d_avg > quiet.sched_cfg.d_avg


def test_matches_hand_rolled_weighted_averaging():
    """sigma=0, s=1, all clients scheduled: the simulator is plain FedAvg."""
    cfg = fast_config(
        rounds=3,
        num_channels=6,
        sigma_hat=0.0,
        s_fixed=1.0,
        clip_c=1e9,
        tau=2,
        batch_size=4,
    )
    trace = run_experiment(cfg, "round_robin")

    state = build_state(cfg, "round_robin")
    spec = state.weights.spec
    w = np.zeros(spec.dim)
    sizes = state.sizes
    weights = sizes / sizes.sum()
    for t in range(3):
        delta = np.zeros(spec.dim)
        for i in range(cfg.num_clients):
            rng = streams.substream(cfg.seed, streams.TRAIN, t, i)
            rng.random(spec.dim)  # the mask's uniforms, all kept at s = 1
            local = w.copy()
            rows = state.shards[i]
            pool = state.train_pool
            for _ in range(cfg.tau):
                take = rows[rng.choice(rows.size, size=4, replace=False)]
                _, grads = per_sample_loss_grads(
                    ModelWeights(local, spec), pool.features[take], pool.labels[take]
                )
                local -= cfg.eta * clip_per_sample(grads, 1e9).mean(axis=0)
            delta += weights[i] * (local - w)
        w = w + delta

    final_state = build_state(cfg, "round_robin")
    for _ in range(3):
        run_round(final_state)
    assert np.allclose(final_state.weights.values, w, atol=1e-12)
    assert trace.rows[-1].participants == 6


def test_bound_terms_vanish_in_the_easy_cases():
    dense = run_experiment(fast_config(rounds=3, s_fixed=1.0), "random")
    for row in dense.rows:
        assert row.term_sparsification == 0.0
        assert row.term_dp > 0.0
    noiseless = run_experiment(fast_config(rounds=3, sigma_hat=0.0, s_fixed=0.5), "random")
    for row in noiseless.rows:
        assert row.term_dp == 0.0
        if row.participants:
            assert row.term_sparsification > 0.0


def test_bound_terms_follow_the_reported_formulas(monkeypatch):
    cfg = fast_config(rounds=4, s_fixed=0.5, smoothness_l=2.0)
    state = build_state(cfg, "random")
    rows = []
    for _ in range(cfg.rounds):
        row = run_round(state)
        rows.append(row)
        # The estimates known when the round ends; each participation runs
        # tau steps of one noise draw each.
        noise_draws = cfg.tau * state.participation.sum()
        noise_sq_mean = state.stats.noise_sq_sum / noise_draws if noise_draws else 0.0
        dp_want = cfg.eta * cfg.tau**2 * noise_sq_mean * (1.0 + 3.0 * cfg.eta * 2.0 * cfg.tau)
        assert row.term_dp == pytest.approx(dp_want, rel=1e-12)
        # every participant sends at s=0.5, so the deficit is 0.5
        deficit = 0.5 if row.participants else 0.0
        want = 3.0 * state.stats.max_grad_norm**2 * deficit
        assert row.term_sparsification == pytest.approx(want, rel=1e-12)
    assert len({row.term_dp for row in rows}) > 1

    # At the last row the running estimates are the run-level ones.
    trace = run_experiment(cfg, "random")
    assert trace.rows == rows
    noise_sq_mean = state.stats.noise_sq_sum / (cfg.tau * trace.participation.sum())
    assert rows[-1].term_dp == (
        cfg.eta * cfg.tau**2 * noise_sq_mean * (1.0 + 3.0 * cfg.eta * 2.0 * cfg.tau)
    )
    assert rows[-1].term_sparsification == 3.0 * state.stats.max_grad_norm**2 * 0.5

    def fixed_stats(weights, shards, rates, dp_cfg, rngs, agg_weights, *, stats, **_):
        stats.max_grad_norm = 2.0
        stats.noise_sq_sum += 0.5 * dp_cfg.tau * len(shards)
        return np.zeros_like(weights.values)

    # By hand: G = 2, a mean squared noise norm of 0.5 and a deficit of 0.25.
    monkeypatch.setattr(simulator, "local_train", fixed_stats)
    cfg = fast_config(tau=4, eta=0.1, smoothness_l=1.0, s_fixed=0.75)
    row = run_round(build_state(cfg, "random"))
    assert row.participants
    assert row.term_sparsification == pytest.approx(3.0 * 4.0 * 0.25)
    assert row.term_dp == pytest.approx(0.1 * 16 * 0.5 * (1.0 + 3.0 * 0.1 * 1.0 * 4))


@pytest.mark.parametrize("policy", ["lyapunov", "random"])
def test_rows_do_not_depend_on_later_rounds(policy):
    short = run_experiment(fast_config(rounds=3, s_fixed=0.5), policy)
    long = run_experiment(fast_config(rounds=6, s_fixed=0.5), policy)
    assert len(long.rows) == 6
    assert short.rows == long.rows[:3]


@pytest.mark.parametrize("policy", ["lyapunov", "round_robin"])
def test_default_config_runs_every_round_and_every_client_uploads(policy):
    """An empty config is a usable experiment, not one whose budgets are spent at birth."""
    trace = run_experiment(ExperimentConfig(), policy)
    assert trace.truncated_at is None
    assert len(trace.rows) == ExperimentConfig().rounds == 100
    assert np.all(trace.t_hats >= 1)
    assert np.all(trace.participation >= 1), trace.participation


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError):
        build_state(fast_config(), "greedy")


def test_mnist_pipeline(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(80, 4, 4)).astype(np.uint8)
    labels = rng.integers(0, 4, size=80).astype(np.uint8)
    paths = {}
    for name, writer, payload in (
        ("train_images", write_idx_images, imgs),
        ("train_labels", write_idx_labels, labels),
        ("test_images", write_idx_images, imgs[:20]),
        ("test_labels", write_idx_labels, labels[:20]),
    ):
        p = str(tmp_path / f"{name}.idx")
        writer(p, payload)
        paths[name] = p
    cfg = fast_config(
        rounds=2,
        dataset="mnist",
        mnist_train_images=paths["train_images"],
        mnist_train_labels=paths["train_labels"],
        mnist_test_images=paths["test_images"],
        mnist_test_labels=paths["test_labels"],
        num_train=80,
        num_test=20,
        num_clients=4,
        num_channels=2,
        batch_size=3,
    )
    trace = run_experiment(cfg, "random")
    assert len(trace.rows) == 2

    bad = fast_config(
        rounds=2,
        dataset="mnist",
        mnist_train_images=paths["train_images"],
        mnist_train_labels=paths["train_labels"],
        mnist_test_images=paths["test_images"],
        mnist_test_labels=paths["test_labels"],
        num_classes=2,
    )
    with pytest.raises(ConfigError):
        build_state(bad, "random")


SCHEDULE_COLUMNS = (
    "round",
    "policy",
    "round_delay_s",
    "cum_delay_s",
    "participants",
    "mean_s",
    "q_de",
    "max_q_fa",
    "eligible",
)


def test_schedule_reads_no_training_draw(monkeypatch):
    """Re-keying only the TRAIN streams moves accuracy but not one schedule column."""
    cfg = fast_config(rounds=12, sigma_hat=1.0, eps_min=0.5, eps_max=1.5)
    base = run_experiment(cfg, "lyapunov")
    substream = streams.substream

    def rekeyed(seed, *path):
        return substream(seed, *path, 1) if path[0] == streams.TRAIN else substream(seed, *path)

    monkeypatch.setattr(simulator.streams, "substream", rekeyed)
    moved = run_experiment(cfg, "lyapunov")
    assert base.truncated_at == moved.truncated_at is not None
    assert [[getattr(r, c) for c in SCHEDULE_COLUMNS] for r in base.rows] == [
        [getattr(r, c) for c in SCHEDULE_COLUMNS] for r in moved.rows
    ]
    assert [r.accuracy for r in base.rows] != [r.accuracy for r in moved.rows]
    assert np.array_equal(base.participation, moved.participation)


def test_substream_independence_and_reproducibility():
    a = streams.substream(7, streams.TRAIN, 3, 1)
    b = streams.substream(7, streams.TRAIN, 3, 1)
    c = streams.substream(7, streams.TRAIN, 3, 2)
    d = streams.substream(8, streams.TRAIN, 3, 1)
    xa, xb, xc, xd = (g.random(8) for g in (a, b, c, d))
    assert np.array_equal(xa, xb)
    assert not np.array_equal(xa, xc)
    assert not np.array_equal(xa, xd)


def test_budget_overrun_raises_after_the_exposure():
    """A t_hat above the true forecast lets a client overspend; the round must raise."""
    state = build_state(fast_config(rounds=3), "round_robin")
    state.participation = state.t_hats.copy()
    state.t_hats = state.t_hats + 1
    for ledger, used in zip(state.ledgers, state.participation):
        assert ledger.spent(used) <= ledger.eps_budget < ledger.spent(used + 1)
    with pytest.raises(BudgetOverrunError, match=r"client \d+ spent epsilon .* in round 0"):
        run_round(state)


@st.composite
def tiny_configs(draw):
    """At most 4 clients and 3 rounds; privacy on or off, energy caps loose or binding.

    s_fixed sends the baseline policies through sparsified training as well,
    down to 0.01, below the optimizing policy's default floor s_th = 0.05.

    In the default 100 m area a full-power upload of this 15-coordinate model
    costs about 1e-3 J next to 1e-4 J of compute, so the 2e-4 and 1e-3 caps
    force the optimizing policy below full power, and the 1e-6 cap leaves it
    no feasible client at all. Areas up to 1000 m put far clients on links
    tens of dB weaker, where the energy cap binds far below full power.
    """
    num_clients = draw(st.integers(1, 4))
    sigma_hat = draw(st.sampled_from((0.0, 0.8, 2.0)))
    # Budgets low enough that some clients retire within three rounds, yet
    # high enough that one round at q = 1 fits, so set-up never degenerates.
    eps_min = draw(st.floats(10.0, 30.0) if sigma_hat < 1.0 else st.floats(3.0, 12.0))
    return fast_config(
        seed=draw(st.integers(0, 2**16)),
        rounds=draw(st.integers(1, 3)),
        policies=(draw(st.sampled_from(POLICIES)),),
        num_clients=num_clients,
        num_channels=draw(st.integers(1, 3)),
        num_train=num_clients * draw(st.integers(2, 12)),
        num_test=20,
        feature_dim=4,
        num_classes=3,
        partition=draw(st.sampled_from(("iid", "dirichlet"))),
        tau=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 6)),
        s_fixed=draw(st.sampled_from((0.01, 0.05, 0.3, 1.0))),
        area_side_m=draw(st.floats(100.0, 1000.0)),
        sigma_hat=sigma_hat,
        eps_min=eps_min,
        eps_max=eps_min + draw(st.floats(0.0, 20.0)),
        e_max_j=draw(st.sampled_from((1e9, 1e-3, 2e-4, 1e-6))),
        d_avg_calibration_rounds=2,
    )


@settings(max_examples=100)
@given(cfg=tiny_configs())
def test_fuzzed_tiny_runs_keep_their_invariants(cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    trace = run_experiment(cfg, cfg.policies[0])
    emit_metrics_csv([trace], str(out / "a.csv"))
    emit_metrics_csv([run_experiment(cfg, cfg.policies[0])], str(out / "b.csv"))
    first = (out / "a.csv").read_bytes()
    assert first == (out / "b.csv").read_bytes()

    with open(out / "a.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            for col, raw in row.items():
                if col != "policy":
                    assert math.isfinite(float(raw)), (col, raw)

    if cfg.sigma_hat > 0:
        assert np.all(trace.participation <= trace.t_hats)
    else:
        assert np.all(trace.t_hats == -1)
    q_prev = 0.0
    for row in trace.rows:
        assert row.q_de == max(q_prev + row.round_delay_s - trace.d_avg_s, 0.0)
        q_prev = row.q_de
