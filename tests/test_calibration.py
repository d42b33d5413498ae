"""The stacked d_avg calibration against a round-by-round reference.

The simulator decides the delay_min prologue in stacked blocks of rounds.
per_round_d_avg below decides the same rounds one RoundContext at a time, from
the same channel and CPU streams, and sums the delays in the same order, so
the two must agree bit for bit.
"""

import functools
import hashlib
import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import fast_config
from sparsefl import simulator
from sparsefl.config import ExperimentConfig
from sparsefl.oracles import random_round_context
from sparsefl.scheduler import baseline_schedule, build_decision
from sparsefl.wireless import ChannelRealization

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# float.hex(d_avg) of each benchmark workload at full size, as computed by the
# round-by-round calibration that the stacked one replaced.
PINNED_D_AVG = {
    ("privacy_hetero", 1): "0x1.6048d56dd2764p-5",
    ("privacy_hetero", 2): "0x1.56c7714db6f15p-5",
    ("privacy_hetero", 3): "0x1.749327993addfp-5",
    ("sched_wide", 1): "0x1.0ae8ec456346bp-7",
    ("sched_wide", 2): "0x1.160c693318831p-7",
    ("sched_wide", 3): "0x1.16d10703b646ap-7",
    ("train_mlp", 1): "0x1.dee6aea08b6ddp+3",
    ("train_mlp", 2): "0x1.ec030f427eb5ap+3",
    ("train_mlp", 3): "0x1.103817e078fe6p+4",
}

# SHA-256 of each workload's full-size metrics CSV, as
# `python3 perfbench/child.py W S OUT 0 0` writes it. A change that should keep
# the metrics byte-identical is checked here; one that moves them on purpose
# updates these (and the smoke pins) and says why in CHANGES.md.
PINNED_CSV_SHA256 = {
    ("privacy_hetero", 1): "671cb742e8c84c2e172687d08324fe5540deb44a6eeceba66651115ae805a966",
    ("privacy_hetero", 2): "92be2267f3b57ae7a8eb497f64d8f4eb53fa064fb62c45fc9bcdbf92e7fe0e71",
    ("privacy_hetero", 3): "bcd757a234adc4d19ebc83533e003dfe452114b020215b9e9f7b06a729a19bd6",
    ("sched_wide", 1): "7529baf2a1fffd3f1d83792ab481cb315848a7841a122472f3bd4dce12cb1197",
    ("sched_wide", 2): "c72db5805e60a23663bf811c7d6088138ba1517a9a6682ffb2ff93fc16415ff8",
    ("sched_wide", 3): "de5a72e4f6b8639139ca237b644169e549010870ec0c14e829ac8cc4e6231c19",
    ("train_mlp", 1): "088cb0acbf2720abfc81aa01392779ea45caa6d3c81a94ec2cd284db78f92a10",
    ("train_mlp", 2): "1f61189995dae576d45f6a17df506768093b91f9fc7f80e8fb812260f862bcb0",
    ("train_mlp", 3): "d06acf3449e681942dfc52d6adbdb8c26e5065d9cc09a1c248b22ed058068d0c",
}


def per_round_d_avg(state: simulator.SimState) -> float:
    """The calibration decided one round at a time: the reference."""
    config = state.config
    eligible = np.arange(config.num_clients)
    total = 0.0
    for k in range(config.d_avg_calibration_rounds):
        draw = simulator._draw_round(state, simulator._CALIBRATION_BASE + k)
        ctx = simulator._round_context(state, eligible, *draw)
        total += baseline_schedule(ctx, "delay_min", k, None).round_delay
    return config.d_avg_margin * total / config.d_avg_calibration_rounds


@functools.cache
def _workload_state(name: str, seed: int) -> simulator.SimState:
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = ExperimentConfig(**workloads.config_kwargs(name, seed))
    return simulator.build_state(config, workloads.WORKLOADS[name]["policy"])


@pytest.mark.parametrize("name, seed", sorted(PINNED_D_AVG))
def test_workload_d_avg_bits_are_pinned(name, seed):
    d_avg = _workload_state(name, seed).sched_cfg.d_avg
    assert float.hex(d_avg) == PINNED_D_AVG[(name, seed)]


@pytest.mark.parametrize("name, seed", sorted(PINNED_CSV_SHA256))
def test_workload_metrics_csv_bytes_are_pinned(name, seed, tmp_path):
    prefix = tmp_path / f"{name}-{seed}"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), name, str(seed), str(prefix), "0", "0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    csv_sha = hashlib.sha256(prefix.with_suffix(".csv").read_bytes()).hexdigest()
    assert csv_sha == PINNED_CSV_SHA256[(name, seed)]


@pytest.mark.parametrize("name, seed", sorted(PINNED_D_AVG))
def test_workload_calibration_matches_per_round(name, seed):
    state = _workload_state(name, seed)
    assert state.sched_cfg.d_avg == per_round_d_avg(state)


def _spy_blocks(monkeypatch) -> list:
    """Record every stacked decision the calibration makes."""
    decisions = []

    def spy(*args, **kwargs):
        decisions.append(baseline_schedule(*args, **kwargs))
        return decisions[-1]

    monkeypatch.setattr(simulator, "baseline_schedule", spy)
    return decisions


@pytest.mark.parametrize(
    "overrides, blocks",
    [
        (dict(num_clients=3, num_channels=5, num_train=300), 1),
        (dict(d_avg_calibration_rounds=1), 1),
        (dict(num_clients=12, num_channels=4, d_avg_calibration_rounds=40), 1),
    ],
)
def test_small_calibrations_match_per_round(monkeypatch, overrides, blocks):
    state = simulator.build_state(fast_config(sigma_hat=0.0, **overrides), "lyapunov")
    decisions = _spy_blocks(monkeypatch)
    assert simulator._calibrate_d_avg(state) == per_round_d_avg(state)
    assert state.sched_cfg.d_avg == per_round_d_avg(state)
    assert len(decisions) == blocks


def test_block_split_by_the_cap_matches_per_round(monkeypatch):
    config = fast_config(sigma_hat=0.0, d_avg_calibration_rounds=8)
    state = simulator.build_state(config, "lyapunov")
    monkeypatch.setattr(
        simulator, "_CALIBRATION_STACK", 3 * config.num_clients * config.num_channels + 1
    )
    decisions = _spy_blocks(monkeypatch)
    assert simulator._calibrate_d_avg(state) == per_round_d_avg(state)
    assert [d.assigned_channel.shape[0] for d in decisions] == [3, 3, 2]


def _patch_channels(monkeypatch, edit) -> None:
    """Pass every realized channel through edit(realization, path_gains)."""
    realize = simulator.realize_channels

    def patched(path_gains, n_channels, rng):
        return edit(realize(path_gains, n_channels, rng), path_gains)

    monkeypatch.setattr(simulator, "realize_channels", patched)


def test_zero_uplink_gain_ranks_last(monkeypatch):
    config = fast_config(sigma_hat=0.0, d_avg_calibration_rounds=6)
    state = simulator.build_state(config, "random")

    def dead_links(real, _path_gains):
        uplink = real.uplink_gains.copy()
        uplink[0, :] = 0.0
        uplink[1, 0] = 0.0
        return replace(real, uplink_gains=uplink)

    _patch_channels(monkeypatch, dead_links)
    decisions = _spy_blocks(monkeypatch)
    d_avg = simulator._calibrate_d_avg(state)
    assert np.isfinite(d_avg)
    assert d_avg == per_round_d_avg(state)
    (stacked,) = decisions
    assert np.all(stacked.assigned_channel[:, 0] == -1)
    assert np.all(stacked.assigned_channel[:, 1] != 0)


def test_tied_delays_break_by_client_then_channel(monkeypatch):
    # 100 edges per round in two tied groups: an unstable sort reorders them.
    config = fast_config(
        sigma_hat=0.0,
        num_clients=20,
        num_channels=5,
        cpu_freq_min_frac=1.0,
        cpu_freq_max_frac=1.0,
        d_avg_calibration_rounds=4,
    )
    state = simulator.build_state(config, "lyapunov")
    assert np.all(state.sizes == state.sizes[0])
    state.path_gains[0::2] = state.path_gains[0]
    state.path_gains[1::2] = state.path_gains[0] / 2.0

    def no_fading(real, path_gains):
        uplink = np.broadcast_to(path_gains[:, None], real.uplink_gains.shape).copy()
        return ChannelRealization(uplink_gains=uplink, downlink_gains=path_gains.copy())

    _patch_channels(monkeypatch, no_fading)
    decisions = _spy_blocks(monkeypatch)
    assert simulator._calibrate_d_avg(state) == per_round_d_avg(state)
    (stacked,) = decisions
    # The even clients are faster and tie with each other on every channel,
    # so the first five of them take channels 0 to 4 in client order.
    expected = np.full(config.num_clients, -1)
    expected[0:10:2] = np.arange(config.num_channels)
    assert np.all(stacked.assigned_channel == expected)
    assert np.all(stacked.round_delay == stacked.round_delay[0])


def _stack(contexts):
    """One stacked RoundContext from per-round ones sharing the first's world."""
    base = contexts[0]
    return replace(
        base,
        channels=ChannelRealization(
            uplink_gains=np.stack([c.channels.uplink_gains for c in contexts]),
            downlink_gains=np.stack([c.channels.downlink_gains for c in contexts]),
        ),
        compute=replace(
            base.compute, cpu_freq_hz=np.stack([c.compute.cpu_freq_hz for c in contexts])
        ),
    )


def _round_of(stacked, r):
    return replace(
        stacked,
        channels=ChannelRealization(
            uplink_gains=stacked.channels.uplink_gains[r],
            downlink_gains=stacked.channels.downlink_gains[r],
        ),
        compute=replace(stacked.compute, cpu_freq_hz=stacked.compute.cpu_freq_hz[r]),
    )


def _assert_same_round(stacked_decision, r, reference):
    for name in ("assigned_channel", "rates", "powers", "e_comm"):
        assert np.array_equal(getattr(stacked_decision, name)[r], getattr(reference, name)), name
    assert stacked_decision.round_delay[r] == reference.round_delay


@pytest.mark.parametrize("n_clients, n_channels, rounds", [(5, 3, 4), (3, 5, 3), (8, 2, 6)])
def test_stacked_decisions_match_per_round(n_clients, n_channels, rounds):
    rng = np.random.default_rng(100 * n_clients + n_channels)
    stacked = _stack(
        [random_round_context(rng, n_clients, n_channels)[0] for _ in range(rounds)]
    )
    assert (stacked.n_clients, stacked.n_channels) == (n_clients, n_channels)
    assigned = np.full((rounds, n_clients), -1)
    for r in range(rounds):
        count = r % (min(n_clients, n_channels) + 1)
        chosen = rng.choice(n_clients, size=count, replace=False)
        assigned[r, chosen] = rng.permutation(n_channels)[:count]
    s = rng.uniform(0.05, 1.0, (rounds, n_clients))
    powers = rng.uniform(0.1, 1.0, (rounds, n_clients))
    built = build_decision(stacked, assigned, s, powers)
    greedy = baseline_schedule(stacked, "delay_min", 0, None, s_value=0.4)
    for r in range(rounds):
        ctx = _round_of(stacked, r)
        _assert_same_round(built, r, build_decision(ctx, assigned[r], s[r], powers[r]))
        _assert_same_round(greedy, r, baseline_schedule(ctx, "delay_min", 0, None, s_value=0.4))


def test_stacked_context_takes_only_delay_min():
    rng = np.random.default_rng(4)
    stacked = _stack([random_round_context(rng, 4, 2)[0] for _ in range(3)])
    for policy in ("random", "round_robin"):
        with pytest.raises(ValueError):
            baseline_schedule(stacked, policy, 0, np.random.default_rng(0))
