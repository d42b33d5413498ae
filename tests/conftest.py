import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sparsefl.config import ExperimentConfig
from sparsefl.dpsgd import clipped_masked_mean, generate_mask
from sparsefl.model_data import ModelWeights, loss_grad_factors, split_blocks
from sparsefl.scheduler import RoundContext, SchedulerConfig
from sparsefl.wireless import ChannelRealization, ComputeParams, RadioParams

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# One verdict line per release criterion, filled in by test_acceptance.py and
# echoed after the test summary so a full run ends with the twelve verdicts.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fast_config(**overrides) -> ExperimentConfig:
    """Desk-scale config whose budgets survive a handful of rounds."""
    base = dict(
        seed=11,
        rounds=6,
        num_clients=6,
        num_channels=2,
        num_train=720,
        num_test=90,
        feature_dim=8,
        num_classes=4,
        tau=5,
        batch_size=5,
        sigma_hat=1.5,
        d_avg_calibration_rounds=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def make_context(
    gains: np.ndarray,
    *,
    model_dim: int = 40,
    tau: int = 2,
    sizes: np.ndarray | None = None,
    eligible: np.ndarray | None = None,
    downlink_gains: np.ndarray | None = None,
    max_power_w: float = 1.0,
) -> RoundContext:
    """RoundContext with hand-picked uplink gains for targeted scheduler tests."""
    gains = np.asarray(gains, dtype=float)
    n = gains.shape[0]
    if sizes is None:
        sizes = np.full(n, 40)
    if eligible is None:
        eligible = np.arange(n)
    if downlink_gains is None:
        downlink_gains = np.full(n, 1e-7)
    radio = RadioParams(
        bandwidth_hz=15e3,
        noise_w=1.995262314968883e-14,
        downlink_power_w=0.199526231496888,
        max_power_w=max_power_w,
    )
    compute = ComputeParams(
        cycles_per_sample=1e4, cpu_freq_hz=np.full(n, 2.4e9), capacitance=1e-28
    )
    return RoundContext(
        model_dim=model_dim,
        tau=tau,
        eligible=np.asarray(eligible, dtype=int),
        dataset_sizes=np.asarray(sizes),
        channels=ChannelRealization(
            uplink_gains=gains, downlink_gains=np.asarray(downlink_gains, dtype=float)
        ),
        radio=radio,
        compute=compute,
    )


def clip_per_sample(grads: np.ndarray, threshold: float) -> np.ndarray:
    """Dense clipping reference: each row of grads scaled to norm at most threshold.

    With model_data.per_sample_loss_grads this is the dense path that the
    factored clipped mean in dpsgd is tested against. A zero row stays zero.
    """
    norms = np.sqrt((grads * grads).sum(axis=1))
    factors = np.minimum(1.0, threshold / np.where(norms > 0.0, norms, 1.0))
    return grads * factors[:, None]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def loose_scheduler_config(**overrides) -> SchedulerConfig:
    base = dict(lam=50.0, d_avg=1.0, e_max_j=1e9, s_th=0.05)
    base.update(overrides)
    return SchedulerConfig(**base)


def stepwise_local_train(w_init, data, s, cfg, streams, stats):
    """One client's local training with every draw made inside its step.

    The reference for dpsgd.local_train's draws: the mask, then per step a
    batch choice, a normal(0, std, retained) noise draw (none when sigma_hat
    is 0) and noise @ noise into stats. Returns the client's weight delta.
    """
    spec = w_init.spec
    mask = generate_mask(spec.dim, s, streams.mask)
    kept = np.flatnonzero(mask)
    keep_blocks = split_blocks(mask.astype(np.float64), spec)
    threshold = cfg.clip_threshold(s)
    batch = min(cfg.batch_size, data.n)
    std = cfg.sigma_hat * threshold / batch
    w = w_init.values.copy()
    mean = np.empty(spec.dim)
    mean_blocks = split_blocks(mean, spec)
    for _ in range(cfg.tau):
        take = streams.batch.choice(data.n, size=batch, replace=False)
        model = ModelWeights(w, spec)
        _, factors = loss_grad_factors(model, data.features[take], data.labels[take])
        sq_norms = clipped_masked_mean(factors, keep_blocks, threshold, mean_blocks)
        stats.max_grad_norm = max(stats.max_grad_norm, math.sqrt(float(sq_norms.max())))
        step = mean[kept]
        if cfg.sigma_hat > 0.0:
            noise = streams.noise.normal(0.0, std, size=kept.size)
            step += noise
            stats.noise_sq_sum += float(noise @ noise)
        w[kept] -= cfg.eta * step
    return w - w_init.values
