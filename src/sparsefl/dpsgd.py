"""Sparsified, clipped, noised local training.

A client draws one Bernoulli coordinate mask per round and runs tau noisy
steps with it: per-sample gradients are masked first, then clipped, then the
batch average is perturbed with Gaussian noise on the retained coordinates
only. Masking before clipping shrinks the clipping threshold to
sqrt(s) * clip_c, and the noise scale shrinks with it.

Only the retained coordinates are drawn: each step takes mask.retained
normals from the round's noise stream, in coordinate order, and updates only
those coordinates. Off the mask the delta is exactly zero, as after zeroing
a dense draw, so the mechanism and its accounting are unchanged by drawing
less. With sigma_hat = 0 the noise stream is not read at all.

The [batch, dim] per-sample gradient matrix is never built. Every parameter
block's per-sample gradient is an outer product A_i B_i^T (a bias block is
A_i alone; see model_data.loss_grad_factors), so with the block's mask M:

    masked squared norm  ||(A_i B_i^T) o M||^2 = sum_ab A_ia^2 M_ab B_ib^2
    clipped masked mean  ((f / n o A)^T B) o M, one matrix product per block

where f holds the per-sample clip factors. This is per-example norms
(Goodfellow, arXiv:1510.01799) and ghost clipping (Li et al.,
arXiv:2110.05679), with a coordinate mask folded into the norm. The dense
path (per_sample_loss_grads, mask, clip_per_sample, mean) is the reference it
is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model_data import Dataset, GradFactors, ModelWeights, loss_grad_factors, split_blocks

# Not called here. perfbench/spans.py times the dense gradient path by
# rebinding the name dpsgd.per_sample_loss_grads, and a traced run fails if
# the name is missing; with the factored path it reads zero calls.
from .model_data import per_sample_loss_grads  # noqa: F401


class TrainingDivergenceError(RuntimeError):
    """Loss or gradients became non-finite during local training."""


@dataclass(frozen=True)
class DpConfig:
    """Local training knobs.

    adaptive_clip False is an ablation switch: clipping and noise then use the
    dense threshold clip_c regardless of the sparsification rate.
    """

    clip_c: float
    sigma_hat: float
    batch_size: int
    tau: int
    eta: float
    adaptive_clip: bool = True

    def __post_init__(self) -> None:
        if self.clip_c <= 0:
            raise ValueError("clip_c must be positive")
        if self.sigma_hat < 0:
            raise ValueError("sigma_hat must be nonnegative")
        if self.batch_size < 1 or self.tau < 1:
            raise ValueError("batch_size and tau must be positive")
        if self.eta <= 0:
            raise ValueError("eta must be positive")

    def clip_threshold(self, s: float) -> float:
        return math.sqrt(s) * self.clip_c if self.adaptive_clip else self.clip_c


@dataclass(frozen=True)
class SparsityMask:
    """Coordinate retention mask for one client round."""

    bits: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        if self.bits.dtype != np.bool_ or self.bits.ndim != 1:
            raise ValueError("bits must be a boolean vector")
        self.bits.setflags(write=False)

    @property
    def retained(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class SparseUpdate:
    """Model delta whose support is confined to the round's mask."""

    values: np.ndarray
    mask: SparsityMask


@dataclass(frozen=True)
class TrainStreams:
    """Random generators for one client round, one per purpose."""

    mask: np.random.Generator
    batch: np.random.Generator
    noise: np.random.Generator


@dataclass
class TrainStats:
    """Running estimates the simulator collects across client rounds."""

    max_grad_norm: float = 0.0
    noise_sq_sum: float = 0.0
    noise_draws: int = 0


def generate_mask(dim: int, s: float, rng: np.random.Generator) -> SparsityMask:
    """Bernoulli(s) mask over dim coordinates."""
    if dim < 1:
        raise ValueError("dim must be positive")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {s}")
    return SparsityMask(bits=rng.random(dim) < s, rate=float(s))


def _clip_factors(norms: np.ndarray, threshold: float) -> np.ndarray:
    """Per-row scale that caps a norm at threshold; a zero norm keeps factor 1."""
    return np.where(norms > 0.0, np.minimum(1.0, threshold / np.maximum(norms, 1e-300)), 1.0)


def clip_per_sample(grads: np.ndarray, threshold: float) -> np.ndarray:
    """Scale each row to norm at most threshold. Zero rows pass through."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return grads * _clip_factors(np.linalg.norm(grads, axis=1), threshold)[:, None]


def clipped_masked_mean(
    factors: GradFactors,
    keep_blocks: list[np.ndarray],
    threshold: float,
    out_blocks: list[np.ndarray],
) -> np.ndarray:
    """Mean of the masked, clipped per-sample gradients, from their factors.

    keep_blocks is the float mask and out_blocks the output vector, both cut
    into parameter blocks by split_blocks; the mean is written to out_blocks.
    Clip factors are those of clip_per_sample applied to the masked rows.
    Returns the per-sample squared norms of the unmasked gradients.
    """
    n = factors[0][0].shape[0]
    sq_norms = np.zeros(n)
    masked_sq_norms = np.zeros(n)
    for (a, b), keep in zip(factors, keep_blocks):
        a2 = a * a
        if b is None:
            sq_norms += a2.sum(axis=1)
            masked_sq_norms += a2 @ keep
        else:
            b2 = b * b
            sq_norms += a2.sum(axis=1) * b2.sum(axis=1)
            masked_sq_norms += ((a2 @ keep) * b2).sum(axis=1)
    coef = _clip_factors(np.sqrt(masked_sq_norms), threshold) / n
    for (a, b), keep, out in zip(factors, keep_blocks, out_blocks):
        if b is None:
            np.matmul(coef, a, out=out)
        else:
            np.matmul((coef[:, None] * a).T, b, out=out)
        out *= keep
    return sq_norms


def local_train(
    w_init: ModelWeights,
    data: Dataset,
    s: float,
    cfg: DpConfig,
    streams: TrainStreams,
    *,
    client_id: int = -1,
    round_num: int = -1,
    stats: TrainStats | None = None,
) -> SparseUpdate:
    """Run tau masked noisy steps and return the resulting weight delta.

    The mask is drawn once and reused for every step of the round, so the
    delta's support is a subset of the mask. Batches are sampled without
    replacement per step; a dataset smaller than the configured batch is used
    whole. Each step draws mask.retained normals from streams.noise (none
    when sigma_hat = 0). A non-finite loss, per-sample gradient norm or
    clipped mean in any step, or a non-finite delta (from non-finite starting
    weights or an overflowing step), raises TrainingDivergenceError naming
    the client and the round.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {s}")
    spec = w_init.spec
    dim = spec.dim
    mask = generate_mask(dim, s, streams.mask)
    where = f"client {client_id} in round {round_num}"
    threshold = cfg.clip_threshold(s)
    batch = min(cfg.batch_size, data.n)
    std = cfg.sigma_hat * threshold / batch
    kept = np.flatnonzero(mask.bits)
    keep_blocks = split_blocks(mask.bits.astype(np.float64), spec)
    clipped_mean = np.empty(dim)
    mean_blocks = split_blocks(clipped_mean, spec)
    w = w_init.values.copy()
    model = ModelWeights(w, spec)
    for _ in range(cfg.tau):
        take = streams.batch.choice(data.n, size=batch, replace=False)
        loss, factors = loss_grad_factors(model, data.features[take], data.labels[take])
        sq_norms = clipped_masked_mean(factors, keep_blocks, threshold, mean_blocks)
        if not (
            math.isfinite(loss)
            and np.all(np.isfinite(sq_norms))
            and np.all(np.isfinite(clipped_mean))
        ):
            raise TrainingDivergenceError(f"non-finite loss or gradient for {where}")
        if stats is not None:
            stats.max_grad_norm = max(stats.max_grad_norm, math.sqrt(float(sq_norms.max())))
            stats.noise_draws += 1
        step = clipped_mean[kept]
        if std > 0.0:
            noise = streams.noise.normal(0.0, std, size=kept.size)
            step += noise
            if stats is not None:
                stats.noise_sq_sum += float(noise @ noise)
        w[kept] -= cfg.eta * step
    delta = w - w_init.values
    if not np.all(np.isfinite(delta)):
        raise TrainingDivergenceError(f"non-finite weight update for {where}")
    return SparseUpdate(values=delta, mask=mask)
