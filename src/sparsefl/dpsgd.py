"""Sparsified, clipped, noised local training.

A client draws one Bernoulli coordinate mask per round and runs tau noisy
steps with it: per-sample gradients are masked first, then clipped, then the
batch average is perturbed with Gaussian noise on the retained coordinates
only. Masking before clipping shrinks the clipping threshold to
sqrt(s) * clip_c, and the noise scale shrinks with it.

Only the retained coordinates are drawn: each step takes one normal per
retained coordinate from the round's noise stream, in coordinate order, and
updates only those coordinates. Off the mask the delta is exactly zero, as
after zeroing a dense draw, so the mechanism and its accounting are unchanged
by drawing less. With sigma_hat = 0 the noise stream is not read at all.

The [batch, dim] per-sample gradient matrix is never built. Every parameter
block's per-sample gradient is an outer product A_i B_i^T (a bias block is
A_i alone; see model_data.loss_grad_factors), so with the block's mask M:

    masked squared norm  ||(A_i B_i^T) o M||^2 = sum_ab A_ia^2 M_ab B_ib^2
    clipped masked mean  ((f / n o A)^T B) o M, one matrix product per block

where f holds the per-sample clip factors. This is per-example norms
(Goodfellow, arXiv:1510.01799) and ghost clipping (Li et al.,
arXiv:2110.05679), with a coordinate mask folded into the norm.

local_train trains a whole round's clients at once. A step of a small model
is mostly numpy call overhead, so the clients' models, masks and batches are
stacked into [clients, ...] arrays and a step is one set of calls for all of
them; only the mask, batch and noise draws stay per client.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model_data import (
    Dataset,
    GradFactors,
    ModelWeights,
    check_examples,
    loss_grad_factors,
    split_blocks,
)

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

    def effective_batch(self, n: int) -> int:
        """Examples a step draws from a shard of n, so the accountant's q is this / n."""
        return min(self.batch_size, n)


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


def generate_mask(dim: int, s: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(s) mask over dim coordinates, as a boolean vector."""
    if dim < 1:
        raise ValueError("dim must be positive")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {s}")
    return rng.random(dim) < s


def clipped_masked_mean(
    factors: GradFactors,
    keep_blocks: list[np.ndarray],
    threshold: float | np.ndarray,
    out_blocks: list[np.ndarray],
) -> np.ndarray:
    """Mean of the masked, clipped per-sample gradients, from their factors.

    keep_blocks is the float mask and out_blocks the output vector, both cut
    into parameter blocks by split_blocks; the mean is written to out_blocks.
    Each masked row is scaled to norm at most threshold; a zero row keeps factor 1.
    Returns the per-sample squared norms of the unmasked gradients.

    Stacked factors, masks and outputs (a leading [clients] axis, see
    loss_grad_factors) give one mean per client; threshold is then a
    [clients, 1] column. Each client's result is bit-identical to its own
    unstacked call: a stacked matmul runs the same BLAS call per client.
    """
    a0 = factors[0][0]
    n = a0.shape[-2]
    sq_norms = np.zeros(a0.shape[:-1])
    masked_sq_norms = np.zeros(a0.shape[:-1])
    shared = None
    for (a, b), keep in zip(factors, keep_blocks):
        # A weight block and its bias block share their first factor.
        if a is not shared:
            shared, a2 = a, a * a
            a2_sum = a2.sum(axis=-1)
        if b is None:
            sq_norms += a2_sum
            masked_sq_norms += (a2 @ keep[..., None])[..., 0]
        else:
            b2 = b * b
            sq_norms += a2_sum * b2.sum(axis=-1)
            masked_sq_norms += ((a2 @ keep) * b2).sum(axis=-1)
    norms = np.sqrt(masked_sq_norms)
    coef = np.where(norms > 0.0, np.minimum(1.0, threshold / np.maximum(norms, 1e-300)), 1.0) / n
    for (a, b), keep, out in zip(factors, keep_blocks, out_blocks):
        if b is None:
            np.matmul(coef[..., None, :], a, out=out[..., None, :])
        else:
            np.matmul((coef[..., None] * a).swapaxes(-1, -2), b, out=out)
        out *= keep
    return sq_norms


# Largest stack of client models one group step holds, in parameters: at most
# max(1, _STACK_PARAMS // dim) clients train together, so a large model keeps
# one client per group and its memory stays that of a single client.
_STACK_PARAMS = 2**16


def local_train(
    w_init: ModelWeights,
    shards: Sequence[Dataset],
    rates: Sequence[float],
    cfg: DpConfig,
    streams: Sequence[TrainStreams],
    weights: Sequence[float],
    *,
    client_ids: Sequence[int],
    round_num: int,
    stats: TrainStats,
) -> np.ndarray:
    """Train every client of a round from w_init; return sum_i weights[i] * delta_i.

    Client i trains on shards[i] at rate rates[i] with its own streams[i]: it
    draws one mask, reused for all tau steps, so its delta's support is a
    subset of the mask. Batches are sampled without replacement per step; a
    shard smaller than the configured batch is used whole. Each step draws
    the mask's retained count of normals from the client's noise stream (none
    when sigma_hat = 0). Every client's draws are the calls a lone client
    would make, in the same order, so its delta does not depend on who else
    trains.

    The clients train in groups: consecutive clients with the same effective
    batch, at most max(1, 2**16 // dim) of them, run each step as one stacked
    step. A group's deltas are added to the result in client order before the
    next group starts, so the sum's float order is that of a loop over the
    clients. The per-client stats are folded in the same order.

    A non-finite loss, per-sample gradient norm or clipped mean in any step,
    or a non-finite delta (from non-finite starting weights or an overflowing
    step), raises TrainingDivergenceError naming the client (client_ids[i])
    and the round; within a step, the first such client in order.
    """
    count = len(shards)
    if not len(rates) == len(streams) == len(weights) == count:
        raise ValueError("shards, rates, streams and weights must have one entry per client")
    for s in rates:
        if not 0.0 < s <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {s}")
    spec = w_init.spec
    for data in shards:
        check_examples(spec, data.features, data.labels)
    names = [f"client {int(i)} in round {round_num}" for i in client_ids]
    batches = [cfg.effective_batch(data.n) for data in shards]
    cap = max(1, _STACK_PARAMS // spec.dim)
    total = np.zeros(spec.dim)
    start = 0
    while start < count:
        stop = start + 1
        while stop < count and stop - start < cap and batches[stop] == batches[start]:
            stop += 1
        group = slice(start, stop)
        deltas = _train_group(
            w_init,
            shards[group],
            rates[group],
            cfg,
            streams[group],
            batches[start],
            names[group],
            stats,
        )
        for weight, delta in zip(weights[group], deltas):
            total += weight * delta
        start = stop
    return total


def _train_group(
    w_init: ModelWeights,
    shards: Sequence[Dataset],
    rates: Sequence[float],
    cfg: DpConfig,
    streams: Sequence[TrainStreams],
    batch: int,
    names: list[str],
    stats: TrainStats,
) -> np.ndarray:
    """local_train's stacked steps for one group; returns the deltas [clients, dim].

    Row j holds client j's model, mask, batch and clipped mean. The retained
    coordinates of all rows form one flat index, so the noise and the update
    of a step are one gather and one scatter for the whole group.

    Each client's tau batches and its [tau, retained] noise block are drawn
    before the first step. Every stream is the client's own, so these are the
    values step-by-step draws would give: row t of the block is the normal
    draw of step t.
    """
    spec = w_init.spec
    clients = len(shards)
    masks = np.stack([generate_mask(spec.dim, s, st.mask) for s, st in zip(rates, streams)])
    retained = masks.sum(axis=1).tolist()
    kept = np.flatnonzero(masks)
    keep_blocks = split_blocks(masks.astype(np.float64), spec)
    thresholds = [cfg.clip_threshold(s) for s in rates]
    threshold_col = np.array(thresholds)[:, None]
    stds = [cfg.sigma_hat * threshold / batch for threshold in thresholds]
    noisy = cfg.sigma_hat > 0.0
    clipped_mean = np.empty((clients, spec.dim))
    mean_blocks = split_blocks(clipped_mean, spec)
    w = np.repeat(w_init.values[None, :], clients, axis=0)
    model = ModelWeights(w, spec)
    w_flat, mean_flat = w.reshape(-1), clipped_mean.reshape(-1)
    features = np.empty((cfg.tau, clients, batch, spec.feature_dim))
    labels = np.empty((cfg.tau, clients, batch), dtype=shards[0].labels.dtype)
    for j, (data, st) in enumerate(zip(shards, streams)):
        take = np.array(
            [st.batch.choice(data.n, size=batch, replace=False) for _ in range(cfg.tau)]
        )
        features[:, j] = data.features[take]
        labels[:, j] = data.labels[take]
    noise = [
        st.noise.normal(0.0, std, size=(cfg.tau, size))
        for st, std, size in zip(streams, stds, retained)
        if noisy
    ]
    for t in range(cfg.tau):
        loss, factors = loss_grad_factors(model, features[t], labels[t])
        sq_norms = clipped_masked_mean(factors, keep_blocks, threshold_col, mean_blocks)
        if not (
            np.isfinite(loss).all()
            and np.isfinite(sq_norms).all()
            and np.isfinite(clipped_mean).all()
        ):
            finite = (
                np.isfinite(loss)
                & np.isfinite(sq_norms).all(axis=1)
                & np.isfinite(clipped_mean).all(axis=1)
            )
            bad = int(np.argmin(finite))
            raise TrainingDivergenceError(f"non-finite loss or gradient for {names[bad]}")
        stats.max_grad_norm = max(stats.max_grad_norm, math.sqrt(float(sq_norms.max())))
        step = mean_flat[kept]
        if noisy:
            step += np.concatenate([block[t] for block in noise])
        w_flat[kept] -= cfg.eta * step
    deltas = w - w_init.values
    finite = np.isfinite(deltas).all(axis=1)
    if not finite.all():
        raise TrainingDivergenceError(
            f"non-finite weight update for {names[int(np.argmin(finite))]}"
        )
    for block in noise:
        for row in block:
            stats.noise_sq_sum += float(row @ row)
    return deltas
