from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from sparsefl.dpsgd import (
    DpConfig,
    TrainingDivergenceError,
    TrainStats,
    clipped_masked_mean,
    generate_mask,
    local_train,
)
from sparsefl.model_data import (
    Dataset,
    ModelSpec,
    ModelWeights,
    loss_grad_factors,
    per_sample_loss_grads,
    split_blocks,
)

from conftest import clip_per_sample, stepwise_local_train


def train_one(w, data, s, cfg, rng, *, rows=None, client_id=0, round_num=0, stats=None):
    """One client's own delta: local_train on a round of one client at weight 1.

    The client's rows of the pool data default to all of them, in order.
    """
    stats = TrainStats() if stats is None else stats
    rows = np.arange(data.n) if rows is None else rows
    return local_train(
        w, [rows], [s], cfg, [rng], [1.0], pool=data, client_ids=[client_id],
        round_num=round_num, stats=stats,
    )


def test_mask_statistics_match_the_retention_rate():
    """Masked-norm moments: E||g*m||^2 = s||g||^2 and E||g*m|| <= sqrt(s)||g||."""
    rng = np.random.default_rng(42)
    g = rng.standard_normal(200)
    g_sq = float(g @ g)
    trials = 10_000
    for s in (0.1, 0.3, 0.5, 0.9):
        sq = np.empty(trials)
        nrm = np.empty(trials)
        for k in range(trials):
            bits = rng.random(g.shape[0]) < s
            masked = g * bits
            sq[k] = masked @ masked
            nrm[k] = np.sqrt(sq[k])
        assert sq.mean() == pytest.approx(s * g_sq, rel=0.02)
        se = nrm.std(ddof=1) / np.sqrt(trials)
        assert nrm.mean() <= np.sqrt(s) * np.sqrt(g_sq) + 3.0 * se


def test_generate_mask_shapes_and_rates():
    rng = np.random.default_rng(0)
    mask = generate_mask(1000, 0.25, rng)
    assert mask.shape == (1000,) and mask.dtype == np.bool_
    assert 150 < mask.sum() < 350
    assert generate_mask(50, 0.0, rng).sum() == 0
    assert generate_mask(50, 1.0, rng).sum() == 50


def test_generate_mask_rejects_bad_rate():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_mask(10, 1.5, rng)
    with pytest.raises(ValueError):
        generate_mask(0, 0.5, rng)


def test_clip_per_sample_caps_norms():
    rng = np.random.default_rng(3)
    grads = rng.standard_normal((32, 17)) * 5.0
    clipped = clip_per_sample(grads, 1.0)
    norms = np.linalg.norm(clipped, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)


def test_clip_per_sample_leaves_small_rows_alone():
    grads = np.array([[0.1, 0.2], [0.0, 0.0], [3.0, 4.0]])
    clipped = clip_per_sample(grads, 10.0)
    assert np.array_equal(clipped, grads)
    shrunk = clip_per_sample(grads, 1.0)
    assert np.allclose(shrunk[0], grads[0])
    assert np.allclose(shrunk[1], 0.0)
    assert np.linalg.norm(shrunk[2]) == pytest.approx(1.0)


def test_clip_threshold_adapts_with_rate():
    cfg = DpConfig(clip_c=2.0, sigma_hat=1.0, batch_size=4, tau=1, eta=0.1)
    assert cfg.clip_threshold(0.25) == pytest.approx(1.0)
    assert cfg.clip_threshold(1.0) == pytest.approx(2.0)
    fixed = DpConfig(clip_c=2.0, sigma_hat=1.0, batch_size=4, tau=1, eta=0.1, adaptive_clip=False)
    assert fixed.clip_threshold(0.25) == pytest.approx(2.0)


@settings(max_examples=25)
@given(s=st.floats(0.05, 1.0), scale=st.floats(0.1, 20.0))
def test_clipped_masked_norm_within_adapted_threshold(s, scale):
    rng = np.random.default_rng(7)
    grads = rng.standard_normal((8, 60)) * scale
    bits = rng.random(60) < s
    threshold = np.sqrt(s) * 1.0
    clipped = clip_per_sample(grads * bits, threshold)
    assert np.all(np.linalg.norm(clipped, axis=1) <= threshold + 1e-12)


def small_problem(n=12, d=6, k=3, seed=0, hidden=None, scale=0.1):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    labels = rng.integers(0, k, size=n)
    data = Dataset(features, labels)
    spec = ModelSpec(feature_dim=d, num_classes=k, hidden_units=hidden)
    w = ModelWeights(rng.standard_normal(spec.dim) * scale, spec)
    return data, w


def dense_local_train(w_init, data, s, cfg, rng, stats=None):
    """Reference local training on the dense [batch, dim] gradient matrix.

    Same draws from the same generator as local_train: the mask, the tau
    batches, then per step one normal per retained coordinate, scattered
    onto the mask. Returns the weight delta and the mask bits.
    """
    dim = w_init.spec.dim
    bits = generate_mask(dim, s, rng)
    threshold = cfg.clip_threshold(s)
    batch = min(cfg.batch_size, data.n)
    std = cfg.sigma_hat * threshold / batch
    takes = [rng.choice(data.n, size=batch, replace=False) for _ in range(cfg.tau)]
    w = w_init.values.copy()
    for take in takes:
        loss, grads = per_sample_loss_grads(
            ModelWeights(w, w_init.spec), data.features[take], data.labels[take]
        )
        if not np.isfinite(loss) or not np.all(np.isfinite(grads)):
            raise TrainingDivergenceError("non-finite loss or gradient")
        clipped_mean = clip_per_sample(grads * bits, threshold).mean(axis=0)
        draw = rng.normal(0.0, std, size=bits.sum())
        noise = np.zeros(dim)
        noise[bits] = draw
        if stats is not None:
            stats.max_grad_norm = max(
                stats.max_grad_norm, float(np.linalg.norm(grads, axis=1).max())
            )
            stats.noise_sq_sum += float(draw @ draw)
        w -= cfg.eta * (clipped_mean + noise)
    return w - w_init.values, bits


def max_rel_diff(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def ghost_and_dense_step(w, features, labels, bits, threshold):
    """(factored, dense) pairs of the clipped masked mean and the max gradient norm."""
    spec = w.spec
    _, factors = loss_grad_factors(w, features, labels)
    mean = np.empty(spec.dim)
    sq_norms = clipped_masked_mean(
        factors,
        split_blocks(bits.astype(np.float64), spec),
        threshold,
        split_blocks(mean, spec),
    )
    _, grads = per_sample_loss_grads(w, features, labels)
    dense_mean = clip_per_sample(grads * bits, threshold).mean(axis=0)
    dense_max = float(np.linalg.norm(grads, axis=1).max())
    return (mean, float(np.sqrt(sq_norms.max()))), (dense_mean, dense_max)


@pytest.mark.parametrize("hidden", [None, 5])
@pytest.mark.parametrize("s", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("adaptive", [True, False])
def test_clipped_masked_mean_matches_dense_oracle(hidden, s, adaptive):
    cfg = DpConfig(
        clip_c=0.5, sigma_hat=1.0, batch_size=8, tau=1, eta=0.1, adaptive_clip=adaptive
    )
    data, w = small_problem(n=8, d=9, k=4, seed=31, hidden=hidden, scale=0.8)
    rng = np.random.default_rng(32)
    for _ in range(10):
        bits = rng.random(w.spec.dim) < s
        (mean, norm), (dense_mean, dense_norm) = ghost_and_dense_step(
            w, data.features, data.labels, bits, cfg.clip_threshold(s)
        )
        assert max_rel_diff(mean, dense_mean) <= 1e-12
        assert norm == pytest.approx(dense_norm, rel=1e-12)
        assert np.all(mean[~bits] == 0.0)


@pytest.mark.parametrize("hidden", [None, 5])
def test_clipped_masked_mean_passes_zero_masked_rows(hidden):
    """A sample whose masked gradient is zero keeps factor 1 and adds nothing."""
    data, w = small_problem(n=6, d=5, k=3, seed=33, hidden=hidden, scale=0.8)
    features = data.features.copy()
    features[0, 0] = 0.0
    # keep only the first-layer weights that read feature 0: zero for sample 0
    bits = np.zeros(w.spec.dim, dtype=bool)
    split_blocks(bits, w.spec)[0][:, 0] = True
    (mean, norm), (dense_mean, dense_norm) = ghost_and_dense_step(
        w, features, data.labels, bits, 0.3
    )
    _, grads = per_sample_loss_grads(w, features, data.labels)
    assert np.all((grads * bits)[0] == 0.0)
    others = np.linalg.norm((grads * bits)[1:], axis=1)
    assert others.min() > 0.0 and others.max() > 0.3
    assert max_rel_diff(mean, dense_mean) <= 1e-12
    assert norm == pytest.approx(dense_norm, rel=1e-12)
    # an all-zero mask leaves every row at norm 0 and the mean at exactly 0
    (mean, _), (dense_mean, _) = ghost_and_dense_step(
        w, features, data.labels, np.zeros(w.spec.dim, dtype=bool), 0.05
    )
    assert np.all(mean == 0.0) and np.all(dense_mean == 0.0)


@pytest.mark.parametrize("hidden", [None, 4])
@pytest.mark.parametrize(
    "s, n, adaptive",
    [(0.05, 20, True), (0.3, 20, True), (1.0, 20, True), (0.3, 20, False), (0.3, 3, True)],
)
def test_local_train_matches_dense_reference_loop(hidden, s, n, adaptive):
    """Whole local_train against the dense loop on the same generator, n < batch included."""
    data, w = small_problem(n=n, d=7, k=3, seed=34, hidden=hidden, scale=0.5)
    cfg = DpConfig(
        clip_c=0.4, sigma_hat=0.7, batch_size=6, tau=5, eta=0.3, adaptive_clip=adaptive
    )
    stats, dense_stats = TrainStats(), TrainStats()
    update = train_one(w, data, s, cfg, default_rng(35), stats=stats)
    delta, bits = dense_local_train(w, data, s, cfg, default_rng(35), stats=dense_stats)
    assert np.all(update[~bits] == 0.0)
    assert max_rel_diff(update, delta) <= 1e-12
    assert stats.max_grad_norm == pytest.approx(dense_stats.max_grad_norm, rel=1e-12)
    assert stats.noise_sq_sum == dense_stats.noise_sq_sum


@pytest.mark.parametrize("hidden", [None, 3])
@pytest.mark.parametrize("target", ["weights", "features"])
def test_non_finite_inputs_raise_divergence_naming_client_and_round(hidden, target):
    """Every NaN or inf weight or feature raises, as does each case the dense loop raises on."""
    data, w = small_problem(n=4, d=3, k=3, seed=36, hidden=hidden, scale=0.5)
    cfg = DpConfig(clip_c=1.0, sigma_hat=0.5, batch_size=4, tau=2, eta=0.1)
    size = w.spec.dim if target == "weights" else data.features.size
    dense_raised = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for pos in range(size):
            for bad in (np.nan, np.inf, -np.inf):
                values, features = w.values.copy(), data.features.copy()
                (values if target == "weights" else features.reshape(-1))[pos] = bad
                w_bad = ModelWeights(values, w.spec)
                data_bad = Dataset(features, data.labels)
                with pytest.raises(TrainingDivergenceError, match="client 7 in round 3"):
                    train_one(
                        w_bad, data_bad, 0.5, cfg, default_rng(37), client_id=7, round_num=3
                    )
                try:
                    dense_local_train(w_bad, data_bad, 0.5, cfg, default_rng(37))
                except TrainingDivergenceError:
                    dense_raised += 1
    # The dense loop raises on a subset: an inf first-layer weight saturates
    # tanh and leaves every gradient finite, and only the non-finite delta
    # shows it.
    assert dense_raised > 0


class OtherNormals:
    """A generator whose normals come from a second, unrelated generator."""

    def __init__(self, rng, normals):
        self._rng, self._normals = rng, normals

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def normal(self, *args, **kwargs):
        return self._normals.normal(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        return self._normals.standard_normal(*args, **kwargs)


def test_local_train_noiseless_passthrough():
    """With sigma_hat = 0 the added noise is exactly zero, whatever the normal draws."""
    data, w = small_problem(n=10, d=5, k=3, seed=38)
    noisy = DpConfig(clip_c=1.0, sigma_hat=0.7, batch_size=4, tau=3, eta=0.1)
    moved = OtherNormals(default_rng(39), default_rng(40))
    assert not np.array_equal(
        train_one(w, data, 0.66, noisy, default_rng(39)), train_one(w, data, 0.66, noisy, moved)
    )
    cfg = replace(noisy, sigma_hat=0.0)
    a = train_one(w, data, 0.66, cfg, default_rng(39))
    b = train_one(w, data, 0.66, cfg, OtherNormals(default_rng(39), default_rng(40)))
    assert np.array_equal(a, b)


def draws_without_training(data, dim, s, cfg, seed):
    """A generator that made the mask and tau batch draws of one client, and no normal."""
    rng = default_rng(seed)
    retained = int(generate_mask(dim, s, rng).sum())
    for _ in range(cfg.tau):
        rng.choice(data.n, size=cfg.batch_size, replace=False)
    return rng, retained


def test_local_train_draws_follow_the_stream_contract():
    """A client's generator ends where the mask, tau batches and one noise block leave it."""
    data, w = small_problem(n=10, d=5, k=3, seed=38)
    cfg = DpConfig(clip_c=1.0, sigma_hat=0.7, batch_size=4, tau=3, eta=0.1)
    s = 0.66
    rng = default_rng(39)
    train_one(w, data, s, cfg, rng)
    want, retained = draws_without_training(data, w.spec.dim, s, cfg, 39)
    std = cfg.sigma_hat * cfg.clip_threshold(s) / cfg.batch_size
    want.normal(0.0, std, size=(cfg.tau, retained))
    assert rng.bit_generator.state == want.bit_generator.state


def test_local_train_noiseless_reads_no_noise():
    """With sigma_hat = 0 local_train draws no normal: the mask and batches only."""
    data, w = small_problem(n=10, d=5, k=3, seed=38)
    cfg = DpConfig(clip_c=1.0, sigma_hat=0.0, batch_size=4, tau=3, eta=0.1)
    rng = default_rng(39)
    train_one(w, data, 0.66, cfg, rng)
    want, _ = draws_without_training(data, w.spec.dim, 0.66, cfg, 39)
    assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("hidden", [None, 4])
def test_step_noise_is_one_retained_draw_per_step(hidden):
    """Step t adds row t of the [tau, retained] normal block on the mask, 0 elsewhere."""
    data, w = small_problem(n=20, d=7, k=3, seed=41, hidden=hidden, scale=0.5)
    cfg = DpConfig(clip_c=0.4, sigma_hat=0.7, batch_size=6, tau=4, eta=1.0)
    s = 0.3
    update = train_one(w, data, s, cfg, default_rng(42))
    copy = default_rng(42)
    bits = generate_mask(w.spec.dim, s, copy)
    assert 0 < bits.sum() < bits.size
    takes = [copy.choice(data.n, size=cfg.batch_size, replace=False) for _ in range(cfg.tau)]
    threshold = cfg.clip_threshold(s)
    std = cfg.sigma_hat * threshold / cfg.batch_size
    block = copy.normal(0.0, std, size=(cfg.tau, bits.sum()))
    v = w.values.copy()
    for take, row in zip(takes, block):
        (mean, _), _ = ghost_and_dense_step(
            ModelWeights(v, w.spec), data.features[take], data.labels[take], bits, threshold
        )
        noise = np.zeros(w.spec.dim)
        noise[bits] = row
        v -= cfg.eta * (mean + noise)
    np.testing.assert_allclose(update, v - w.values, rtol=0.0, atol=1e-12)


def test_full_rate_delta_is_the_dense_draw_formula_bit_for_bit():
    """At s = 1 every coordinate is kept: w -= eta * (mean + normal(0, std, size=dim))."""
    data, w = small_problem(n=20, d=7, k=3, seed=43, hidden=4, scale=0.5)
    cfg = DpConfig(clip_c=0.4, sigma_hat=0.7, batch_size=6, tau=5, eta=0.3)
    update = train_one(w, data, 1.0, cfg, default_rng(44))
    spec, dim = w.spec, w.spec.dim
    rng = default_rng(44)
    assert generate_mask(dim, 1.0, rng).sum() == dim
    takes = [rng.choice(data.n, size=cfg.batch_size, replace=False) for _ in range(cfg.tau)]
    threshold = cfg.clip_threshold(1.0)
    std = cfg.sigma_hat * threshold / cfg.batch_size
    keep_blocks = split_blocks(np.ones(dim), spec)
    mean = np.empty(dim)
    v = w.values.copy()
    for take in takes:
        _, factors = loss_grad_factors(
            ModelWeights(v, spec), data.features[take], data.labels[take]
        )
        clipped_masked_mean(factors, keep_blocks, threshold, split_blocks(mean, spec))
        v -= cfg.eta * (mean + rng.normal(0.0, std, size=dim))
    assert np.array_equal(update, v - w.values)


def test_local_train_noise_respects_mask_and_scale():
    """The noise local_train adds sits on the mask, at std sigma_hat * sqrt(s) * C / batch."""
    cfg = DpConfig(clip_c=2.0, sigma_hat=1.5, batch_size=10, tau=1, eta=1.0)
    data, w = small_problem(n=10, d=999, k=4, seed=8)
    assert w.spec.dim == 4000
    update = train_one(w, data, 0.5, cfg, default_rng(99))
    copy = default_rng(99)
    bits = generate_mask(w.spec.dim, 0.5, copy)
    take = copy.choice(10, size=10, replace=False)
    _, grads = per_sample_loss_grads(w, data.features[take], data.labels[take])
    clipped = clip_per_sample(grads * bits, cfg.clip_threshold(0.5)).mean(axis=0)
    noise = -update / cfg.eta - clipped
    assert np.all(noise[~bits] == 0.0)
    want_std = 1.5 * np.sqrt(0.5) * 2.0 / 10.0
    assert noise[bits].std() == pytest.approx(want_std, rel=0.1)


def test_plain_sgd_reduction():
    """tau=1, sigma=0, s=1, batch covering one sample reduces to one SGD step."""
    data, w = small_problem(n=1)
    cfg = DpConfig(clip_c=1e6, sigma_hat=0.0, batch_size=1, tau=1, eta=0.05)
    update = train_one(w, data, 1.0, cfg, default_rng(5))
    _, grads = per_sample_loss_grads(w, data.features, data.labels)
    assert np.allclose(update, -0.05 * grads[0], atol=1e-12)


def test_delta_support_contained_in_mask():
    data, w = small_problem(n=30, d=10, k=4, seed=2)
    cfg = DpConfig(clip_c=1.0, sigma_hat=0.8, batch_size=6, tau=4, eta=0.1)
    update = train_one(w, data, 0.3, cfg, default_rng(9))
    off = ~generate_mask(w.spec.dim, 0.3, default_rng(9))
    assert off.any() and not off.all()
    assert np.all(update[off] == 0.0)


def test_small_dataset_uses_effective_batch_for_noise():
    """Noise std must divide by the actual batch when data.n < batch_size."""
    data, w = small_problem(n=3, seed=6)
    cfg = DpConfig(clip_c=1.0, sigma_hat=2.0, batch_size=50, tau=1, eta=1.0)
    dim = w.spec.dim
    draws = np.empty((400, dim))
    for k in range(400):
        upd = train_one(w, data, 1.0, cfg, default_rng(1000 + k))
        # recompute the clipped mean along the same batch path to isolate noise
        copy = default_rng(1000 + k)
        generate_mask(dim, 1.0, copy)
        take = copy.choice(3, size=3, replace=False)
        _, grads = per_sample_loss_grads(w, data.features[take], data.labels[take])
        clipped = clip_per_sample(grads, 1.0).mean(axis=0)
        draws[k] = -upd / cfg.eta - clipped
    assert draws.std() == pytest.approx(2.0 / 3.0, rel=0.1)


def test_local_train_deterministic_given_streams():
    data, w = small_problem(n=25, d=7, k=3, seed=8)
    cfg = DpConfig(clip_c=1.0, sigma_hat=1.0, batch_size=5, tau=3, eta=0.05)
    a = train_one(w, data, 0.5, cfg, default_rng(21))
    b = train_one(w, data, 0.5, cfg, default_rng(21))
    assert np.array_equal(a, b)


def test_stats_accumulate_grad_norms_and_noise():
    data, w = small_problem(n=25, d=7, k=3, seed=8)
    cfg = DpConfig(clip_c=1.0, sigma_hat=1.0, batch_size=5, tau=3, eta=0.05)
    stats = TrainStats()
    train_one(w, data, 0.5, cfg, default_rng(13), stats=stats)
    assert stats.max_grad_norm > 0.0
    assert stats.noise_sq_sum > 0.0


def test_local_train_rejects_zero_rate():
    data, w = small_problem()
    cfg = DpConfig(clip_c=1.0, sigma_hat=1.0, batch_size=5, tau=1, eta=0.05)
    with pytest.raises(ValueError):
        train_one(w, data, 0.0, cfg, default_rng(1))


def test_config_validation():
    with pytest.raises(ValueError):
        DpConfig(clip_c=0.0, sigma_hat=1.0, batch_size=5, tau=1, eta=0.05)
    with pytest.raises(ValueError):
        DpConfig(clip_c=1.0, sigma_hat=-0.5, batch_size=5, tau=1, eta=0.05)
    with pytest.raises(ValueError):
        DpConfig(clip_c=1.0, sigma_hat=1.0, batch_size=0, tau=1, eta=0.05)
    with pytest.raises(ValueError):
        DpConfig(clip_c=1.0, sigma_hat=1.0, batch_size=5, tau=1, eta=0.0)


def stacked_round(hidden, d, sizes, rates, sigma_hat, seed, k=3):
    """A round of clients whose shards are scattered through one pool.

    The pool has a spare row per client that no shard holds, and each
    client draws from its own generator.
    """
    rng = np.random.default_rng(seed)
    spec = ModelSpec(feature_dim=d, num_classes=k, hidden_units=hidden)
    w = ModelWeights(rng.standard_normal(spec.dim) * 0.3, spec)
    n = sum(sizes) + len(sizes)
    pool = Dataset(rng.standard_normal((n, d)), rng.integers(0, k, size=n))
    shards = np.split(rng.permutation(n)[: sum(sizes)], np.cumsum(sizes)[:-1])
    cfg = DpConfig(clip_c=0.4, sigma_hat=sigma_hat, batch_size=6, tau=8, eta=0.3)
    weights = rng.dirichlet(np.ones(len(sizes)))
    return w, pool, shards, list(rates), cfg, weights


@pytest.mark.parametrize(
    "hidden, d, sizes, rates, sigma_hat",
    [
        # batches 6, 3, 6, 6, 2: groups [0], [1], [2, 3], [4]
        (None, 7, (20, 3, 15, 9, 2), (0.3, 1.0, 1e-12, 0.7, 0.5), 0.7),
        (4, 7, (20, 3, 15, 9, 2), (0.3, 1.0, 1e-12, 0.7, 0.5), 0.7),
        (4, 7, (20, 3, 15, 9, 2), (0.3, 1.0, 1e-12, 0.7, 0.5), 0.0),
        (None, 20, (30, 40, 50, 60), (0.2, 0.4, 0.6, 1.0), 0.8),
        # dim 30,403: the cap holds 2 clients, so three equal batches split 2 + 1
        (100, 300, (10, 10, 10), (0.3, 1.0, 0.5), 0.5),
        # dim 70,403 > 2**16: one client per group
        (100, 700, (10, 10), (0.3, 0.6), 0.5),
    ],
)
def test_stacked_round_equals_each_client_alone_bit_for_bit(hidden, d, sizes, rates, sigma_hat):
    w, pool, shards, rates, cfg, weights = stacked_round(
        hidden, d, sizes, rates, sigma_hat, seed=50
    )
    count = len(shards)
    alone_stats, alone, states = TrainStats(), [], []
    for j in range(count):
        rng = default_rng(60 + j)
        alone.append(train_one(w, pool, rates[j], cfg, rng, rows=shards[j], stats=alone_stats))
        states.append(rng.bit_generator.state)
    want = np.zeros(w.spec.dim)
    for weight, delta in zip(weights, alone):
        want += weight * delta

    stats = TrainStats()
    rngs = [default_rng(60 + j) for j in range(count)]
    kwargs = dict(pool=pool, client_ids=range(count), round_num=0)
    got = local_train(w, shards, rates, cfg, rngs, weights, stats=stats, **kwargs)
    assert np.array_equal(got, want)
    assert stats == alone_stats
    assert [rng.bit_generator.state for rng in rngs] == states
    if sigma_hat == 0.0:
        assert stats.noise_sq_sum == 0.0
    # One-hot weights pick out each client's own delta from a stacked round.
    for j in range(count):
        one_hot = np.eye(count)[j]
        rngs = [default_rng(60 + i) for i in range(count)]
        got = local_train(w, shards, rates, cfg, rngs, one_hot, stats=TrainStats(), **kwargs)
        assert np.array_equal(got, alone[j])
    # the tiny rate leaves an empty mask: that client's delta is exactly zero
    for j, s in enumerate(rates):
        if s < 1e-9:
            assert np.all(alone[j] == 0.0)


@settings(max_examples=30)
@given(
    hidden=st.sampled_from([None, 3]),
    clients=st.lists(
        st.tuples(st.integers(2, 12), st.floats(0.05, 1.0)), min_size=2, max_size=6
    ),
    sigma_hat=st.sampled_from([0.0, 0.6]),
    seed=st.integers(0, 2**16),
)
def test_draws_before_the_steps_match_step_by_step_draws(hidden, clients, sigma_hat, seed):
    """Batch 6 on shards of 2 to 12 samples: groups of several effective batches.

    Each client's generator ends where the step-by-step reference, run on a
    copy of the client's rows, leaves it, and its delta and the round's
    stats are bit-equal to the reference's.
    """
    sizes, rates = zip(*clients)
    w, pool, shards, rates, cfg, _ = stacked_round(hidden, 4, sizes, rates, sigma_hat, seed=seed)
    count = len(shards)
    want_stats, want, want_states = TrainStats(), [], []
    for j in range(count):
        rng = default_rng(seed + j)
        data = Dataset(pool.features[shards[j]], pool.labels[shards[j]])
        want.append(stepwise_local_train(w, data, rates[j], cfg, rng, want_stats))
        want_states.append(rng.bit_generator.state)
    for j in range(count):
        rngs = [default_rng(seed + i) for i in range(count)]
        stats = TrainStats()
        got = local_train(
            w, shards, rates, cfg, rngs, np.eye(count)[j], pool=pool, client_ids=range(count),
            round_num=0, stats=stats,
        )
        assert np.array_equal(got, want[j])
        assert stats == want_stats
        assert [rng.bit_generator.state for rng in rngs] == want_states


@pytest.mark.parametrize("hidden", [None, 4])
@pytest.mark.parametrize("sigma_hat", [0.0, 0.7])
def test_delta_does_not_depend_on_where_the_rows_sit_in_the_pool(hidden, sigma_hat):
    """A shard as a pool of its own, arange(n), or scattered through a larger pool."""
    data, w = small_problem(n=15, d=7, k=3, seed=53, hidden=hidden, scale=0.5)
    cfg = DpConfig(clip_c=0.4, sigma_hat=sigma_hat, batch_size=6, tau=5, eta=0.3)
    rng = np.random.default_rng(54)
    size = 60
    rows = rng.choice(size, size=data.n, replace=False)
    features = rng.standard_normal((size, 7))
    labels = rng.integers(0, 3, size=size)
    features[rows], labels[rows] = data.features, data.labels
    pool = Dataset(features, labels)
    own, scattered = default_rng(55), default_rng(55)
    want = train_one(w, data, 0.4, cfg, own, rows=np.arange(data.n))
    got = train_one(w, pool, 0.4, cfg, scattered, rows=rows)
    assert np.array_equal(got, want)
    assert scattered.bit_generator.state == own.bit_generator.state


def test_non_finite_shard_names_its_client_in_a_stacked_round():
    """NaN pool rows of the second of three clients raise naming that client and round."""
    w, pool, shards, rates, cfg, weights = stacked_round(
        None, 5, (12, 12, 12), (0.5, 0.5, 0.5), 0.5, seed=51
    )
    features = pool.features.copy()
    features[shards[1]] = np.nan
    pool = Dataset(features, pool.labels)
    rngs = [default_rng(70 + j) for j in range(3)]
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingDivergenceError, match="client 9 in round 4$"):
            local_train(
                w, shards, rates, cfg, rngs, weights, pool=pool, client_ids=[4, 9, 11],
                round_num=4, stats=TrainStats(),
            )


def test_local_train_checks_each_shard_against_the_model():
    w, pool, shards, rates, cfg, weights = stacked_round(
        None, 5, (12, 12), (0.5, 0.5), 0.5, seed=52
    )
    # The pool is checked whole, rows that no shard holds included.
    spare = np.setdiff1d(np.arange(pool.n), np.concatenate(shards))
    labels = pool.labels.copy()
    labels[spare] = 3
    bad = Dataset(pool.features, labels)
    rngs = [default_rng(80 + j) for j in range(2)]
    kwargs = dict(client_ids=[0, 1], round_num=0, stats=TrainStats())
    with pytest.raises(ValueError, match="labels out of range"):
        local_train(w, shards, rates, cfg, rngs, weights, pool=bad, **kwargs)
    with pytest.raises(ValueError, match="one entry per client"):
        local_train(w, shards, rates[:1], cfg, rngs, weights, pool=pool, **kwargs)
    for outside in (pool.n, -1):
        rows = shards[1].copy()
        rows[3] = outside
        with pytest.raises(ValueError, match="the pool's rows"):
            local_train(w, [shards[0], rows], rates, cfg, rngs, weights, pool=pool, **kwargs)


@pytest.mark.parametrize("shape", [(10, 15267), (10, 63), (3, 1), (1, 400)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scaled_standard_normals_equal_normal_draws_bit_for_bit(shape, seed):
    """standard_normal(size) *= std holds the bits, and the end state, of normal(0, std, size)."""
    std = 0.7 * np.sqrt(0.3) / 16
    want_rng, got_rng = default_rng(seed), default_rng(seed)
    want = want_rng.normal(0.0, std, size=shape)
    got = got_rng.standard_normal(shape)
    got *= std
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
