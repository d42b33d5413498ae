import gzip
import struct

import numpy as np
import pytest

from sparsefl.model_data import (
    Dataset,
    IdxFormatError,
    ModelSpec,
    ModelWeights,
    PartitionError,
    PartitionSpec,
    _column_sums,
    _forward,
    _log_softmax,
    evaluate,
    init_weights,
    partition,
    per_sample_loss_grads,
    read_idx_images,
    read_idx_labels,
    split_blocks,
    synthesize_classification,
)


def finite_difference_grad(w: ModelWeights, features, labels, h=1e-6):
    base = w.values.copy()
    out = np.empty_like(base)
    for k in range(base.shape[0]):
        plus = base.copy()
        plus[k] += h
        minus = base.copy()
        minus[k] -= h
        lp, _ = per_sample_loss_grads(ModelWeights(plus, w.spec), features, labels)
        lm, _ = per_sample_loss_grads(ModelWeights(minus, w.spec), features, labels)
        out[k] = (lp - lm) / (2.0 * h)
    return out


@pytest.mark.parametrize("hidden", [None, 5])
def test_gradients_match_finite_differences(hidden):
    rng = np.random.default_rng(17)
    for trial in range(20):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 7))
        spec = ModelSpec(feature_dim=d, num_classes=k, hidden_units=hidden)
        w = ModelWeights(rng.standard_normal(spec.dim) * 0.5, spec)
        features = rng.standard_normal((n, d))
        labels = rng.integers(0, k, size=n)
        _, grads = per_sample_loss_grads(w, features, labels)
        numeric = finite_difference_grad(w, features, labels)
        analytic = grads.mean(axis=0)
        scale = max(1.0, float(np.abs(numeric).max()))
        assert np.abs(analytic - numeric).max() / scale < 1e-5


def test_per_sample_mean_equals_batch_gradient():
    rng = np.random.default_rng(2)
    spec = ModelSpec(feature_dim=5, num_classes=3)
    w = ModelWeights(rng.standard_normal(spec.dim), spec)
    features = rng.standard_normal((9, 5))
    labels = rng.integers(0, 3, size=9)
    loss_all, grads = per_sample_loss_grads(w, features, labels)
    # single-sample calls must average to the same thing by linearity
    singles = []
    losses = []
    for i in range(9):
        li, gi = per_sample_loss_grads(w, features[i : i + 1], labels[i : i + 1])
        singles.append(gi[0])
        losses.append(li)
    assert np.allclose(grads.mean(axis=0), np.mean(singles, axis=0), atol=1e-12)
    assert loss_all == pytest.approx(np.mean(losses), abs=1e-12)


def test_per_sample_loss_grads_input_validation():
    spec = ModelSpec(feature_dim=4, num_classes=3)
    w = init_weights(spec, np.random.default_rng(0))
    with pytest.raises(ValueError):
        per_sample_loss_grads(w, np.zeros((2, 5)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        per_sample_loss_grads(w, np.zeros((2, 4)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        per_sample_loss_grads(w, np.zeros((2, 4)), np.array([0, 3]))


def test_zero_weights_give_uniform_loss():
    spec = ModelSpec(feature_dim=6, num_classes=4)
    w = init_weights(spec, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((50, 6)), rng.integers(0, 4, size=50))
    _, loss = evaluate(w, data, data)
    assert loss == pytest.approx(np.log(4.0), rel=1e-12)


@pytest.mark.parametrize("hidden_units", [None, 7])
def test_evaluate_matches_full_log_softmax_bits(hidden_units):
    """Bit-equal to the row-max log-softmax, with classes 1 and 3 tied on every row."""
    rng = np.random.default_rng(8)
    spec = ModelSpec(feature_dim=6, num_classes=5, hidden_units=hidden_units)
    w = ModelWeights(rng.standard_normal(spec.dim), spec)
    *_, w_out, b_out = split_blocks(w.values, spec)
    w_out[3], b_out[3] = w_out[1], b_out[1]
    test = Dataset(rng.standard_normal((30, 6)), rng.integers(0, 5, size=30))
    train = Dataset(3.0 * rng.standard_normal((70, 6)), rng.integers(0, 5, size=70))
    test_logits, _ = _forward(w, test.features)
    train_logits, _ = _forward(w, train.features)
    assert np.array_equal(train_logits[:, 1], train_logits[:, 3])
    assert (train_logits.argmax(axis=1) == 1).sum() > 5
    shifted = train_logits - train_logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    accuracy, loss = evaluate(w, test, train)
    assert accuracy == float((test_logits.argmax(axis=1) == test.labels).mean())
    assert loss == float(-logp[np.arange(train.n), train.labels].mean())
    assert np.array_equal(logp, _log_softmax(train_logits))


@pytest.mark.parametrize("classes", list(range(2, 129)) + [129, 200, 300])
def test_column_sums_hold_numpys_row_sum_bits(classes):
    """Summed class-major, each column keeps the bits np.sum gives it as a row."""
    rng = np.random.default_rng(classes)
    rows = np.exp(3.0 * rng.standard_normal((40, classes)))
    assert np.array_equal(_column_sums(np.ascontiguousarray(rows.T)), rows.sum(axis=-1))


def test_gradient_descent_reduces_loss():
    rng = np.random.default_rng(23)
    data = synthesize_classification(120, 5, 3, 3.0, rng)
    spec = ModelSpec(feature_dim=5, num_classes=3)
    w = init_weights(spec, rng)
    _, before = evaluate(w, data, data)
    values = w.values.copy()
    for _ in range(40):
        _, grads = per_sample_loss_grads(ModelWeights(values, spec), data.features, data.labels)
        values -= 0.5 * grads.mean(axis=0)
    acc, after = evaluate(ModelWeights(values, spec), data, data)
    assert after < before
    assert acc > 0.8


def test_synthesize_balanced_and_shuffled():
    rng = np.random.default_rng(3)
    data = synthesize_classification(103, 7, 4, 2.0, rng)
    assert data.n == 103
    assert data.feature_dim == 7
    counts = np.bincount(data.labels, minlength=4)
    assert counts.max() - counts.min() <= 1
    # order should not be sorted by class
    assert not np.all(np.diff(data.labels) >= 0)


def test_synthesize_separation_extremes():
    rng = np.random.default_rng(4)
    wide = synthesize_classification(400, 10, 4, 8.0, rng)
    none = synthesize_classification(400, 10, 4, 0.0, np.random.default_rng(4))
    # class means far apart: nearest-centroid accuracy near 1
    centroids = np.stack([wide.features[wide.labels == k].mean(axis=0) for k in range(4)])
    dists = ((wide.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    assert (dists.argmin(axis=1) == wide.labels).mean() > 0.95
    centroids0 = np.stack([none.features[none.labels == k].mean(axis=0) for k in range(4)])
    dists0 = ((none.features[:, None, :] - centroids0[None]) ** 2).sum(axis=2)
    assert (dists0.argmin(axis=1) == none.labels).mean() < 0.6


def test_synthesize_more_classes_than_dims():
    rng = np.random.default_rng(5)
    data = synthesize_classification(60, 2, 5, 3.0, rng)
    assert data.feature_dim == 2
    assert set(np.unique(data.labels)) == set(range(5))


def assert_index_shards(shards, n):
    """Read-only int row arrays into a pool of n rows, in range and disjoint."""
    for rows in shards:
        assert rows.ndim == 1 and np.issubdtype(rows.dtype, np.integer)
        assert not rows.flags.writeable
        assert rows.size == 0 or (rows.min() >= 0 and rows.max() < n)
        with pytest.raises(ValueError):
            rows[...] = 0
    every = np.concatenate(shards)
    assert np.unique(every).size == every.size


def test_partition_iid_covers_disjointly():
    rng = np.random.default_rng(6)
    data = synthesize_classification(101, 4, 3, 1.0, rng)
    shards = partition(data, PartitionSpec(mode="iid", num_clients=4), rng)
    assert_index_shards(shards, data.n)
    sizes = [rows.size for rows in shards]
    assert sum(sizes) == 101
    assert max(sizes) - min(sizes) <= 1
    # every row of the pool appears exactly once
    assert np.array_equal(np.sort(np.concatenate(shards)), np.arange(101))


def test_partition_sizes_mode():
    rng = np.random.default_rng(7)
    data = synthesize_classification(50, 3, 2, 1.0, rng)
    shards = partition(
        data, PartitionSpec(mode="sizes", num_clients=3, sizes=(10, 5, 20)), rng
    )
    assert_index_shards(shards, data.n)
    assert [rows.size for rows in shards] == [10, 5, 20]
    with pytest.raises(PartitionError):
        partition(data, PartitionSpec(mode="sizes", num_clients=2, sizes=(40, 30)), rng)


def test_partition_iid_is_sizes_with_equal_sizes():
    """iid shards are the sizes-mode shards at n // k each, the first n % k one larger."""
    data = synthesize_classification(103, 4, 3, 1.0, np.random.default_rng(9))
    iid = partition(data, PartitionSpec(mode="iid", num_clients=5), np.random.default_rng(4))
    spec = PartitionSpec(mode="sizes", num_clients=5, sizes=(21, 21, 21, 20, 20))
    sized = partition(data, spec, np.random.default_rng(4))
    for a, b in zip(iid, sized, strict=True):
        assert np.array_equal(a, b)


def test_partition_dirichlet_covers_and_skews():
    rng = np.random.default_rng(8)
    data = synthesize_classification(600, 4, 6, 1.0, rng)
    spec = PartitionSpec(mode="dirichlet", num_clients=6, concentration=0.1)
    shards = partition(data, spec, rng)
    assert_index_shards(shards, data.n)
    assert sum(rows.size for rows in shards) == 600
    assert max(rows.size for rows in shards) - min(rows.size for rows in shards) <= 1
    # low concentration should produce skewed class mixtures somewhere
    skews = []
    for rows in shards:
        counts = np.bincount(data.labels[rows], minlength=6)
        skews.append(counts.max() / rows.size)
    assert max(skews) > 0.5


def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(mode="fancy", num_clients=2)
    with pytest.raises(ValueError):
        PartitionSpec(mode="dirichlet", num_clients=2, concentration=0.0)
    with pytest.raises(ValueError):
        PartitionSpec(mode="sizes", num_clients=2, sizes=(1,))


def write_idx_images(path, images):
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    raw = rng.integers(0, 256, size=(7, 4, 3)).astype(np.uint8)
    labels = rng.integers(0, 10, size=7).astype(np.uint8)
    img_path = str(tmp_path / "imgs.idx")
    lab_path = str(tmp_path / "labs.idx")
    write_idx_images(img_path, raw)
    write_idx_labels(lab_path, labels)
    images = read_idx_images(img_path)
    assert images.shape == (7, 12)
    assert images.max() <= 1.0 and images.min() >= 0.0
    assert np.allclose(images[0], raw[0].reshape(-1) / 255.0)
    got_labels = read_idx_labels(lab_path)
    assert np.array_equal(got_labels, labels.astype(np.int64))


def test_idx_gzip_transparency(tmp_path):
    rng = np.random.default_rng(10)
    raw = rng.integers(0, 256, size=(4, 2, 2)).astype(np.uint8)
    path = str(tmp_path / "imgs.idx.gz")
    payload = struct.pack(">IIII", 0x00000803, 4, 2, 2) + raw.tobytes()
    with gzip.open(path, "wb") as fh:
        fh.write(payload)
    images = read_idx_images(path)
    assert images.shape == (4, 4)


def test_idx_error_paths(tmp_path):
    bad_magic = str(tmp_path / "bad.idx")
    with open(bad_magic, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000999, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(IdxFormatError):
        read_idx_images(bad_magic)
    truncated = str(tmp_path / "short.idx")
    with open(truncated, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, 5, 2, 2) + b"\x00" * 3)
    with pytest.raises(IdxFormatError):
        read_idx_images(truncated)
    with pytest.raises(OSError):
        read_idx_images(str(tmp_path / "missing.idx"))
    # A damaged deflate body raises zlib.error and a cut stream EOFError inside gzip.
    raw = np.random.default_rng(11).integers(0, 256, size=60 * 16).astype(np.uint8)
    packed = gzip.compress(struct.pack(">IIII", 0x00000803, 60, 4, 4) + raw.tobytes())
    corrupt = packed[:10] + b"\xff" * 10 + packed[20:]
    for name, body in (("corrupt.idx.gz", corrupt), ("cut.idx.gz", packed[:-12])):
        path = tmp_path / name
        path.write_bytes(body)
        with pytest.raises(IdxFormatError, match="corrupt gzip stream"):
            read_idx_images(str(path))


def test_model_spec_dims():
    assert ModelSpec(feature_dim=20, num_classes=10).dim == 210
    assert ModelSpec(feature_dim=20, num_classes=10, hidden_units=64).dim == 64 * 20 + 64 + 640 + 10
    with pytest.raises(ValueError):
        ModelSpec(feature_dim=0, num_classes=2)
    with pytest.raises(ValueError):
        ModelSpec(feature_dim=3, num_classes=1)


def test_dataset_is_immutable():
    data = Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        data.features[0, 0] = 1.0
