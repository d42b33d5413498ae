"""Models, synthetic data, partitioning, and IDX file loading.

Two model families are supported, both with closed-form per-sample gradients
so no autodiff dependency is needed: multinomial logistic regression and a
one-hidden-layer tanh network. Parameters live in a flat float64 vector made
of weight-matrix and bias blocks (ModelSpec.block_shapes, split_blocks). A
weight block's per-sample gradient is an outer product of two factors and a
bias block's is one factor (loss_grad_factors); per_sample_loss_grads expands
them into the dense [n, dim] matrix.
"""

from __future__ import annotations

import functools
import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np


class PartitionError(ValueError):
    """The requested partition cannot be built from the given data."""


class IdxFormatError(ValueError):
    """The file does not follow the expected IDX byte layout."""


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix [n, d] with integer labels [n]."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels must be a vector matching features rows")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor. hidden_units None selects plain softmax regression."""

    feature_dim: int
    num_classes: int
    hidden_units: int | None = None

    def __post_init__(self) -> None:
        if self.feature_dim < 1 or self.num_classes < 2:
            raise ValueError("need feature_dim >= 1 and num_classes >= 2")
        if self.hidden_units is not None and self.hidden_units < 1:
            raise ValueError("hidden_units must be positive when set")

    @property
    def block_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Parameter blocks in flat order: (rows, cols) per weight matrix, (rows,) per bias."""
        d, k, h = self.feature_dim, self.num_classes, self.hidden_units
        if h is None:
            return ((k, d), (k,))
        return ((h, d), (h,), (k, h), (k,))

    @property
    def dim(self) -> int:
        return sum(math.prod(shape) for shape in self.block_shapes)


@dataclass
class ModelWeights:
    """Flat parameter vector [dim], or a stack of them [clients, dim].

    The stacked form holds one model per client for the stacked local step
    (dpsgd.local_train); _forward and loss_grad_factors act on each row.
    """

    values: np.ndarray
    spec: ModelSpec

    def __post_init__(self) -> None:
        if self.values.shape[-1:] != (self.spec.dim,):
            raise ValueError(f"expected flat vector of length {self.spec.dim}")


def init_weights(spec: ModelSpec, rng: np.random.Generator) -> ModelWeights:
    """Starting weights: zeros for softmax regression, which is convex there.

    The tanh network is stuck at an all-zero point (both layers' gradients
    vanish), so its weight matrices get small random draws from rng, scaled
    by fan-in, instead, with zero biases.
    """
    if spec.hidden_units is None:
        return ModelWeights(np.zeros(spec.dim), spec)
    values = np.zeros(spec.dim)
    w1, _, w2, _ = split_blocks(values, spec)
    w1[...] = rng.standard_normal(w1.shape) / math.sqrt(spec.feature_dim)
    w2[...] = rng.standard_normal(w2.shape) / math.sqrt(spec.hidden_units)
    return ModelWeights(values, spec)


def split_blocks(flat: np.ndarray, spec: ModelSpec) -> list[np.ndarray]:
    """Views of a flat parameter-length vector, one per block of spec.block_shapes.

    A stack [..., dim] gives stacked views [..., *shape], one block per row.
    """
    lead = flat.shape[:-1]
    views = []
    start = 0
    for shape in spec.block_shapes:
        size = math.prod(shape)
        views.append(flat[..., start : start + size].reshape(lead + shape))
        start += size
    return views


def _forward(w: ModelWeights, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Logits plus the hidden activation (None for softmax regression).

    x is [n, feature_dim], or [clients, n, feature_dim] for stacked weights.
    """
    if w.spec.hidden_units is None:
        wt, b = split_blocks(w.values, w.spec)
        return x @ wt.swapaxes(-1, -2) + b[..., None, :], None
    w1, b1, w2, b2 = split_blocks(w.values, w.spec)
    hidden = np.tanh(x @ w1.swapaxes(-1, -2) + b1[..., None, :])
    return hidden @ w2.swapaxes(-1, -2) + b2[..., None, :], hidden


def _shifted_logsumexp(logits: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logits less their row max top [..., 1], and the log-sum-exp of those shifted rows."""
    shifted = logits - top
    return shifted, np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted, lse = _shifted_logsumexp(logits, logits.max(axis=-1, keepdims=True))
    return shifted - lse


# One (A, B) pair per parameter block, in flat-parameter order. For a weight
# block A is [n, rows] and B is [n, cols]: sample i's gradient slice is
# outer(A[i], B[i]).ravel(). For a bias block B is None and the slice is A[i].
# Stacked weights give each factor a leading [clients] axis.
GradFactors = list[tuple[np.ndarray, np.ndarray | None]]


def check_examples(spec: ModelSpec, features: np.ndarray, labels: np.ndarray) -> None:
    """Raise ValueError unless features [..., n, feature_dim] and labels [..., n] fit spec."""
    if features.ndim < 2 or features.shape[-1] != spec.feature_dim:
        raise ValueError("features do not match the model's feature_dim")
    if labels.shape != features.shape[:-1]:
        raise ValueError("labels must be a vector matching features rows")
    if np.any(labels < 0) or np.any(labels >= spec.num_classes):
        raise ValueError("labels out of range for the model's classes")


def loss_grad_factors(
    w: ModelWeights, features: np.ndarray, labels: np.ndarray
) -> tuple[float | np.ndarray, GradFactors]:
    """Mean cross-entropy loss and the per-sample gradients as per-block factors.

    Both models are stacks of outer products, so the [n, dim] gradient matrix
    never needs to be built: softmax regression has the blocks
    (dlogits, features) and (dlogits, None); the tanh network has
    (dpre, features), (dpre, None), (dlogits, hidden) and (dlogits, None).

    Stacked weights [clients, dim] take stacked batches [clients, n, ...] and
    give one loss per client. The rows are not checked here: callers pass
    rows of data they have put through check_examples.
    """
    num_classes = w.spec.num_classes
    rows = np.arange(labels.size)
    flat_labels = labels.reshape(-1)
    logits, hidden = _forward(w, features)
    logp = _log_softmax(logits)
    loss = -logp.reshape(-1, num_classes)[rows, flat_labels].reshape(labels.shape).mean(axis=-1)
    dlogits = np.exp(logp)
    dlogits.reshape(-1, num_classes)[rows, flat_labels] -= 1.0
    if hidden is None:
        return loss, [(dlogits, features), (dlogits, None)]
    w2 = split_blocks(w.values, w.spec)[2]
    dpre = (dlogits @ w2) * (1.0 - hidden * hidden)
    return loss, [(dpre, features), (dpre, None), (dlogits, hidden), (dlogits, None)]


def per_sample_loss_grads(
    w: ModelWeights, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and the per-sample gradient matrix [n, dim].

    The rows are the outer products of loss_grad_factors, concatenated in
    flat-parameter order; their mean equals the gradient of the mean loss.
    Raises ValueError if the rows do not fit the model (check_examples).
    """
    check_examples(w.spec, features, labels)
    loss, factors = loss_grad_factors(w, features, labels)
    n = features.shape[0]
    blocks = [a if b is None else np.einsum("na,nb->nab", a, b).reshape(n, -1) for a, b in factors]
    return loss, np.concatenate(blocks, axis=1)


def evaluate(w: ModelWeights, test_set: Dataset, train_pool: Dataset) -> tuple[float, float]:
    """(test accuracy, mean train cross-entropy) of w: the two numbers a round records.

    Predictions are the argmax logit, with exact ties resolved to the lowest
    class index. Each train sample's loss is its log-sum-exp less its label's
    shifted logit, the value the full log-softmax matrix would hold there.
    The row maxima are taken one class column at a time: with few classes a
    reduction along the short last axis costs far more, and a max is exact in
    any order.
    """
    logits, _ = _forward(w, test_set.features)
    accuracy = float((logits.argmax(axis=1) == test_set.labels).mean())
    logits, _ = _forward(w, train_pool.features)
    shifted, lse = _shifted_logsumexp(logits, functools.reduce(np.maximum, logits.T)[:, None])
    picked = shifted[np.arange(train_pool.n), train_pool.labels]
    return accuracy, float(-(picked - lse[:, 0]).mean())


def synthesize_classification(
    num_samples: int,
    feature_dim: int,
    num_classes: int,
    separation: float,
    rng: np.random.Generator,
) -> Dataset:
    """Gaussian class clusters with unit within-class noise.

    Class means sit at distance ``separation`` from the origin, on orthogonal
    axes when the dimension allows and on random unit directions otherwise.
    Label counts are balanced up to rounding and the sample order is shuffled.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    counts = np.full(num_classes, num_samples // num_classes)
    counts[: num_samples % num_classes] += 1
    labels = rng.permutation(np.repeat(np.arange(num_classes), counts))
    if feature_dim >= num_classes:
        means = np.zeros((num_classes, feature_dim))
        means[np.arange(num_classes), np.arange(num_classes)] = separation
    else:
        dirs = rng.standard_normal((num_classes, feature_dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        means = separation * dirs
    features = means[labels] + rng.standard_normal((num_samples, feature_dim))
    return Dataset(features, labels)


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a dataset across clients.

    mode: "iid", "dirichlet", or "sizes".
    concentration: Dirichlet concentration for per-client class mixtures.
    sizes: exact per-client sample counts, required for mode "sizes".
    """

    mode: str
    num_clients: int
    concentration: float = 0.2
    sizes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("iid", "dirichlet", "sizes"):
            raise ValueError(f"unknown partition mode {self.mode!r}")
        if self.num_clients < 1:
            raise ValueError("num_clients must be positive")
        if self.mode == "dirichlet" and self.concentration <= 0:
            raise ValueError("concentration must be positive")
        if self.mode == "sizes" and len(self.sizes) != self.num_clients:
            raise ValueError("sizes must list one count per client")


def partition(data: Dataset, spec: PartitionSpec, rng: np.random.Generator) -> list[Dataset]:
    """Split data into disjoint client shards according to spec."""
    if spec.mode == "iid":
        index_sets = _split_iid(data.n, spec.num_clients, rng)
    elif spec.mode == "sizes":
        if sum(spec.sizes) > data.n:
            raise PartitionError(
                f"requested {sum(spec.sizes)} samples but only {data.n} available"
            )
        perm = rng.permutation(data.n)
        index_sets = []
        start = 0
        for size in spec.sizes:
            index_sets.append(perm[start : start + size])
            start += size
    else:
        index_sets = _split_dirichlet(data, spec, rng)
    return [Dataset(data.features[idx], data.labels[idx]) for idx in index_sets]


def _split_iid(n: int, num_clients: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(n)
    sizes = np.full(num_clients, n // num_clients)
    sizes[: n % num_clients] += 1
    cuts = np.cumsum(sizes)[:-1]
    return np.split(perm, cuts)


def _split_dirichlet(
    data: Dataset, spec: PartitionSpec, rng: np.random.Generator
) -> list[np.ndarray]:
    """Equal-size shards whose class mixtures follow per-client Dirichlet draws.

    Each client asks for floor(theta_k * size) samples of class k (largest
    remainders fill the shard); exhausted class pools are back-filled from
    whichever classes still have stock.
    """
    classes = np.unique(data.labels)
    pools = {int(k): list(rng.permutation(np.flatnonzero(data.labels == k))) for k in classes}
    base = data.n // spec.num_clients
    shard_sizes = np.full(spec.num_clients, base)
    shard_sizes[: data.n % spec.num_clients] += 1
    proportions = rng.dirichlet(
        np.full(len(classes), spec.concentration), size=spec.num_clients
    )
    index_sets = []
    for i in range(spec.num_clients):
        size = int(shard_sizes[i])
        raw = proportions[i] * size
        want = np.floor(raw).astype(int)
        remainder = size - want.sum()
        for k in np.argsort(raw - want)[::-1][:remainder]:
            want[k] += 1
        taken: list[int] = []
        for k_pos, k in enumerate(classes):
            pool = pools[int(k)]
            grab = min(want[k_pos], len(pool))
            taken.extend(pool[:grab])
            del pool[:grab]
        while len(taken) < size:
            largest = max(pools, key=lambda k: len(pools[k]))
            if not pools[largest]:
                raise PartitionError("ran out of samples while building shards")
            taken.append(pools[largest].pop(0))
        index_sets.append(np.asarray(taken, dtype=int))
    return index_sets


def _open_binary(path: str):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_body(fh, size: int, path: str) -> bytes:
    """Up to size bytes; a corrupt or cut gzip stream is malformed IDX, not an I/O error."""
    try:
        return fh.read(size)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"{path}: corrupt gzip stream: {exc}") from None


def _read_idx(path: str, magic: int, kind: str, unit: str) -> np.ndarray:
    """An IDX file's bytes as [count, item size] uint8; the magic's low byte counts dimensions."""
    size = 4 + 4 * (magic & 0xFF)
    with _open_binary(path) as fh:
        header = _read_body(fh, size, path)
        if len(header) < size:
            raise IdxFormatError(f"{path}: truncated header")
        got, count, *item_shape = struct.unpack(f">{size // 4}I", header)
        if got != magic:
            raise IdxFormatError(f"{path}: expected {kind} magic {magic:#x}, got {got:#010x}")
        item = math.prod(item_shape)
        raw = _read_body(fh, count * item, path)
    if len(raw) != count * item:
        raise IdxFormatError(f"{path}: expected {count * item} {unit} bytes")
    return np.frombuffer(raw, dtype=np.uint8).reshape(count, item)


def read_idx_images(path: str) -> np.ndarray:
    """Images from an IDX file as float64 rows scaled to [0, 1]."""
    return _read_idx(path, 0x00000803, "image", "pixel").astype(np.float64) / 255.0


def read_idx_labels(path: str) -> np.ndarray:
    """Labels from an IDX file as an int64 vector."""
    return _read_idx(path, 0x00000801, "label", "label").ravel().astype(np.int64)

