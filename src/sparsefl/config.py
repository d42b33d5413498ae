"""Flat key-value experiment configuration.

The on-disk format is one `key = value` pair per line, `#` comments, blank
lines ignored. Keys are typed and validated; unknown or repeated keys are
rejected with the offending line number. Power-like quantities are given in
dBm and converted to Watts once, when the simulator builds its radio
(simulator._radio_params), so everything downstream is linear; validation
only checks that each converts to a positive, finite wattage.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

from .scheduler import POLICIES
from .wireless import dbm_to_watts


class ConfigError(ValueError):
    """A configuration value failed to parse or fell outside its range."""


@dataclass(frozen=True)
class ExperimentConfig:
    # Run shape
    seed: int = 0
    rounds: int = 100
    policies: tuple[str, ...] = ("lyapunov",)
    num_clients: int = 20
    num_channels: int = 5

    # Data and model
    dataset: str = "synthetic"
    num_train: int = 2000
    num_test: int = 500
    feature_dim: int = 20
    num_classes: int = 10
    hidden_units: int = 0
    separation: float = 3.0
    partition: str = "iid"
    dirichlet_concentration: float = 0.2
    partition_sizes: tuple[int, ...] = ()
    mnist_train_images: str = ""
    mnist_train_labels: str = ""
    mnist_test_images: str = ""
    mnist_test_labels: str = ""

    # Radio
    bandwidth_hz: float = 15e3
    noise_dbm: float = -107.0
    downlink_power_dbm: float = 23.0
    max_power_dbm: float = 30.0
    interference_dbm: float = -math.inf
    area_side_m: float = 100.0

    # Compute
    cpu_freq_max_hz: float = 2.4e9
    cpu_freq_min_frac: float = 0.5
    cpu_freq_max_frac: float = 1.0
    cycles_per_sample: float = 1e4
    capacitance: float = 1e-28

    # Local training
    tau: int = 10
    eta: float = 0.002
    batch_size: int = 5
    clip_c: float = 1.0
    sigma_hat: float = 1.0
    adaptive_clip: bool = True
    s_fixed: float = 1.0

    # Privacy
    eps_min: float = 2.0
    eps_max: float = 10.0
    delta: float = 1e-3

    # Scheduler
    lam: float = 50.0
    d_avg_s: float = 0.0
    d_avg_calibration_rounds: int = 10
    d_avg_margin: float = 1.5
    e_max_j: float = 10.0
    s_th: float = 0.05

    # Bound diagnostics
    smoothness_l: float = 1.0


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int(raw: str) -> int:
    return int(raw, 10)


def _parse_str_tuple(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip(), 10) for part in raw.split(",") if part.strip())


_PARSERS = {
    int: _parse_int,
    float: float,
    bool: _parse_bool,
    str: str,
    tuple[str, ...]: _parse_str_tuple,
    tuple[int, ...]: _parse_int_tuple,
}

_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse the key-value format into a validated config."""
    overrides: dict[str, object] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {rawline!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"{source}:{lineno}: key {key!r} given more than once")
        try:
            overrides[key] = _PARSERS[_FIELD_TYPES[key]](raw)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    cfg = ExperimentConfig(**overrides)
    validate_config(cfg)
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config_text(text, source=path)


def _watts(dbm: float) -> float:
    """dbm_to_watts, with an overflow read as +inf."""
    try:
        return dbm_to_watts(dbm)
    except OverflowError:
        return math.inf


def _require(ok: bool, key: str, message: str) -> None:
    if not ok:
        raise ConfigError(f"{key}: {message}")


def validate_config(cfg: ExperimentConfig) -> None:
    """Range-check every field, naming the offending key."""
    # The dBm keys have their wattage rules below; interference_dbm = -inf is no interference.
    for key, kind in _FIELD_TYPES.items():
        if kind is float and not key.endswith("_dbm"):
            _require(math.isfinite(getattr(cfg, key)), key, "must be finite")
    _require(cfg.seed >= 0, "seed", "must be nonnegative")
    _require(cfg.rounds >= 1, "rounds", "must be at least 1")
    _require(len(cfg.policies) >= 1, "policies", "must name at least one policy")
    for p in cfg.policies:
        _require(p in POLICIES, "policies", f"unknown policy {p!r}; choose from {POLICIES}")
    _require(len(set(cfg.policies)) == len(cfg.policies), "policies", "names a policy twice")
    _require(cfg.num_clients >= 1, "num_clients", "must be at least 1")
    _require(cfg.num_channels >= 1, "num_channels", "must be at least 1")

    _require(cfg.dataset in ("synthetic", "mnist"), "dataset", "must be synthetic or mnist")
    _require(cfg.num_train >= cfg.num_clients, "num_train", "needs at least one sample per client")
    _require(cfg.num_test >= 1, "num_test", "must be at least 1")
    _require(cfg.feature_dim >= 1, "feature_dim", "must be at least 1")
    _require(cfg.num_classes >= 2, "num_classes", "must be at least 2")
    _require(cfg.hidden_units >= 0, "hidden_units", "must be nonnegative (0 disables the MLP)")
    _require(cfg.separation >= 0, "separation", "must be nonnegative")
    _require(
        cfg.partition in ("iid", "dirichlet", "sizes"), "partition", "must be iid, dirichlet, or sizes"
    )
    _require(cfg.dirichlet_concentration > 0, "dirichlet_concentration", "must be positive")
    if cfg.partition == "sizes":
        _require(
            len(cfg.partition_sizes) == cfg.num_clients,
            "partition_sizes",
            "needs one size per client",
        )
        _require(all(n >= 1 for n in cfg.partition_sizes), "partition_sizes", "sizes must be positive")
        _require(
            sum(cfg.partition_sizes) <= cfg.num_train,
            "partition_sizes",
            f"sizes total {sum(cfg.partition_sizes)}, above num_train = {cfg.num_train}",
        )
    if cfg.dataset == "mnist":
        for key in (
            "mnist_train_images",
            "mnist_train_labels",
            "mnist_test_images",
            "mnist_test_labels",
        ):
            _require(bool(getattr(cfg, key)), key, "required when dataset = mnist")

    _require(cfg.bandwidth_hz > 0, "bandwidth_hz", "must be positive")
    for key in ("noise_dbm", "downlink_power_dbm", "max_power_dbm"):
        dbm = getattr(cfg, key)
        _require(0 < _watts(dbm) < math.inf, key, f"{dbm} dBm is not a positive, finite wattage")
    dbm = cfg.interference_dbm
    _require(_watts(dbm) < math.inf, "interference_dbm", f"{dbm} dBm is not a finite wattage")
    _require(cfg.area_side_m > 0, "area_side_m", "must be positive")

    _require(cfg.cpu_freq_max_hz > 0, "cpu_freq_max_hz", "must be positive")
    _require(0 < cfg.cpu_freq_min_frac, "cpu_freq_min_frac", "must be positive")
    _require(
        cfg.cpu_freq_min_frac <= cfg.cpu_freq_max_frac <= 1.0,
        "cpu_freq_max_frac",
        "must lie in [cpu_freq_min_frac, 1]",
    )
    _require(cfg.cycles_per_sample > 0, "cycles_per_sample", "must be positive")
    _require(cfg.capacitance > 0, "capacitance", "must be positive")

    _require(cfg.tau >= 1, "tau", "must be at least 1")
    _require(cfg.eta > 0, "eta", "must be positive")
    _require(cfg.batch_size >= 1, "batch_size", "must be at least 1")
    _require(cfg.clip_c > 0, "clip_c", "must be positive")
    _require(cfg.sigma_hat >= 0, "sigma_hat", "must be nonnegative (0 disables privacy)")
    _require(0 < cfg.s_fixed <= 1, "s_fixed", "must be in (0, 1]")

    _require(cfg.eps_min > 0, "eps_min", "must be positive")
    _require(cfg.eps_max >= cfg.eps_min, "eps_max", "must be at least eps_min")
    _require(0 < cfg.delta < 1, "delta", "must be in (0, 1)")

    _require(cfg.lam >= 0, "lam", "must be nonnegative")
    _require(cfg.d_avg_s >= 0, "d_avg_s", "must be nonnegative (0 selects auto-calibration)")
    _require(cfg.d_avg_calibration_rounds >= 1, "d_avg_calibration_rounds", "must be at least 1")
    _require(cfg.d_avg_margin > 0, "d_avg_margin", "must be positive")
    _require(cfg.e_max_j > 0, "e_max_j", "must be positive")
    _require(0 < cfg.s_th <= 1, "s_th", "must be in (0, 1]")

    _require(cfg.smoothness_l >= 0, "smoothness_l", "must be nonnegative")
