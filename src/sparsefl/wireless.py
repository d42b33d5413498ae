"""Wireless link and on-device compute cost model.

Path loss follows the urban-macro curve 128.1 + 37.6 log10(distance_km) dB,
multiplied by unit-mean exponential small-scale fading. Link rates are Shannon
capacities over the configured bandwidth, at the SNR over the receiver's noise
floor (thermal noise plus interference). Uplink payloads combine 32-bit
floats for retained coordinates with a 1-bit-per-coordinate mask; the dense
downlink broadcast carries 32 bits per coordinate. The scheduler prices these
links through this module only: shannon_rate and its power derivative, the
payload sizes and their smooth (un-rounded) form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

_MIN_DISTANCE_M = 1.0
_PATHLOSS_INTERCEPT_DB = 128.1
_PATHLOSS_SLOPE_DB = 37.6
# Bits per transmitted model coordinate, on both links.
VALUE_BITS = 32


class DeadLinkError(ValueError):
    """A link's Shannon rate rounds to zero, so no payload can cross it."""


def pathloss_db(distance_m: float) -> float:
    """Path loss in dB at the given distance, clamped below at one meter."""
    distance_m = max(distance_m, _MIN_DISTANCE_M)
    return _PATHLOSS_INTERCEPT_DB + _PATHLOSS_SLOPE_DB * math.log10(distance_m / 1000.0)


@dataclass(frozen=True)
class RadioParams:
    """Link constants; noise_w is the receiver's whole noise floor, thermal plus interference."""

    bandwidth_hz: float
    noise_w: float
    downlink_power_w: float
    max_power_w: float

    def __post_init__(self) -> None:
        if min(self.bandwidth_hz, self.noise_w, self.downlink_power_w, self.max_power_w) <= 0:
            raise ValueError("bandwidth, noise, and powers must be positive")


@dataclass(frozen=True)
class ComputeParams:
    """Processing profile for one round.

    cpu_freq_hz holds one frequency per client: [clients], or [rounds,
    clients] for stacked rounds, or a scalar for a single client. Cycles per
    sample and switched capacitance are shared by every client.
    """

    cycles_per_sample: float
    cpu_freq_hz: np.ndarray | float
    capacitance: float

    def __post_init__(self) -> None:
        if min(self.cycles_per_sample, self.capacitance) <= 0 or np.any(self.cpu_freq_hz <= 0):
            raise ValueError("compute parameters must be positive")


@dataclass(frozen=True)
class ChannelRealization:
    """Linear power gains: uplink [clients, channels], downlink [clients].

    Stacked rounds add the same leading axes to both, e.g. [rounds, clients,
    channels] and [rounds, clients].
    """

    uplink_gains: np.ndarray
    downlink_gains: np.ndarray

    def __post_init__(self) -> None:
        if self.uplink_gains.ndim < 2:
            raise ValueError("uplink_gains must be [..., clients, channels]")
        if self.downlink_gains.shape != self.uplink_gains.shape[:-1]:
            raise ValueError("downlink_gains must have one entry per client")


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def path_gain(distance_m: float) -> float:
    """Linear path-loss attenuation at the given distance."""
    return 10.0 ** (-pathloss_db(distance_m) / 10.0)


def realize_channels(
    path_gains: np.ndarray, n_channels: int, rng: np.random.Generator
) -> ChannelRealization:
    """Draw unit-mean exponential fading for every client-channel pair.

    path_gains holds each client's path_gain, fixed for the run. Uplink
    fading is drawn first as a [clients, channels] block, then downlink fading
    as a vector, a fixed order that keeps runs reproducible.
    """
    n = len(path_gains)
    fading_up = rng.exponential(1.0, size=(n, n_channels))
    fading_down = rng.exponential(1.0, size=n)
    return ChannelRealization(
        uplink_gains=path_gains[:, None] * fading_up, downlink_gains=path_gains * fading_down
    )


def shannon_rate(radio: RadioParams, snr: ArrayLike) -> np.ndarray:
    """Shannon rate in bits/s at the received SNR, a scalar or an array."""
    return radio.bandwidth_hz * np.log2(1.0 + snr)


def shannon_rate_slope(radio: RadioParams, snr_per_w: ArrayLike, power_w: ArrayLike) -> np.ndarray:
    """d shannon_rate / d power at power_w, for the SNR per watt of transmit power."""
    return radio.bandwidth_hz * snr_per_w / ((1.0 + power_w * snr_per_w) * math.log(2.0))


def zero_power_energy(radio: RadioParams, bits: ArrayLike, snr_per_w: ArrayLike) -> np.ndarray:
    """Transmit energy of `bits` in the zero-power limit, its infimum; inf on a dead link."""
    with np.errstate(divide="ignore"):
        return bits * math.log(2.0) / (radio.bandwidth_hz * snr_per_w)


def payload_bits(model_dim: int, s: ArrayLike) -> np.ndarray:
    """Uplink bits for one sparse update: 32 bits per retained coordinate plus mask.

    s may be a scalar rate or an array of rates.
    """
    if model_dim < 1:
        raise ValueError("model_dim must be positive")
    if not np.all((0.0 <= s) & (s <= 1.0)):
        raise ValueError(f"rate must be in [0, 1], got {s}")
    return np.ceil(VALUE_BITS * s * model_dim) + model_dim


def smooth_payload_pieces(model_dim: int) -> tuple[int, int]:
    """(mask bits, value bits at s = 1): the smooth payload is mask + s * values."""
    return model_dim, VALUE_BITS * model_dim


def smooth_payload_bits(model_dim: int, s: ArrayLike) -> ArrayLike:
    """payload_bits without the rounding up, the scheduler's smooth payload model."""
    mask, values = smooth_payload_pieces(model_dim)
    return s * values + mask


def smooth_payload_rate(model_dim: int, bits: ArrayLike) -> ArrayLike:
    """The rate whose smooth payload is `bits`: the inverse of smooth_payload_bits."""
    mask, values = smooth_payload_pieces(model_dim)
    return (bits - mask) / values


def downlink_payload_bits(model_dim: int) -> int:
    """Dense broadcast bits for the global model."""
    if model_dim < 1:
        raise ValueError("model_dim must be positive")
    return VALUE_BITS * model_dim


@dataclass(frozen=True)
class RoundCosts:
    """Delay and energy components for one client in one round."""

    d_down: float
    d_local: float
    d_up: float
    e_comm: float
    e_comp: float

    @property
    def total_delay(self) -> float:
        return self.d_down + self.d_local + self.d_up


def round_costs(
    model_dim: int,
    s: float,
    power_w: float,
    uplink_gain: float,
    downlink_gain: float,
    dataset_size: int,
    tau: int,
    radio: RadioParams,
    compute: ComputeParams,
) -> RoundCosts:
    """All delay and energy components for one scheduled client.

    Download and upload delays divide payloads by Shannon rates; local delay is
    tau * dataset_size * cycles_per_sample / cpu_freq; transmit energy is power
    times upload time; compute energy is the capacitance model
    capacitance * tau * dataset_size * cycles_per_sample * freq^2 / 2.
    """
    down_rate = shannon_rate(radio, radio.downlink_power_w * downlink_gain / radio.noise_w)
    up_rate = shannon_rate(radio, power_w * uplink_gain / radio.noise_w)
    if not (down_rate > 0 and up_rate > 0):
        raise DeadLinkError("link rates must be positive for a scheduled client")
    d_down = downlink_payload_bits(model_dim) / down_rate
    d_up = payload_bits(model_dim, s) / up_rate
    work = tau * dataset_size * compute.cycles_per_sample
    d_local = work / compute.cpu_freq_hz
    e_comp = compute.capacitance * work * compute.cpu_freq_hz**2 / 2.0
    e_comm = power_w * d_up
    return RoundCosts(d_down=d_down, d_local=d_local, d_up=d_up, e_comm=e_comm, e_comp=e_comp)
