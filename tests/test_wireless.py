import math

import numpy as np
import pytest

from sparsefl.wireless import (
    ChannelRealization,
    ComputeParams,
    RadioParams,
    dbm_to_watts,
    downlink_payload_bits,
    path_gain,
    pathloss_db,
    payload_bits,
    realize_channels,
    round_costs,
    shannon_rate,
    shannon_rate_slope,
)


def default_radio(**overrides) -> RadioParams:
    base = dict(
        bandwidth_hz=15e3,
        noise_w=dbm_to_watts(-107.0),
        downlink_power_w=dbm_to_watts(23.0),
        max_power_w=dbm_to_watts(30.0),
    )
    base.update(overrides)
    return RadioParams(**base)


def test_dbm_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(23.0) == pytest.approx(0.199526231, rel=1e-8)
    assert dbm_to_watts(-107.0) == pytest.approx(1.99526231e-14, rel=1e-8)


def test_pathloss_at_hundred_meters():
    # 128.1 + 37.6*log10(0.1) = 90.5 dB
    assert pathloss_db(100.0) == pytest.approx(90.5, abs=1e-9)
    assert path_gain(100.0) == pytest.approx(10.0 ** (-9.05), rel=1e-12)


def test_pathloss_clamps_below_one_meter():
    assert pathloss_db(0.05) == pathloss_db(1.0)


def test_shannon_rate_form():
    radio = default_radio()
    gain = 1e-9
    power = 0.5
    snr = power * gain / radio.noise_w
    want = 15e3 * math.log2(1.0 + snr)
    assert shannon_rate(radio, snr) == pytest.approx(want, rel=1e-12)
    assert shannon_rate(radio, 0.0) == 0.0  # zero transmit power


def test_shannon_rate_with_interference():
    thermal = dbm_to_watts(-107.0)
    radio = default_radio(noise_w=1e-13 + thermal)
    gain = 1e-9
    snr = 0.5 * gain / radio.noise_w
    want = 15e3 * math.log2(1.0 + snr)
    assert shannon_rate(radio, snr) == pytest.approx(want, rel=1e-12)
    assert shannon_rate(radio, snr) < shannon_rate(radio, 0.5 * gain / thermal)


def test_shannon_rate_slope_is_the_rate_derivative():
    radio = default_radio()
    for snr_per_w in (1e2, 1e5, 3e8):
        for power in (1e-3, 0.2, 1.0):
            h = 1e-6 * power
            central = (
                shannon_rate(radio, (power + h) * snr_per_w)
                - shannon_rate(radio, (power - h) * snr_per_w)
            ) / (2.0 * h)
            slope = shannon_rate_slope(radio, snr_per_w, power)
            assert slope == pytest.approx(central, rel=1e-6)
    # On arrays it keeps the float order B * k / ((1 + P * k) * ln 2), bit for bit.
    rng = np.random.default_rng(4)
    snr_per_w, power = rng.uniform(1e2, 1e9, (6, 3)), rng.uniform(1e-3, 1.0, (6, 3))
    inline = radio.bandwidth_hz * snr_per_w / ((1.0 + power * snr_per_w) * math.log(2.0))
    assert np.array_equal(shannon_rate_slope(radio, snr_per_w, power), inline)


def test_uplink_time_for_dense_megabit_payload():
    # 4.2e6 bits over a 15 kbps link takes 280 s
    assert 4.2e6 / 15e3 == pytest.approx(280.0)


def test_payload_bit_counts():
    assert payload_bits(1000, 1.0) == 32 * 1000 + 1000
    assert payload_bits(1000, 0.5) == 16000 + 1000
    assert payload_bits(1000, 0.0001) == math.ceil(3.2) + 1000
    assert downlink_payload_bits(1000) == 32000
    with pytest.raises(ValueError):
        payload_bits(0, 0.5)
    with pytest.raises(ValueError):
        payload_bits(10, 1.5)


def test_realize_channels_shapes_and_determinism():
    gains = np.array([path_gain(d) for d in (50.0, 120.0, 300.0)])
    a = realize_channels(gains, 4, np.random.default_rng(77))
    b = realize_channels(gains, 4, np.random.default_rng(77))
    c = realize_channels(gains, 4, np.random.default_rng(78))
    assert a.uplink_gains.shape == (3, 4)
    assert a.downlink_gains.shape == (3,)
    assert np.array_equal(a.uplink_gains, b.uplink_gains)
    assert not np.array_equal(a.uplink_gains, c.uplink_gains)
    assert np.all(a.uplink_gains >= 0.0)


def test_realize_channels_matches_scalar_channel_gain():
    """Each gain is the client's path_gain times its fading draw, in draw order."""
    distances = (1.0, 50.0, 120.0, 300.0, 0.5)
    real = realize_channels(
        np.array([path_gain(d) for d in distances]), 3, np.random.default_rng(9)
    )
    rng = np.random.default_rng(9)
    fading_up = rng.exponential(1.0, size=(len(distances), 3))
    fading_down = rng.exponential(1.0, size=len(distances))
    for i, d in enumerate(distances):
        for j in range(3):
            assert real.uplink_gains[i, j] == path_gain(d) * float(fading_up[i, j])
        assert real.downlink_gains[i] == path_gain(d) * float(fading_down[i])


def test_realize_channels_mean_tracks_pathloss():
    real = realize_channels(np.full(2000, path_gain(100.0)), 1, np.random.default_rng(5))
    base = 10.0 ** (-9.05)
    assert real.uplink_gains.mean() == pytest.approx(base, rel=0.1)


def test_compute_cost_frozen_values():
    # 60 epochs over 1000 samples at 1e4 cycles each on a 2.4 GHz core:
    # 6e8 cycles -> 0.25 s, and 1e-28 * 6e8 * (2.4e9)^2 / 2 = 0.1728 J
    compute = ComputeParams(cycles_per_sample=1e4, cpu_freq_hz=2.4e9, capacitance=1e-28)
    radio = default_radio()
    costs = round_costs(
        model_dim=100,
        s=1.0,
        power_w=radio.max_power_w,
        uplink_gain=1e-8,
        downlink_gain=1e-8,
        dataset_size=1000,
        tau=60,
        radio=radio,
        compute=compute,
    )
    assert costs.d_local == pytest.approx(0.25, rel=1e-12)
    assert costs.e_comp == pytest.approx(0.1728, rel=1e-12)


def test_round_costs_components_consistent():
    radio = default_radio()
    compute = ComputeParams(cycles_per_sample=1e4, cpu_freq_hz=2e9, capacitance=1e-28)
    costs = round_costs(
        model_dim=50,
        s=0.4,
        power_w=0.3,
        uplink_gain=2e-9,
        downlink_gain=3e-9,
        dataset_size=30,
        tau=4,
        radio=radio,
        compute=compute,
    )
    up_rate = shannon_rate(radio, 0.3 * 2e-9 / radio.noise_w)
    down_rate = shannon_rate(radio, radio.downlink_power_w * 3e-9 / radio.noise_w)
    assert costs.d_up == pytest.approx(payload_bits(50, 0.4) / up_rate, rel=1e-12)
    assert costs.d_down == pytest.approx(downlink_payload_bits(50) / down_rate, rel=1e-12)
    assert costs.e_comm == pytest.approx(0.3 * costs.d_up, rel=1e-12)
    assert costs.total_delay == pytest.approx(costs.d_down + costs.d_local + costs.d_up)


def test_round_costs_rejects_dead_links():
    radio = default_radio()
    compute = ComputeParams(cycles_per_sample=1e4, cpu_freq_hz=2e9, capacitance=1e-28)
    with pytest.raises(ValueError):
        round_costs(50, 1.0, 0.0, 1e-9, 1e-9, 10, 1, radio, compute)
    # A negative gain gives a NaN rate, which must not pass as a live link.
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        round_costs(50, 1.0, 1.0, -1e-9, 1e-9, 10, 1, radio, compute)


def test_sparser_updates_upload_faster():
    radio = default_radio()
    compute = ComputeParams(cycles_per_sample=1e4, cpu_freq_hz=2e9, capacitance=1e-28)
    kwargs = dict(
        model_dim=500,
        power_w=0.5,
        uplink_gain=1e-9,
        downlink_gain=1e-9,
        dataset_size=20,
        tau=2,
        radio=radio,
        compute=compute,
    )
    dense = round_costs(s=1.0, **kwargs)
    sparse = round_costs(s=0.1, **kwargs)
    assert sparse.d_up < dense.d_up
    assert sparse.e_comm < dense.e_comm
    assert sparse.d_local == dense.d_local


def test_param_validation():
    with pytest.raises(ValueError):
        RadioParams(bandwidth_hz=0.0, noise_w=1e-14, downlink_power_w=0.1, max_power_w=1.0)
    with pytest.raises(ValueError):
        RadioParams(bandwidth_hz=1e4, noise_w=0.0, downlink_power_w=0.1, max_power_w=1.0)
    with pytest.raises(ValueError):
        ComputeParams(cycles_per_sample=0.0, cpu_freq_hz=1e9, capacitance=1e-28)
    ComputeParams(cycles_per_sample=1e4, cpu_freq_hz=np.array([1e9, 2e9]), capacitance=1e-28)
    for freqs in (np.array([1e9, 0.0, 2e9]), np.array([[1e9, 2e9], [1e9, -1.0]])):
        with pytest.raises(ValueError):
            ComputeParams(cycles_per_sample=1e4, cpu_freq_hz=freqs, capacitance=1e-28)
    with pytest.raises(ValueError):
        ChannelRealization(uplink_gains=np.zeros(3), downlink_gains=np.zeros(3))
    with pytest.raises(ValueError):
        ChannelRealization(uplink_gains=np.zeros((3, 2)), downlink_gains=np.zeros(2))
    stacked = ChannelRealization(uplink_gains=np.zeros((5, 3, 2)), downlink_gains=np.zeros((5, 3)))
    assert stacked.downlink_gains.shape == (5, 3)
    for downlink in (np.zeros(3), np.zeros((5, 2)), np.zeros((4, 3))):
        with pytest.raises(ValueError):
            ChannelRealization(uplink_gains=np.zeros((5, 3, 2)), downlink_gains=downlink)
