"""End-to-end federated training rounds over the modeled network.

run_experiment builds the world from a config (data, placement, radio,
per-client privacy ledgers), then repeats: realize channels, schedule clients
under the chosen policy, run noisy sparse local training for the scheduled
set, aggregate, advance participation counts and virtual queues, and record
one metrics row. A client retires once its participation count reaches its
allowance t_hat; the run truncates early if everyone retires. After every
participation the client's spent epsilon is checked against its budget, and
an overrun raises BudgetOverrunError. A row is final when its round ends: its
bound terms read the running gradient and noise estimates of the rounds so
far, never a later round.

Every random draw comes from a stream addressed by the root seed and a fixed
integer path, so a repeated run is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import streams
from .accountant import (
    BudgetOverrunError,
    PrivacyLedger,
    RdpParams,
    make_ledger,
    participation_fraction,
)
from .config import ConfigError, ExperimentConfig, validate_config
from .dpsgd import DpConfig, TrainStats, local_train
from .model_data import (
    Dataset,
    IdxFormatError,
    ModelSpec,
    ModelWeights,
    PartitionSpec,
    evaluate,
    init_weights,
    partition,
    read_idx_images,
    read_idx_labels,
    synthesize_classification,
)
from .scheduler import (
    OPTIMIZED_POLICY,
    POLICIES,
    EmptyRoundError,
    RoundContext,
    SchedulerConfig,
    VirtualQueues,
    baseline_schedule,
    build_decision,
    schedule_round,
    update_queues,
    validate_decision,
)
from .wireless import (
    ChannelRealization,
    ComputeParams,
    RadioParams,
    dbm_to_watts,
    path_gain,
    realize_channels,
)

# Channel and CPU draws for the d_avg calibration prologue live in their own
# round-index namespace so they never collide with the training rounds.
_CALIBRATION_BASE = 1_000_000
# Largest stacked calibration block, in rounds * clients * channels: the
# prologue decides max(1, _CALIBRATION_STACK // (clients * channels)) rounds
# per RoundContext, which bounds its memory at any client count.
_CALIBRATION_STACK = 2**12


@dataclass(frozen=True)
class MetricsRow:
    """One round of an experiment, in CSV column order.

    term_sparsification and term_dp are the convergence bound's two penalty
    terms, from the estimates known when the round ends: the largest pre-clip
    gradient norm so far and the mean squared per-step noise norm over every
    draw so far. They are diagnostics, not certified bounds.
    """

    round: int
    policy: str
    accuracy: float
    loss: float
    round_delay_s: float
    cum_delay_s: float
    participants: int
    mean_s: float
    q_de: float
    max_q_fa: float
    term_sparsification: float
    term_dp: float
    eligible: int


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))


@dataclass
class MetricsTrace:
    """A finished run: per-round rows plus run-level summaries.

    t_hats is -1 per client when accounting is disabled (sigma_hat = 0).
    truncated_at is the round index at which no eligible client remained, or
    None if the run went the full distance.
    """

    rows: list[MetricsRow]
    t_hats: np.ndarray
    participation: np.ndarray
    d_avg_s: float
    truncated_at: int | None = None


@dataclass
class SimState:
    """Everything run_round reads or mutates between rounds.

    participation counts each client's uploads so far; with privacy on it is
    also the exposure count that the immutable ledgers are evaluated at.
    path_gains is each client's linear path-loss attenuation, fixed by its
    placement.
    """

    config: ExperimentConfig
    policy: str
    weights: ModelWeights
    shards: list[Dataset]
    sizes: np.ndarray
    path_gains: np.ndarray
    test_set: Dataset
    train_pool: Dataset
    radio: RadioParams
    sched_cfg: SchedulerConfig
    dp_cfg: DpConfig
    ledgers: list[PrivacyLedger] | None
    betas: np.ndarray
    t_hats: np.ndarray
    queues: VirtualQueues
    stats: TrainStats
    participation: np.ndarray
    round_num: int = 0
    cum_delay: float = 0.0


def _build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if config.dataset == "synthetic":
        train, test = (
            synthesize_classification(
                count,
                config.feature_dim,
                config.num_classes,
                config.separation,
                streams.substream(config.seed, streams.DATA, key),
            )
            for key, count in ((0, config.num_train), (1, config.num_test))
        )
        return train, test
    loaded = []
    for name, key, wanted in (
        ("train", "num_train", config.num_train),
        ("test", "num_test", config.num_test),
    ):
        images = _read_mnist_file(config, f"mnist_{name}_images")
        labels = _read_mnist_file(config, f"mnist_{name}_labels")
        if len(labels) != len(images):
            raise ConfigError(f"mnist_{name}_labels: {len(labels)} labels for {len(images)} images")
        data = Dataset(images[:wanted], labels[:wanted])
        loaded.append(data)
        if data.n < wanted:
            raise ConfigError(
                f"{key}: the {name} files hold {data.n} samples, but {key} = {wanted}"
            )
        if int(data.labels.max(initial=0)) >= config.num_classes:
            raise ConfigError(
                f"num_classes: {name} labels reach {int(data.labels.max())}, "
                f"but num_classes = {config.num_classes}"
            )
    train, test = loaded
    if test.feature_dim != train.feature_dim:
        raise ConfigError(
            f"mnist_test_images: {test.feature_dim} pixels per image, "
            f"but the training images have {train.feature_dim}"
        )
    return train, test


def _read_mnist_file(config: ExperimentConfig, key: str) -> np.ndarray:
    """The IDX images or labels that `key` names; a bad or unreadable file is a config error."""
    reader = read_idx_images if key.endswith("_images") else read_idx_labels
    try:
        return reader(getattr(config, key))
    except (IdxFormatError, OSError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _radio_params(config: ExperimentConfig) -> RadioParams:
    return RadioParams(
        bandwidth_hz=config.bandwidth_hz,
        # The receiver's noise floor: interference plus thermal noise, summed only here.
        noise_w=dbm_to_watts(config.interference_dbm) + dbm_to_watts(config.noise_dbm),
        downlink_power_w=dbm_to_watts(config.downlink_power_dbm),
        max_power_w=dbm_to_watts(config.max_power_dbm),
    )


def _draw_round(state: SimState, round_key: int) -> tuple[ChannelRealization, np.ndarray]:
    """One round's channel realization and per-client CPU frequencies."""
    config = state.config
    channels = realize_channels(
        state.path_gains,
        config.num_channels,
        streams.substream(config.seed, streams.CHANNEL, round_key),
    )
    rng = streams.substream(config.seed, streams.CPU, round_key)
    fracs = rng.uniform(config.cpu_freq_min_frac, config.cpu_freq_max_frac, config.num_clients)
    return channels, fracs * config.cpu_freq_max_hz


def _round_context(
    state: SimState, eligible: np.ndarray, channels: ChannelRealization, cpu_freq_hz: np.ndarray
) -> RoundContext:
    config = state.config
    return RoundContext(
        model_dim=state.weights.spec.dim,
        tau=config.tau,
        eligible=eligible,
        dataset_sizes=state.sizes,
        channels=channels,
        radio=state.radio,
        compute=ComputeParams(
            cycles_per_sample=config.cycles_per_sample,
            cpu_freq_hz=cpu_freq_hz,
            capacitance=config.capacitance,
        ),
    )


def _calibrate_d_avg(state: SimState) -> float:
    """Delay target from a short dense delay_min prologue.

    Runs a few rounds of the delay_min policy on dedicated channel and CPU
    draws (no training, no queue or ledger effects) and scales the mean round
    delay by the configured margin. Each round keeps its own streams; the
    rounds are decided in stacked blocks, and their delays summed in round
    order.
    """
    config = state.config
    eligible = np.arange(config.num_clients)
    rounds = config.d_avg_calibration_rounds
    block = max(1, _CALIBRATION_STACK // (config.num_clients * config.num_channels))
    total = 0.0
    for start in range(0, rounds, block):
        draws = [
            _draw_round(state, _CALIBRATION_BASE + k)
            for k in range(start, min(start + block, rounds))
        ]
        channels = ChannelRealization(
            uplink_gains=np.stack([c.uplink_gains for c, _ in draws]),
            downlink_gains=np.stack([c.downlink_gains for c, _ in draws]),
        )
        ctx = _round_context(state, eligible, channels, np.stack([f for _, f in draws]))
        for delay in baseline_schedule(ctx, "delay_min", start, None).round_delay.tolist():
            total += delay
    return config.d_avg_margin * total / rounds


def build_state(config: ExperimentConfig, policy: str) -> SimState:
    """Construct the immutable world and the initial mutable state."""
    validate_config(config)
    if policy not in POLICIES:
        raise ConfigError(f"policies: unknown policy {policy!r}; choose from {POLICIES}")

    train_pool, test_set = _build_datasets(config)
    spec = ModelSpec(
        feature_dim=train_pool.feature_dim,
        num_classes=config.num_classes,
        hidden_units=config.hidden_units or None,
    )
    parts = partition(
        train_pool,
        PartitionSpec(
            mode=config.partition,
            num_clients=config.num_clients,
            concentration=config.dirichlet_concentration,
            sizes=config.partition_sizes,
        ),
        streams.substream(config.seed, streams.DATA, 2),
    )

    placement_rng = streams.substream(config.seed, streams.PLACEMENT)
    positions = placement_rng.uniform(0.0, config.area_side_m, size=(config.num_clients, 2))
    center = np.full(2, config.area_side_m / 2.0)
    distances = np.linalg.norm(positions - center, axis=1)
    path_gains = np.array([path_gain(d) for d in distances])

    privacy_rng = streams.substream(config.seed, streams.PRIVACY)
    eps = privacy_rng.uniform(config.eps_min, config.eps_max, config.num_clients)

    sizes = np.array([p.n for p in parts], dtype=int)
    dp_cfg = DpConfig(
        clip_c=config.clip_c,
        sigma_hat=config.sigma_hat,
        batch_size=config.batch_size,
        tau=config.tau,
        eta=config.eta,
        adaptive_clip=config.adaptive_clip,
    )

    if config.sigma_hat > 0:
        ledgers = []
        for i in range(config.num_clients):
            n = int(sizes[i])
            params = RdpParams(
                q=dp_cfg.effective_batch(n) / n,
                sigma_hat=config.sigma_hat,
                delta=config.delta,
                tau=config.tau,
            )
            ledgers.append(make_ledger(float(eps[i]), params))
        t_hats = np.array([ledger.t_hat for ledger in ledgers], dtype=int)
        betas = participation_fraction(t_hats, config.num_channels)
    else:
        ledgers = None
        t_hats = np.full(config.num_clients, -1, dtype=int)
        betas = participation_fraction(np.ones(config.num_clients), config.num_channels)

    state = SimState(
        config=config,
        policy=policy,
        weights=init_weights(spec, streams.substream(config.seed, streams.MODEL)),
        shards=parts,
        sizes=sizes,
        path_gains=path_gains,
        test_set=test_set,
        train_pool=train_pool,
        radio=_radio_params(config),
        sched_cfg=SchedulerConfig(
            lam=config.lam,
            d_avg=1.0,
            e_max_j=config.e_max_j,
            s_th=config.s_th,
        ),
        dp_cfg=dp_cfg,
        ledgers=ledgers,
        betas=betas,
        t_hats=t_hats,
        queues=VirtualQueues.zeros(config.num_clients),
        stats=TrainStats(),
        participation=np.zeros(config.num_clients, dtype=int),
    )
    d_avg = config.d_avg_s if config.d_avg_s > 0 else _calibrate_d_avg(state)
    state.sched_cfg = replace(state.sched_cfg, d_avg=d_avg)
    return state


def _eligible_clients(state: SimState) -> np.ndarray:
    """Clients whose participation count is still below their allowance t_hat."""
    if state.ledgers is None:
        return np.arange(state.config.num_clients)
    return np.flatnonzero(state.participation < state.t_hats)


def run_round(state: SimState) -> MetricsRow | None:
    """Advance one round; None means no eligible client remained."""
    config = state.config
    t = state.round_num
    eligible = _eligible_clients(state)
    if eligible.size == 0:
        return None

    ctx = _round_context(state, eligible, *_draw_round(state, t))
    if state.policy == OPTIMIZED_POLICY:
        try:
            decision = schedule_round(ctx, state.sched_cfg, state.queues)
        except EmptyRoundError:
            decision = build_decision(ctx, np.full(config.num_clients, -1, dtype=int), 1.0, 1.0)
    else:
        rng = None
        if state.policy == "random":
            rng = streams.substream(config.seed, streams.BASELINE, t)
        decision = baseline_schedule(ctx, state.policy, t, rng, s_value=config.s_fixed)
    validate_decision(
        ctx, state.sched_cfg, decision, optimized=state.policy == OPTIMIZED_POLICY
    )

    participants = decision.participants
    # Aggregation weight times 1 - s, summed over the scheduled set.
    deficit = 0.0
    if participants.size:
        selected_weights = state.sizes[participants] / state.sizes[participants].sum()
        rates = [float(decision.rates[i]) for i in participants]
        state.weights.values += local_train(
            state.weights,
            [state.shards[i] for i in participants],
            rates,
            state.dp_cfg,
            [streams.substream(config.seed, streams.TRAIN, t, int(i)) for i in participants],
            selected_weights,
            client_ids=participants,
            round_num=t,
            stats=state.stats,
        )
        for weight, s in zip(selected_weights, rates):
            deficit += weight * (1.0 - s)
        state.participation[participants] += 1
        if state.ledgers is not None:
            for i in participants:
                ledger = state.ledgers[int(i)]
                spent = ledger.spent(int(state.participation[i]))
                if spent > ledger.eps_budget:
                    raise BudgetOverrunError(
                        f"client {int(i)} spent epsilon {spent:.6g} in round {t}, "
                        f"over its budget {ledger.eps_budget:.6g}"
                    )

    state.queues = update_queues(state.queues, decision, state.betas, state.sched_cfg.d_avg)
    state.cum_delay += decision.round_delay
    state.round_num += 1

    accuracy, train_loss = evaluate(state.weights, state.test_set, state.train_pool)
    mean_s = float(decision.rates[participants].mean()) if participants.size else 0.0
    # Every participation runs tau steps, and each step draws one noise vector.
    noise_draws = config.tau * int(state.participation.sum())
    noise_sq_mean = state.stats.noise_sq_sum / noise_draws if noise_draws else 0.0
    eta, tau = config.eta, config.tau
    return MetricsRow(
        round=t,
        policy=state.policy,
        accuracy=accuracy,
        loss=train_loss,
        round_delay_s=decision.round_delay,
        cum_delay_s=state.cum_delay,
        participants=int(participants.size),
        mean_s=mean_s,
        q_de=state.queues.q_de,
        max_q_fa=float(state.queues.q_fa.max()),
        term_sparsification=3.0 * state.stats.max_grad_norm**2 * deficit,
        term_dp=eta * tau**2 * noise_sq_mean * (1.0 + 3.0 * eta * config.smoothness_l * tau),
        eligible=int(eligible.size),
    )


def run_experiment(config: ExperimentConfig, policy: str) -> MetricsTrace:
    """Run one policy for the configured number of rounds (or until retirement)."""
    state = build_state(config, policy)
    rows: list[MetricsRow] = []
    truncated_at: int | None = None
    for t in range(config.rounds):
        row = run_round(state)
        if row is None:
            truncated_at = t
            break
        rows.append(row)
    return MetricsTrace(
        rows=rows,
        t_hats=state.t_hats,
        participation=state.participation,
        d_avg_s=state.sched_cfg.d_avg,
        truncated_at=truncated_at,
    )
