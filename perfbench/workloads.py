"""The benchmark's workloads: one ExperimentConfig shape per name.

The benchmark seed becomes ExperimentConfig.seed and nothing else; the
program receives only the resulting config. Each shape is chosen to load one
known hot path and to bypass others (see NOTES.md for the reasoning).
"""

from __future__ import annotations

# Candidate percentiles for round_ms_tail; the highest one that leaves at
# least TAIL_BEYOND rounds above it in a workload's min_runs experiments is
# reported, so the percentile does not depend on how many experiments fit.
TAIL_PERCENTILES = (50, 75, 90, 95)
TAIL_BEYOND = 10

WORKLOADS: dict[str, dict] = {
    # Every client has its own shard size, hence its own q = batch / size and
    # its own accountant quadrature; the accountant dominates set-up. A delay
    # margin below 1 keeps the delay debt positive in every seed, so each
    # round sweeps delay levels and round times do not hinge on the seed.
    "privacy_hetero": {
        "policy": "lyapunov",
        # Each experiment pays about 12 s of accountant set-up, so two per run.
        "min_runs": 2,
        "config": dict(
            rounds=250,
            d_avg_margin=0.9,
            sigma_hat=0.8,
            eps_min=4.0,
            eps_max=20.0,
            num_clients=24,
            num_channels=4,
            partition="sizes",
            partition_sizes=tuple(range(40, 280, 10)),
            num_train=4000,
            feature_dim=20,
            tau=10,
            batch_size=5,
        ),
        "smoke": dict(
            rounds=3, num_clients=4, num_channels=2, partition_sizes=(40, 50, 60, 70), num_train=400
        ),
    },
    # No accountant (sigma_hat = 0). A margin below 1 keeps the delay-debt
    # queue positive, so optimal_assignment sweeps every delay level. With 200
    # calibration rounds set-up is mostly the 50-client cost-model loops of
    # baseline_schedule, long enough (about 0.3 s) to time steadily.
    "sched_wide": {
        "policy": "lyapunov",
        "min_runs": 4,
        "config": dict(
            rounds=25,
            sigma_hat=0.0,
            num_clients=50,
            num_channels=10,
            feature_dim=10,
            num_classes=4,
            tau=2,
            d_avg_margin=0.9,
            d_avg_calibration_rounds=200,
        ),
        "smoke": dict(rounds=2, num_clients=10, num_channels=4, num_train=400),
    },
    # A 784-64-10 MLP (dim 50,890) on a fixed-rate round_robin schedule: local
    # training dominates and the scheduler only runs its baseline. Equal iid
    # shards give one distinct (q, sigma) for the accountant. The separation
    # and step size let the noisy model learn within the run.
    "train_mlp": {
        "policy": "round_robin",
        "min_runs": 4,
        "config": dict(
            rounds=12,
            sigma_hat=1.0,
            eps_min=10.0,
            eps_max=20.0,
            partition="iid",
            num_train=2000,
            num_test=1000,
            feature_dim=784,
            hidden_units=64,
            separation=10.0,
            eta=0.4,
            num_clients=20,
            num_channels=5,
            tau=10,
            batch_size=16,
            s_fixed=0.3,
        ),
        "smoke": dict(rounds=2, num_train=400, num_test=200),
    },
}


def config_kwargs(name: str, seed: int, smoke: bool = False) -> dict:
    """ExperimentConfig keyword arguments for a workload at a seed."""
    spec = WORKLOADS[name]
    kwargs = dict(spec["config"], seed=seed, policies=(spec["policy"],))
    if smoke:
        kwargs.update(spec["smoke"])
    return kwargs
