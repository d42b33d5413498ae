import csv
import dataclasses
import gzip
import re
from pathlib import Path

import numpy as np
import pytest

from sparsefl.cli import emit_metrics_csv, main
from sparsefl.config import (
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    validate_config,
)
from sparsefl.scheduler import BASELINE_POLICIES
from sparsefl.simulator import CSV_COLUMNS, build_state, run_experiment

from conftest import fast_config
from test_model_data import write_idx_images, write_idx_labels

FAST_TEXT = """
seed = 11
rounds = 4
num_clients = 6
num_channels = 2
num_train = 720
num_test = 90
feature_dim = 8
num_classes = 4
tau = 5
batch_size = 5
sigma_hat = 1.5
d_avg_calibration_rounds = 3
"""


def write_cfg(tmp_path, text=FAST_TEXT, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_config_is_all_defaults():
    cfg = parse_config_text("")
    assert cfg == ExperimentConfig()
    assert cfg.num_clients == 20
    assert cfg.num_channels == 5
    assert cfg.bandwidth_hz == 15e3
    assert cfg.lam == 50.0
    assert cfg.delta == 1e-3


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n### ", 1)[0]
    named = set(re.findall(r"`([a-z0-9_]+)`", section))
    missing = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in named]
    assert not missing, f"README 'Config keys' does not name {missing}"


def test_readme_example_config_gives_every_client_an_upload():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```\n(# exp\.cfg\n.*?)```", readme, flags=re.S)
    assert len(blocks) == 1, "README should hold one '# exp.cfg' block"
    cfg = parse_config_text(blocks[0])
    state = build_state(cfg, cfg.policies[0])
    assert np.all(state.t_hats >= 1), state.t_hats.tolist()


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# a comment\n\nrounds = 9\n  # indented comment\n")
    assert cfg.rounds == 9


def test_unknown_key_error_names_it():
    with pytest.raises(ConfigError, match="foo"):
        parse_config_text("foo = 3")
    for retired in ("divergence_eps = 0.1", "loop_max_iters = 50", "loop_tol = 1e-6"):
        with pytest.raises(ConfigError, match=f"unknown key '{retired.split()[0]}'"):
            parse_config_text(retired)


def test_range_error_names_the_key():
    with pytest.raises(ConfigError, match="num_clients"):
        parse_config_text("num_clients = -3")
    cfg = ExperimentConfig(num_clients=-3)
    with pytest.raises(ConfigError, match="num_clients"):
        validate_config(cfg)


def test_bad_value_reports_source_and_line():
    with pytest.raises(ConfigError, match=r"exp\.cfg:2.*rounds"):
        parse_config_text("seed = 1\nrounds = oops\n", source="exp.cfg")
    with pytest.raises(ConfigError, match=r"exp\.cfg:2: bad value for 'adaptive_clip'"):
        parse_config_text("seed = 1\nadaptive_clip = maybe\n", source="exp.cfg")


def test_boolean_values_parse():
    for raw, want in (("true", True), ("false", False), ("yes", True), ("no", False),
                      ("1", True), ("0", False)):
        assert parse_config_text(f"adaptive_clip = {raw}\n").adaptive_clip is want


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match=r":2:.*'rounds'.*more than once"):
        parse_config_text("rounds = 5\nrounds = 6\n")


def test_missing_separator_rejected():
    with pytest.raises(ConfigError, match=r":1:.*key = value"):
        parse_config_text("rounds 5")


def test_policy_list_parsing():
    cfg = parse_config_text("policies = lyapunov, random\n")
    assert cfg.policies == ("lyapunov", "random")
    with pytest.raises(ConfigError, match="policies"):
        validate_config(parse_config_text("policies = lyapunov, surprise"))


def test_csv_columns_and_row_counts(tmp_path):
    cfg = fast_config(rounds=3)
    traces = [run_experiment(cfg, "lyapunov"), run_experiment(cfg, "random")]
    out = str(tmp_path / "m.csv")
    emit_metrics_csv(traces, out)
    with open(out, newline="") as fh:
        reader = list(csv.reader(fh))
    assert reader[0] == list(CSV_COLUMNS)
    assert len(reader) == 1 + 2 * 3
    policies = [row[1] for row in reader[1:]]
    assert policies == ["lyapunov"] * 3 + ["random"] * 3


def test_csv_round_trips_at_nine_digits(tmp_path):
    cfg = fast_config(rounds=3)
    trace = run_experiment(cfg, "lyapunov")
    out = str(tmp_path / "m.csv")
    emit_metrics_csv([trace], out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for parsed, row in zip(rows, trace.rows):
        assert int(parsed["round"]) == row.round
        assert int(parsed["participants"]) == row.participants
        assert int(parsed["eligible"]) == row.eligible
        for col in ("accuracy", "loss", "round_delay_s", "cum_delay_s", "mean_s",
                    "q_de", "max_q_fa", "term_sparsification", "term_dp"):
            assert float(parsed[col]) == pytest.approx(getattr(row, col), rel=1e-8)


def test_cum_delay_column_nondecreasing(tmp_path):
    cfg = fast_config(rounds=5)
    out = str(tmp_path / "m.csv")
    emit_metrics_csv([run_experiment(cfg, "round_robin")], out)
    with open(out, newline="") as fh:
        values = [float(r["cum_delay_s"]) for r in csv.DictReader(fh)]
    assert values == sorted(values)


def test_emit_rejects_empty_trace_list(tmp_path):
    with pytest.raises(ValueError):
        emit_metrics_csv([], str(tmp_path / "m.csv"))


def test_cli_run_twice_byte_identical(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["run", "--config", cfg_path, "--policy", "lyapunov", "--out", a]) == 0
    assert main(["run", "--config", cfg_path, "--policy", "lyapunov", "--out", b]) == 0
    out = capsys.readouterr().out
    assert "lyapunov" in out
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_cli_seed_override_changes_output(tmp_path):
    cfg_path = write_cfg(tmp_path)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    main(["run", "--config", cfg_path, "--policy", "random", "--out", a])
    main(["run", "--config", cfg_path, "--policy", "random", "--seed", "99", "--out", b])
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() != fb.read()


def test_cli_missing_config_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_cli_unreadable_config_exits_nonzero(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_bad_policy_exits_nonzero(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    code = main(["run", "--config", cfg_path, "--policy", "psychic"])
    assert code == 2
    assert "policies" in capsys.readouterr().err


def test_cli_repeated_policy_is_config_error(tmp_path, capsys):
    """A policy named twice would run twice and write duplicate (round, policy) rows."""
    cfg_path = write_cfg(tmp_path, FAST_TEXT + "policies = round_robin, round_robin\n")
    out = tmp_path / "m.csv"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert "policies: names a policy twice" in capsys.readouterr().err
    assert not out.exists()


def test_cli_degenerate_budget_exit_code(tmp_path, capsys):
    text = FAST_TEXT + "eps_min = 0.1\neps_max = 0.1\n"
    cfg_path = write_cfg(tmp_path, text=text)
    code = main(["run", "--config", cfg_path, "--policy", "lyapunov"])
    assert code == 1
    assert "privacy error" in capsys.readouterr().err


def test_cli_noise_too_small_to_account_is_a_privacy_error(tmp_path, capsys):
    """At sigma_hat 0.001 no client can afford a round."""
    cfg_path = write_cfg(tmp_path, text=FAST_TEXT.replace("sigma_hat = 1.5", "sigma_hat = 0.001"))
    code = main(["run", "--config", cfg_path, "--policy", "lyapunov"])
    assert code == 1
    assert "privacy error" in capsys.readouterr().err


def test_cli_diverging_training_is_a_training_error(tmp_path, capsys):
    """A step so large the loss overflows ends the run with one line, not a traceback."""
    text = (
        "hidden_units = 4\neta = 1e308\nsigma_hat = 0\nnum_clients = 4\n"
        "num_channels = 2\nrounds = 5\n"
    )
    out = tmp_path / "m.csv"
    code = main(["run", "--config", write_cfg(tmp_path, text=text), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "training error: non-finite loss or gradient for client 0 in round 0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ("noise_dbm = 4000", "config error: noise_dbm: "),
        ("max_power_dbm = -4000", "config error: max_power_dbm: "),
        ("interference_dbm = 4000", "config error: interference_dbm: "),
        ("downlink_power_dbm = -300", "link error: downlink rates must be positive"),
        ("area_side_m = 1e12", "link error: downlink rates must be positive"),
        ("max_power_dbm = -300\npolicies = round_robin", "link error: link rates must be positive"),
    ],
    ids=["noise", "max_power", "interference", "downlink_power", "area_side", "uplink_power"],
)
def test_cli_radio_values_that_leave_no_link_end_in_one_line(tmp_path, capsys, extra, message):
    """A dBm value without a positive, finite wattage is a config error (exit 2); a link
    whose rate rounds to zero is a link error (exit 1). Neither ends in a traceback."""
    text = FAST_TEXT.replace("rounds = 4", "rounds = 2") + extra + "\n"
    out = tmp_path / "m.csv"
    code = main(["run", "--config", write_cfg(tmp_path, text=text), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == (2 if message.startswith("config") else 1)
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_cli_lyapunov_rounds_without_a_live_uplink_are_empty(tmp_path, capsys):
    """An uplink whose full-power rate rounds to zero is no edge, so each round is empty."""
    text = FAST_TEXT.replace("rounds = 4", "rounds = 2") + (
        "max_power_dbm = -300\npolicies = lyapunov\nd_avg_s = 1.0\ninterference_dbm = -4000\n"
    )
    out = tmp_path / "m.csv"
    code = main(["run", "--config", write_cfg(tmp_path, text=text), "--out", str(out)])
    assert code == 0 and capsys.readouterr().err == ""
    with open(out) as f:
        assert [row["participants"] for row in csv.DictReader(f)] == ["0", "0"]


@pytest.mark.parametrize("policy", BASELINE_POLICIES)
def test_cli_baseline_rate_below_the_lyapunov_floor_runs(tmp_path, policy):
    """s_th is the optimizing policy's floor; s_fixed below it is a valid baseline rate."""
    text = (
        "rounds = 2\nnum_clients = 4\nnum_channels = 2\nnum_train = 200\n"
        "num_test = 50\ntau = 2\nsigma_hat = 0\ns_fixed = 0.01\n"
    )
    out = str(tmp_path / "m.csv")
    code = main(["run", "--config", write_cfg(tmp_path, text=text), "--policy", policy, "--out", out])
    assert code == 0


def test_cli_unwritable_output_exit_code(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    code = main(
        ["run", "--config", cfg_path, "--policy", "random",
         "--out", str(tmp_path / "missing_dir" / "m.csv")]
    )
    assert code == 3
    assert "io error" in capsys.readouterr().err


def test_cli_partition_sizes_above_num_train_is_config_error(tmp_path, capsys):
    text = (
        "rounds = 2\nnum_clients = 2\nnum_channels = 1\nnum_train = 400\n"
        "partition = sizes\npartition_sizes = 300, 300\n"
    )
    cfg_path = write_cfg(tmp_path, text=text)
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "m.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "partition_sizes" in err
    assert "num_train = 400" in err


@pytest.mark.parametrize("short", ["num_train", "num_test"])
def test_cli_short_mnist_file_is_config_error(tmp_path, capsys, short):
    """An IDX file with fewer samples than num_train or num_test exits 2, naming the key."""
    rng = np.random.default_rng(3)
    files = {"train": 400, "test": 60}
    files[short.removeprefix("num_")] = 50
    text = (
        "rounds = 2\nnum_clients = 2\nnum_channels = 1\nnum_train = 400\nnum_test = 60\n"
        "num_classes = 4\npartition = sizes\npartition_sizes = 100, 100\ndataset = mnist\n"
    )
    for name, count in files.items():
        images, labels = tmp_path / f"{name}_images.idx", tmp_path / f"{name}_labels.idx"
        write_idx_images(images, rng.integers(0, 256, size=(count, 4, 4)))
        write_idx_labels(labels, rng.integers(0, 4, size=count))
        text += f"mnist_{name}_images = {images}\nmnist_{name}_labels = {labels}\n"
    cfg_path = write_cfg(tmp_path, text=text)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{short}: the" in err and "hold 50 samples" in err


def write_mnist_cfg(tmp_path, image_shapes):
    """A two-round MNIST config over IDX files with the given {split: (n, rows, cols)}."""
    rng = np.random.default_rng(5)
    text = (
        "rounds = 2\nnum_clients = 2\nnum_channels = 1\nnum_train = 40\nnum_test = 10\n"
        "num_classes = 4\nsigma_hat = 0\ndataset = mnist\n"
    )
    for name, shape in image_shapes.items():
        images, labels = tmp_path / f"{name}_images.idx", tmp_path / f"{name}_labels.idx"
        write_idx_images(images, rng.integers(0, 256, size=shape))
        write_idx_labels(labels, rng.integers(0, 4, size=shape[0]))
        text += f"mnist_{name}_images = {images}\nmnist_{name}_labels = {labels}\n"
    return write_cfg(tmp_path, text=text)


@pytest.mark.parametrize(
    "key, damage",
    [
        ("mnist_train_labels", "magic"),
        ("mnist_test_images", "truncate"),
        ("mnist_test_labels", "truncate_gzip"),
        ("mnist_train_images", "corrupt_gzip"),
        ("mnist_test_labels", "count"),
        ("mnist_train_images", "missing"),
        ("mnist_test_labels", "label_range"),
    ],
)
def test_cli_malformed_mnist_file_is_config_error(tmp_path, capsys, key, damage):
    """A malformed or missing IDX file, a label count unlike the image count, or a
    label at or above num_classes exits 2; the last names num_classes, not the file."""
    cfg_path = write_mnist_cfg(tmp_path, {"train": (40, 4, 4), "test": (10, 4, 4)})
    bad = tmp_path / (key.removeprefix("mnist_") + ".idx")
    raw = bad.read_bytes()
    if damage == "magic":
        bad.write_bytes(b"\x00\x00\x09\x99" + raw[4:])
    elif damage == "truncate":
        bad.write_bytes(raw[:-3])
    elif damage == "truncate_gzip":
        bad.write_bytes(gzip.compress(raw)[:-12])
    elif damage == "corrupt_gzip":
        packed = gzip.compress(raw)
        bad.write_bytes(packed[:10] + b"\xff" * 10 + packed[20:])
    elif damage == "count":
        write_idx_labels(bad, np.zeros(7, dtype=int))
    elif damage == "label_range":
        write_idx_labels(bad, np.full(10, 4))
        key = "num_classes"
    else:
        bad.unlink()
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "m.csv")]) == 2
    assert f"config error: {key}: " in capsys.readouterr().err


def test_cli_test_images_of_another_size_is_config_error(tmp_path, capsys):
    """Test images whose pixel count differs from the training images' exit 2 before round 1."""
    cfg_path = write_mnist_cfg(tmp_path, {"train": (40, 4, 4), "test": (10, 5, 5)})
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error: mnist_test_images:" in err and "25 pixels" in err


def test_cli_truncation_note(tmp_path, capsys):
    text = FAST_TEXT.replace("rounds = 4", "rounds = 20")
    text += "eps_min = 0.5\neps_max = 0.5\n"
    cfg_path = write_cfg(tmp_path, text=text)
    code = main(["run", "--config", cfg_path, "--policy", "round_robin",
                 "--out", str(tmp_path / "m.csv")])
    assert code == 0
    assert "retired everyone at round 12" in capsys.readouterr().out


def test_cli_summary_counts_clients_born_exhausted(tmp_path, capsys):
    text = FAST_TEXT.replace("sigma_hat = 1.5", "sigma_hat = 0.5")
    cfg_path = write_cfg(tmp_path, text=text + "eps_min = 1.0\neps_max = 20.0\n")
    out_csv = str(tmp_path / "m.csv")
    assert main(["run", "--config", cfg_path, "--policy", "round_robin", "--out", out_csv]) == 0
    assert "1 of 6 clients born exhausted (t_hat = 0)" in capsys.readouterr().out
    assert main(["run", "--config", write_cfg(tmp_path, name="b.cfg"), "--out", out_csv]) == 0
    assert "0 of 6 clients born exhausted (t_hat = 0)" in capsys.readouterr().out


def test_verify_subcommand_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "8 of 8" in out
    assert "PASS  joint-round-energy" in out
    assert "PASS  accountant-fractional" in out


def test_all_floats_in_csv_are_finite(tmp_path):
    cfg = fast_config(rounds=4)
    out = str(tmp_path / "m.csv")
    emit_metrics_csv([run_experiment(cfg, p) for p in ("lyapunov", "random")], out)
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            for col in CSV_COLUMNS:
                if col == "policy":
                    continue
                assert np.isfinite(float(row[col]))
