"""Command-line workflows: generate, run, compare, theory; config layering."""

import numpy as np
import pytest

from fedsc.cli import _SCHEMA, RunConfig, _build_parser, _resolve_run_config, main
from fedsc.data import PartitionConfig, load_dataset, save_dataset
from fedsc.federation import FederationConfig, read_metrics_csv, usable_cpus
from fedsc.model import OptimizerConfig
from fedsc.theory import (
    TheoryConstants,
    theorem1_bound,
    theorem2_eta_threshold,
    theorem3_min_rounds,
)

TINY = [
    "--num-classes", "3", "--per-class", "24", "--dim", "3",
    "--separation", "3.0", "--num-clients", "2", "--alpha", "0.5",
    "--rounds", "2", "--local-epochs", "1", "--hidden-dim", "8",
    "--feature-dim", "4", "--threads", "1", "--seed", "7",
]


def run_cli(*argv):
    return main(list(argv))


def tiny_generate(out, extra=()):
    return run_cli("generate", *TINY, "--out", str(out), *extra)


def tiny_run(out, extra=()):
    return run_cli("run", *TINY, "--out", str(out), *extra)


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestGenerate:
    def test_writes_datasets_and_table(self, tmp_path, capsys):
        assert tiny_generate(tmp_path) == 0
        train = load_dataset(tmp_path / "train.fsd")
        test = load_dataset(tmp_path / "test.fsd")
        assert train.class_counts.tolist() == [22, 22, 22]
        assert test.class_counts.tolist() == [2, 2, 2]
        lines = capsys.readouterr().out.splitlines()
        assert "class train_count test_count" in lines
        assert lines[-3:] == ["1 22 2", "2 22 2", "3 22 2"]

    def test_long_tailed_thins_train_only(self, tmp_path):
        assert tiny_generate(tmp_path, ("--rho", "4.0")) == 0
        train = load_dataset(tmp_path / "train.fsd")
        test = load_dataset(tmp_path / "test.fsd")
        assert train.class_counts.tolist() == [22, 11, 5]
        assert test.class_counts.tolist() == [2, 2, 2]

    def test_deterministic_outputs(self, tmp_path):
        tiny_generate(tmp_path / "a")
        tiny_generate(tmp_path / "b")
        assert (tmp_path / "a" / "train.fsd").read_bytes() \
            == (tmp_path / "b" / "train.fsd").read_bytes()

    def test_bad_data_knobs_are_config_errors(self, tmp_path, capsys):
        for flag, value in (("--num-classes", "1"), ("--dim", "1"),
                            ("--per-class", "1"), ("--separation", "-2"),
                            ("--rho", "0.5"), ("--rho", "1000")):
            assert tiny_generate(tmp_path, (flag, value)) == 2, flag
            assert capsys.readouterr().err.startswith("fedsc: invalid-config:")
        assert not (tmp_path / "train.fsd").exists()


class TestRun:
    def test_writes_metrics_and_metadata(self, tmp_path, capsys):
        tiny_generate(tmp_path)
        assert tiny_run(tmp_path) == 0
        metrics = read_metrics_csv(tmp_path / "metrics_fedsc.csv")
        assert len(metrics) == 2
        assert [m.round for m in metrics] == [1, 2]
        meta = parse_kv((tmp_path / "meta_fedsc.txt").read_text())
        assert meta["seed"] == "7"
        assert meta["rounds"] == "2"
        assert meta["algorithm"] == "fedsc"
        assert meta["aggregation_weights"] == "renormalized-sigmoid"
        assert meta["bootstrap"] == "ce-only-until-prototypes-exist"
        out = capsys.readouterr().out
        assert "round 1 accuracy" in out

    def test_metadata_describes_loaded_data_not_data_flags(self, tmp_path):
        assert tiny_generate(tmp_path, ("--rho", "4")) == 0
        assert tiny_run(tmp_path, ("--num-classes", "7", "--dim", "99")) == 0
        meta = parse_kv((tmp_path / "meta_fedsc.txt").read_text())
        assert meta["num_classes"] == "3"
        assert meta["dim"] == "3"
        assert meta["train_samples"] == str(22 + 11 + 5)
        assert meta["test_samples"] == "6"
        assert not {"per_class", "separation", "rho"} & set(meta)
        assert meta["alpha"] == "0.5"
        assert meta["learning_rate"] == "0.01"

    def test_test_set_of_another_shape_is_runtime_error(self, tmp_path, capsys):
        tiny_generate(tmp_path)
        for flag, value in (("--dim", "5"), ("--num-classes", "4")):
            other = tmp_path / flag.lstrip("-")
            tiny_generate(other, (flag, value))
            (tmp_path / "test.fsd").write_bytes((other / "test.fsd").read_bytes())
            capsys.readouterr()
            assert tiny_run(tmp_path) == 3
            assert capsys.readouterr().err.startswith("fedsc: dimension-mismatch:")
            assert not (tmp_path / "metrics_fedsc.csv").exists()

    def test_empty_test_set_is_runtime_error(self, tmp_path, capsys):
        tiny_generate(tmp_path)
        test = load_dataset(tmp_path / "test.fsd")
        save_dataset(tmp_path / "test.fsd", test.subset(np.arange(0)))
        capsys.readouterr()
        assert tiny_run(tmp_path) == 3
        assert capsys.readouterr().err.startswith("fedsc: empty-dataset:")
        assert not (tmp_path / "metrics_fedsc.csv").exists()

    def test_single_round_single_row(self, tmp_path):
        tiny_generate(tmp_path)
        assert tiny_run(tmp_path, ("--rounds", "1")) == 0
        assert len(read_metrics_csv(tmp_path / "metrics_fedsc.csv")) == 1

    def test_algorithms_write_separate_files(self, tmp_path):
        tiny_generate(tmp_path)
        tiny_run(tmp_path, ("--algorithm", "fedavg"))
        tiny_run(tmp_path, ("--algorithm", "fedsc"))
        assert (tmp_path / "metrics_fedavg.csv").exists()
        assert (tmp_path / "metrics_fedsc.csv").exists()

    def test_missing_dataset_is_runtime_error(self, tmp_path):
        assert tiny_run(tmp_path / "nowhere") == 3

    def test_threads_leave_results_bitwise_identical(self, tmp_path):
        # wall_ms is measured time and legitimately differs; every other
        # column must match byte for byte across thread counts
        tiny_generate(tmp_path / "a")
        tiny_generate(tmp_path / "b")
        tiny_run(tmp_path / "a", ("--threads", "1"))
        tiny_run(tmp_path / "b", ("--threads", "3"))

        def stable_rows(path):
            lines = path.read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert stable_rows(tmp_path / "a" / "metrics_fedsc.csv") \
            == stable_rows(tmp_path / "b" / "metrics_fedsc.csv")

    def test_default_is_the_usable_cpus_and_zero_is_rejected(self, tmp_path):
        at = TINY.index("--threads")
        unpinned = TINY[:at] + TINY[at + 2:]
        tiny_generate(tmp_path)
        assert run_cli("run", *unpinned, "--out", str(tmp_path)) == 0
        meta = parse_kv((tmp_path / "meta_fedsc.txt").read_text())
        assert meta["threads"] == str(usable_cpus())
        assert tiny_run(tmp_path, ("--threads", "0")) == 2

    # forked workers inherit the suite's error::RuntimeWarning filter
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_client_errors_say_round_and_client(self, tmp_path, capsys):
        common = ["--preset", "desk", "--seed", "1", "--out", str(tmp_path)]
        assert run_cli("generate", *common) == 0
        last = []
        for threads in ("1", "2"):
            capsys.readouterr()
            assert run_cli("run", *common, "--learning-rate", "1e8", "--rounds", "2",
                           "--threads", threads) == 3
            last.append(capsys.readouterr().err.splitlines()[-1])
        assert last[0] == last[1]
        assert last[0].startswith("fedsc: nonfinite-gradient: round 1, client ")

    def test_nonfinite_feature_names_file_and_row(self, tmp_path, capsys):
        tiny_generate(tmp_path)
        train = load_dataset(tmp_path / "train.fsd")
        train.features[5, 1] = np.nan
        train.features[9, 0] = np.inf
        save_dataset(tmp_path / "train.fsd", train)
        capsys.readouterr()
        assert tiny_run(tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("fedsc: invalid-argument:")
        assert "train.fsd: row 5 " in err

    def test_repeat_run_bitwise_identical(self, tmp_path):
        tiny_generate(tmp_path / "a")
        tiny_generate(tmp_path / "b")
        tiny_run(tmp_path / "a")
        tiny_run(tmp_path / "b")
        a = [r.rsplit(",", 1)[0] for r in
             (tmp_path / "a" / "metrics_fedsc.csv").read_text().splitlines()]
        b = [r.rsplit(",", 1)[0] for r in
             (tmp_path / "b" / "metrics_fedsc.csv").read_text().splitlines()]
        assert a == b


class TestConfigLayering:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[federation]\nrounds = 5\nseed = 1\n")
        tiny_generate(tmp_path)
        assert tiny_run(tmp_path, ("--config", str(cfg))) == 0
        meta = parse_kv((tmp_path / "meta_fedsc.txt").read_text())
        # TINY pins --rounds 2 and --seed 7 on the command line
        assert meta["rounds"] == "2"
        assert meta["seed"] == "7"

    def test_config_file_overrides_preset(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[federation]\nrounds = 1\n")
        tiny = list(TINY)
        for flag in ("--rounds", "--local-epochs"):
            idx = tiny.index(flag)
            del tiny[idx : idx + 2]
        tiny_generate(tmp_path)
        assert run_cli("run", *tiny, "--out", str(tmp_path), "--preset", "desk",
                       "--config", str(cfg)) == 0
        meta = parse_kv((tmp_path / "meta_fedsc.txt").read_text())
        assert meta["rounds"] == "1"       # file beats preset
        assert meta["local_epochs"] == "5" # preset value survives

    def test_config_file_sections(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[data]\nper_class = 30\n"
            "[partition]\nalpha = 1.0\n"
            "[output]\ndir = %s\n" % tmp_path
        )
        args = [a for a in TINY]
        for flag in ("--per-class", "--alpha"):
            idx = args.index(flag)
            del args[idx : idx + 2]
        assert run_cli("generate", *args, "--config", str(cfg)) == 0
        train = load_dataset(tmp_path / "train.fsd")
        assert train.class_counts.tolist() == [27, 27, 27]

    def test_rho_is_a_data_key(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\nrho = 4\n")
        assert tiny_generate(tmp_path / "ini", ("--config", str(cfg))) == 0
        assert tiny_generate(tmp_path / "flag", ("--rho", "4")) == 0
        assert (tmp_path / "ini" / "train.fsd").read_bytes() \
            == (tmp_path / "flag" / "train.fsd").read_bytes()
        for key in ("rho = 4", "inner_scheme = dirichlet"):
            cfg.write_text(f"[partition]\n{key}\n")
            assert tiny_generate(tmp_path, ("--config", str(cfg))) == 2

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        assert tiny_generate(tmp_path, ("--seed", "-1")) == 2
        assert tiny_run(tmp_path, ("--seed", "-1")) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["fedsc: invalid-config: seed must be >= 0"] * 2

    def test_zero_layer_size_rejected_before_reading(self, tmp_path):
        # the dataset directory does not exist: reading it would exit 3
        for flag in ("--hidden-dim", "--feature-dim"):
            assert tiny_run(tmp_path / "nowhere", (flag, "0")) == 2

    def test_environment_does_not_set_the_seed(self, tmp_path, monkeypatch):
        def generate_and_run(out):
            assert tiny_generate(out) == 0
            assert tiny_run(out) == 0
            # every metrics column but the measured wall_ms
            rows = [row.rsplit(",", 1)[0] for row in
                    (out / "metrics_fedsc.csv").read_text().splitlines()]
            return rows, (out / "meta_fedsc.txt").read_bytes()

        monkeypatch.delenv("FEDSC_SEED", raising=False)
        plain = generate_and_run(tmp_path / "plain")
        monkeypatch.setenv("FEDSC_SEED", "99")
        assert generate_and_run(tmp_path / "env") == plain
        assert parse_kv(plain[1].decode())["seed"] == "7"

    def test_unknown_preset(self, tmp_path):
        assert run_cli("generate", "--preset", "lab",
                       "--out", str(tmp_path)) == 2

    def test_unknown_section_and_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[training]\nrounds = 2\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path)) == 2
        cfg.write_text("[federation]\nrunds = 2\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path)) == 2
        assert "invalid-config" in capsys.readouterr().err

    def test_config_sections_take_the_config_fields(self, tmp_path, capsys):
        assert {section: set(keys) for section, keys in _SCHEMA.items()} == {
            "data": {"num_classes", "per_class", "dim", "separation", "rho"},
            "partition": {"scheme", "num_clients", "alpha"},
            "federation": {
                "algorithm", "rounds", "local_epochs", "participation_fraction",
                "neighbors", "temperature", "learning_rate", "momentum",
                "weight_decay", "batch_size", "hidden_dim", "feature_dim",
                "seed", "threads",
            },
            "output": {"dir"},
        }
        # the loss terms carry no weights and CPDR has one form, so none of
        # these is a key or a flag
        cfg = tmp_path / "removed.ini"
        for key, value in (("rpcl_weight", "2"), ("cpdr_weight", "2"),
                           ("cpdr_norm", "sq")):
            cfg.write_text(f"[federation]\n{key} = {value}\n")
            for command in ("generate", "run"):
                assert run_cli(command, "--config", str(cfg),
                               "--out", str(tmp_path)) == 2
                assert capsys.readouterr().err.startswith("fedsc: invalid-config:")
                with pytest.raises(SystemExit) as info:
                    run_cli(command, *TINY, "--out", str(tmp_path),
                            "--" + key.replace("_", "-"), value)
                assert info.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "train.fsd").exists()

    def test_bad_values_are_config_errors(self, tmp_path):
        tiny_generate(tmp_path)
        assert tiny_run(tmp_path, ("--alpha", "0.0")) == 2
        assert tiny_run(tmp_path, ("--algorithm", "sgd")) == 2
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[federation]\nrounds = soon\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_empty_command_line_resolves_to_library_defaults(self):
        for command in ("generate", "run"):
            args = _build_parser().parse_args([command])
            cfg, partition, federation = _resolve_run_config(args)
            assert cfg == RunConfig()
            assert partition == PartitionConfig()
            # the command line trains on every usable CPU by default
            assert federation == FederationConfig(threads=usable_cpus())
            assert federation.optimizer == OptimizerConfig()

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "none.ini"),
                       "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(
            "fedsc: invalid-config: cannot read config file:")

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"[data]\ndim = \xff\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("fedsc: invalid-config:")

    def test_nonfinite_floats_are_config_errors(self, tmp_path, capsys):
        # --separation nan used to overflow inside numpy, --learning-rate nan
        # to train until the first step, --alpha nan to be accepted
        for flag in ("--separation", "--learning-rate", "--alpha",
                     "--temperature", "--weight-decay"):
            for value in ("nan", "inf", "-inf"):
                assert tiny_generate(tmp_path, (f"{flag}={value}",)) == 2
                err = capsys.readouterr().err
                assert err.startswith("fedsc: invalid-config:"), (flag, value)
                assert "must be finite" in err
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[federation]\nmomentum = nan\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path)) == 2
        assert not (tmp_path / "train.fsd").exists()


class TestCompare:
    def write_csv(self, path, accs):
        from fedsc.federation import RoundMetrics, write_metrics_csv

        rows = [RoundMetrics(i + 1, a, 1.0, 1.0, 0.0, 0.0, 5.0)
                for i, a in enumerate(accs)]
        write_metrics_csv(path, rows)

    def test_report_values(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_csv(a, [0.5, 0.8, 0.9])
        self.write_csv(b, [0.85, 0.9, 0.95])
        assert run_cli("compare", str(a), str(b)) == 0
        report = parse_kv(capsys.readouterr().out)
        assert report["final_accuracy_a"] == "0.900000"
        assert report["final_accuracy_b"] == "0.950000"
        assert report["delta_final_accuracy"] == "0.050000"
        assert report["threshold"] == "0.810000"
        assert report["rounds_to_threshold_a"] == "3"
        assert report["rounds_to_threshold_b"] == "1"
        assert report["delta_rounds_to_threshold"] == "-2"

    def test_identical_files_zero_delta(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        self.write_csv(a, [0.4, 0.6])
        assert run_cli("compare", str(a), str(a)) == 0
        report = parse_kv(capsys.readouterr().out)
        assert report["delta_final_accuracy"] == "0.000000"
        assert report["delta_rounds_to_threshold"] == "0"

    def test_unreached_threshold_prints_none(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_csv(a, [0.5, 0.9])
        self.write_csv(b, [0.1, 0.2])
        assert run_cli("compare", str(a), str(b), "--threshold", "0.85") == 0
        report = parse_kv(capsys.readouterr().out)
        assert report["rounds_to_threshold_b"] == "none"
        assert report["delta_rounds_to_threshold"] == "none"

    def test_nonfinite_threshold_is_config_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        self.write_csv(a, [0.4, 0.6])
        for value in ("nan", "inf", "-inf"):
            assert run_cli("compare", str(a), str(a),
                           f"--threshold={value}") == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("fedsc: invalid-config:"), value
            assert captured.out == ""

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert run_cli("compare", str(tmp_path / "x.csv"),
                       str(tmp_path / "y.csv")) == 3

    def test_header_only_file_is_runtime_error(self, tmp_path, capsys):
        empty, good = tmp_path / "empty.csv", tmp_path / "good.csv"
        self.write_csv(empty, [])
        self.write_csv(good, [0.5])
        for a, b in ((empty, good), (good, empty)):
            assert run_cli("compare", str(a), str(b)) == 3
            assert capsys.readouterr().err == (
                "fedsc: invalid-argument: metrics files must contain at least one round\n")

    def test_malformed_csv_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("round,acc\n1,0.5\n")
        good = tmp_path / "good.csv"
        self.write_csv(good, [0.5])
        assert run_cli("compare", str(bad), str(good)) == 3

    def test_non_utf8_csv_is_malformed(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        self.write_csv(good, [0.5])
        bad = tmp_path / "bad.csv"
        bad.write_bytes(good.read_bytes() + b"2,\xff,1,1,0,0,5\n")
        assert run_cli("compare", str(good), str(bad)) == 3
        assert capsys.readouterr().err.startswith("fedsc: malformed-csv:")


    def test_nonfinite_values_are_malformed(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        self.write_csv(good, [0.5])
        bad = tmp_path / "bad.csv"
        for accs, line in (([float("nan"), float("inf")], 2), ([0.5, float("inf")], 3)):
            self.write_csv(bad, accs)
            assert run_cli("compare", str(good), str(bad)) == 3
            err = capsys.readouterr().err
            assert err.startswith("fedsc: malformed-csv:")
            assert f"bad.csv: line {line}: accuracy is " in err


class TestTheoryCommand:
    BASE = (
        "l1 = 1.0\nl2 = 0.0\nb = 1.0\nsigma_sq = 1.0\n"
        "num_classes = 10\nm = 1\nlocal_epochs = 1\neta = 0.1\n"
    )

    def test_full_report(self, tmp_path, capsys):
        path = tmp_path / "constants.txt"
        path.write_text(self.BASE + "l_re = 1.0\nxi = 1.0\nl0 = 2.0\nl_star = 0.5\n")
        assert run_cli("theory", str(path)) == 0
        report = parse_kv(capsys.readouterr().out)
        c = TheoryConstants(l1=1.0, l2=0.0, b=1.0, sigma_sq=1.0, num_classes=10,
                            m=1, local_epochs=1, eta=0.1, xi=1.0, l0=2.0,
                            l_star=0.5)
        assert float(report["theorem1_bound"]) == pytest.approx(
            theorem1_bound(1.0, c), abs=1e-6)
        assert float(report["theorem2_eta_threshold"]) == pytest.approx(
            theorem2_eta_threshold(c), abs=1e-6)
        plan = theorem3_min_rounds(c)
        assert float(report["theorem3_min_rounds"]) == pytest.approx(
            plan.min_rounds, abs=1e-6)
        assert float(report["theorem3_eta_max"]) == pytest.approx(
            plan.eta_max, abs=1e-6)

    def test_sections_optional_without_l_re_and_xi(self, tmp_path, capsys):
        path = tmp_path / "constants.txt"
        path.write_text(self.BASE)
        assert run_cli("theory", str(path)) == 0
        report = parse_kv(capsys.readouterr().out)
        assert list(report) == ["theorem2_eta_threshold"]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "constants.txt"
        path.write_text("# gradient bound\n\n" + self.BASE)
        assert run_cli("theory", str(path)) == 0

    def test_unknown_or_missing_keys_are_config_errors(self, tmp_path, capsys):
        path = tmp_path / "constants.txt"
        path.write_text(self.BASE + "zeta = 1.0\n")
        assert run_cli("theory", str(path)) == 2
        path.write_text("l1 = 1.0\n")
        capsys.readouterr()
        assert run_cli("theory", str(path)) == 2
        assert capsys.readouterr().err == (
            "fedsc: invalid-constants: missing constants: "
            "l2, b, sigma_sq, num_classes, m, local_epochs, eta\n")
        path.write_text(self.BASE.replace("eta = 0.1", "eta = fast"))
        assert run_cli("theory", str(path)) == 2

    def test_infeasible_constants_are_runtime_errors(self, tmp_path):
        path = tmp_path / "constants.txt"
        path.write_text(self.BASE.replace("l2 = 0.0", "l2 = 10.0"))
        assert run_cli("theory", str(path)) == 3

    def test_missing_file_is_config_error(self, tmp_path):
        assert run_cli("theory", str(tmp_path / "none.txt")) == 2

    def test_non_utf8_file_is_constants_error(self, tmp_path, capsys):
        path = tmp_path / "constants.txt"
        path.write_bytes(self.BASE.encode() + b"# \xff\n")
        assert run_cli("theory", str(path)) == 2
        assert capsys.readouterr().err.startswith("fedsc: invalid-constants:")

    def test_nonfinite_constants_are_constants_errors(self, tmp_path, capsys):
        path = tmp_path / "constants.txt"
        for value in ("nan", "inf", "-inf", "1e999"):
            path.write_text(self.BASE.replace("b = 1.0", f"b = {value}"))
            assert run_cli("theory", str(path)) == 2
            assert capsys.readouterr().err.startswith(
                "fedsc: invalid-constants: line 3: b must be finite")

    def test_numpy_independent_spot_check(self, tmp_path, capsys):
        # printed values must match a plain-arithmetic evaluation
        path = tmp_path / "constants.txt"
        path.write_text(
            "l1 = 2.0\nl2 = 0.01\nb = 1.5\nsigma_sq = 0.5\n"
            "num_classes = 4\nm = 2\nlocal_epochs = 3\neta = 0.05\n"
            "l_re = 2.5\n"
        )
        assert run_cli("theory", str(path)) == 0
        report = parse_kv(capsys.readouterr().out)
        descent = (0.05 - 2.0 * 0.05**2 / 2) * 3 * 1.5**2
        noise = 2.0 * 3 * 0.05**2 / 2 * 0.5
        drift = 0.01 * 3 * 0.05 * 4 * 1.5 * 4 / 3
        assert float(report["theorem1_bound"]) == pytest.approx(
            2.5 - descent + noise + drift, abs=1e-6)
