"""CLI subcommands: self-checks, sweeps, profiling, comparison, error paths."""

import argparse

import numpy as np
import pytest

from entroprop import cli
from entroprop.cli import main, parse_config_file, star_tier, write_csv
from entroprop.datasets import MNIST_FILES, write_cifar10, write_idx
from entroprop.nets import Conv2D, Dense, NetworkSpec, init_weights
from entroprop.synthetic import write_synthetic_mnist
from entroprop.weights_io import write_dump


@pytest.fixture(scope="module")
def mnist_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("mnist")
    write_synthetic_mnist(path, 300, 120, seed=1)
    return path


def run_cli(args):
    return main([str(a) for a in args])


class TestOracleCheck:
    def test_default_passes(self, capsys):
        assert run_cli(["oracle-check", "--max-dim", "6", "--cases", "60"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 4

    def test_corrupted_formula_fails(self, capsys):
        code = run_cli(["oracle-check", "--max-dim", "6", "--cases", "40",
                        "--self-test-corrupt"])
        assert code != 0
        assert "FAIL" in capsys.readouterr().out

    def test_ill_conditioned_draw_is_redrawn(self, capsys):
        # This case seed draws a W' with condition number ~1e5, which once
        # failed the 1e-8 tolerance on correct code.
        assert run_cli(["oracle-check", "--max-dim", "10", "--seed", "24004"]) == 0
        assert capsys.readouterr().out.count("ok ") == 4

    def test_max_dim_one_degenerate_cases(self):
        assert run_cli(["oracle-check", "--max-dim", "1", "--cases", "20"]) == 0

    def test_max_dim_out_of_range(self, capsys):
        code = run_cli(["oracle-check", "--max-dim", "40"])
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error[")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cases", ["0", "-5"])
    def test_nonpositive_cases_rejected(self, cases, capsys):
        # Zero cases would print four "ok" lines having checked nothing.
        assert run_cli(["oracle-check", "--cases", cases]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[config]")

    def test_negative_seed_rejected(self, capsys):
        assert run_cli(["oracle-check", "--cases", "5", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[config]")
        assert captured.err.count("\n") == 1


class TestTrainSweep:
    def test_single_row_sweep(self, mnist_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli([
            "train-ae", "--data-dir", mnist_dir, "--out-dir", out,
            "--latent", "6", "--lambda", "0", "--replications", "1",
            "--max-epochs", "1", "--seed", "5",
        ])
        assert code == 0
        lines = (out / "runs.csv").read_text().splitlines()
        assert lines[0] == ("architecture,lambda,seed,replication,"
                            "stopping_epoch,final_train_loss,final_val_metric")
        assert len(lines) == 2
        assert lines[1].startswith("latent6,0,5,0,1,")
        assert (out / "config_used.txt").exists()
        assert (out / "timings.csv").exists()

    def test_zero_lambda_matches_dedicated_baseline(self, mnist_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out, lams in ((out1, "0"), (out2, "0,0.01")):
            assert run_cli([
                "train-ae", "--data-dir", mnist_dir, "--out-dir", out,
                "--latent", "6", "--lambda", lams, "--replications", "1",
                "--max-epochs", "2", "--seed", "3",
            ]) == 0
        base_row = (out1 / "runs.csv").read_text().splitlines()[1]
        mixed_rows = (out2 / "runs.csv").read_text().splitlines()
        assert base_row in mixed_rows

    def test_rerun_byte_identical(self, mnist_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli([
                "train-ae", "--data-dir", mnist_dir, "--out-dir", out,
                "--latent", "6", "--lambda", "0,0.01", "--replications", "2",
                "--max-epochs", "2", "--seed", "7", "--subset", "0.5",
            ]) == 0
            outs.append(out)
        for name in ("runs.csv", "aggregate.csv", "grid.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_config_used_reruns_the_sweep(self, mnist_dir, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli([
            "train-ae", "--data-dir", mnist_dir, "--out-dir", first,
            "--latent", "6,4", "--lambda", "0,0.01", "--layers", "2,1",
            "--replications", "2", "--max-epochs", "2", "--seed", "7",
            "--subset", "0.5",
        ]) == 0
        assert run_cli(["train-ae", "--config", first / "config_used.txt",
                        "--out-dir", second]) == 0
        for name in ("runs.csv", "aggregate.csv", "grid.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        echoed = (first / "config_used.txt").read_text()
        assert "latents = 6,4\n" in echoed
        assert "entropy_loss_layers = 1,2\n" in echoed
        keys = [line.split(" = ")[0] for line in echoed.splitlines()]
        assert "task" not in keys and "min_delta" not in keys  # min_delta is None
        assert (second / "config_used.txt").read_text() == echoed.replace(
            f"out_dir = {first}\n", f"out_dir = {second}\n")

    def test_grid_antisymmetric_cells(self, mnist_dir, tmp_path):
        out = tmp_path / "grid"
        assert run_cli([
            "train-ae", "--data-dir", mnist_dir, "--out-dir", out,
            "--latent", "6", "--lambda", "0,0.01", "--replications", "2",
            "--max-epochs", "2", "--seed", "0",
        ]) == 0
        header, rows = _read_grid(out / "grid.csv")
        cells = {(r[0], r[2], r[3]): r[4] for r in rows}
        flips = {"+": "-", "-": "+", "": ""}
        for (metric, a, b), cell in cells.items():
            assert cells[(metric, b, a)] == flips[cell]

    def test_missing_data_dir_fails_cleanly(self, tmp_path, capsys):
        code = run_cli([
            "train-ae", "--data-dir", tmp_path / "nope", "--out-dir",
            tmp_path / "o", "--latent", "4", "--lambda", "0",
            "--replications", "1", "--max-epochs", "1",
        ])
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error[")

    def test_corrupt_gzip_data_fails_cleanly(self, tmp_path, capsys):
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                     "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            (tmp_path / f"{name}.gz").write_bytes(b"\x1f\x8b\x08\x00")
        code = run_cli(["train-ae", "--data-dir", tmp_path, "--latent", "6",
                        "--max-epochs", "1", "--out-dir", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[format]") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_config_file_with_flag_override(self, mnist_dir, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "latents = 6\n"
            "lambda = 0\n"
            "replications = 1\n"
            "max_epochs = 1\n"
            "seed = 2\n"
            f"data_dir = {mnist_dir}\n"
            f"out_dir = {tmp_path / 'cfg_out'}\n"
        )
        assert run_cli(["train-ae", "--config", cfg, "--seed", "9"]) == 0
        runs = (tmp_path / "cfg_out" / "runs.csv").read_text()
        assert "latent6,0,9,0," in runs

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("latnet = 6\n")
        code = run_cli(["train-ae", "--config", cfg, "--data-dir", tmp_path,
                        "--out-dir", tmp_path / "o"])
        assert code != 0
        assert "error[config]" in capsys.readouterr().err

    def _assert_config_error_before_run(self, code, capsys, out):
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[config]")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err
        assert not (out / "config_used.txt").exists()

    def test_unparsable_config_value_rejected(self, mnist_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lambda = abc\n")
        out = tmp_path / "o"
        code = run_cli(["train-ae", "--config", cfg, "--data-dir", mnist_dir,
                        "--out-dir", out, "--latent", "4", "--max-epochs", "1"])
        self._assert_config_error_before_run(code, capsys, out)

    @pytest.mark.parametrize("flags", [
        ["--eps", "-1"], ["--lambda", "nan"], ["--subset", "2"],
        ["--alpha", "1.5"], ["--latent", "0"], ["--max-epochs", "0"],
    ], ids=["eps", "lambda", "subset", "alpha", "latent", "max-epochs"])
    def test_invalid_value_rejected_before_loading(self, flags, tmp_path, capsys,
                                                   monkeypatch):
        def no_loading(config):
            raise AssertionError("data loaded for an invalid config")

        monkeypatch.setattr(cli, "_load_splits", no_loading)
        out = tmp_path / "o"
        args = {"--latent": "4", "--lambda": "0.01", "--replications": "1",
                "--max-epochs": "1"}
        args.update(zip(flags[::2], flags[1::2]))
        code = run_cli(["train-ae", "--data-dir", tmp_path, "--out-dir", out,
                        *[x for kv in args.items() for x in kv]])
        self._assert_config_error_before_run(code, capsys, out)

    @pytest.mark.parametrize("line", [
        "max_epochs = 0", "seed = -1", "init_scale = -1", "lr = nan", "lr = 0",
        "patience = 0", "batch_size = 0", "min_delta = nan",
    ])
    def test_invalid_config_value_rejected_before_loading(self, line, tmp_path,
                                                          capsys, monkeypatch):
        def no_loading(config):
            raise AssertionError("data loaded for an invalid config")

        monkeypatch.setattr(cli, "_load_splits", no_loading)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        code = run_cli(["train-ae", "--config", cfg, "--data-dir", tmp_path,
                        "--out-dir", out, "--latent", "4", "--lambda", "0.01"])
        self._assert_config_error_before_run(code, capsys, out)

    def test_hash_in_data_dir_rejected_before_loading(self, tmp_path, capsys,
                                                      monkeypatch):
        # config_used.txt could not be read back: '#' starts a comment there.
        def no_loading(config):
            raise AssertionError("data loaded for an invalid config")

        monkeypatch.setattr(cli, "_load_splits", no_loading)
        out = tmp_path / "o"
        code = run_cli(["train-ae", "--data-dir", "h#dir", "--out-dir", out,
                        "--latent", "4", "--max-epochs", "1"])
        self._assert_config_error_before_run(code, capsys, out)

    @pytest.mark.parametrize("command", ["train-ae", "train-cnn"])
    def test_every_train_flag_is_a_config_key(self, command):
        # A flag whose dest is not a config key would bypass the parsers.
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions
                 if not isinstance(a, argparse._HelpAction)}
        assert dests - {"config"} <= set(cli._PARSERS)

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
    def test_too_deep_cnn_rejected_before_loading(self, dataset, tmp_path, capsys,
                                                  monkeypatch):
        def no_loading(config):
            raise AssertionError("data loaded for an invalid config")

        # Three 3x3-conv + 2x2-pool blocks fit 28x28 and 32x32; four do not.
        cli.validate_config(cli.ExperimentConfig(task="cnn", dataset=dataset,
                                                 widths=(8, 8, 8)))
        monkeypatch.setattr(cli, "_load_splits", no_loading)
        out = tmp_path / "o"
        code = run_cli(["train-cnn", "--data-dir", tmp_path, "--out-dir", out,
                        "--dataset", dataset, "--widths", "8,8,8,8",
                        "--lambda", "0", "--replications", "1",
                        "--max-epochs", "1"])
        self._assert_config_error_before_run(code, capsys, out)

    @pytest.mark.parametrize("task", ["cnn", "bogus"])
    def test_task_is_not_a_config_key(self, task, mnist_dir, tmp_path, capsys,
                                      monkeypatch):
        def no_loading(config):
            raise AssertionError("data loaded for an invalid config")

        monkeypatch.setattr(cli, "_load_splits", no_loading)
        cfg = tmp_path / "task.cfg"
        cfg.write_text(f"task = {task}\n")
        out = tmp_path / "o"
        code = run_cli(["train-ae", "--config", cfg, "--data-dir", mnist_dir,
                        "--out-dir", out, "--latent", "4", "--max-epochs", "1"])
        self._assert_config_error_before_run(code, capsys, out)

    def _assert_format_error(self, code, capsys):
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[format]")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("subset", ["0.5", "1"])
    def test_empty_mnist_split_fails_cleanly(self, subset, tmp_path, capsys):
        for image_name, label_name in MNIST_FILES.values():
            write_idx(tmp_path / image_name, np.zeros((0, 28, 28), dtype=np.uint8))
            write_idx(tmp_path / label_name, np.zeros(0, dtype=np.uint8))
        code = run_cli(["train-ae", "--data-dir", tmp_path, "--out-dir",
                        tmp_path / "o", "--latent", "4", "--lambda", "0",
                        "--replications", "1", "--max-epochs", "1",
                        "--subset", subset])
        self._assert_format_error(code, capsys)

    def test_empty_cifar_batch_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "data_batch_1.bin").write_bytes(b"")
        write_cifar10(tmp_path / "test_batch.bin",
                      np.zeros((2, 3, 32, 32), dtype=np.uint8), np.array([0, 1]))
        code = run_cli(["train-cnn", "--data-dir", tmp_path, "--out-dir",
                        tmp_path / "o", "--widths", "2", "--lambda", "0",
                        "--replications", "1", "--max-epochs", "1"])
        self._assert_format_error(code, capsys)


def _read_grid(path):
    lines = path.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    return lines[0].split(","), rows


class TestProfile:
    def test_profile_of_trained_style_dump(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        spec = NetworkSpec((Conv2D(4, 1, 3, 3), Conv2D(4, 4, 3, 3), Dense(20, 10)))
        weights = init_weights(spec, rng)
        dump = tmp_path / "net.entw"
        write_dump(spec, weights, dump)
        code = run_cli(["profile", dump, "--input-h", "12", "--input-w", "12",
                        "--out-dir", tmp_path])
        assert code == 0
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert len(lines) == 1 + 3  # header + conv, conv, dense
        assert lines[1].split(",")[1] == "conv2d"
        assert lines[3].split(",")[1] == "dense"

    def test_unit_corner_single_filter_all_zero_deltas(self, tmp_path):
        from entroprop.nets import LayerParams

        spec = NetworkSpec((Conv2D(1, 1, 1, 1),))
        weights = [LayerParams(np.ones((1, 1, 1, 1)), np.zeros(1))]
        dump = tmp_path / "unit.entw"
        write_dump(spec, weights, dump)
        assert run_cli(["profile", dump, "--input-h", "6", "--input-w", "6",
                        "--out-dir", tmp_path]) == 0
        row = (tmp_path / "profile.csv").read_text().splitlines()[1].split(",")
        assert float(row[5]) == 0.0   # mean delta_total
        assert float(row[8]) == 0.0   # mean delta_per_element
        assert row[11] == "0"         # no outliers

    def test_scaled_filter_shifts_per_element_by_one_nat(self, tmp_path):
        base = np.zeros((1, 1, 2, 2))
        base[0, 0] = [[0.5, 1.0], [1.0, 1.0]]
        for name, kernel in (("a", base), ("b", np.e * base)):
            spec = NetworkSpec((Conv2D(1, 1, 2, 2),))
            from entroprop.nets import LayerParams

            write_dump(spec, [LayerParams(kernel, np.zeros(1))],
                       tmp_path / f"{name}.entw")
            run_cli(["profile", tmp_path / f"{name}.entw", "--input-h", "5",
                     "--input-w", "5", "--out-dir", tmp_path / name])
        row_a = (tmp_path / "a" / "profile.csv").read_text().splitlines()[1]
        row_b = (tmp_path / "b" / "profile.csv").read_text().splitlines()[1]
        pe_a = float(row_a.split(",")[8])
        pe_b = float(row_b.split(",")[8])
        assert pe_b - pe_a == pytest.approx(1.0, abs=1e-9)

    def test_zero_corners_write_neg_inf_quartiles(self, tmp_path, capsys):
        from entroprop.nets import LayerParams

        kernel = np.ones((4, 1, 3, 3))
        kernel[:3, 0, 0, 0] = 0.0
        write_dump(NetworkSpec((Conv2D(4, 1, 3, 3),)),
                   [LayerParams(kernel, np.zeros(4))], tmp_path / "z.entw")
        assert run_cli(["profile", tmp_path / "z.entw", "--input-h", "8",
                        "--input-w", "8", "--out-dir", tmp_path]) == 0
        row = (tmp_path / "profile.csv").read_text().splitlines()[1]
        assert row == "0,conv2d,4,8,8,-inf,-inf,-inf,-inf,-inf,-inf,0"
        assert capsys.readouterr().err == ""

    def test_corrupt_dump_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.entw"
        bad.write_bytes(b"NOPE" + bytes(8))
        code = run_cli(["profile", bad, "--input-h", "8", "--input-w", "8"])
        assert code != 0
        assert "error[format]" in capsys.readouterr().err

    def test_non_finite_dense_weights_fail_cleanly(self, tmp_path, capsys):
        from entroprop.nets import LayerParams

        w = np.eye(3, 4)
        w[1, 1] = np.nan
        spec = NetworkSpec((Dense(4, 3),))
        dump = tmp_path / "nan.entw"
        write_dump(spec, [LayerParams(w, np.zeros(3))], dump)
        code = run_cli(["profile", dump, "--input-h", "2", "--input-w", "2",
                        "--out-dir", tmp_path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[non-finite]")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("corner", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_conv_corner_fails_cleanly(self, corner, tmp_path, capsys):
        from entroprop.nets import LayerParams

        kernel = np.ones((2, 3, 3, 3))
        kernel[1, 2, 0, 0] = corner
        dump = tmp_path / "bad.entw"
        write_dump(NetworkSpec((Conv2D(2, 3, 3, 3),)),
                   [LayerParams(kernel, np.zeros(2))], dump)
        out = tmp_path / "out"
        code = run_cli(["profile", dump, "--input-h", "8", "--input-w", "8",
                        "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[non-finite]")
        assert err.count("\n") == 1
        assert not (out / "profile.csv").exists()


class TestCompare:
    def make_results(self, path, groups):
        rows = []
        for lam, values in groups.items():
            for i, v in enumerate(values):
                rows.append(["latent6", lam, i, i, 10, 0.5, v])
        write_csv(path, ["architecture", "lambda", "seed", "replication",
                         "stopping_epoch", "final_train_loss",
                         "final_val_metric"], rows)

    def test_identical_groups_blank_grid(self, tmp_path, capsys):
        csv = tmp_path / "runs.csv"
        self.make_results(csv, {"0": [0.5, 0.6, 0.7], "0.01": [0.5, 0.6, 0.7]})
        assert run_cli(["compare", csv, "--out-dir", tmp_path]) == 0
        _, rows = _read_grid(tmp_path / "grid.csv")
        assert all(r[4] == "" for r in rows)

    def test_separated_groups_signed_grid(self, tmp_path, capsys):
        csv = tmp_path / "runs.csv"
        self.make_results(csv, {"0": [0.1, 0.101, 0.102],
                                "0.01": [1.0, 1.001, 1.002]})
        assert run_cli(["compare", csv, "--alpha", "0.01",
                        "--out-dir", tmp_path]) == 0
        _, rows = _read_grid(tmp_path / "grid.csv")
        cells = {(r[2], r[3]): r[4] for r in rows}
        assert cells[("0", "0.01")] == "-"
        assert cells[("0.01", "0")] == "+"
        out = capsys.readouterr().out
        assert "+0.9000" in out   # signed delta vs the lambda=0 baseline
        assert "(0.0" in out      # parenthesized one-tailed p-value

    def test_star_tiers(self):
        assert star_tier(0.03) == "*"
        assert star_tier(0.005) == "**"
        assert star_tier(0.0004) == "***"
        assert star_tier(0.2) == ""

    def test_direction_flag_flips_pvalue(self, tmp_path, capsys):
        csv = tmp_path / "runs.csv"
        self.make_results(csv, {"0": [0.1, 0.11, 0.12], "1": [0.9, 0.91, 0.92]})
        run_cli(["compare", csv, "--direction", "greater", "--out-dir", tmp_path])
        out_greater = capsys.readouterr().out
        run_cli(["compare", csv, "--direction", "less", "--out-dir", tmp_path])
        out_less = capsys.readouterr().out
        p_greater = float(out_greater.rsplit("(", 1)[1].rstrip(")\n"))
        p_less = float(out_less.rsplit("(", 1)[1].rstrip(")\n"))
        assert p_greater < 0.05
        assert p_less == pytest.approx(1.0 - p_greater, abs=1e-9)

    @pytest.mark.parametrize("row", ["0.01,abc", "0.01"],
                             ids=["non-numeric", "short"])
    def test_malformed_row_fails_cleanly(self, row, tmp_path, capsys):
        csv = tmp_path / "runs.csv"
        csv.write_text("lambda,final_val_metric\n0,0.5\n0,0.6\n0.01,0.7\n"
                       f"{row}\n")
        assert run_cli(["compare", csv, "--out-dir", tmp_path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[format]")
        assert captured.err.count("\n") == 1
        assert "row 4" in captured.err
        assert not (tmp_path / "grid.csv").exists()

    def test_non_finite_cell_rejected(self, tmp_path, capsys):
        csv = tmp_path / "runs.csv"
        csv.write_text("lambda,final_val_metric\n0,0.5\n0,0.6\n0,0.55\n"
                       "1,nan\n1,0.9\n1,0.95\n")
        assert run_cli(["compare", csv, "--out-dir", tmp_path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[non-finite]")
        assert captured.err.count("\n") == 1
        assert "row 4" in captured.err
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("alpha", ["0", "1", "nan"])
    def test_alpha_out_of_range_rejected(self, alpha, tmp_path, capsys):
        csv = tmp_path / "runs.csv"
        self.make_results(csv, {"0": [0.1, 0.11, 0.12], "1": [0.9, 0.91, 0.92]})
        assert run_cli(["compare", csv, "--alpha", alpha, "--out-dir", tmp_path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[config]")
        assert not (tmp_path / "grid.csv").exists()

    def test_insufficient_replications(self, tmp_path, capsys):
        csv = tmp_path / "runs.csv"
        self.make_results(csv, {"0": [0.5], "0.01": [0.6]})
        assert run_cli(["compare", csv, "--out-dir", tmp_path]) != 0
        assert "error[config]" in capsys.readouterr().err


class TestConfigParsing:
    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\n\nseed = 4  # trailing\nlambda = 0,1\n")
        values = parse_config_file(cfg)
        assert values == {"seed": "4", "lambda": "0,1"}

    def test_malformed_line(self, tmp_path):
        from entroprop.errors import ConfigError

        cfg = tmp_path / "c.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)
