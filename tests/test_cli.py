"""CLI subcommands: self-checks, sweeps, profiling, comparison, error paths."""

import numpy as np
import pytest

from entroprop import cli
from entroprop.cli import main, parse_config_file, star_tier, write_csv
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
        ["--alpha", "1.5"], ["--latent", "0"],
    ], ids=["eps", "lambda", "subset", "alpha", "latent"])
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
