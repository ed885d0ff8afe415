"""Experiment harness CLI.

Subcommands: ``oracle-check``, ``train-ae``, ``train-cnn``, ``profile``,
``compare``.  Sweeps write ``runs.csv`` (deterministic bytes for a fixed
config), ``timings.csv`` (wall clock, hardware-dependent so kept out of
runs.csv), ``aggregate.csv`` with means and 95% t-interval half-widths,
and ``grid.csv`` with pairwise significance cells.  Every failure path
prints a single ``error[<code>]: message`` line and exits nonzero.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .datasets import load_cifar10, load_mnist, normalize_and_subset
from .entropy import (
    build_conv_matrix,
    profile_network,
    square_part,
    squarify_dense,
)
from .errors import ConfigError, EntropropError, FormatError
from .files import write_file
from .losses import LambdaSchedule, LossForm
from .stats import mean_ci95, significance_grid, welch_t
from .tensor_ops import conv2d, lu_logabsdet
from .training import AdamHyper, TrainConfig, cnn_spec, train_autoencoder, train_cnn
from .weights_io import read_dump

DEFAULT_LAMBDAS = (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
_DATASET_INPUTS = {"mnist": (1, 28, 28), "cifar10": (3, 32, 32)}  # (c, h, w)


def fmt(x) -> str:
    """Floats with 9 significant digits; everything else via str()."""
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    write_file(path, ("\n".join(lines) + "\n").encode())


def read_csv(path: Path) -> tuple[list, list]:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty CSV")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass
class ExperimentConfig:
    dataset: str = "mnist"         # mnist | cifar10
    task: str = "autoencoder"      # autoencoder | cnn; set by the subcommand
    latents: tuple = (80,)
    widths: tuple = (32,)
    lambdas: tuple = DEFAULT_LAMBDAS
    entropy_loss_layers: frozenset = frozenset({1})
    form: str = "recip"
    eps: float = 1e-4
    replications: int = 10
    seed: int = 0
    subset: float = 1.0
    data_dir: str = ""
    out_dir: str = ""
    alpha: float = 0.01
    max_epochs: int = 50
    patience: int = 7
    min_delta: float | None = None
    batch_size: int = 128
    lr: float = 1e-3
    init_scale: float = 1.0


def _ints(val: str) -> tuple:
    return tuple(int(v) for v in val.split(","))


# Config key -> parser of its text, for config files and flags alike.  Every
# train-ae/train-cnn flag but --config has a key as its dest; `task` is no key.
_PARSERS = {
    **dict.fromkeys(("dataset", "form", "data_dir", "out_dir"), str),
    **dict.fromkeys(("replications", "seed", "max_epochs", "patience", "batch_size"), int),
    **dict.fromkeys(("eps", "subset", "alpha", "min_delta", "lr", "init_scale"), float),
    "latents": _ints, "widths": _ints,
    "entropy_loss_layers": lambda val: frozenset(_ints(val)),
    "lambdas": lambda val: tuple(float(v) for v in val.split(",")),
}


def parse_config_file(path) -> dict:
    """key = value lines; '#' starts a comment; lists are comma-separated."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def apply_config_values(config: ExperimentConfig, values: dict) -> ExperimentConfig:
    """Parse each `key: text` pair through `_PARSERS` into `config`."""
    parsed = {}
    for key, val in values.items():
        key = "lambdas" if key == "lambda" else key  # the one alias
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            parsed[key] = _PARSERS[key](val)
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {val!r}") from None
    return replace(config, **parsed)


def validate_config(config: ExperimentConfig) -> None:
    """Reject a config that no run could use, before any data is read."""
    if not config.lambdas:
        raise ConfigError("lambda list must be nonempty")
    if not all(np.isfinite(config.lambdas)):
        raise ConfigError("lambda values must be finite")
    if config.replications < 1:
        raise ConfigError("replications must be >= 1")
    # The first run's TrainConfig checks the form, eps and every training
    # setting; later runs differ from it only in lambda and a larger seed.
    try:
        _train_config(config, config.lambdas[0], config.seed)
    except ValueError as exc:  # LossForm's checks
        raise ConfigError(str(exc)) from None
    if not 0.0 < config.subset <= 1.0:
        raise ConfigError(f"subset must be in (0, 1], got {config.subset}")
    if not 0.0 < config.alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {config.alpha}")
    if min(config.latents + config.widths) < 1:
        raise ConfigError("latent and conv widths must be >= 1")
    if config.dataset not in _DATASET_INPUTS:
        raise ConfigError(f"unknown dataset {config.dataset!r}")
    if config.task == "cnn":
        cnn_spec(*_DATASET_INPUTS[config.dataset], config.widths)


def config_from_args(args, task: str) -> ExperimentConfig:
    config = ExperimentConfig(task=task,
                              dataset="mnist" if task == "autoencoder" else "cifar10")
    if args.config:
        config = apply_config_values(config, parse_config_file(args.config))
    config = apply_config_values(config, {k: v for k, v in vars(args).items()
                                          if k in _PARSERS and v is not None})
    validate_config(config)
    if not config.data_dir:
        raise ConfigError("data_dir is required (flag --data-dir or config)")
    if not config.out_dir:
        raise ConfigError("out_dir is required (flag --out-dir or config)")
    return config


def echo_config(config: ExperimentConfig, out_dir: Path) -> None:
    """Write config_used.txt in config-file syntax, so `--config` reruns it."""
    lines = []
    for key, val in vars(config).items():
        if key in _PARSERS and val is not None:
            val = sorted(val) if isinstance(val, frozenset) else val
            text = ",".join(str(v) for v in val) if isinstance(val, (tuple, list)) else val
            lines.append(f"{key} = {text}")
    write_file(out_dir / "config_used.txt", ("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------------------
# oracle-check


def _check_conv_matrix_equivalence(rng, max_dim, n_cases):
    lo = min(2, max_dim)
    for _ in range(n_cases):
        l, w = rng.integers(lo, max_dim + 1, size=2)
        p = int(rng.integers(1, l + 1))
        q = int(rng.integers(1, w + 1))
        c = rng.normal(size=(p, q))
        x = rng.normal(size=(l, w))
        cm = build_conv_matrix(c, l, w)
        direct = conv2d(x, c)
        via = (cm.matrix @ x.ravel()).reshape(direct.shape)
        if np.max(np.abs(via - direct)) > 1e-12:
            return f"conv-matrix mismatch: l={l} w={w} C={c.tolist()} X={x.tolist()}"
    return None


def _check_determinant_law(rng, max_dim, n_cases, corrupt=False):
    lo = min(2, max_dim)
    for _ in range(n_cases):
        l, w = rng.integers(lo, max_dim + 1, size=2)
        p = int(rng.integers(1, min(l, 4) + 1))
        q = int(rng.integers(1, min(w, 4) + 1))
        c = rng.normal(size=(p, q))
        c[0, 0] = float(rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0]))
        cm = build_conv_matrix(c, l, w)
        expected = (l - p + 1) * (w - q + 1) * np.log(abs(c[0, 0]))
        if corrupt:
            expected += 1e-3  # negative-control mode: must be caught
        got = lu_logabsdet(cm.square_embedding).log_abs
        if abs(got - expected) > 1e-9:
            return (
                f"determinant law failed: l={l} w={w} C={c.tolist()} "
                f"got {got!r} expected {expected!r}"
            )
    return None


def _check_squarify_law(rng, max_dim, n_cases):
    for _ in range(n_cases):
        rows, cols = rng.integers(1, max_dim + 1, size=2)
        m = rng.normal(size=(rows, cols))
        sq = squarify_dense(m)
        a = lu_logabsdet(sq.embedded)
        b = lu_logabsdet(square_part(m))
        if a.sign != b.sign or (a.sign != 0 and abs(a.log_abs - b.log_abs) > 1e-9):
            return f"squarify law failed: W={m.tolist()}"
    return None


def _check_gaussian_closed_form(rng, max_dim, n_cases):
    lo = min(2, max_dim)
    for _ in range(n_cases):
        rows, cols = rng.integers(lo, max_dim + 1, size=2)
        # Redraw until W' is well conditioned, so the 1e-8 tolerance
        # measures the identity, not LU roundoff: 0.3 N + I alone can reach
        # cond ~ 1e5 at size 10, where numpy's slogdet misses by ~1e-6.
        while True:
            w = 0.3 * rng.normal(size=(rows, cols)) + np.eye(rows, cols)
            emb = squarify_dense(w).embedded
            if np.linalg.cond(emb) <= 1e3:
                break
        n = emb.shape[0]
        a = rng.normal(size=(n, n))
        sigma = a @ a.T / (2.0 * n) + np.eye(n)
        lhs = 0.5 * (
            lu_logabsdet(emb @ sigma @ emb.T).log_abs - lu_logabsdet(sigma).log_abs
        )
        if abs(lhs - lu_logabsdet(emb).log_abs) > 1e-8:
            return f"gaussian closed form failed: W'={emb.tolist()}"
    return None


def cmd_oracle_check(args) -> int:
    max_dim = args.max_dim
    if max_dim < 1 or max_dim > 10:
        raise ConfigError("max-dim must be in 1..10")
    if args.cases < 1:
        raise ConfigError("cases must be >= 1")
    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
    rng = np.random.default_rng(args.seed)
    n = args.cases
    checks = [
        ("conv-matrix-equivalence",
         _check_conv_matrix_equivalence(rng, max_dim, n)),
        ("determinant-law",
         _check_determinant_law(rng, max_dim, n, corrupt=args.self_test_corrupt)),
        ("squarify-law", _check_squarify_law(rng, max_dim, n)),
        ("gaussian-closed-form", _check_gaussian_closed_form(rng, max_dim, n)),
    ]
    failed = False
    for name, failure in checks:
        if failure is None:
            print(f"ok {name} ({n} cases)")
        else:
            failed = True
            print(f"FAIL {name}: {failure}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# training sweeps


def _load_splits(config: ExperimentConfig):
    load = load_mnist if config.dataset == "mnist" else load_cifar10
    train = load(config.data_dir, "train")
    val = load(config.data_dir, "validation")
    for split in (train, val):
        if len(split.labels) == 0:
            raise FormatError(f"{config.data_dir}: the {split.split} split holds no images")
    train = normalize_and_subset(train, config.subset, config.seed)
    val = normalize_and_subset(val, config.subset, config.seed + 1)
    return train, val


def _train_config(config: ExperimentConfig, lam: float, seed: int) -> TrainConfig:
    if config.task == "autoencoder":
        schedule = LambdaSchedule(dense_default=lam)
        base_loss = "mse"
    else:
        schedule = LambdaSchedule(conv_default=lam)
        base_loss = "cross_entropy"
    return TrainConfig(
        base_loss=base_loss,
        schedule=schedule,
        form=LossForm(config.form, config.eps),
        entropy_loss_layers=config.entropy_loss_layers,
        adam=AdamHyper(lr=config.lr),
        batch_size=config.batch_size,
        max_epochs=config.max_epochs,
        patience=config.patience,
        min_delta=config.min_delta,
        seed=seed,
        init_scale=config.init_scale,
    )


def run_sweep(config: ExperimentConfig) -> Path:
    """Run the full (architecture, lambda, replication) grid; write CSVs."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo_config(config, out_dir)
    train, val = _load_splits(config)

    if config.task == "autoencoder":
        train_flat = train.images.reshape(len(train.labels), -1)
        val_flat = val.images.reshape(len(val.labels), -1)
        archs = [("latent" + str(d), d) for d in config.latents]
    else:
        archs = [("conv" + "x".join(str(v) for v in config.widths),
                  tuple(config.widths))]

    rows, timings = [], []
    for arch_label, arch in archs:
        for lam in config.lambdas:
            for rep in range(config.replications):
                seed = config.seed + rep
                tc = _train_config(config, lam, seed)
                if config.task == "autoencoder":
                    res = train_autoencoder(tc, train_flat, val_flat, arch)
                else:
                    res = train_cnn(tc, train.images, train.labels,
                                    val.images, val.labels, arch)
                rows.append([
                    arch_label, float(lam), seed, rep, res.stopping_epoch,
                    float(res.train_loss[-1]), float(res.val_metric[-1]),
                ])
                timings.append([arch_label, float(lam), seed,
                                float(res.wall_seconds)])

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    timings.sort(key=lambda r: (r[0], r[1], r[2]))
    write_csv(out_dir / "runs.csv",
              ["architecture", "lambda", "seed", "replication",
               "stopping_epoch", "final_train_loss", "final_val_metric"],
              rows)
    write_csv(out_dir / "timings.csv",
              ["architecture", "lambda", "seed", "wall_seconds"], timings)
    _write_aggregate(out_dir, rows)
    _write_grids(out_dir, rows, config.alpha)
    return out_dir


def _groups(rows, value_idx):
    by_key = {}
    for r in rows:
        by_key.setdefault((r[0], r[1]), []).append(float(r[value_idx]))
    return by_key


def _write_aggregate(out_dir: Path, rows) -> None:
    epochs = _groups(rows, 4)
    metrics = _groups(rows, 6)
    agg = []
    for (arch, lam), vals in sorted(epochs.items()):
        mvals = metrics[(arch, lam)]
        n = len(vals)
        if n >= 2 and (max(vals) > min(vals) or max(mvals) > min(mvals)):
            se_mean, se_half = mean_ci95(vals)
            m_mean, m_half = mean_ci95(mvals)
        else:
            se_mean, se_half = float(np.mean(vals)), 0.0
            m_mean, m_half = float(np.mean(mvals)), 0.0
        agg.append([arch, lam, n, se_mean, se_half, m_mean, m_half])
    write_csv(out_dir / "aggregate.csv",
              ["architecture", "lambda", "n", "mean_stopping_epoch",
               "ci95_stopping_epoch", "mean_val_metric", "ci95_val_metric"],
              agg)


def _grid_rows(metric_name, samples, alpha):
    try:
        grid = significance_grid(samples, alpha)
    except EntropropError:
        return []
    out = []
    for i, row_label in enumerate(grid.labels):
        for j, col_label in enumerate(grid.labels):
            out.append([metric_name, alpha, row_label, col_label,
                        grid.cells[i][j]])
    return out


def _write_grids(out_dir: Path, rows, alpha: float) -> None:
    grid_rows = []
    archs = sorted({r[0] for r in rows})
    for arch in archs:
        sub = [r for r in rows if r[0] == arch]
        lams = sorted({r[1] for r in sub})
        if len(lams) < 2:
            continue
        for metric_name, idx in (("stopping_epoch", 4), ("val_metric", 6)):
            samples = {
                f"{arch}/{fmt(lam)}": [float(r[idx]) for r in sub if r[1] == lam]
                for lam in lams
            }
            if min(len(v) for v in samples.values()) < 2:
                continue
            grid_rows.extend(_grid_rows(f"{arch}:{metric_name}", samples, alpha))
    write_csv(out_dir / "grid.csv",
              ["metric", "alpha", "row_label", "col_label", "cell"], grid_rows)


def cmd_train(args) -> int:
    config = config_from_args(args, args.task)
    out_dir = run_sweep(config)
    print(f"sweep complete: {out_dir / 'runs.csv'}")
    return 0


# ---------------------------------------------------------------------------
# profile


def cmd_profile(args) -> int:
    spec, weights = read_dump(args.dump)
    report = profile_network(spec.layers, weights, args.input_h, args.input_w)
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for prof in report.layers:
        rows.append([
            prof.layer_index, prof.kind, len(prof.unit_totals),
            prof.input_h, prof.input_w,
            prof.mean_total, prof.q1_total, prof.q3_total,
            prof.mean_per_element, prof.q1_per_element, prof.q3_per_element,
            len(prof.outliers),
        ])
    path = out_dir / "profile.csv"
    write_csv(path,
              ["layer", "kind", "units", "input_h", "input_w",
               "mean_total", "q1_total", "q3_total", "mean_per_element",
               "q1_per_element", "q3_per_element", "outliers"],
              rows)
    print(f"profiled {len(rows)} layers: {path}")
    return 0


# ---------------------------------------------------------------------------
# compare


def star_tier(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def cmd_compare(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {args.alpha}")
    header, raw_rows = read_csv(Path(args.results))
    for col in (args.group_col, args.metric):
        if col not in header:
            raise ConfigError(f"{args.results}: no column {col!r}")
    gi, vi = header.index(args.group_col), header.index(args.metric)
    samples: dict = {}
    for n, row in enumerate(raw_rows, start=1):
        try:
            samples.setdefault(row[gi], []).append(float(row[vi]))
        except (IndexError, ValueError):  # a short row, or a non-numeric cell
            raise FormatError(f"{args.results}: row {n} has no numeric "
                              f"{args.metric!r}: {','.join(row)!r}") from None
    if len(samples) < 2:
        raise ConfigError("need at least 2 groups to compare")
    if min(len(v) for v in samples.values()) < 2:
        raise ConfigError("every group needs at least 2 replications")

    def group_key(label):
        try:
            return (0, float(label))
        except ValueError:
            return (1, label)

    labels = sorted(samples, key=group_key)
    ordered = {k: samples[k] for k in labels}
    grid = significance_grid(ordered, args.alpha)

    width = max(6, max(len(l) for l in labels) + 1)
    print("grid (+ means row mean significantly higher at "
          f"alpha={fmt(args.alpha)}):")
    print(" " * width + "".join(f"{l:>{width}}" for l in labels))
    for i, row_label in enumerate(labels):
        cells = "".join(f"{grid.cells[i][j]:>{width}}" for j in range(len(labels)))
        print(f"{row_label:>{width}}{cells}")

    baseline = labels[0]
    print(f"one-tailed deltas vs baseline {baseline!r} "
          f"(direction: {args.direction}):")
    for label in labels[1:]:
        res = welch_t(ordered[label], ordered[baseline])
        delta = float(np.mean(ordered[label]) - np.mean(ordered[baseline]))
        p = res.p_one_tailed if args.direction == "greater" else 1.0 - res.p_one_tailed
        print(f"  {label}: {delta:+.4f}{star_tier(p)} ({p:.4f})")

    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "grid.csv",
              ["metric", "alpha", "row_label", "col_label", "cell"],
              _grid_rows(args.metric, ordered, args.alpha))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroprop",
        description="Entropy propagation experiments: training sweeps, "
                    "weight profiling, and oracle self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle-check", help="verify the closed-form identities")
    p.set_defaults(run=cmd_oracle_check)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--cases", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--self-test-corrupt", action="store_true",
                   help=argparse.SUPPRESS)

    for name, task, task_help in (
            ("train-ae", "autoencoder", "autoencoder reconstruction sweep"),
            ("train-cnn", "cnn", "CNN classification sweep")):
        p = sub.add_parser(name, help=task_help)
        p.set_defaults(run=cmd_train, task=task)
        p.add_argument("--config", default=None)
        p.add_argument("--data-dir", dest="data_dir", default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)
        p.add_argument("--dataset", default=None, choices=("mnist", "cifar10"))
        # Values stay text here: _PARSERS parses flags and config files alike.
        p.add_argument("--seed", default=None)
        p.add_argument("--subset", default=None)
        p.add_argument("--lambda", dest="lambdas", default=None,
                       help="comma-separated lambda values")
        p.add_argument("--layers", dest="entropy_loss_layers", default=None,
                       help="comma-separated 1-based entropy-loss layers")
        p.add_argument("--form", choices=("log", "recip"), default=None)
        p.add_argument("--eps", default=None)
        p.add_argument("--replications", default=None)
        p.add_argument("--alpha", default=None)
        p.add_argument("--max-epochs", dest="max_epochs", default=None)
        if name == "train-ae":
            p.add_argument("--latent", dest="latents", default=None,
                           help="comma-separated latent widths")
        else:
            p.add_argument("--widths", default=None,
                           help="comma-separated conv widths (one architecture)")

    p = sub.add_parser("profile", help="entropy profile of an ENTW weight dump")
    p.set_defaults(run=cmd_profile)
    p.add_argument("dump")
    p.add_argument("--input-h", dest="input_h", type=int, required=True)
    p.add_argument("--input-w", dest="input_w", type=int, required=True)
    p.add_argument("--out-dir", dest="out_dir", default=None)

    p = sub.add_parser("compare", help="significance grid from a results CSV")
    p.set_defaults(run=cmd_compare)
    p.add_argument("results")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--direction", choices=("greater", "less"), default="greater")
    p.add_argument("--metric", default="final_val_metric")
    p.add_argument("--group-col", dest="group_col", default="lambda")
    p.add_argument("--out-dir", dest="out_dir", default=None)
    return parser


_ERROR_CODES = {
    "ConfigError": "config",
    "FormatError": "format",
    "DimensionError": "dimension",
    "SingularMatrixError": "singular",
    "NonFiniteError": "non-finite",
    "UndefinedVarianceError": "degenerate-stats",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except EntropropError as exc:
        code = _ERROR_CODES.get(type(exc).__name__, "error")
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
