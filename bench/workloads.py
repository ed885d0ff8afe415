"""The benchmark's workloads: inputs, set-up, rounds of operations, checks.

A workload's round is a fixed list of operations; a run repeats whole
rounds, so every run attempts the same mix.  Only the program calls are
timed; checks run between them, with tracing paused.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from entroprop import cli, datasets
from entroprop.losses import LambdaSchedule, LossForm, conv_entropy_terms, dense_entropy_terms
from entroprop.nets import backward, cross_entropy_loss, forward
from entroprop.training import TrainConfig, cnn_spec, train_autoencoder, train_cnn
from entroprop.weights_io import read_dump

import checks
import inputs


@dataclass
class Op:
    """One program call: its time, whether it raised, whether its output passed."""

    name: str
    seconds: float = 0.0
    error: str | None = None
    check: str | None = None


def _timed(op: Op, tr, span: str, fn):
    """Run one program call; an exception marks the operation failed."""
    try:
        with tr.span(span):
            start = time.perf_counter()
            result = fn()
            op.seconds = time.perf_counter() - start
        return result
    except Exception:  # the program's failure is counted, not fatal to the run
        op.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        print(f"[{op.name}] raised: {traceback.format_exc()}", file=sys.stderr)
        return None


class AeSweep:
    """Dense autoencoder 784->180->784 at lambda 0 and 1e-2 (dense layer 1)."""

    name = "ae-sweep"
    lambdas = (0.0, 1e-2)
    eps = 1e-4
    check_lambda = 1e-2
    nets_shapes: dict = {}      # the probe's reference shapes are this workload's

    def __init__(self, n_train=inputs.AE_TRAIN, n_test=inputs.AE_TEST, latent=180, epochs=2):
        self.n_train, self.n_test, self.latent, self.epochs = n_train, n_test, latent, epochs

    def prepare(self, work: Path, seed: int) -> None:
        inputs.write_mnist(work / "mnist", seed, self.n_train, self.n_test)

    def setup(self, work: Path, seed: int, tr) -> dict:
        with tr.span("datasets.load"):
            train = datasets.load_mnist(work / "mnist", "train")
            val = datasets.load_mnist(work / "mnist", "validation")
        with tr.span("datasets.normalize"):
            train = datasets.normalize_and_subset(train, inputs.AE_SUBSET, seed)
            val = datasets.normalize_and_subset(val, inputs.AE_SUBSET, seed + 1)
        return {"dir": work / "mnist", "train": train, "val": val,
                "train_x": train.images.reshape(len(train.labels), -1),
                "val_x": val.images.reshape(len(val.labels), -1)}

    def check_setup(self, state: dict, seed: int) -> str | None:
        state["mean_mse"] = float(np.mean((state["val_x"] - state["train_x"].mean(axis=0)) ** 2))
        for split, n, names in (("train", self.n_train, inputs.MNIST_NAMES["train"]),
                                ("val", self.n_test, inputs.MNIST_NAMES["validation"])):
            images, labels = (inputs.read_idx(state["dir"] / name) for name in names)
            written = {img.tobytes(): int(lab) for img, lab in zip(images, labels)}
            ds = state[split]
            per_class = round(inputs.AE_SUBSET * n / inputs.N_CLASSES)
            if not np.array_equal(np.bincount(ds.labels, minlength=10), [per_class] * 10):
                return f"{split}: subset is not {per_class} images per class"
            for img, lab in zip(ds.images[:, 0], ds.labels):
                raw = np.round(img * 255.0).astype(np.uint8)
                if img.max() > 1.0 or written.get(raw.tobytes()) != lab:
                    return f"{split}: a loaded image is not a written image/255 of its class"
        return None

    def warmup(self, state: dict) -> None:
        cfg = self._config(self.lambdas[-1], 0, epochs=1)
        train_autoencoder(cfg, state["train_x"][:256], state["val_x"][:128], self.latent)

    def _config(self, lam: float, seed: int, epochs: int) -> TrainConfig:
        return TrainConfig(schedule=LambdaSchedule(dense_default=lam),
                           form=LossForm.reciprocal(self.eps),
                           entropy_loss_layers=frozenset({1}),
                           max_epochs=epochs, patience=epochs + 1, seed=seed)

    def run_round(self, state: dict, seed: int, r: int, tr) -> tuple[list[Op], dict]:
        ops, epochs = [], 0
        for lam in self.lambdas:
            op = Op(f"train_autoencoder lambda={lam}")
            cfg = self._config(lam, seed * 1000 + r, self.epochs)
            res = _timed(op, tr, "op.train", lambda: train_autoencoder(
                cfg, state["train_x"], state["val_x"], self.latent))
            if res is not None:
                epochs += len(res.val_metric)
                with tr.paused():
                    op.check = self.check(res, state)
            ops.append(op)
        detail = {"epoch_s": sum(o.seconds for o in ops) / epochs} if epochs else {}
        return ops, detail

    def check(self, res, state: dict) -> str | None:
        if len(res.val_metric) != self.epochs:
            return f"trained {len(res.val_metric)} epochs, expected {self.epochs}"
        mse = res.val_metric[-1]
        if not np.isfinite(mse) or not mse < state["mean_mse"]:
            return f"val MSE {mse!r} not below the mean predictor's {state['mean_mse']!r}"
        w1 = res.weights[0].w
        loss, grads = dense_entropy_terms(
            [w1, res.weights[2].w], LambdaSchedule(dense_weights={1: self.check_lambda}),
            LossForm.log())
        return checks.dense_identity(self.check_lambda, w1, loss, grads)


class CnnTrain:
    """CNN [32] on CIFAR-format images, conv entropy term on conv layer 1."""

    name = "cnn-train"
    lam = 1e-2
    eps = 1e-4
    min_accuracy = 0.3          # chance is 0.1
    gradcheck_batch = 4
    nets_shapes = {"dense": (7200, 10)}     # the classifier after one [32] block

    def __init__(self, n_train=inputs.CNN_TRAIN, n_test=inputs.CNN_TEST, widths=(32,),
                 epochs=2):
        self.n_train, self.n_test, self.widths, self.epochs = n_train, n_test, widths, epochs

    def prepare(self, work: Path, seed: int) -> None:
        inputs.write_cifar(work / "cifar", seed, self.n_train, self.n_test)

    def setup(self, work: Path, seed: int, tr) -> dict:
        with tr.span("datasets.load"):
            train = datasets.load_cifar10(work / "cifar", "train")
            val = datasets.load_cifar10(work / "cifar", "validation")
        with tr.span("datasets.normalize"):
            train = datasets.normalize_and_subset(train, 1.0, seed)
            val = datasets.normalize_and_subset(val, 1.0, seed + 1)
        return {"dir": work / "cifar", "train": train, "val": val}

    def check_setup(self, state: dict, seed: int) -> str | None:
        for split, name in (("train", "data_batch_1.bin"), ("val", "test_batch.bin")):
            images, labels = inputs.read_cifar(state["dir"] / name)
            ds = state[split]
            if not (np.array_equal(ds.images, images / 255.0)
                    and np.array_equal(ds.labels, labels)):
                return f"{split}: loaded images or labels differ from what was written"
        return None

    def _config(self, seed: int, epochs: int) -> TrainConfig:
        return TrainConfig(base_loss="cross_entropy",
                           schedule=LambdaSchedule(conv_default=self.lam),
                           form=LossForm.reciprocal(self.eps),
                           entropy_loss_layers=frozenset({1}),
                           max_epochs=epochs, patience=epochs + 1, seed=seed)

    def warmup(self, state: dict) -> None:
        tr, va = state["train"], state["val"]
        train_cnn(self._config(0, 1), tr.images[:128], tr.labels[:128],
                  va.images[:128], va.labels[:128], self.widths)

    def run_round(self, state: dict, seed: int, r: int, tr) -> tuple[list[Op], dict]:
        t, v = state["train"], state["val"]
        op = Op("train_cnn [32]")
        res = _timed(op, tr, "op.train", lambda: train_cnn(
            self._config(seed * 1000 + r, self.epochs), t.images, t.labels,
            v.images, v.labels, self.widths))
        if res is None:
            return [op], {}
        with tr.paused():
            op.check = self.check(res, state, np.random.default_rng([seed, r]))
        return [op], {"epoch_s": op.seconds / len(res.val_metric)}

    def check(self, res, state: dict, rng: np.random.Generator) -> str | None:
        if len(res.val_metric) != self.epochs:
            return f"trained {len(res.val_metric)} epochs, expected {self.epochs}"
        acc = res.val_metric[-1]
        if not acc >= self.min_accuracy:
            return f"val accuracy {acc!r} is not well above chance (< {self.min_accuracy})"
        kernel = res.weights[0].w
        filters = {(1, f, c): kernel[f, c]
                   for f in range(kernel.shape[0]) for c in range(kernel.shape[1])}
        schedule = LambdaSchedule(conv_default=self.lam)
        form = LossForm.reciprocal(self.eps)
        loss, slice_grads = conv_entropy_terms(filters, schedule, form)
        failure = checks.conv_term(self.lam, self.eps, kernel, loss)
        if failure:
            return failure
        ent = np.zeros_like(kernel)
        for (_, f, c), g in slice_grads.items():
            ent[f, c] = g
        return self._gradcheck(res.weights, ent, state["val"], rng)

    def _gradcheck(self, weights, ent: np.ndarray, val, rng) -> str | None:
        """Central differences of cross-entropy + conv term on a small batch.

        The two parts are differenced separately and then added, so the
        large entropy value does not swamp the task loss's last digits.
        """
        spec = cnn_spec(3, 32, 32, self.widths)
        x = val.images[: self.gradcheck_batch]
        y = val.labels[: self.gradcheck_batch]
        cache, out = forward(spec, weights, x)
        _, out_grad = cross_entropy_loss(out, y)
        grads = backward(spec, weights, cache, out_grad, {0: ent})
        kernel = weights[0].w
        f, c = kernel.shape[:2]
        dense_pos = len(spec.layers) - 2
        coords = (
            [(0, (int(a), int(b), 0, 0)) for a, b in
             zip(rng.integers(0, f, 4), rng.integers(0, c, 4))]
            + [(0, (int(a), int(b), int(p), int(q))) for a, b, p, q in
               zip(rng.integers(0, f, 4), rng.integers(0, c, 4),
                   rng.integers(1, 3, 4), rng.integers(0, 3, 4))]
            + [(dense_pos, (int(a), int(b))) for a, b in
               zip(rng.integers(0, 10, 4), rng.integers(0, weights[dense_pos].w.shape[1], 4))]
        )

        def parts(ws):
            task = cross_entropy_loss(forward(spec, ws, x)[1], y)[0]
            term = float(np.sum(self.lam / (np.abs(ws[0].w[:, :, 0, 0]) + self.eps)))
            return task, term

        h = 1e-6
        numeric, analytic = [], []
        for pos, idx in coords:
            diffs = []
            for step in (h, -h):
                trial = [None if p is None else p.copy() for p in weights]
                trial[pos].w[idx] += step
                diffs.append(parts(trial))
            numeric.append(((diffs[0][0] - diffs[1][0]) + (diffs[0][1] - diffs[1][1])) / (2 * h))
            analytic.append(grads[pos].w[idx])
        numeric, analytic = np.array(numeric), np.array(analytic)
        # Corner coordinates carry the entropy gradient, which dwarfs the
        # task gradient, so each group is scaled by its own largest entry.
        for group in (slice(0, 4), slice(4, 12)):
            failure = checks.gradient_agreement(analytic[group], numeric[group])
            if failure:
                return failure
        return None


class Identities:
    """oracle-check, profile of two ENTW dumps and compare, through cli.main."""

    name = "identities"
    max_dim = 10
    oracle_checks = 4           # suites in oracle-check, each `cases` cases
    alpha = 0.01
    dumps = (("cnn", 32, 32), ("ae", 28, 28))
    nets_shapes: dict = {}

    def __init__(self, cases=250):
        self.cases = cases

    @staticmethod
    def tensors(kind: str, seed: int) -> list[np.ndarray]:
        return (inputs.cnn_dump_tensors if kind == "cnn" else inputs.ae_dump_tensors)(seed)

    def prepare(self, work: Path, seed: int) -> None:
        work.mkdir(parents=True, exist_ok=True)
        for kind, _, _ in self.dumps:
            (work / f"{kind}.entw").write_bytes(inputs.entw_bytes(self.tensors(kind, seed)))
        inputs.write_runs_csv(work / "runs.csv", seed)

    def setup(self, work: Path, seed: int, tr) -> dict:
        state = {"work": work}
        for kind, _, _ in self.dumps:
            with tr.span("weights_io.read_dump"):
                state[kind] = read_dump(work / f"{kind}.entw")
        return state

    def check_setup(self, state: dict, seed: int) -> str | None:
        for kind, h, w in self.dumps:
            written = self.tensors(kind, seed)
            _, weights = state[kind]
            if len(weights) != len(written) or any(
                    p.w.shape != t.shape or p.w.tobytes() != t.tobytes()
                    for p, t in zip(weights, written)):
                return f"{kind} dump does not read back bitwise equal to what was written"
            state[f"{kind}_profile"] = checks.expected_profile(written, h, w)
        groups: dict[str, list[float]] = {}
        for row in inputs.runs_rows(seed):
            groups.setdefault(str(row[1]), []).append(float(row[6]))
        state["grid"] = checks.expected_grid(groups, self.alpha)
        return None

    def warmup(self, state: dict) -> None:
        run_cli(["oracle-check", "--max-dim", "4", "--cases", "5"])

    def _call(self, op: Op, tr, argv: list[str]) -> str | None:
        """cli.main in-process; returns stdout, or None if it failed."""
        result = _timed(op, tr, "op.cli", lambda: run_cli(argv))
        if result is None:
            return None
        rc, text = result
        if rc != 0 and not (argv[0] == "oracle-check" and "FAIL" in text):
            op.error = f"exit {rc}: {text.strip()[-200:]}"
            return None
        return text

    def oracle_op(self, tr, corrupt: bool = False) -> Op:
        # The CLI's own default case seed: with other seeds the Gaussian suite
        # sometimes draws an ill-conditioned W' and fails (see CHANGES.md).
        op = Op("oracle-check")
        argv = ["oracle-check", "--max-dim", str(self.max_dim), "--cases", str(self.cases)]
        argv += ["--self-test-corrupt"] if corrupt else []
        text = self._call(op, tr, argv)
        if text is not None:
            lines = text.strip().splitlines()
            bad = [ln for ln in lines if not ln.startswith("ok ")]
            if bad or len(lines) != self.oracle_checks:
                op.check = f"oracle-check reported: {(bad or lines or ['nothing'])[0][:200]}"
        return op

    def profile_op(self, tr, state: dict, kind: str, h: int, w: int) -> Op:
        op = Op(f"profile {kind}")
        out_dir = state["work"] / f"profile-{kind}"
        argv = ["profile", str(state["work"] / f"{kind}.entw"),
                "--input-h", str(h), "--input-w", str(w), "--out-dir", str(out_dir)]
        if self._call(op, tr, argv) is not None:
            with tr.paused():
                rows = _read_csv(out_dir / "profile.csv")
                op.check = checks.profile_rows(rows, state[f"{kind}_profile"])
        return op

    def compare_op(self, tr, state: dict) -> Op:
        op = Op("compare")
        out_dir = state["work"] / "compare"
        argv = ["compare", str(state["work"] / "runs.csv"), "--alpha", str(self.alpha),
                "--out-dir", str(out_dir)]
        if self._call(op, tr, argv) is not None:
            with tr.paused():
                op.check = checks.grid_cells(_read_csv(out_dir / "grid.csv"),
                                             state["grid"], self.alpha)
        return op

    def run_round(self, state: dict, seed: int, r: int, tr) -> tuple[list[Op], dict]:
        oracle = self.oracle_op(tr)
        profiles = [self.profile_op(tr, state, kind, h, w) for kind, h, w in self.dumps]
        ops = [oracle, *profiles, self.compare_op(tr, state)]
        return ops, {"oracle_check_s": oracle.seconds,
                     "profile_s": sum(o.seconds for o in profiles),
                     "compare_s": ops[-1].seconds}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process, with its stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [ln.split(",") for ln in lines[1:] if ln.strip()]


WORKLOADS = {w.name: w for w in (AeSweep(), CnnTrain(), Identities())}
