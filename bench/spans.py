"""Spans around calls into the package's layers, taken from outside it.

The tracer replaces module-level names that one layer looks up in
another (for example ``training.forward``) with timing wrappers, and
restores them afterwards.  Nothing inside the package changes.  Spans
are kept in memory with their ancestors' names, so a metric can exclude
calls made under another span (forward calls made during evaluation are
not training forward calls).
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import time
from collections import defaultdict

# (module, name looked up there, span name).  The names are the ones the
# caller resolves at call time, so replacing them intercepts every call.
WRAPPED = (
    ("training", "forward", "training.forward"),
    ("training", "backward", "training.backward"),
    ("training", "_entropy_grad_map", "training.entropy"),
    ("training", "adam_step", "training.adam"),
    ("training", "_eval_mse", "training.eval"),
    ("training", "_eval_accuracy", "training.eval"),
    ("training", "dense_entropy_terms", "losses.dense_entropy_terms"),
    ("training", "conv_entropy_terms", "losses.conv_entropy_terms"),
    ("losses", "lu_logabsdet", "tensor_ops.lu"),
    ("losses", "logabsdet_and_inverse_transpose", "tensor_ops.lu"),
    ("entropy", "lu_logabsdet", "tensor_ops.lu"),
    ("cli", "lu_logabsdet", "tensor_ops.lu"),
    ("cli", "build_conv_matrix", "entropy.build_conv_matrix"),
    ("cli", "profile_network", "entropy.profile_network"),
    ("cli", "read_dump", "weights_io.read_dump"),
    ("cli", "significance_grid", "stats.significance_grid"),
    ("cli", "cmd_oracle_check", "cli.oracle_check"),
    ("cli", "cmd_profile", "cli.profile"),
    ("cli", "cmd_compare", "cli.compare"),
)

NET_KINDS = ("dense", "conv2d", "maxpool2", "leaky_relu", "sigmoid", "softmax")

PER_LAYER_UNITS = {
    "training.forward_ms": "ms",
    "training.backward_ms": "ms",
    "training.entropy_ms": "ms",
    "training.adam_ms": "ms",
    "training.eval_ms": "ms",
    "training.batches": "count",
    **{f"nets.{k}.{d}_ms": "ms" for k in NET_KINDS for d in ("forward", "backward")},
    "nets.conv2d.gflop_s": "GFLOP/s",
    "losses.dense_entropy_terms_ms": "ms",
    "losses.conv_entropy_terms_ms": "ms",
    "tensor_ops.lu_calls": "count",
    "tensor_ops.lu_ms": "ms",
    "entropy.build_conv_matrix_ms": "ms",
    "entropy.profile_network_ms": "ms",
    "weights_io.read_dump_ms": "ms",
    "weights_io.dump_mb": "MB",
    "datasets.load_ms": "ms",
    "datasets.normalize_ms": "ms",
    "stats.significance_grid_ms": "ms",
    "cli.compare_ms": "ms",
}


class Tracer:
    """In-memory spans (name, seconds, ancestor names) and sampled values.

    An inactive tracer records nothing, so workload code calls it
    unconditionally; untraced runs never install the wrappers.
    """

    def __init__(self, active: bool):
        self.active = active
        self.spans: dict[str, list[tuple[float, frozenset]]] = defaultdict(list)
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        parents = frozenset(self._stack)
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name].append((time.perf_counter() - start, parents))
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside (used around the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def record(self, name: str, value: float) -> None:
        if self.active:
            self.values[name].append(value)

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(f"entroprop.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _wrap(self, func, span_name):
        def wrapper(*args, **kwargs):
            # A dump's size is sampled where the CLI reads it.
            if span_name == "weights_io.read_dump" and self.active:
                self.record("weights_io.dump_mb", os.path.getsize(args[0]) / 1e6)
            with self.span(span_name):
                return func(*args, **kwargs)
        wrapper.__wrapped__ = func
        return wrapper

    # -- queries -----------------------------------------------------------

    def durations(self, name: str, exclude_under: str | None = None) -> list[float]:
        return [d for d, parents in self.spans.get(name, ())
                if exclude_under is None or exclude_under not in parents]

    def count(self, name: str, under: str | None = None) -> int:
        return sum(1 for _, parents in self.spans.get(name, ())
                   if under is None or under in parents)

    def median_ms(self, name: str, exclude_under: str | None = None):
        ds = self.durations(name, exclude_under)
        return 1e3 * statistics.median(ds) if ds else None


def layer_metrics(tr: Tracer, oracle_cases: int) -> dict[str, float | None]:
    """Per-layer metrics this tracer saw; None where it saw no calls."""
    m = {
        "training.forward_ms": tr.median_ms("training.forward", "training.eval"),
        "training.backward_ms": tr.median_ms("training.backward"),
        "training.entropy_ms": tr.median_ms("training.entropy"),
        "training.adam_ms": tr.median_ms("training.adam"),
        "training.eval_ms": tr.median_ms("training.eval"),
        "losses.dense_entropy_terms_ms": tr.median_ms("losses.dense_entropy_terms"),
        "losses.conv_entropy_terms_ms": tr.median_ms("losses.conv_entropy_terms"),
        "tensor_ops.lu_ms": tr.median_ms("tensor_ops.lu"),
        "entropy.build_conv_matrix_ms": tr.median_ms("entropy.build_conv_matrix"),
        "entropy.profile_network_ms": tr.median_ms("entropy.profile_network"),
        "weights_io.read_dump_ms": tr.median_ms("weights_io.read_dump"),
        "datasets.load_ms": tr.median_ms("datasets.load"),
        "datasets.normalize_ms": tr.median_ms("datasets.normalize"),
        "stats.significance_grid_ms": tr.median_ms("stats.significance_grid"),
        "cli.compare_ms": tr.median_ms("cli.compare"),
        "training.batches": None,
        "tensor_ops.lu_calls": None,
        "weights_io.dump_mb": None,
    }
    runs = tr.count("op.train")
    if runs:
        m["training.batches"] = tr.count("training.backward") / runs
    # LU calls per batch that evaluated the entropy terms, else per oracle case.
    if tr.count("training.entropy"):
        m["tensor_ops.lu_calls"] = (tr.count("tensor_ops.lu", under="training.entropy")
                                    / tr.count("training.entropy"))
    elif tr.count("cli.oracle_check"):
        m["tensor_ops.lu_calls"] = (tr.count("tensor_ops.lu", under="cli.oracle_check")
                                    / (oracle_cases * tr.count("cli.oracle_check")))
    if tr.values.get("weights_io.dump_mb"):
        m["weights_io.dump_mb"] = statistics.median(tr.values["weights_io.dump_mb"])
    for kind in NET_KINDS:
        for direction in ("forward", "backward"):
            m[f"nets.{kind}.{direction}_ms"] = tr.median_ms(f"nets.{kind}.{direction}")
    return m
