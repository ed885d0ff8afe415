"""One phase of a benchmark run, in a process of its own.

    python3 bench/worker.py '{"phase": ..., "workload": ..., "seed": ..., ...}'

Phases: ``prepare`` writes the seeded inputs, ``setup`` times import plus
loading them, ``measure`` runs whole rounds for the requested seconds
(traced or not).  The last line of stdout is the phase's JSON result.
run.py starts these with the package's ``src`` on PYTHONPATH and BLAS
threads pinned.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _emit(result: dict) -> None:
    print(json.dumps(result))


def _check_package_origin() -> None:
    import entroprop

    want = (Path.cwd() / "src" / "entroprop").resolve()
    if Path(entroprop.__file__).resolve().parent != want:
        raise SystemExit(f"entroprop imported from {entroprop.__file__}, not {want}")


def setup(workload, work: Path, seed: int) -> None:
    from spans import Tracer

    workload.setup(work, seed, Tracer(False))
    _emit({"setup_s": time.perf_counter() - T0})


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(workload, work: Path, seed: int, seconds: float, traced: bool) -> None:
    from probe import PROBE_ORACLE_CASES, fill_probe, nets_probe
    from spans import PER_LAYER_UNITS, Tracer, layer_metrics
    from workloads import Identities

    tr = Tracer(traced)
    if traced:
        tr.install()
    state = workload.setup(work, seed, tr)
    with tr.paused():
        setup_failure = workload.check_setup(state, seed)
        workload.warmup(state)

    rounds, details, failures, attempted, failed = [], {}, [], 0, 0
    correct = setup_failure is None
    if setup_failure:
        failures.append(f"setup: {setup_failure}")
    start = time.perf_counter()
    r = 0
    while True:
        ops, detail = workload.run_round(state, seed, r, tr)
        attempted += len(ops)
        for op in ops:
            if op.error or op.check:
                failed += 1
                failures.append(f"round {r} {op.name}: {op.error or op.check}")
            correct = correct and op.check is None
        rounds.append(sum(op.seconds for op in ops))
        for k, v in detail.items():
            details.setdefault(k, []).append(v)
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    result = {
        "rounds": rounds,
        "details": details,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "correct": correct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if traced:
        tr.uninstall()
        from_rounds = layer_metrics(tr, Identities.oracle_checks * getattr(workload, "cases", 0))
        ref = Tracer(True)
        ref.install()
        try:
            computed = nets_probe(ref, workload.nets_shapes, seed)
            fill_probe(ref, work / "probe", seed)
        finally:
            ref.uninstall()
        from_probe = {**layer_metrics(ref, Identities.oracle_checks * PROBE_ORACLE_CASES),
                      **computed}
        per_layer, source = {}, {}
        for name in PER_LAYER_UNITS:
            if from_rounds.get(name) is not None:
                per_layer[name], source[name] = from_rounds[name], "rounds"
            else:
                per_layer[name], source[name] = from_probe[name], "probe"
        result.update(per_layer=per_layer, per_layer_source=source)
    _emit(result)


def main() -> None:
    args = json.loads(sys.argv[1])
    _check_package_origin()
    from workloads import WORKLOADS

    workload = WORKLOADS[args["workload"]]
    work = Path(args["work"])
    if args["phase"] == "prepare":
        workload.prepare(work, args["seed"])
        _emit({"prepared": str(work)})
    elif args["phase"] == "setup":
        setup(workload, work, args["seed"])
    else:
        measure(workload, work, args["seed"], args["seconds"], args["trace"])


if __name__ == "__main__":
    main()
