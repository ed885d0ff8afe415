"""The benchmark's one command.

    python3 bench/run.py --workload {ae-sweep,cnn-train,identities} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` of the current directory and nowhere else.  Each phase runs in
its own process with one BLAS thread: one writes the seeded inputs, five
time set-up (import plus loading the inputs) and one measures whole
rounds for S seconds.  With ``--trace 0`` the last
line of stdout is the end-to-end result; with ``--trace 1`` it holds the
per-layer metrics.  A copy with the environment and the per-round
figures goes to ``.bench_results/``.  Generated inputs live under
``.bench_work/`` and are removed at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("ae-sweep", "cnn-train", "identities")
SETUP_REPEATS = 5
BLAS_THREADS = 1
RUN_DEADLINE_S = 170        # every phase together, inside the 180 s limit

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    # One BLAS thread, a plain single-threaded baseline.  On a 2-CPU sandbox
    # a second OpenBLAS thread made ae-sweep rounds about 1.6x slower.
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=str(Path.cwd() / "src"),
               PYTHONHASHSEED="0")
    return env


def run_phase(args: dict, deadline: float) -> dict:
    """Run worker.py for one phase and return its JSON result.

    A phase still running at the deadline is killed and waited for.
    """
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(args)],
        stdout=subprocess.PIPE, env=child_env(), text=True,
        timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{args['phase']} phase exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    if not (Path.cwd() / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=30)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "entroprop" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/entroprop",
              file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path.cwd() / ".bench_work" / f"{run_id}-{os.getpid()}"
    base = {"workload": args.workload, "seed": args.seed, "work": str(work)}
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        run_phase({**base, "phase": "prepare"}, deadline)
        setups = []
        if not args.trace:
            setups = [run_phase({**base, "phase": "setup"}, deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS)]
        m = run_phase({**base, "phase": "measure", "seconds": args.seconds,
                       "trace": bool(args.trace)}, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        from spans import PER_LAYER_UNITS
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in m["per_layer"].items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "round_s": statistics.median(m["rounds"]),
                  "peak_rss_mb": m["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    details = {k: statistics.median(v) for k, v in m["details"].items()}
    result = {"correct": m["correct"], "attempted": m["attempted"],
              "failed": m["failed"], "metrics": metrics}

    env = {**m["env"], "git_sha": git_sha()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "result": result,
              "rounds_s": m["rounds"], "setup_runs_s": setups,
              "details_median": details, "failures": m["failures"],
              "per_layer_source": m.get("per_layer_source"),
              "notes": {"nets.conv2d.gflop_s": "computed from shapes, not counted"}}
    out_dir = Path.cwd() / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"{args.workload}: attempted {m['attempted']} operations, "
          f"failed {m['failed']}, rounds {len(m['rounds'])}")
    for f in m["failures"][:10]:
        print(f"  FAILED {f}")
    for k, v in details.items():
        print(f"  {k} = {v:.6g} s (median over rounds)")
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
