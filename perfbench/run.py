"""hyperadams benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (it needs ``src/hyperadams`` and
``configs/``).  With --trace 0 it measures the end-to-end metrics: set-up
time over several fresh interpreters, then a closed loop of CLI operations
in one fresh workload process.  With --trace 1 it reports the per-layer
metrics of a traced run instead.  It prints a readable summary and, as its
last line, one JSON object: correct, attempted, failed and metrics.
Everything it writes goes under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
# fresh interpreters timed before and after the workload; the median of all
# is reported.  Machine speed drifts over tens of seconds, so the samples
# straddle the run.
SETUP_SAMPLES = 4
WORKER_TIMEOUT_S = 170

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("HYPERADAMS_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(env: dict, warm: bool) -> list:
    """Seconds from starting a fresh interpreter until hyperadams.cli is imported.

    The child prints the monotonic clock once the import is done; the
    clock is system-wide, so the parent's start stamp is comparable.  With
    warm, one unrecorded launch first writes the bytecode caches."""
    code = "import hyperadams.cli, time; print(repr(time.monotonic()))"
    samples = []
    for i in range(SETUP_SAMPLES + warm):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True, cwd=ROOT,
        )
        if i or not warm:
            samples.append(float(out.stdout.strip().splitlines()[-1]) - start)
    return samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="run the tiny subset of operations the self-test uses")
    args = ap.parse_args()
    # turn SIGTERM into an exception, so subprocess.run kills the child it waits on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for needed in ("src/hyperadams/cli.py", "configs"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; "
                  "run from a hyperadams source checkout", file=sys.stderr)
            return 2

    env = pinned_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    result_path = os.path.join(OUT, f"{tag}.json")
    work_dir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    setup = [] if args.trace else setup_seconds(env, warm=True)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir, "--result", result_path,
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    if not args.trace:
        setup += setup_seconds(env, warm=False)
    with open(result_path) as fh:
        res = json.load(fh)

    if args.trace:
        values = res["per_layer"]
        specs = SPEC["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": res["run_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        specs = SPEC["end_to_end"]
        res["setup_samples_s"] = setup
        with open(result_path, "w") as fh:
            json.dump(res, fh, indent=1)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print_summary(args, res, metrics, result_path)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def print_summary(args, res: dict, metrics: dict, result_path: str) -> None:
    m = res["machine"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']} "
          f"blas_threads={m['blas_threads']} git={m['git_revision']}")
    print(f"loop: closed, 1 client; {res['ops_per_pass']} ops/pass, "
          f"{res['passes']} untraced + {res['traced_passes']} traced timed passes")
    notes = {
        "setup_s": f"median of {2 * SETUP_SAMPLES} fresh interpreters",
        "run_s": f"sum of per-op best times over {res['passes']} untraced passes",
        "op_p50_ms": f"n={res['op_samples']}",
        "op_p90_ms": f"n={res['op_samples']}, "
                     f"{res['op_samples'] - int(0.9 * res['op_samples'])} beyond",
        "ok_frac": f"failed_frac = {res['failed']}/{res['attempted']}",
        "peak_rss_mb": "workload process",
    }
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']:6s} {notes.get(name, '')}")
    failing = [op for op in res["ops"] if op["failures"] or op["problems"]]
    for op in failing:
        print(f"  failing op {op['op_id']}: exit {op['exit_code']}, "
              f"{op['failures']} failed runs {'; '.join(op['problems'])}")
    if args.trace:
        print(f"  self time over traced wall (single-thread ops): "
              f"{res['single_thread_self_cover']:.4f}")
        print("census (calls per traced pass):")
        for name, calls in res["census"].items():
            print(f"  {name:48s} {calls}")
    print(f"checks: {'all outputs passed' if res['correct'] else 'OUTPUT CHECK FAILED'}; "
          f"details in {os.path.relpath(result_path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
