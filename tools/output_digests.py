"""Digests of every output the CLI gives on a fixed set of operations.

    python3 tools/output_digests.py [--seeds 1 2] > digests.jsonl

For the tree this file lives in, prints one JSON line per operation: every
operation of the three benchmark workloads on the given seeds
(perfbench/workloads.py, loaded from its file and only read), then every
shipped config under ``run`` and ``converge``.  Each line holds the exit code
and the sha256 of the CSV body (the file minus its timestamp line), of the
JSON report without ``wall_time_s`` and ``environment``, and of stderr with
the paths of the tree and of the run's temporary directory stripped.  Equal
lines mean equal outputs, so ``diff`` of two trees' lines shows every
operation whose output moved.  All operations run in this one process, each with fresh
warning filters, as a fresh ``hyperadams`` process would show them.
"""

import os

# results do not depend on the BLAS thread count; one thread keeps the run small
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "configs")
sys.path.insert(0, os.path.join(ROOT, "src"))

from hyperadams import cli  # noqa: E402


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def operations(seeds: list) -> list:
    """(name, command, config text, threads) of every operation, in order."""
    workloads = _workloads()
    ops = [
        (f"{name}/seed{seed}/{op.op_id}", op.command, op.config_text, op.threads)
        for seed in seeds
        for name in workloads.WORKLOADS
        for op in workloads.build(name, seed, CONFIG_DIR)
    ]
    for command in ("run", "converge"):
        for cfg in sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".cfg")):
            with open(os.path.join(CONFIG_DIR, cfg)) as fh:
                ops.append((f"shipped/{command}/{cfg}", command, fh.read(), 1))
    return ops


def _sha(data) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def digest(name: str, command: str, text: str, threads: int, work_dir: str) -> dict:
    """Run one operation in its own directory and digest what it gave."""
    op_dir = os.path.join(work_dir, name.replace("/", "_"))
    out_dir = os.path.join(op_dir, "out")
    os.makedirs(op_dir)
    cfg_path = os.path.join(op_dir, "op.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    stderr = io.StringIO()
    argv = [command, cfg_path, "--out", out_dir, "--threads", str(threads)]
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # also resets which warnings were shown
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    csv = payload = None
    outputs = os.listdir(out_dir) if os.path.isdir(out_dir) else []
    for fname in sorted(outputs):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            data = fh.read()
        if fname.endswith(".csv"):
            csv = data[data.index(b"\n") + 1 :]
        elif fname.endswith(".json"):
            report = json.loads(data)
            report.pop("wall_time_s", None)
            report.pop("environment", None)
            payload = json.dumps(report, sort_keys=True).encode()
    return {
        "op": name,
        "exit": code,
        "outputs": sorted(outputs),
        "csv": _sha(csv),
        "json": _sha(payload),
        "stderr": _sha(
            stderr.getvalue().replace(work_dir, "<work>").replace(ROOT, "<tree>").encode()
        ),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as work_dir:
        for op in operations(args.seeds):
            print(json.dumps(digest(*op, work_dir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
