"""One workload in one fresh process: a closed loop of hyperadams.cli.main calls.

Started by run.py; writes everything it measured as JSON to --result.  A pass
runs every operation of the workload once.  The first pass warms caches and
records each operation's reference output; timed passes follow until
--seconds is used up.  With --trace 1, untraced and traced passes alternate.
"""

import os

# the installed OpenBLAS is threaded by default; pin it before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# CSV header per output file: the README column table for `run`, and the
# refinement-study columns for `converge`
CSV_COLUMNS = {
    "constants": "quantity, k, N, value, reference_value, rel_deviation",
    "conformal-identity": "k, bump, n_elements, n_nodes, gjms_energy, euclidean_energy, rel_error",
    "inequalities": "check, k, l, n_samples, min_or_value, median_or_param",
    "blowup": "k, beta, m, energy, functional, slope_fit, slope_target, max_over_min",
    "sobolev-asymptotics": "k, m, p, s_upper, p_s_upper, target_2beta0e",
    "solve-pde": "mode, k, iterations, converged, objective, residual_norm, additive_constant",
    "isometry-2d": "b_x, b_y, int_u2, int_composed, rel_integral_dev, rel_laplacian_dev",
    "conformal-identity-convergence": "case, coarse_error, fine_error, observed_order, monotone",
    "solve-pde-convergence": "case, n_elements, residual, converged",
    "inequalities-convergence": "case, n_elements, margin_sign, placeholder",
}

# result columns recorded next to each operation's timings (not gated)
RESULT_FIELDS = (
    "residual_norm",
    "iterations",
    "converged",
    "slope_fit",
    "rel_error",
    "p_s_upper",
    "rel_integral_dev",
    "residual",
    "observed_order",
)


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


class OpRecord:
    """Timings, exit codes, output digest and result fields of one operation."""

    def __init__(self, op):
        self.op = op
        self.exit_code = None
        self.digest = None
        self.fields = {}
        self.problems = []
        self.times_ms = []
        self.traced_ms = []
        self.failures = 0

    def check(self, code, csv_path: str, reference: bool) -> bool:
        """Check exit code and CSV; True when the operation succeeded."""
        problems = []
        if reference:
            self.exit_code = code
        elif code != self.exit_code:
            problems.append(f"exit code {code!r} differs from first pass {self.exit_code!r}")
        if os.path.exists(csv_path):
            with open(csv_path, "rb") as fh:
                data = fh.read()
            lines = data.decode().split("\n")
            header = lines[1] if len(lines) > 1 else ""
            expected = CSV_COLUMNS[os.path.basename(csv_path)[:-4]].replace(", ", ",")
            if header != expected:
                problems.append(f"CSV header {header!r} != {expected!r}")
            body = data[data.index(b"\n") + 1 :]
            digest = hashlib.sha256(body).hexdigest()
            if reference:
                self.digest = digest
                self._record_fields(header.split(","), lines[2:])
            elif digest != self.digest:
                problems.append("CSV body differs from first pass")
        elif code == 0:
            problems.append("exit 0 without a CSV")
        for p in problems:
            if p not in self.problems:
                self.problems.append(p)
        return code == 0 and not problems

    def _record_fields(self, columns: list, rows: list) -> None:
        cells = [row.split(",") for row in rows if row]
        for i, col in enumerate(columns):
            if col in RESULT_FIELDS:
                self.fields[col] = [_cell(r[i]) for r in cells]

    def as_dict(self) -> dict:
        op = self.op
        return {
            "op_id": op.op_id,
            "argv": [op.command, f"{op.op_id}.cfg", "--threads", str(op.threads)],
            "exit_code": self.exit_code,
            "failures": self.failures,
            "csv_body_sha256": self.digest,
            "results": self.fields,
            "problems": self.problems,
            "times_ms": self.times_ms,
            "traced_times_ms": self.traced_ms,
        }


class Runner:
    def __init__(self, cli, ops: list, work_dir: str):
        self.cli = cli
        self.records = [OpRecord(op) for op in ops]
        self.cfg_paths = {}
        self.out_dirs = {}
        for op in ops:
            cfg_path = os.path.join(work_dir, "configs", f"{op.op_id}.cfg")
            os.makedirs(os.path.dirname(cfg_path), exist_ok=True)
            with open(cfg_path, "w") as fh:
                fh.write(op.config_text)
            self.cfg_paths[op.op_id] = cfg_path
            self.out_dirs[op.op_id] = os.path.join(work_dir, "out", op.op_id)
        self.passes = 0
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None, timed=True) -> None:
        """Run every operation once; the first pass records the reference outputs."""
        reference = self.passes == 0
        self.passes += 1
        for rec in self.records:
            op = rec.op
            out_dir = self.out_dirs[op.op_id]
            csv_path = os.path.join(out_dir, op.csv_name)
            if os.path.exists(csv_path):
                os.remove(csv_path)
            argv = [op.command, self.cfg_paths[op.op_id], "--out", out_dir,
                    "--threads", str(op.threads)]
            if tracer is not None:
                tracer.op_id = op.op_id
            code, elapsed = self._call(argv)
            ok = rec.check(code, csv_path, reference)
            if timed:
                (rec.times_ms if tracer is None else rec.traced_ms).append(elapsed * 1e3)
                self.attempted += 1
                if not ok:
                    self.failed += 1
                    rec.failures += 1

    def pass_seconds(self, traced: bool = False) -> float:
        """Time of one pass: the sum of each operation's best time over the passes.

        On a shared host the machine's speed drifts by tens of per cent
        over tens of seconds; the best of several calls of the same
        operation is the figure that drift disturbs least."""
        return sum(min(rec.traced_ms if traced else rec.times_ms) for rec in self.records) / 1e3

    def _call(self, argv: list):
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception as exc:  # an uncaught error fails this operation only
            code = f"{type(exc).__name__}: {exc}"
        return code, perf_counter() - start

    @property
    def correct(self) -> bool:
        return not any(rec.problems for rec in self.records)


def machine_stamp() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": _git_revision(),
    }


def _git_revision() -> str:
    def git(*args):
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top and os.path.realpath(top) == os.path.realpath(ROOT):
            return git("rev-parse", "HEAD") or "unknown"
    except OSError:
        pass
    return "none (not a git checkout)"


def _quantile(values: list, q: int) -> float:
    """q-th percentile (q in 10..90) by statistics.quantiles, inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    start = perf_counter()
    import hyperadams.cli as cli

    import_s = perf_counter() - start
    ops = workloads.build(args.workload, args.seed, os.path.join(ROOT, "configs"))
    warm = [op for op in ops if op.smoke]
    if args.smoke:
        ops = warm
    # one untimed call of each kind of operation fills lazy imports and caches
    Runner(cli, warm, os.path.join(args.work_dir, "warm")).run_pass(timed=False)
    runner = Runner(cli, ops, args.work_dir)

    tracer = tracing.Tracer() if args.trace else None
    traced_spans = []
    start = perf_counter()
    while True:
        if tracer is not None and len(traced_spans) < runner.passes - len(traced_spans):
            n_spans = len(tracer.spans)
            tracer.install()
            try:
                runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_spans.append(tracer.spans[n_spans:])
        else:
            runner.run_pass()
        elapsed = perf_counter() - start
        if elapsed * (1 + 1 / runner.passes) > args.seconds and (tracer is None or traced_spans):
            break

    latencies = [t for rec in runner.records for t in rec.times_ms]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "ops_per_pass": len(ops),
        "passes": runner.passes - len(traced_spans),
        "traced_passes": len(traced_spans),
        "import_s": import_s,
        "machine": machine_stamp(),
        "run_s": runner.pass_seconds(),
        "op_p50_ms": _quantile(latencies, 50),
        "op_p90_ms": _quantile(latencies, 90),
        "op_samples": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [rec.as_dict() for rec in runner.records],
    }
    if tracer is not None:
        per_pass = [tracing.layer_metrics(spans) for spans in traced_spans]
        layer = {
            name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
        }
        layer["trace.wall_s"] = runner.pass_seconds(traced=True)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - result["run_s"]
        result["per_layer"] = layer
        result["census"] = tracing.census(traced_spans[0])
        single = {rec.op.op_id for rec in runner.records if rec.op.threads == 1}
        result["single_thread_self_cover"] = _self_cover(traced_spans, runner, single)
        with open(args.result[:-5] + "-spans.json", "w") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end", "extra"],
                       "passes": traced_spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


def _self_cover(traced_spans: list, runner: Runner, op_ids: set):
    """Summed self time over summed wall time of the traced single-thread ops."""
    self_s = sum(
        sum(tracing.self_times([sp for sp in spans if sp[2] in op_ids]).values())
        for spans in traced_spans
    )
    wall_s = sum(t for rec in runner.records if rec.op.op_id in op_ids for t in rec.traced_ms) / 1e3
    return self_s / wall_s if wall_s else None


if __name__ == "__main__":
    sys.exit(main())
