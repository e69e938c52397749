"""Self-test of the benchmark on a tiny subset of every workload.

    python3 perfbench/smoke.py

Runs run.py with --smoke on each workload, untraced and traced, and asserts:
  - every end-to-end metric is printed with its unit for every workload;
  - every layer has spans on the workload that stresses it, and
    concentration-sweep never reaches the solver or GJMS assembly;
  - per-layer self times add up to the traced wall time within 3 %;
  - the shipped solve_pde_convex_k2.cfg (exit 4) is counted as failed
    instead of aborting the run;
  - the header table the output check uses matches README.md;
  - without the program next to it, run.py exits non-zero and prints no result.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT, SPEC, WORKLOADS  # noqa: E402
from worker import CSV_COLUMNS  # noqa: E402

# layer -> the workloads named as stressing it
STRESSED_BY = {
    "pde": ("pde-newton",),
    "operators": ("energy-refinement", "pde-newton"),
    "mesh": ("concentration-sweep", "energy-refinement"),
    "extremals": ("concentration-sweep",),
    "inequalities": ("concentration-sweep", "energy-refinement"),
    "ball": ("energy-refinement",),
    "experiments": WORKLOADS,
    "config": WORKLOADS,
    "reporting": WORKLOADS,
    "cli": WORKLOADS,
}


def bench(workload: str, trace: int, cwd: str = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_readme_table() -> None:
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    table = dict(re.findall(r"^\| `([a-z0-9-]+)` \| `([^`]+)` \|$", readme, re.M))
    for experiment, columns in table.items():
        assert CSV_COLUMNS[experiment] == columns, (experiment, columns)
    assert len(table) == 7, table


def check_bare_directory() -> None:
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench(WORKLOADS[0], 0, cwd=bare)
        assert code != 0, "run.py succeeded without the program"
        assert not any(line.startswith("{") for line in lines), lines
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_readme_table()
    check_bare_directory()
    for workload in WORKLOADS:
        for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, lines, err = bench(workload, trace)
            assert code == 0, f"{workload} trace={trace} exited {code}: {err}"
            res = json.loads(lines[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"], f"{workload}: output check failed\n" + "\n".join(lines)
            assert res["attempted"] >= 1
            for spec in specs:
                metric = res["metrics"][spec["name"]]
                assert metric["unit"] == spec["unit"], (spec, metric)
                assert isinstance(metric["value"], (int, float)), metric
            assert len(res["metrics"]) == len(specs)
            if workload == "pde-newton":
                assert any("shipped-solve_pde_convex_k2-run: exit 4" in line for line in lines)
                assert res["failed"] >= 1
            if trace == 0:
                assert res["metrics"]["ok_frac"]["value"] == 1 - res["failed"] / res["attempted"]
                continue
            m = res["metrics"]
            for layer, stressing in STRESSED_BY.items():
                if workload in stressing:
                    assert m[f"{layer}.calls"]["value"] >= 1, (workload, layer)
            if workload == "concentration-sweep":
                assert m["pde.solves"]["value"] == 0
                assert m["operators.assemblies"]["value"] == 0
            with open(os.path.join(OUT, f"{workload}-seed1-trace1.json")) as fh:
                cover = json.load(fh)["single_thread_self_cover"]
            assert abs(cover - 1.0) < 0.03, (workload, cover)
        print(f"smoke {workload}: ok")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
