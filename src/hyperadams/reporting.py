"""Bit-stable CSV/JSON experiment reports.

CSV contract: line 1 is the only non-deterministic line (a timestamp
comment); line 2 is the fixed header; numeric cells are printed with 17
significant digits in scientific notation, '.' decimal separator and
newline-only line endings.  Identical config + seed reproduce the body
byte for byte.  Files are written atomically (temp file + rename), with
the mode a plain ``open`` would give them (0o666 less the umask).
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import time
from dataclasses import dataclass, field


def format_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return f"{x:.16e}"
    return str(x)


@functools.cache  # the loaded code does not change within a process
def _build_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(__file__),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def environment_stamp() -> dict:
    from . import __version__

    return {"version": __version__, "build_hash": _build_hash()}


@dataclass
class ExperimentReport:
    """Structured record of one experiment run.

    ``failure`` names the check a run or refinement study failed (None when
    it passed); it is reported by the CLI and is written to neither file."""

    experiment: str
    config_echo: dict
    columns: list
    rows: list
    diagnostics: dict = field(default_factory=dict)
    environment: dict = field(default_factory=environment_stamp)
    wall_time_s: float = 0.0
    failure: str | None = None

    def csv_text(self) -> str:
        lines = [f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S%z')}", ",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format_cell(x) for x in row))
        return "\n".join(lines) + "\n"

    def json_payload(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config_echo,
            "columns": list(self.columns),
            "rows": [[_jsonable(x) for x in row] for row in self.rows],
            "diagnostics": _jsonable(self.diagnostics),
            "environment": self.environment,
            "wall_time_s": self.wall_time_s,
        }

    def write(self, out_dir: str) -> tuple[str, str]:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, f"{self.experiment}.csv")
        json_path = os.path.join(out_dir, f"{self.experiment}.json")
        atomic_write(csv_path, self.csv_text())
        atomic_write(
            json_path, json.dumps(self.json_payload(), indent=2, sort_keys=True) + "\n"
        )
        return csv_path, json_path


def _jsonable(x):
    import numpy as np

    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, float) and (x != x or x in (float("inf"), float("-inf"))):
        return repr(x)
    return x


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over
    ``path``.  The temp file is created with mode 0o666 less the umask,
    the mode a plain ``open`` gives a new file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp_report_{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
