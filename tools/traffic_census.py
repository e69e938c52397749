"""Functions of the ``hyperadams`` package that no CLI operation enters, and
the lines of the entered ones that no operation runs.

    python3 tools/traffic_census.py [--seeds 1 2]

Runs the operation set of tools/output_digests.py (every operation of the
three benchmark workloads on the given seeds, then every shipped config under
``run`` and ``converge``) under ``sys.settrace``, recording every call and
the line events of the package's own frames.  The trace is installed before
``hyperadams`` is imported, so calls made at import time count too.

Then prints one line per ``def`` in ``src/hyperadams`` that no operation
entered, as ``module.qualname  file:line``, tagged ``pinned`` when
perfbench/tracing.py ``ENTRY_POINTS`` wraps it (that file is only read).
After those, one line per entered def with lines that no operation ran, as
``module.qualname  file lines a-b, c``: the runs of its executable body lines
(those that carry bytecode of the def's own code, so a nested def's body is
its own) that never ran.  A def is matched to the code that ran by its file,
first line and name; a decorated function's code starts at its first
decorator.  The package runs every row in the calling thread, so one
thread's trace sees every call.
"""

import argparse
import ast
import importlib.util
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hyperadams")


def _load(name: str, path: str):
    """Import a module from its file, by a name of its own."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def definitions():
    """(path, module, qualname, first line, first body line) of every def in
    the package."""

    def walk(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = child.decorator_list[0] if child.decorator_list else child
                yield path, module, prefix + child.name, first.lineno, child.body[0].lineno
                yield from walk(child, path, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, path, module, f"{prefix}{child.name}.")
            else:  # defs inside if/try blocks
                yield from walk(child, path, module, prefix)

    for fname in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        path = os.path.realpath(os.path.join(PACKAGE, fname))
        with open(path) as fh:
            yield from walk(ast.parse(fh.read()), path, fname[:-3], "")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args()

    entered, lines_run = set(), set()

    def line_trace(frame, event, arg):
        if event == "line":
            lines_run.add((frame.f_code, frame.f_lineno))
        return line_trace

    def call_trace(frame, event, arg):  # the global trace sees only calls
        entered.add(frame.f_code)
        # output_digests imports the package from this same path
        return line_trace if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(call_trace)
    try:  # output_digests imports hyperadams from this tree's src
        digests = _load("output_digests", os.path.join(ROOT, "tools", "output_digests.py"))
        with tempfile.TemporaryDirectory() as work_dir:
            for op in digests.operations(args.seeds):
                digests.digest(*op, work_dir)
    finally:
        sys.settrace(None)

    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered}
    codes = {
        (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name): code
        for code in entered
    }
    pins = _load("perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")).ENTRY_POINTS
    defs = list(definitions())
    for path, module, name, line, _ in defs:
        if (path, line) not in ran:
            tag = "  pinned" if name in pins.get(module, {}) else ""
            print(f"{module}.{name}  src/hyperadams/{module}.py:{line}{tag}")
    for path, module, name, line, body in defs:
        code = codes.get((path, line, name.rsplit(".", 1)[-1]))
        if code is None:
            continue
        # the header's lines (decorators, signature) carry no body bytecode
        body_lines = sorted({n for _, _, n in code.co_lines() if n is not None and n >= body})
        runs = []  # [first, last] of each run of body lines that never ran
        for n, prev in zip(body_lines, [None] + body_lines):
            if (code, n) in lines_run:
                continue
            if runs and runs[-1][1] == prev:  # prev did not run either
                runs[-1][1] = n
            else:
                runs.append([n, n])
        if runs:
            spans = ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in runs)
            print(f"{module}.{name}  src/hyperadams/{module}.py lines {spans}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
