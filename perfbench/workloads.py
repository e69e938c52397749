"""Seeded operation lists for the three benchmark workloads.

An operation is one ``hyperadams.cli.main`` call: ``run`` or ``converge`` on
one config file.  Every workload mixes configs generated from the seed with
the shipped ``configs/`` files, copied verbatim.

The shape of each workload (experiments, orders ``k``, list lengths,
thread counts, solver grid sizes) is fixed.  The seed draws the parameters
(source amplitudes and widths, concentration windows, exponents, the grid
sizes of energy-refinement) and the order of the operations.  Draws are
stratified: a parameter shared by ``n`` operations takes one value in each
of ``n`` equal sub-ranges, within a tenth of the sub-range around its
centre.  So every seed yields different inputs with the same spread, and
the cost of a pass does not depend on the seed; otherwise runs on
different seeds would not be comparable.  Operations are never dropped,
resized or redrawn because they fail.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("pde-newton", "concentration-sweep", "energy-refinement")

# shipped configs each workload replays verbatim, with the commands they support
SHIPPED = {
    "pde-newton": (
        ("solve_pde_convex_k2.cfg", ("run", "converge")),
        ("solve_pde_linear_k1.cfg", ("run", "converge")),
        ("solve_pde_log_k1.cfg", ("run", "converge")),
    ),
    "concentration-sweep": (
        ("blowup_k1.cfg", ("run",)),
        ("sobolev_k1.cfg", ("run",)),
    ),
    "energy-refinement": (
        ("constants.cfg", ("run",)),
        ("conformal_identity.cfg", ("run", "converge")),
        ("inequalities.cfg", ("run", "converge")),
        ("isometry_2d.cfg", ("run",)),
    ),
}


@dataclass(frozen=True)
class Op:
    """One CLI call: ``hyperadams <command> <config> --threads <threads>``."""

    op_id: str
    command: str
    experiment: str
    config_text: str
    threads: int = 1
    smoke: bool = False  # in the tiny subset used for warm-up and by the self-test

    @property
    def csv_name(self) -> str:
        suffix = "-convergence" if self.command == "converge" else ""
        return f"{self.experiment}{suffix}.csv"


def _strata(rng: random.Random, lo: float, hi: float, n: int, shift: int = 0) -> list:
    """One draw in each of n equal sub-ranges of [lo, hi], near its centre.

    Draw i lies in sub-range (i + shift) mod n; parameters that share
    operations take different shifts so that they do not rise together."""
    return [
        lo + (hi - lo) * ((i + shift) % n + 0.5 + rng.uniform(-0.1, 0.1)) / n
        for i in range(n)
    ]


def _int_strata(rng: random.Random, lo: int, hi: int, n: int, shift: int = 0) -> list:
    return [int(round(v)) for v in _strata(rng, lo, hi, n, shift)]


def _cfg(**items) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def _experiment_of(text: str) -> str:
    for line in text.splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        if key.strip() == "experiment":
            return value.strip()
    raise ValueError("config has no experiment key")


def _shipped(workload: str, configs_dir: str) -> list:
    ops = []
    for name, commands in SHIPPED[workload]:
        with open(f"{configs_dir}/{name}") as fh:
            text = fh.read()
        for command in commands:
            ops.append(
                Op(
                    op_id=f"shipped-{name[:-4]}-{command}",
                    command=command,
                    experiment=_experiment_of(text),
                    config_text=text,
                    smoke=name == "solve_pde_convex_k2.cfg" or command == "run",
                )
            )
    return ops


# -- pde-newton -----------------------------------------------------------------

_PDE_GRID = dict(r_max=12.0, poly_degree=4, grading=1.5)
_PDE_SOURCES = 7  # seeded parameter sets per mode, one per sub-range

# (command, k, mode, n_elements, parameter set); poly_degree 4 gives
# 4 n + 1 nodes, and converge solves at n, 2n and 4n.  Near tol a stall is
# decided by roundoff, so for some (size, parameter set) pairs the outcome
# flips from seed to seed (README.md lists the rates measured), and runs on
# different seeds would not be comparable.  Every pair here gave the same
# outcome on each of at least 54 seeds: it converges, or it always stalls
# (marked).
_PDE_OPS = (
    ("run", 1, "convex", 96, 0),
    ("run", 1, "convex", 128, 6),
    ("run", 1, "convex", 144, 0),
    ("run", 1, "convex", 192, 3),
    ("run", 1, "convex", 384, 4),
    ("run", 1, "log-constrained", 48, 0),
    ("run", 1, "log-constrained", 64, 6),
    ("run", 1, "log-constrained", 96, 1),
    ("run", 1, "log-constrained", 256, 4),
    ("run", 1, "log-constrained", 384, 5),
    ("run", 2, "convex", 48, 1),
    ("run", 2, "convex", 96, 0),  # stalls, exit 4
    ("run", 2, "convex", 112, 6),  # stalls, exit 4
    ("run", 2, "convex", 128, 2),  # stalls, exit 4
    ("run", 2, "convex", 192, 3),  # stalls, exit 4
    ("run", 2, "convex", 256, 4),  # stalls, exit 4
    ("run", 2, "convex", 384, 5),  # stalls, exit 4
    ("run", 2, "log-constrained", 96, 0),  # all 120 iterations, exit 4
    ("converge", 1, "convex", 24, 5),
    ("converge", 1, "log-constrained", 48, 6),
    ("converge", 2, "convex", 48, 6),  # 96 and 192 stall, exit 3
)


def _pde_sources(rng: random.Random, mode: str) -> list:
    """Seeded (Q1, Q2) gaussian parameter sets around the shipped configs."""
    if mode == "convex":  # solve_pde_convex_k2.cfg: Q1 = 1 g(1), Q2 = -1 g(1)
        ranges = ((0.5, 1.5), (0.7, 1.3), (-1.5, -0.5), (0.7, 1.3))
    else:  # solve_pde_log_k1.cfg: Q1 = 0.3 g(1), Q2 = 1 g(1.2)
        ranges = ((0.15, 0.45), (0.7, 1.3), (0.7, 1.3), (0.9, 1.5))
    cols = [_strata(rng, lo, hi, _PDE_SOURCES, 2 * j) for j, (lo, hi) in enumerate(ranges)]
    return [
        dict(
            q1_family="gaussian",
            q1_amplitude=repr(a1),
            q1_width=repr(w1),
            q2_family="gaussian",
            q2_amplitude=repr(a2),
            q2_width=repr(w2),
        )
        for a1, w1, a2, w2 in zip(*cols)
    ]


def _pde_newton(rng: random.Random) -> list:
    sources = {mode: _pde_sources(rng, mode) for mode in ("convex", "log-constrained")}
    ops = []
    for command, k, mode, n_el, src in _PDE_OPS:
        text = _cfg(
            experiment="solve-pde", k=k, mode=mode, n_elements=n_el, **_PDE_GRID,
            **sources[mode][src], tol="1e-8", max_iter=60 if mode == "convex" else 120,
        )
        op_id = f"{command}-k{k}-{mode}-n{n_el}"
        ops.append(Op(op_id, command, "solve-pde", text, smoke=n_el <= 96))
    return ops


# -- concentration-sweep -----------------------------------------------------------

_BETA0 = {k: k * (4.0 * math.pi) ** k * math.factorial(k - 1) for k in (1, 2, 3)}
_SWEEP_OPS_PER_K = 6  # per experiment and k
_SWEEP_M_COUNT = 4  # m values per window


def _m_window(lo_exp: float, span: float) -> str:
    """_SWEEP_M_COUNT log-spaced integers from 10**lo_exp to 10**(lo_exp+span)."""
    exps = [lo_exp + span * i / (_SWEEP_M_COUNT - 1) for i in range(_SWEEP_M_COUNT)]
    return ", ".join(str(int(round(10.0**e))) for e in exps)


def _concentration_sweep(rng: random.Random) -> list:
    ops = []
    n = _SWEEP_OPS_PER_K
    for k in (1, 2, 3):
        for experiment in ("blowup", "sobolev-asymptotics"):
            # window of 10**start .. 10**(start + span) inside 10**2 .. 10**12
            spans = _strata(rng, 3.0, 6.0, n)
            starts = [2.0 + (10.0 - s) * u for s, u in zip(spans, _strata(rng, 0.0, 1.0, n, 3))]
            degrees = [6 + i % 3 for i in range(n)]
            n_betas = [2 + (i // 2) % 3 for i in range(n)]
            for i in range(n):
                items = dict(experiment=experiment, k=k)
                if experiment == "blowup":
                    nb = n_betas[i]
                    below = [rng.uniform(0.80, 0.98) for _ in range(nb // 2)]
                    above = [rng.uniform(1.02, 1.25) for _ in range(nb - nb // 2)]
                    items["beta_list"] = ", ".join(repr(_BETA0[k] * f) for f in below + above)
                items["m_list"] = _m_window(starts[i], spans[i])
                items["poly_degree"] = degrees[i]
                ops.append(
                    Op(f"{experiment}-k{k}-{i}", "run", experiment, _cfg(**items),
                       smoke=i == 0)
                )
    return ops


# -- energy-refinement -------------------------------------------------------------


def _energy_refinement(rng: random.Random) -> list:
    ops = []
    n_conf = 4
    for i, (n_el, grading, levels) in enumerate(
        zip(_int_strata(rng, 4, 10, n_conf), _strata(rng, 2.0, 3.0, n_conf, 1), (3, 4, 3, 4))
    ):
        text = _cfg(
            experiment="conformal-identity", k_list="1, 2, 3", n_elements=n_el,
            poly_degree=6, r_max=9.0, grading=repr(grading), levels=levels,
        )
        command = "converge" if i % 2 else "run"
        ops.append(Op(f"conformal-{command}-{i}", command, "conformal-identity", text,
                      smoke=i == 0))
    n_ineq = 3
    for i, (n_el, n_prof, seed) in enumerate(
        zip(
            _int_strata(rng, 10, 80, n_ineq),
            _int_strata(rng, 100, 400, n_ineq, 1),
            [rng.randrange(2**31) for _ in range(n_ineq)],
        )
    ):
        command = "run"
        if i == n_ineq - 1:  # converge refines to 4 n_elements, so start small
            command, n_el = "converge", 10 + n_el // 4
        text = _cfg(
            experiment="inequalities", k_max=3, n_profiles=n_prof, r_max=9.0,
            n_elements=n_el, poly_degree=6, grading=2.0, delta=0.9, seed=seed,
        )
        ops.append(Op(f"inequalities-{command}-{i}", command, "inequalities", text))
    n_iso = 3
    for i, (n_rad, n_ang, n_tr, b_max) in enumerate(
        zip(
            _int_strata(rng, 48, 96, n_iso),
            _int_strata(rng, 64, 128, n_iso, 1),
            _int_strata(rng, 5, 15, n_iso, 2),
            _strata(rng, 0.3, 0.6, n_iso, 1),
        )
    ):
        text = _cfg(
            experiment="isometry-2d", n_radial=n_rad, n_angular=n_ang,
            n_translations=n_tr, b_max=repr(b_max), seed=rng.randrange(2**31),
        )
        ops.append(Op(f"isometry-{i}", "run", "isometry-2d", text, smoke=i == 0))
    return ops


_GENERATORS = {
    "pde-newton": _pde_newton,
    "concentration-sweep": _concentration_sweep,
    "energy-refinement": _energy_refinement,
}


def build(workload: str, seed: int, configs_dir: str) -> list:
    """The workload's operations for one pass, in a seeded order.

    concentration-sweep alternates --threads 1 and 2 along that order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng) + _shipped(workload, configs_dir)
    rng.shuffle(ops)
    if workload == "concentration-sweep":
        ops = [
            Op(op.op_id, op.command, op.experiment, op.config_text, 1 + i % 2, op.smoke)
            for i, op in enumerate(ops)
        ]
    return ops
