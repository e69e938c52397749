"""Flat key = value experiment configuration.

One experiment per file; '#' starts a comment; lists are comma-separated.
Every key is validated against the experiment's schema before any
computation runs, and unknown keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

def _int(x: str) -> int:
    try:
        return int(x)
    except ValueError:
        raise ConfigError(f"expected integer, got {x!r}") from None


def _float(x: str) -> float:
    try:
        return float(x)
    except ValueError:
        raise ConfigError(f"expected number, got {x!r}") from None


def _int_list(x: str) -> tuple:
    return tuple(_int(part.strip()) for part in x.split(",") if part.strip())


def _float_list(x: str) -> tuple:
    return tuple(_float(part.strip()) for part in x.split(",") if part.strip())


def _str(x: str) -> str:
    return x


# schema: key -> (parser, required, default)
_GRID_KEYS = {
    "n_elements": (_int, False, 24),
    "poly_degree": (_int, False, 6),
    "r_max": (_float, False, 9.0),
    "grading": (_float, False, 2.0),
}

_COMMON = {
    "experiment": (_str, True, None),
    "seed": (_int, False, 0),
    "output": (_str, False, None),
}

SCHEMAS = {
    "constants": {
        "k_max": (_int, False, 8),
    },
    "conformal-identity": {
        **_GRID_KEYS,
        "k_list": (_int_list, False, (1, 2, 3)),
        "levels": (_int, False, 3),
    },
    "inequalities": {
        **_GRID_KEYS,
        "k_max": (_int, False, 3),
        "n_profiles": (_int, False, 100),
        "delta": (_float, False, 0.9),
    },
    "blowup": {
        "k": (_int, True, None),
        "beta_list": (_float_list, True, None),
        "m_list": (_int_list, True, None),
        "poly_degree": (_int, False, 6),
        "r_max": (_float, False, 0.0),  # 0 -> per-k default
    },
    "sobolev-asymptotics": {
        "k": (_int, True, None),
        "m_list": (_int_list, True, None),
        "poly_degree": (_int, False, 6),
    },
    "solve-pde": {
        "n_elements": (_int, False, 20),
        "poly_degree": (_int, False, 4),
        "r_max": (_float, False, 12.0),
        "grading": (_float, False, 1.5),
        "k": (_int, True, None),
        "mode": (_str, False, "convex"),
        "q1_family": (_str, False, "gaussian"),
        "q1_amplitude": (_float, False, 1.0),
        "q1_width": (_float, False, 1.0),
        "q1_radius": (_float, False, 2.0),
        "q1_power": (_float, False, 2.0),
        "q2_family": (_str, False, "gaussian"),
        "q2_amplitude": (_float, False, -1.0),
        "q2_width": (_float, False, 1.0),
        "q2_radius": (_float, False, 2.0),
        "q2_power": (_float, False, 2.0),
        "tol": (_float, False, 1e-8),
        "max_iter": (_int, False, 80),
    },
    "isometry-2d": {
        "n_radial": (_int, False, 72),
        "n_angular": (_int, False, 96),
        "n_translations": (_int, False, 10),
        "b_max": (_float, False, 0.5),
        "support_radius": (_float, False, 0.35),
    },
}

EXPERIMENTS = tuple(SCHEMAS)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict
    seed: int = 0
    output: str | None = None

    def canonical(self) -> dict:
        """Round-trippable echo of the configuration."""
        out = {"experiment": self.experiment, "seed": self.seed}
        if self.output is not None:
            out["output"] = self.output
        out.update({k: self.params[k] for k in sorted(self.params)})
        return out


def parse_config_text(text: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def validate_config(raw: dict) -> ExperimentConfig:
    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}"
        )
    schema = {**_COMMON, **SCHEMAS[experiment]}
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys for {experiment!r}: {sorted(unknown)}")
    values = {}
    for key, (parser, required, default) in schema.items():
        if key in raw:
            values[key] = parser(raw[key])
        elif required:
            raise ConfigError(f"missing required key {key!r} for {experiment!r}")
        else:
            values[key] = default
    seed = values.pop("seed")
    output = values.pop("output")
    values.pop("experiment")
    if seed < 0:  # numpy's generators take only non-negative seeds
        raise ConfigError("seed must be >= 0")
    _check_ranges(experiment, values)
    return ExperimentConfig(
        experiment=experiment, params=values, seed=seed, output=output
    )


def _check_ranges(experiment: str, v: dict) -> None:
    if "k" in v and v["k"] < 1:
        raise ConfigError("k must be >= 1")
    if "k_max" in v and v["k_max"] < 1:
        raise ConfigError("k_max must be >= 1")
    if experiment == "constants" and v["k_max"] > 112:  # beta0(113, 226) overflows a double
        raise ConfigError("k_max must be <= 112")
    if "k_list" in v and not v["k_list"]:
        raise ConfigError("k_list must be non-empty")
    if any(k < 1 for k in v.get("k_list", ())):
        raise ConfigError("every k in k_list must be >= 1")
    if v.get("levels", 2) < 2:
        raise ConfigError("levels must be >= 2")
    if v.get("n_profiles", 2) < 2:
        raise ConfigError("n_profiles must be >= 2")
    if v.get("n_elements", 1) < 1:
        raise ConfigError("n_elements must be >= 1")
    if v.get("poly_degree", 2) < 2:
        raise ConfigError("poly_degree must be >= 2")
    if "grading" in v:  # the geodesic grid keys
        if not v["r_max"] > 0:
            raise ConfigError("r_max must be positive")
        if not v["grading"] > 0:
            raise ConfigError("grading must be positive")
    elif v.get("r_max", 0.0) < 0:  # blowup reads 0 as the per-k default
        raise ConfigError("r_max must be >= 0")
    if "m_list" in v:
        if not v["m_list"]:
            raise ConfigError("m_list must be non-empty")
        if any(m < 2 for m in v["m_list"]):
            raise ConfigError("every m must be >= 2")
    if "beta_list" in v:
        if not v["beta_list"]:
            raise ConfigError("beta_list must be non-empty")
        if any(b <= 0 for b in v["beta_list"]):
            raise ConfigError("every beta must be positive")
    if "mode" in v and v["mode"] not in ("convex", "log-constrained"):
        raise ConfigError("mode must be 'convex' or 'log-constrained'")
    if "delta" in v and not (0 < v["delta"] < 1):
        raise ConfigError("delta must lie in (0, 1)")
    if "b_max" in v and not (0 <= v["b_max"] < 1):  # tau_b needs |b| < 1
        raise ConfigError("b_max must lie in [0, 1)")
    if "support_radius" in v and not (0 < v["support_radius"] < 1):
        raise ConfigError("support_radius must lie in (0, 1)")
    if v.get("n_radial", 1) < 1:
        raise ConfigError("n_radial must be >= 1")
    if v.get("n_angular", 1) < 1:
        raise ConfigError("n_angular must be >= 1")
    if v.get("n_translations", 1) < 1:
        raise ConfigError("n_translations must be >= 1")
    if v.get("max_iter", 0) < 0:
        raise ConfigError("max_iter must be >= 0")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return validate_config(parse_config_text(text))
