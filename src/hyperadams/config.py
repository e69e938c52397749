"""Flat key = value experiment configuration.

One experiment per file; '#' starts a comment; lists are comma-separated.
Every key is validated against the experiment's schema before any
computation runs, and unknown keys are rejected.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import inf

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


# schema: key -> (parser, default or REQUIRED, (valid, meaning)).  Each valid
# is false for NaN (a chained comparison is) and for +-inf, and a rejected
# value is reported as "<key> must be <meaning>".
REQUIRED = object()
_ANY = (lambda x: True, "")
_FINITE = (lambda x: -inf < x < inf, "finite")
_POSITIVE = (lambda x: 0 < x < inf, "positive and finite")


def _at_least(n: int) -> tuple:
    return (lambda x: x >= n, f">= {n}")


def _list_of(valid: tuple) -> tuple:
    each, meaning = valid
    return (lambda xs: bool(xs) and all(map(each, xs)), f"a non-empty list, each {meaning}")


def _grid_keys(n_elements: int, poly_degree: int, r_max: float, grading: float) -> dict:
    """The geodesic grid keys read by ``experiments._grid``."""
    return {
        "n_elements": (_int, n_elements, _at_least(1)),
        "poly_degree": (_int, poly_degree, _at_least(2)),
        "r_max": (_float, r_max, _POSITIVE),
        "grading": (_float, grading, _POSITIVE),
    }


def _source_keys(q: str, amplitude: float) -> dict:
    """One solve-pde source term; its family checks the rest of its domain."""
    return {
        f"{q}_family": (str, "gaussian", _ANY),
        f"{q}_amplitude": (_float, amplitude, _FINITE),
        f"{q}_width": (_float, 1.0, _FINITE),
        f"{q}_radius": (_float, 2.0, _FINITE),
        f"{q}_power": (_float, 2.0, _FINITE),
    }


# from k = 113 on beta0(k, 2k) overflows a double
_K_RANGE = (lambda x: 1 <= x <= 112, "in [1, 112]")
_K = (_int, REQUIRED, _K_RANGE)
# m is taken to a double (log m, sqrt(m)), so it may not exceed the largest one
_M_LIST = (_int_list, REQUIRED, _list_of((lambda x: 2 <= x <= sys.float_info.max,
                                          ">= 2 and at most 1.8e308 (the largest double)")))
_DEGREE = (_int, 6, _at_least(2))

_COMMON = {
    "experiment": (str, REQUIRED, _ANY),
    "seed": (_int, 0, _at_least(0)),  # numpy's generators take only non-negative seeds
    "output": (str, None, _ANY),
}

SCHEMAS = {
    "constants": {
        "k_max": (_int, 8, _K_RANGE),
    },
    "conformal-identity": {
        **_grid_keys(24, 6, 9.0, 2.0),
        # the flat oracle grid ends at s = tanh(r_max/2); one ulp below 1 its last
        # node rounds to s = 1, where the geodesic radius is undefined
        "r_max": (_float, 9.0, (lambda x: 0 < x and math.tanh(x / 2) < math.nextafter(1, 0),
                                "positive with tanh(r_max/2) < 1 - 2^-53 (up to about 37)")),
        "k_list": (_int_list, (1, 2, 3), _list_of(_K_RANGE)),
        "levels": (_int, 3, _at_least(2)),
    },
    "inequalities": {
        **_grid_keys(24, 6, 9.0, 2.0),
        "k_max": (_int, 3, _K_RANGE),
        "n_profiles": (_int, 100, _at_least(2)),
        "delta": (_float, 0.9, (lambda x: 0 < x < 1, "in (0, 1)")),
    },
    "blowup": {
        "k": _K,
        "beta_list": (_float_list, REQUIRED, _list_of(_POSITIVE)),
        "m_list": _M_LIST,
        "poly_degree": _DEGREE,
        "r_max": (_float, 0.0, (lambda x: 0 <= x < inf,
                                "0 (the per-k default) or positive and finite")),
    },
    "sobolev-asymptotics": {
        # its grid ends at r = 32 (extremals.moser_hyperbolic_grid), and the
        # volume weight sinh^{2k-1}(32) ~ e^{31.31 (2k-1)} overflows a double
        # (e^{709.78}) once 2k - 1 > 22.67, that is from k = 12 on
        "k": (_int, REQUIRED, (lambda x: 1 <= x <= 11, "in [1, 11] (the volume weight "
                               "sinh^(2k-1) r overflows a double at r = 32 from k = 12 on)")),
        "m_list": _M_LIST,
        "poly_degree": _DEGREE,
    },
    "solve-pde": {
        **_grid_keys(20, 4, 12.0, 1.5),
        "k": _K,
        "mode": (str, "convex", (lambda x: x in ("convex", "log-constrained"),
                                  "'convex' or 'log-constrained'")),
        **_source_keys("q1", 1.0),
        **_source_keys("q2", -1.0),
        "tol": (_float, 1e-8, _POSITIVE),
        "max_iter": (_int, 80, _at_least(0)),
    },
    "isometry-2d": {
        "n_radial": (_int, 72, _at_least(1)),
        "n_angular": (_int, 96, _at_least(1)),
        "n_translations": (_int, 10, _at_least(1)),
        "b_max": (_float, 0.5, (lambda x: 0 <= x < 1, "in [0, 1)")),  # tau_b needs |b| < 1
        "support_radius": (_float, 0.35, (lambda x: 0 < x < 1, "in (0, 1)")),
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
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    schema = {**_COMMON, **SCHEMAS[experiment]}
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys for {experiment!r}: {sorted(unknown)}")
    values = {}
    for key, (parser, default, (valid, meaning)) in schema.items():
        if key in raw:
            values[key] = parser(raw[key])
            if not valid(values[key]):
                raise ConfigError(f"{key} must be {meaning}")
        elif default is REQUIRED:
            raise ConfigError(f"missing required key {key!r} for {experiment!r}")
        else:
            values[key] = default
    seed, output = values.pop("seed"), values.pop("output")
    values.pop("experiment")
    return ExperimentConfig(experiment=experiment, params=values, seed=seed, output=output)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return validate_config(parse_config_text(text))
