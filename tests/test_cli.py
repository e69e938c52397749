import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import band_of_csr, csr_of_band, csv_body

import hyperadams
from hyperadams import ball, pde
from hyperadams.cli import _parser, main
from hyperadams.config import (
    SCHEMAS,
    ExperimentConfig,
    _float,
    _float_list,
    load_config,
    parse_config_text,
    validate_config,
)
from hyperadams.errors import ConfigError
from hyperadams.experiments import COLUMNS
from hyperadams.mesh import Mesh1D
from hyperadams.reporting import ExperimentReport, format_cell

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED_CONFIGS = sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".cfg"))
# the shipped configs whose experiment has a refinement study
STUDY_CONFIGS = [
    "conformal_identity.cfg",
    "inequalities.cfg",
    "solve_pde_convex_k2.cfg",
    "solve_pde_linear_k1.cfg",
    "solve_pde_log_k1.cfg",
]
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def echo_text(echo: dict) -> str:
    """A config echo written back as a config file."""
    return "".join(
        f"{k} = {', '.join(str(x) for x in v) if isinstance(v, tuple) else v}\n"
        for k, v in echo.items()
    )


def benchmark_configs(seed: int) -> list:
    """The config texts of every benchmark workload's operations on one seed
    (perfbench/workloads.py, loaded from its file and only read)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up there
    spec.loader.exec_module(workloads)
    return [
        op.config_text
        for name in workloads.WORKLOADS
        for op in workloads.build(name, seed, CONFIG_DIR)
    ]


def readme_columns() -> dict:
    """The README's "CSV columns per experiment" table: report name -> header."""
    with open(README) as fh:
        text = fh.read()
    table = text[text.index("CSV columns per experiment") :].split("\n\n")[1]
    return {
        cells[1].strip(" `"): cells[2].strip(" `")
        for cells in (line.split("|") for line in table.splitlines()[2:])
    }


# a valid value for each required key, so that a config fails on one key only
REQUIRED_VALUES = {"k": "1", "beta_list": "13.8", "m_list": "1000"}
FLOAT_KEYS = [
    (experiment, key)
    for experiment, schema in SCHEMAS.items()
    for key, (parser, _default, _valid) in schema.items()
    if parser in (_float, _float_list)
]


class TestConfigParsing:
    def test_basic_parse(self):
        raw = parse_config_text("experiment = constants\nk_max = 3 # inline\n")
        assert raw == {"experiment": "constants", "k_max": "3"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("experiment constants\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate_config({"experiment": "frobnicate"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config({"experiment": "constants", "k_maximum": "8"})

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            validate_config({"experiment": "blowup", "beta_list": "1.0"})

    def test_range_checks(self):
        with pytest.raises(ConfigError):
            validate_config(
                {"experiment": "blowup", "k": "1", "beta_list": "-2.0", "m_list": "100"}
            )

    def test_lists_parsed(self):
        cfg = validate_config(
            {
                "experiment": "blowup",
                "k": "1",
                "beta_list": "1.0, 2.0",
                "m_list": "100, 1000",
            }
        )
        assert cfg.params["beta_list"] == (1.0, 2.0)
        assert cfg.params["m_list"] == (100, 1000)

    def test_canonical_round_trip(self):
        cfg = validate_config(
            {
                "experiment": "sobolev-asymptotics",
                "k": "1",
                "m_list": "100, 1000",
                "seed": "5",
            }
        )
        echo = cfg.canonical()
        raw = {
            k: ", ".join(str(x) for x in v) if isinstance(v, tuple) else str(v)
            for k, v in echo.items()
        }
        again = validate_config(raw)
        assert again == cfg

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_and_shipped_configs_validate_and_echo_reparses(self, seed):
        texts = benchmark_configs(seed)
        for name in SHIPPED_CONFIGS:
            with open(os.path.join(CONFIG_DIR, name)) as fh:
                texts.append(fh.read())
        for text in texts:
            cfg = validate_config(parse_config_text(text))
            again = validate_config(parse_config_text(echo_text(cfg.canonical())))
            assert again == cfg and again.canonical() == cfg.canonical()

    @pytest.mark.parametrize(
        "experiment,key", FLOAT_KEYS, ids=[f"{e}-{k}" for e, k in FLOAT_KEYS]
    )
    def test_every_float_key_rejects_nan_exit_2(self, tmp_path, capsys, experiment, key):
        items = {k: v for k, v in REQUIRED_VALUES.items() if k in SCHEMAS[experiment]}
        items.update(experiment=experiment, **{key: "nan"})
        cfg = write(tmp_path, "nan.cfg", "".join(f"{k} = {v}\n" for k, v in items.items()))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert f"configuration error: {key} must be" in capsys.readouterr().err
        assert not out.exists()


class TestReporting:
    def test_format_cell(self):
        assert format_cell(True) == "true"
        assert format_cell(3) == "3"
        assert format_cell(0.5) == "5.0000000000000000e-01"
        assert format_cell("abc") == "abc"

    def test_csv_shape(self):
        rep = ExperimentReport(
            experiment="demo",
            config_echo={"experiment": "demo"},
            columns=["a", "b"],
            rows=[(1, 2.0), (3, 4.0)],
        )
        text = rep.csv_text()
        lines = text.splitlines()
        assert lines[0].startswith("# generated ")
        assert lines[1] == "a,b"
        assert len(lines) == 4
        assert text.endswith("\n")

    def test_atomic_write_and_body(self, tmp_path):
        rep = ExperimentReport(
            experiment="demo",
            config_echo={},
            columns=["x"],
            rows=[(1.0,)],
        )
        csv_path, json_path = rep.write(str(tmp_path))
        assert os.path.exists(csv_path) and os.path.exists(json_path)
        body = csv_body(csv_path)
        assert body.startswith(b"x\n")
        payload = json.loads(open(json_path).read())
        assert payload["experiment"] == "demo"
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp_report_")]

    def test_reports_get_the_umask_mode(self, tmp_path):
        # the temp file behind the atomic rename must not keep a private mode
        src = os.path.dirname(os.path.dirname(hyperadams.__file__))
        out = tmp_path / "out"
        subprocess.run(
            [sys.executable, "-m", "hyperadams.cli", "run",
             os.path.join(CONFIG_DIR, "constants.cfg"), "--out", str(out)],
            check=True, capture_output=True, preexec_fn=lambda: os.umask(0o022),
            env={**os.environ, "PYTHONPATH": src},
        )
        for name in ("constants.csv", "constants.json"):
            assert (out / name).stat().st_mode & 0o777 == 0o644
        assert sorted(os.listdir(out)) == ["constants.csv", "constants.json"]

    def test_build_hash_computed_once_per_process(self, monkeypatch):
        import hyperadams.reporting as reporting

        calls = []
        real_run = reporting.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args[0])
            return real_run(*args, **kwargs)

        monkeypatch.setattr("hyperadams.reporting.subprocess.run", counting_run)
        reporting._build_hash.cache_clear()
        first = ExperimentReport("a", {}, ["x"], [])
        second = ExperimentReport("b", {}, ["x"], [])
        assert len(calls) == 1 and calls[0][0] == "git"
        assert first.environment["build_hash"] == second.environment["build_hash"]


class TestCLI:
    def test_malformed_config_exit_2_no_output(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "experiment = blowup\nbeta_list = 1.0\n")
        out = tmp_path / "out"
        code = main(["run", cfg, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "converge"])
    @pytest.mark.parametrize(
        "text",
        [
            "experiment = solve-pde\nk = 1\nq1_family = nope\n",
            "experiment = solve-pde\nk = 1\nq1_width = -1\n",
            "experiment = solve-pde\nk = 1\nmode = convex\nq2_amplitude = 1.0\n",
            "experiment = solve-pde\nk = 1\nmode = log-constrained\n"
            "q1_family = rational-decay\nq1_power = 0.1\n",
            "experiment = solve-pde\nk = 1\nr_max = -3\n",
            "experiment = conformal-identity\nk_list = 0\n",
            "experiment = conformal-identity\nlevels = 1\n",
            "experiment = conformal-identity\nlevels = 0\n",
            "experiment = inequalities\nn_profiles = 1\n",
            "experiment = inequalities\ngrading = 0\n",
            "experiment = blowup\nk = 1\nbeta_list = 13.8\nm_list = 1000\nr_max = -2\n",
            "experiment = isometry-2d\nb_max = -0.1\n",
            "experiment = isometry-2d\nb_max = 1.5\n",
            "experiment = isometry-2d\nsupport_radius = 0\n",
            "experiment = isometry-2d\nn_radial = 0\n",
            "experiment = isometry-2d\nn_angular = 0\n",
            "experiment = inequalities\nseed = -1\n",
            "experiment = isometry-2d\nseed = -1\n",
            "experiment = solve-pde\nk = 1\nmax_iter = -1\n",
            "experiment = conformal-identity\nk_list =\n",
            "experiment = isometry-2d\nn_translations = -2\n",
            "experiment = constants\nk_max = 172\n",
            "experiment = constants\nk_max = 113\n",
            "experiment = conformal-identity\ngrading = 300\n",
            "experiment = conformal-identity\ngrading = 1e-300\n",
            "experiment = inequalities\ngrading = 300\n",
            "experiment = solve-pde\nk = 1\ngrading = inf\n",
            "experiment = solve-pde\nk = 1\nmode = log-constrained\nq2_amplitude = 0\n",
            "experiment = blowup\nk = 1\nbeta_list = nan\nm_list = 1000\n",
            "experiment = blowup\nk = 1\nbeta_list = inf\nm_list = 1000\n",
            "experiment = blowup\nk = 1\nbeta_list = 13.8\nm_list = 1000\nr_max = nan\n",
            "experiment = blowup\nk = 1\nbeta_list = 13.8\nm_list = 1000\nr_max = inf\n",
            "experiment = blowup\nk = 1\nbeta_list = 13.8\nm_list = 2, 1000\nr_max = 0.1\n",
            "experiment = solve-pde\nk = 1\ntol = nan\n",
            "experiment = solve-pde\nk = 1\ntol = -1\n",
            "experiment = solve-pde\nk = 1\ntol = 0\n",
            "experiment = conformal-identity\nr_max = 38.12\n",
            "experiment = conformal-identity\nr_max = 37.5\n",
            "experiment = solve-pde\nk = 1\nq1_family = rational-decay\nq1_power = 200\n",
            "experiment = solve-pde\nk = 2\nq1_family = rational-decay\nq1_power = 40\n",
            "experiment = solve-pde\nk = 1.5\n",
            "experiment = solve-pde\nk = 1\ntol = small\n",
            "k = 1\nm_list = 1000\n",
        ],
        ids=[
            "pde-family",
            "pde-width",
            "pde-convex-q2",
            "pde-log-power",
            "pde-r_max",
            "conformal-k_list",
            "conformal-levels1",
            "conformal-levels0",
            "inequalities-n_profiles",
            "inequalities-grading",
            "blowup-r_max",
            "isometry-b_max-negative",
            "isometry-b_max-outside",
            "isometry-support_radius",
            "isometry-n_radial",
            "isometry-n_angular",
            "inequalities-seed",
            "isometry-seed",
            "pde-max_iter",
            "conformal-k_list-empty",
            "isometry-n_translations",
            "constants-k_max",
            "constants-k_max-overflow",
            "conformal-grading-edges-underflow",
            "conformal-grading-edges-round-to-r_max",
            "inequalities-grading-edges-underflow",
            "pde-grading-inf",
            "pde-log-q2-zero",
            "blowup-beta-nan",
            "blowup-beta-inf",
            "blowup-r_max-nan",
            "blowup-r_max-inf",
            "blowup-r_max-below-first-element",
            "pde-tol-nan",
            "pde-tol-negative",
            "pde-tol-zero",
            "conformal-r_max-tanh-rounds-to-1",
            "conformal-r_max-last-node-rounds-to-1",
            "pde-rational-decay-q1-power-200",
            "pde-rational-decay-q1-power-40-k2",
            "pde-k-not-an-integer",
            "pde-tol-not-a-number",
            "no-experiment-key",
        ],
    )
    def test_out_of_range_value_exit_2_no_output(self, tmp_path, capsys, text, command):
        cfg = write(tmp_path, "bad.cfg", text)
        out = tmp_path / "out"
        assert main([command, cfg, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["experiment = blowup\nk = 1\nbeta_list = 10\n", "experiment = sobolev-asymptotics\nk = 1\n"],
        ids=["blowup", "sobolev-asymptotics"],
    )
    def test_m_above_the_largest_double_exit_2_no_output(self, tmp_path, capsys, text):
        # m is taken to a double (log m, 1/sqrt(m)), which 10^400 has none of;
        # the largest double itself is still a valid m
        validate_config(parse_config_text(text + f"m_list = {int(sys.float_info.max)}\n"))
        cfg = write(tmp_path, "big.cfg", text + f"m_list = 1000, {10**400}\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert "configuration error: m_list must be" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_dir_exit_2_no_output(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = os.path.join(CONFIG_DIR, "constants.cfg")
        assert main(["run", cfg, "--out", str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: cannot write reports to {blocker / 'sub'}" in err
        assert os.listdir(tmp_path) == ["file"] and blocker.read_text() == ""

    @pytest.mark.parametrize(
        "text",
        [
            "experiment = blowup\nbeta_list = 10\nm_list = 1000\nk = 172\n",
            "experiment = solve-pde\nk = 172\n",
            "experiment = conformal-identity\nk_list = 1, 172\n",
            "experiment = inequalities\nk_max = 172\n",
        ],
        ids=["blowup", "solve-pde", "conformal-identity", "inequalities"],
    )
    def test_k_above_112_exit_2_no_output(self, tmp_path, capsys, text):
        # from k = 113 on beta0(k, 2k) overflows a double; 112 still parses
        validate_config(parse_config_text(text.replace("172", "112")))
        cfg = write(tmp_path, "k.cfg", text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert "in [1, 112]" in capsys.readouterr().err
        assert not out.exists()

    def test_sobolev_k_above_11_exit_2_no_output(self, tmp_path, capsys):
        # the sobolev-asymptotics grid ends at r = 32, and sinh^{2k-1}(32)
        # overflows a double from k = 12 on; k = 11 still runs
        text = "experiment = sobolev-asymptotics\nm_list = 2\nk = {}\n"
        assert main(["run", write(tmp_path, "k11.cfg", text.format(11)),
                     "--out", str(tmp_path / "k11")]) == 0
        out = tmp_path / "out"
        assert main(["run", write(tmp_path, "k12.cfg", text.format(12)), "--out", str(out)]) == 2
        assert "configuration error: k must be in [1, 11]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "converge"])
    def test_config_not_utf8_exit_2_no_output(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"experiment = constants\nk_max = 2 # \xff\n")
        out = tmp_path / "out"
        assert main([command, str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: cannot read config file {str(cfg)!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "experiment = solve-pde\nk = 1\nq2_family = bump\nq2_radius = 40\n",
            "experiment = solve-pde\nk = 1\nq1_width = 30\n",
            "experiment = solve-pde\nk = 1\nr_max = 700\n",
            "experiment = solve-pde\nk = 1\nq1_width = 1e-300\n",
            "experiment = solve-pde\nk = 1\nq1_family = bump\nq1_radius = 1e-300\n",
        ],
        ids=["bump-radius-40", "gaussian-width-30", "r_max-700", "gaussian-width-1e-300",
             "bump-radius-1e-300"],
    )
    def test_l2_data_on_any_finite_grid_exit_0(self, tmp_path, text):
        # gaussian and bump data are in L^2(dv_g) at any width or radius, and
        # at k = 1 the grid weight is finite up to r = 708.6; a width or radius
        # of 1e-300 squares r/width to inf off the axis, which is no warning
        cfg = write(tmp_path, "pde.cfg", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "solve-pde.csv").exists()

    def test_constants_at_largest_k_max_has_finite_cells(self, tmp_path):
        # from k = 113 on beta0(k, 2k) and the closed forms overflow
        cfg = write(tmp_path, "c.cfg", "experiment = constants\nk_max = 112\n")
        assert main(["run", cfg, "--out", str(tmp_path)]) == 0
        body = (tmp_path / "constants.csv").read_text().lower()
        assert "inf" not in body and "nan" not in body

    @pytest.mark.parametrize(
        "text",
        [
            "experiment = blowup\nk = 2\nbeta_list = 1000\nm_list = 1" + "0" * 200 + "\n",
            "experiment = sobolev-asymptotics\nk = 2\nm_list = 1" + "0" * 200 + "\n",
        ],
        ids=["blowup", "sobolev-asymptotics"],
    )
    def test_non_positive_axis_mass_exit_3_no_output(self, tmp_path, capsys, text):
        # at m = 1e200 the axis element's weight underflows; the lumped mass
        # cannot be corrected and that is a numerical failure, not a crash.
        # m sets the first width here (neither experiment reads grading), so
        # the advice is to lower m
        cfg = write(tmp_path, "axis.cfg", text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: axis mass correction came out non-positive" in err
        assert "at m = 1e+200, k = 2" in err and err.rstrip().endswith("; lower m")
        assert "coarsen" not in err and "grading" not in err
        assert not out.exists()

    def test_overflowed_blowup_functional_exit_3_no_output(self, tmp_path, capsys):
        # at k = 2, 1.1 beta0 and m = 1e150 the functional is inf: a
        # numerical failure naming beta and m, not an inf CSV cell
        text = (
            "experiment = blowup\nk = 2\nbeta_list = 347.3\n"
            f"m_list = {10**30}, {10**150}\n"
        )
        cfg = write(tmp_path, "huge.cfg", text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: the functional at beta = 347.3, m = 1e+150" in err
        assert "lower beta or m" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "experiment = inequalities\ngrading = 50\n",
            "experiment = conformal-identity\nr_max = 1e-300\n",
        ],
        ids=["grading", "r_max"],
    )
    def test_short_axis_element_exit_3_names_the_fix(self, tmp_path, capsys, text):
        cfg = write(tmp_path, "axis.cfg", text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: axis mass correction came out non-positive" in err
        assert "the first element is too short; coarsen it" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "experiment = inequalities\nr_max = 1000\n",
            "experiment = blowup\nk = 1\nbeta_list = 13.8\nm_list = 1000\nr_max = 1000\n",
            "experiment = solve-pde\nk = 1\nr_max = 800\n",
        ],
        ids=["inequalities", "blowup", "solve-pde"],
    )
    def test_overflowing_volume_weight_exit_3_no_output(self, tmp_path, capsys, text):
        # sinh^{N-1} r overflows a double below r_max = 1000 (or 800); the weights
        # would be inf and the integrals NaN.  The message is the only output:
        # the overflow itself raises no RuntimeWarning
        cfg = write(tmp_path, "wide.cfg", text)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg, "--out", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "numerical failure: hyperbolic volume weight" in err and "r_max" in err
        assert not out.exists()

    def test_blowup_r_max_overflow_is_decided_before_any_edge(
        self, tmp_path, capsys, monkeypatch
    ):
        # capped at width 1, the edges up to r_max = 1e300 would never be laid
        def lay_no_edges(*args, **kwargs):
            raise AssertionError("geometric edges laid for an overflowing r_max")

        monkeypatch.setattr(ball, "geometric_edges", lay_no_edges)
        text = "experiment = blowup\nk = 1\nbeta_list = 13.8\nm_list = 1000\nr_max = 1e300\n"
        cfg = write(tmp_path, "huge.cfg", text)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: hyperbolic volume weight sinh^(N-1) r overflows "
            "below r_max = 1e+300; lower r_max\n"
        )

    @pytest.mark.parametrize(
        "k, r_max",
        [(1, 800), (2, 230), (2, 200), (3, 135)],
        ids=["k1-grid-overflows", "k2-tail-overflows", "k2-shift-overflows", "k3-band-overflows"],
    )
    def test_tail_check_overflow_names_r_max(self, tmp_path, capsys, k, r_max):
        # a grid the doubles cannot carry is blamed on r_max, not on the data:
        # at k = 1 the volume weight overflows below 800; at k = 2 and 230 and
        # at k = 3 and 135 the weight is finite but the Newton band is not; at
        # k = 2 and 200 the band is finite, but the Levenberg shift of a step
        # that does not descend overflows
        text = f"experiment = solve-pde\nk = {k}\nr_max = {r_max}\n"
        cfg = write(tmp_path, "wide.cfg", text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would fail the run
            assert main(["run", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"r_max = {r_max}" in err and "overflows" in err
        assert "square-integrable" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "converge"])
    @pytest.mark.parametrize(
        "text",
        [
            "experiment = solve-pde\nk = 1\nq1_amplitude = 1e200\n",
            "experiment = solve-pde\nk = 1\nq1_amplitude = 1e300\n",
            "experiment = solve-pde\nk = 2\nmode = log-constrained\n"
            "q1_amplitude = 1e200\nq2_amplitude = 1\n",
            "experiment = solve-pde\nk = 3\nmode = log-constrained\n"
            "q1_amplitude = 1e300\nq2_amplitude = 1\n",
        ],
        ids=["convex-1e200", "convex-1e300", "log-k2-1e200", "log-k3-1e300"],
    )
    def test_overflowing_pde_residual_exit_3_no_output(self, tmp_path, capsys, text, command):
        # the residual's dv_g-norm overflows a double at the start point: a
        # numerical failure naming the data, not an inf residual_norm cell
        cfg = write(tmp_path, "loud.cfg", text)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, cfg, "--out", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "numerical failure: the PDE residual overflows a double" in err
        assert "lower the data amplitudes" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "experiment = blowup\nk = 10\nbeta_list = 1e18\nm_list = 100, 1000000000000\n",
            "experiment = sobolev-asymptotics\nk = 10\nm_list = 100, 1000000000000\n",
        ],
        ids=["blowup", "sobolev-asymptotics"],
    )
    def test_overflowing_moser_energy_exit_3_no_output(self, tmp_path, capsys, text):
        # at k = 10 and m = 1e12 the flat energy of the Moser profile
        # overflows: a numerical failure naming m and k, not an inf energy cell
        cfg = write(tmp_path, "energy.cfg", text)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg, "--out", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "numerical failure: the Moser energy at m = 1e+12, k = 10 overflows" in err
        assert not out.exists()

    def test_isometry_support_between_nodes_exit_3_no_output(self, tmp_path, capsys):
        # the one radial Gauss node sits at s = 0.46, outside the support, so
        # the base integral is 0 and no relative deviation is defined
        cfg = write(tmp_path, "iso.cfg", "experiment = isometry-2d\nn_radial = 1\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        assert "numerical failure: no disk node lies inside the support" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_parser_built_once_and_errors_still_exit_2(self, capsys):
        assert _parser() is _parser()
        messages = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["frobnicate"])
            assert exc.value.code == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1] and "invalid choice: 'frobnicate'" in messages[0]

    def test_constants_contains_first_order_row(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "experiment = constants\nk_max = 6\n")
        code = main(["run", cfg, "--out", str(tmp_path)])
        assert code == 0
        body = csv_body(str(tmp_path / "constants.csv")).decode()
        target = f"{4 * math.pi:.16e}"
        assert any(
            line.startswith("beta0_critical,1,2,") and target in line
            for line in body.splitlines()
        )

    def test_determinism_byte_identical_bodies(self, tmp_path):
        cfg = write(
            tmp_path,
            "ineq.cfg",
            "experiment = inequalities\nn_profiles = 10\nk_max = 2\nseed = 9\n"
            "n_elements = 10\npoly_degree = 5\n",
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out1)]) == 0
        assert main(["run", cfg, "--out", str(out2)]) == 0
        assert csv_body(str(out1 / "inequalities.csv")) == csv_body(
            str(out2 / "inequalities.csv")
        )

    def test_config_echo_reparses_equal(self, tmp_path):
        cfg_path = write(
            tmp_path,
            "s.cfg",
            "experiment = sobolev-asymptotics\nk = 1\nm_list = 100, 1000\n",
        )
        assert main(["run", cfg_path, "--out", str(tmp_path)]) == 0
        payload = json.loads(open(tmp_path / "sobolev-asymptotics.json").read())
        echo = payload["config"]
        raw = {
            k: ", ".join(str(x) for x in v) if isinstance(v, list) else str(v)
            for k, v in echo.items()
        }
        again = validate_config(raw)
        assert again.experiment == "sobolev-asymptotics"
        assert again.params["m_list"] == (100, 1000)

    def test_output_dir_from_config(self, tmp_path):
        target = tmp_path / "cfg_out"
        cfg = write(
            tmp_path,
            "c.cfg",
            f"experiment = constants\nk_max = 2\noutput = {target}\n",
        )
        assert main(["run", cfg]) == 0
        assert (target / "constants.csv").exists()

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, "c.cfg", "experiment = constants\nk_max = 2\n")
        monkeypatch.setenv("HYPERADAMS_THREADS", "2")
        assert main(["run", cfg, "--out", str(tmp_path)]) == 0
        monkeypatch.setenv("HYPERADAMS_THREADS", "zebra")
        assert main(["run", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["run", "converge"])
    @pytest.mark.parametrize(
        "flag, env", [("0", None), ("-3", None), (None, "-1"), (None, "0")],
        ids=["flag-0", "flag-negative", "env-negative", "env-0"],
    )
    def test_non_positive_threads_exit_2_no_output(
        self, tmp_path, capsys, monkeypatch, command, flag, env
    ):
        cfg = write(
            tmp_path, "i.cfg", "experiment = inequalities\nk_max = 1\nn_profiles = 4\n"
        )
        if env is None:
            monkeypatch.delenv("HYPERADAMS_THREADS", raising=False)
        else:
            monkeypatch.setenv("HYPERADAMS_THREADS", env)
        argv = [command, cfg, "--out", str(tmp_path / "out")]
        assert main(argv + (["--threads", flag] if flag else [])) == 2
        captured = capsys.readouterr()
        assert "threads must be a positive integer" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_threads_preserve_determinism(self, tmp_path):
        cfg = write(
            tmp_path,
            "b.cfg",
            "experiment = blowup\nk = 1\nbeta_list = 13.823, 11.31\n"
            "m_list = 100, 1000, 10000\nseed = 3\n",
        )
        out1, out2 = tmp_path / "t1", tmp_path / "t3"
        assert main(["run", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["run", cfg, "--out", str(out2), "--threads", "3"]) == 0
        assert csv_body(str(out1 / "blowup.csv")) == csv_body(str(out2 / "blowup.csv"))

    def test_blowup_truncation_tail_is_in_the_json(self, tmp_path):
        # r_max just above the first element width truncates the functional:
        # the run still exits 0 with the same stderr, and the JSON says why
        cfg = write(
            tmp_path,
            "b.cfg",
            "experiment = blowup\nk = 1\nbeta_list = 13.823, 11.31\n"
            "r_max = 0.11\nm_list = 2, 100\n",
        )
        message = (
            "tail beyond the truncation radius exceeds 1e-12 of the functional; "
            "increase R_max"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            with warnings.catch_warnings(record=True) as shown:
                assert main(["run", cfg, "--out", str(tmp_path)]) == 0
        assert [str(w.message) for w in shown] == [message]
        assert "extremals.py" in shown[0].filename
        payload = json.loads((tmp_path / "blowup.json").read_text())
        assert payload["diagnostics"]["warnings"] == [f"UserWarning: {message}"]
        clean = write(
            tmp_path,
            "c.cfg",
            "experiment = blowup\nk = 1\nbeta_list = 13.823\nm_list = 100, 1000\n",
        )
        assert main(["run", clean, "--out", str(tmp_path / "c")]) == 0
        payload = json.loads((tmp_path / "c" / "blowup.json").read_text())
        assert payload["diagnostics"]["warnings"] == []

    def test_blowup_fit_warning_is_in_the_json(self, tmp_path):
        # the warnings raised while the records and their fits are computed
        # (here the truncation tail of r_max = 0.5) are shown on stderr, and
        # the JSON lists them; a span of log m too short for a fit gives a nan
        # slope and no warning
        cfg = write(
            tmp_path,
            "b.cfg",
            "experiment = blowup\nk = 1\nbeta_list = 13.8\n"
            "m_list = 100, 1000\nr_max = 0.5\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            with warnings.catch_warnings(record=True) as shown:
                assert main(["run", cfg, "--out", str(tmp_path)]) == 0
        assert shown and all(
            "increase R_max" in str(w.message) and "extremals.py" in w.filename
            for w in shown
        )
        payload = json.loads((tmp_path / "blowup.json").read_text())
        assert payload["diagnostics"]["warnings"] == [
            f"{w.category.__name__}: {w.message}" for w in shown
        ]

    def test_converge_inequalities_sign_stable(self, tmp_path):
        cfg = write(
            tmp_path,
            "i.cfg",
            "experiment = inequalities\nn_profiles = 10\nk_max = 2\nseed = 4\n"
            "n_elements = 8\npoly_degree = 5\n",
        )
        assert main(["converge", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads(
            open(tmp_path / "inequalities-convergence.json").read()
        )
        assert payload["diagnostics"]["sign_stable"]

    def test_calibration_row_counts_the_profiles_it_fits(self, tmp_path):
        # the calibration fits at most 20 profiles; with fewer, it fits them all
        cfg = write(
            tmp_path, "i.cfg", "experiment = inequalities\nk_max = 1\nn_profiles = 5\n"
        )
        assert main(["run", cfg, "--out", str(tmp_path)]) == 0
        rows = json.loads(open(tmp_path / "inequalities.json").read())["rows"]
        calibration = [row for row in rows if row[0] == "linearized_calibration"]
        assert [row[3] for row in calibration] == [5]

    def test_converge_requires_capable_experiment(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "experiment = constants\n")
        assert main(["converge", cfg, "--out", str(tmp_path)]) == 2

    def test_converge_conformal_passes(self, tmp_path):
        cfg = write(
            tmp_path,
            "conv.cfg",
            "experiment = conformal-identity\nk_list = 2\nn_elements = 6\n"
            "poly_degree = 6\nr_max = 9.0\ngrading = 2.5\n",
        )
        assert main(["converge", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads(
            open(tmp_path / "conformal-identity-convergence.json").read()
        )
        assert payload["diagnostics"]["passed"]
        assert payload["diagnostics"]["observed_min_order"] >= 3.5

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "p.cfg",
            "experiment = solve-pde\nk = 2\nmode = convex\nr_max = 12.0\n"
            "n_elements = 12\npoly_degree = 4\ngrading = 1.5\n"
            "q1_family = gaussian\nq1_amplitude = 1.0\n"
            "q2_family = gaussian\nq2_amplitude = -1.0\n"
            "tol = 1e-15\nmax_iter = 3\n",
        )
        assert main(["run", cfg, "--out", str(tmp_path)]) == 4
        assert "solver did not converge" in capsys.readouterr().err
        payload = json.loads(open(tmp_path / "solve-pde.json").read())
        assert "failure" not in payload
        assert "failure" not in (tmp_path / "solve-pde.csv").read_text()


class TestShippedConfigs:
    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_run_exits_zero(self, name, tmp_path):
        cfg = os.path.join(CONFIG_DIR, name)
        assert main(["run", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("name", STUDY_CONFIGS)
    def test_converge_solve_pde_exits_zero(self, name, tmp_path):
        # every shipped config whose experiment has a refinement study
        cfg = os.path.join(CONFIG_DIR, name)
        assert main(["converge", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("name", sorted(set(SHIPPED_CONFIGS) - set(STUDY_CONFIGS)))
    def test_converge_without_study_exits_2(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["converge", os.path.join(CONFIG_DIR, name), "--out", str(out)]) == 2
        assert "does not support refinement studies" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_headers_are_the_columns_table(self, tmp_path):
        # one header per report: the README table is COLUMNS, COLUMNS names
        # the seven runs and the three studies, and line 2 of each written
        # CSV is its entry
        studies = ("conformal-identity", "inequalities", "solve-pde")
        assert set(COLUMNS) == set(SCHEMAS) | {f"{e}-convergence" for e in studies}
        assert readme_columns() == COLUMNS
        for command, names in (("run", SHIPPED_CONFIGS), ("converge", STUDY_CONFIGS)):
            for name in names:
                out = tmp_path / command / name
                assert main([command, os.path.join(CONFIG_DIR, name), "--out", str(out)]) == 0
                (csv,) = out.glob("*.csv")
                assert csv.read_text().split("\n")[1] == COLUMNS[csv.stem].replace(", ", ",")

    @pytest.mark.parametrize("command", ["run", "converge"])
    @pytest.mark.parametrize(
        "name",
        ["solve_pde_linear_k1.cfg", "solve_pde_log_k1.cfg", "solve_pde_convex_k2.cfg"],
    )
    def test_one_ulp_stiffness_perturbation_exits_zero(
        self, name, command, tmp_path, monkeypatch
    ):
        # a verdict must not hang on the last bits of K, which another BLAS
        # kernel or summation order would change: each structurally nonzero
        # entry, in CSR order, is multiplied by 1 + 2^-52 U(-1, 1), then K is
        # symmetrized and put back in band storage
        stiffness = Mesh1D.stiffness
        cfg = os.path.join(CONFIG_DIR, name)
        failed = []
        for draw in range(20):
            rng = np.random.default_rng(draw)

            def perturbed(mesh, coeff):
                K = csr_of_band(stiffness(mesh, coeff))
                K.data *= 1.0 + 2.0**-52 * rng.uniform(-1.0, 1.0, K.data.size)
                return band_of_csr(((K + K.T) / 2).tocsr(), mesh.p)

            monkeypatch.setattr(Mesh1D, "stiffness", perturbed)
            code = main([command, cfg, "--out", str(tmp_path / str(draw))])
            if code != 0:
                failed.append((draw, code))
        assert failed == []

    def test_converge_failure_names_the_failed_check(self, tmp_path, capsys):
        # the k=2 convex study fails on its tolerance check, not on an order:
        # from 48 elements up the k=2 levels stall at their roundoff floor
        with open(os.path.join(CONFIG_DIR, "solve_pde_convex_k2.cfg")) as fh:
            text = fh.read().replace("n_elements = 12", "n_elements = 48")
        cfg = write(tmp_path, "solve_pde_convex_k2_48.cfg", text)
        assert main(["converge", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "residual is above tol" in err
        assert "order" not in err


@pytest.mark.skipif(
    pde.lapack_path() != "numpy-openblas64",
    reason="numpy ships no 64-bit-integer OpenBLAS dgbsv here, so solve-pde "
    "falls back to scipy.linalg.lapack",
)
def test_no_run_loads_scipy(tmp_path):
    # K is applied in band storage by numpy and each Newton step is solved by
    # the OpenBLAS numpy already loaded, so neither starting the CLI nor any
    # shipped run, nor a solve-pde refinement study, loads a scipy module
    src = os.path.dirname(os.path.dirname(hyperadams.__file__))
    code = f"""
import os, sys
import hyperadams.cli as cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print("@ import", scipy_modules())
for name in {SHIPPED_CONFIGS!r}:
    out = os.path.join({str(tmp_path)!r}, name)
    assert cli.main(["run", os.path.join({CONFIG_DIR!r}, name), "--out", out]) == 0
    print("@", name, scipy_modules())
cfg = os.path.join({CONFIG_DIR!r}, "solve_pde_log_k1.cfg")
assert cli.main(["converge", cfg, "--out", os.path.join({str(tmp_path)!r}, "study")]) == 0
print("@ converge", scipy_modules())
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    lines = [line for line in out.stdout.splitlines() if line.startswith("@ ")]
    assert lines == (
        ["@ import []"] + [f"@ {name} []" for name in SHIPPED_CONFIGS] + ["@ converge []"]
    )
    assert any(name.startswith("solve_pde") for name in SHIPPED_CONFIGS)


@pytest.mark.parametrize("lapack", ["direct", "fallback"])
def test_solve_pde_report_names_its_lapack(lapack, tmp_path, monkeypatch):
    # the JSON environment says which LAPACK solved the Newton steps; other
    # experiments' reports carry no such entry
    if lapack == "fallback":
        monkeypatch.setattr(pde, "_numpy_gbsv", lambda: None)
    expected = pde.lapack_path()
    assert expected in ("numpy-openblas64", "scipy")
    assert lapack == "direct" or expected == "scipy"
    for command, cfg, name in [
        ("run", "solve_pde_log_k1.cfg", "solve-pde"),
        ("converge", "solve_pde_linear_k1.cfg", "solve-pde-convergence"),
        ("run", "constants.cfg", "constants"),
    ]:
        assert main([command, os.path.join(CONFIG_DIR, cfg), "--out", str(tmp_path)]) == 0
        with open(tmp_path / f"{name}.json") as fh:
            environment = json.load(fh)["environment"]
        assert environment.get("lapack") == (None if name == "constants" else expected)
