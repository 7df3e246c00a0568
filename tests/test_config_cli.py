"""Config ingestion and the command-line surface."""

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fibertpa import gaussian_jsi, gaussian_te_analytic, load_config
from fibertpa.cli import main
from fibertpa.errors import ConfigError

from tests.conftest import CONFIG_DIR

SRC_DIR = CONFIG_DIR.parent / "src"


@pytest.fixture
def exp3(tmp_path):
    dst = tmp_path / "experiment-3.json"
    shutil.copy(CONFIG_DIR / "experiment-3.json", dst)
    return dst


def rewrite(path, mutate):
    cfg = json.loads(path.read_text())
    mutate(cfg)
    path.write_text(json.dumps(cfg))
    return path


class TestConfigLoading:
    def test_bundled_configs_load(self):
        for name in ("experiment-1", "experiment-2", "experiment-3",
                     "experiment-spdc"):
            cfg = load_config(CONFIG_DIR / f"{name}.json")
            assert cfg.fiber.core_diameter_um == 5.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    def test_missing_section_names_field(self, exp3):
        rewrite(exp3, lambda c: c.pop("fiber"))
        with pytest.raises(ConfigError, match="fiber"):
            load_config(exp3)

    def test_missing_field_names_path(self, exp3):
        rewrite(exp3, lambda c: c["fiber"].pop("core_diameter_um"))
        with pytest.raises(ConfigError, match="fiber.core_diameter_um"):
            load_config(exp3)

    def test_unknown_key_rejected(self, exp3):
        rewrite(exp3, lambda c: c["fiber"].__setitem__("coer_diameter_um", 5.0))
        with pytest.raises(ConfigError, match="coer_diameter_um"):
            load_config(exp3)

    def test_unit_sanity_checked(self, exp3):
        rewrite(exp3, lambda c: c["fiber"].__setitem__("length_cm", -36.0))
        with pytest.raises(ConfigError, match="length_cm"):
            load_config(exp3)

    def test_dangling_path_rejected(self, exp3):
        rewrite(exp3, lambda c: c["fluorophore"].__setitem__(
            "emission_spectrum_csv", "missing.csv"))
        with pytest.raises(ConfigError, match="missing.csv"):
            load_config(exp3)

    def test_photon_energy_mismatch_rejected(self, exp3):
        rewrite(exp3, lambda c: c["source"].__setitem__("photon_energy_j", 3e-19))
        with pytest.raises(ConfigError, match="photon energy"):
            load_config(exp3)

    def test_inline_material_definition(self, exp3):
        rewrite(exp3, lambda c: c["fiber"].__setitem__("core_material", {
            "name": "custom_oil", "convention": "inverse_power",
            "coefficients": [[2.25, 0.0]], "valid_range_nm": [300.0, 1500.0]}))
        cfg = load_config(exp3)
        assert cfg.fiber.core.name == "custom_oil"

    def test_unknown_registry_material_rejected(self, exp3):
        rewrite(exp3, lambda c: c["fiber"].__setitem__("core_material", "water"))
        with pytest.raises(ConfigError, match="water"):
            load_config(exp3)

    def test_scatter_table_from_csv_path(self, exp3):
        csv_path = exp3.parent / "scatter.csv"
        csv_path.write_text("wavelength_nm,coefficient_per_cm\n"
                            "451.0,0.0301\n810.0,0.0\n")
        rewrite(exp3, lambda c: c["fiber"].__setitem__("scatter_per_cm",
                                                       "scatter.csv"))
        cfg = load_config(exp3)
        assert cfg.fiber.scatter_per_cm(451.0) == pytest.approx(0.0301)
        assert cfg.fiber.scatter_per_cm(810.0) == 0.0


_DELETE = object()


def edit(dotted, value=_DELETE):
    """Config mutation: set (or, without a value, delete) one dotted path;
    integer parts index lists and missing objects are created."""
    def mutate(cfg):
        *parents, last = (int(k) if k.isdigit() else k for k in dotted.split("."))
        node = cfg
        for key in parents:
            node = node[key] if isinstance(key, int) else node.setdefault(key, {})
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
    return mutate


# (bundled config, subcommand, mutation): malformed inputs that must end in
# exit 2 and an error line, never a traceback or a run on a wrong value
MALFORMED = [
    pytest.param("experiment-3", "report", edit("measurement.budget.0.name"),
                 id="budget-entry-without-name"),
    pytest.param("experiment-3", "invert-c2pa",
                 edit("measurement.budget.0.rel_sigma", -0.1), id="negative-rel-sigma"),
    pytest.param("experiment-3", "invert-c2pa", edit("measurement.coverage_k", 0),
                 id="zero-coverage-k"),
    pytest.param("experiment-spdc", "report", edit("comparison.other.te_fs"),
                 id="partial-comparison"),
    pytest.param("experiment-3", "report", edit("measurement.eta_t", 1.5),
                 id="eta-t-above-one"),
    pytest.param("experiment-3", "report", edit("measurement.eta_t", 1.0),
                 id="eta-t-inconsistent-with-losses"),
    pytest.param("experiment-3", "invert-c2pa",
                 edit("tolerances.z_quadrature_rtl", 1e-6), id="tolerance-typo"),
    pytest.param("experiment-3", "invert-c2pa",
                 edit("tolerances.z_quadrature_rtol", "x"), id="string-tolerance"),
    pytest.param("experiment-3", "invert-c2pa", edit("fiber.length_cm", True),
                 id="bool-length"),
    pytest.param("experiment-3", "report", edit("fiber.gvd_fs2_per_cm", True),
                 id="bool-optional-number"),
    pytest.param("experiment-3", "report", edit("fiber.scatter_per_cm", True),
                 id="bool-table"),
    pytest.param("experiment-spdc", "e2pa-bound", edit("te_model.s0", True),
                 id="bool-s0"),
    pytest.param("experiment-3", "invert-c2pa",
                 edit("measurement.fc_per_w0sq_cnt_s_uw2", "abc"),
                 id="string-fit-coefficient"),
    pytest.param("experiment-3", "report", edit("measurement.fc_per_w0sq", 1.0),
                 id="unknown-measurement-key"),
    pytest.param("experiment-3", "simulate-c2pef", edit("measurement.sigma_c_gm", -5.0),
                 id="negative-sigma-c"),
    pytest.param("experiment-3", "invert-c2pa", edit("fluorophore.quantum_yield", 0.0),
                 id="dark-fluorophore"),
    pytest.param("experiment-3", "report", edit("seeds", "x"), id="string-seeds"),
    pytest.param("experiment-3", "report", edit("seeds.frames", 1.5),
                 id="non-integer-seed"),
    pytest.param("experiment-3", "synth-frames", edit("seeds.frames", -1),
                 id="negative-seed"),
    pytest.param("experiment-3", "report", edit("detection.band_nm", [400]),
                 id="one-number-band"),
]


def jsi_args(tmp_path, *flags, cell=None):
    """entanglement-time on a small Gaussian JSI, optionally with the first
    intensity cell replaced by `cell`."""
    path = tmp_path / "jsi.csv"
    gaussian_jsi(5e13, 2.325e15, n=64).write_csv(path)
    if cell is not None:
        lines = path.read_text().splitlines()
        lines[3] = ",".join([cell] + lines[3].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
    return ["entanglement-time", "--jsi", str(path), "--gdd-fs2", "0",
            "--gvd-fs2-per-cm", "0", "--z-grid", "0:1:1",
            "--out", str(tmp_path / "out"), *flags]


def bad_frame_args(tmp_path):
    run = tmp_path / "frames"
    assert main(["synth-frames", "--truth-rate", "1.0", "--n", "2", "--seed", "1",
                 "--out", str(run)]) == 0
    (run / "sig_00000.csv").write_text("x,y\n")
    return ["analyze-frames", "--manifest", str(run / "manifest.json"),
            "--out", str(tmp_path / "out")]


def config_args(command, name, *flags):
    return lambda tmp_path: [command, "--config", str(CONFIG_DIR / f"{name}.json"),
                             *flags]


# command lines (built in a temporary directory) that must end in exit 2 and
# an error line, never a traceback or a run on a non-finite value
BAD_ARGUMENTS = [
    pytest.param(lambda t: jsi_args(t, "--zero-pad", "0"), id="zero-pad-0"),
    pytest.param(lambda t: jsi_args(t, "--zero-pad", "-2"), id="zero-pad-negative"),
    pytest.param(lambda t: jsi_args(t, "--gdd-fs2", "nan"), id="gdd-nan"),
    pytest.param(lambda t: jsi_args(t, "--gvd-fs2-per-cm", "inf"), id="gvd-inf"),
    pytest.param(lambda t: jsi_args(t, "--z-grid", "0:nan:1"), id="z-grid-nan"),
    pytest.param(lambda t: jsi_args(t, cell="nan"), id="jsi-nan-cell"),
    pytest.param(lambda t: jsi_args(t, cell="inf"), id="jsi-inf-cell"),
    pytest.param(bad_frame_args, id="frame-non-numeric-cell"),
    pytest.param(config_args("invert-c2pa", "experiment-3", "--fit-coefficient", "nan"),
                 id="fit-coefficient-nan"),
    pytest.param(config_args("invert-c2pa", "experiment-3", "--fit-coefficient", "inf"),
                 id="fit-coefficient-inf"),
    pytest.param(config_args("e2pa-bound", "experiment-spdc", "--flb", "nan"),
                 id="flb-nan"),
    pytest.param(config_args("e2pa-bound", "experiment-spdc", "--flb", "-1"),
                 id="flb-negative"),
    pytest.param(config_args("e2pa-bound", "experiment-spdc", "--flb", "0"),
                 id="flb-zero"),
    pytest.param(config_args("report", "experiment-spdc", "--flb", "-1"),
                 id="report-flb-negative"),
    pytest.param(config_args("simulate-c2pef", "experiment-3", "--sigma-c-gm", "inf"),
                 id="sigma-c-inf"),
    pytest.param(config_args("simulate-c2pef", "experiment-3", "--power-grid",
                             "1e-9:inf:5"), id="power-grid-inf"),
    pytest.param(lambda t: ["synth-frames", "--truth-rate", "nan", "--n", "1",
                            "--out", str(t / "out")], id="truth-rate-nan"),
    pytest.param(lambda t: ["simulate-c2pef", "--config",
                            str(CONFIG_DIR / "experiment-3.json"),
                            "--sigma-c-gm", "-5", "--out", str(t / "out")],
                 id="sigma-c-negative"),
    pytest.param(lambda t: ["synth-frames", "--truth-rate", "1", "--n", "1",
                            "--cic-probability", "2", "--out", str(t / "out")],
                 id="cic-probability-above-1"),
    pytest.param(lambda t: ["synth-frames", "--truth-rate", "1", "--n", "1",
                            "--cic-probability", "-0.1", "--out", str(t / "out")],
                 id="cic-probability-negative"),
]


class TestCliExitCodes:
    @pytest.mark.parametrize("build_argv", BAD_ARGUMENTS)
    def test_bad_argument_exits_2(self, tmp_path, capsys, build_argv):
        argv = build_argv(tmp_path)
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "error: " in err.splitlines()[-1]
        assert "Traceback" not in err

    @pytest.mark.parametrize("base,command,mutate", MALFORMED)
    def test_malformed_config_exits_2(self, tmp_path, capsys, base, command, mutate):
        path = tmp_path / f"{base}.json"
        shutil.copy(CONFIG_DIR / f"{base}.json", path)
        rewrite(path, mutate)
        argv = [command, "--config", str(path)]
        if command == "synth-frames":
            argv += ["--truth-rate", "1.0", "--n", "1", "--out", str(tmp_path / "out")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_mislabelled_jsi_rejected_under_optimize(self, tmp_path):
        # -O strips assert statements, so header checks must not rely on them
        path = tmp_path / "jsi.csv"
        gaussian_jsi(5e13, 2.325e15, n=64).write_csv(path)
        path.write_text(path.read_text().replace("omega_signal_rad_s", "omega_s"))
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "fibertpa.cli", "entanglement-time",
             "--jsi", str(path), "--gdd-fs2", "0", "--gvd-fs2-per-cm", "0",
             "--z-grid", "0:1:1", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_missing_section_exits_2(self, exp3, capsys):
        rewrite(exp3, lambda c: c.pop("fiber"))
        assert main(["report", "--config", str(exp3)]) == 2
        assert "fiber" in capsys.readouterr().err

    def test_negative_fit_coefficient_exits_2(self, exp3):
        assert main(["invert-c2pa", "--config", str(exp3),
                     "--fit-coefficient", "-3.0"]) == 2

    def test_zero_frames_exits_2(self, tmp_path):
        assert main(["synth-frames", "--truth-rate", "1.0", "--n", "0",
                     "--out", str(tmp_path)]) == 2

    def test_unreadable_manifest_exits_2(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{oops")
        assert main(["analyze-frames", "--manifest", str(bad),
                     "--out", str(tmp_path)]) == 2

    def test_malformed_jsi_exits_2(self, tmp_path):
        bad = tmp_path / "jsi.csv"
        bad.write_text("this,is,not\na,jsi,grid\n")
        assert main(["entanglement-time", "--jsi", str(bad), "--gdd-fs2", "0",
                     "--gvd-fs2-per-cm", "0", "--out", str(tmp_path)]) == 2

    def test_numerical_failure_exits_3(self, exp3, capsys):
        # an attosecond pulse whose chirp cancels 0.02 cm into the fiber
        # peaks 1/tau(z) over ~1e-16 cm, below what the depth quadrature
        # can resolve within its panel budget
        rewrite(exp3, lambda c: c["source"].update(
            pulse_fwhm_fs=1e-6, pre_fiber_gdd_fs2=-1034.0 * 0.02))
        code = main(["invert-c2pa", "--config", str(exp3)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestCliCommands:
    def test_simulate_slope_is_two(self, exp3, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["simulate-c2pef", "--config", str(exp3),
                     "--power-grid", "1e-9:1e-7:9", "--sigma-c-gm", "570",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(open(out / "c2pef_power_sweep.csv")))[1:]
        w = np.array([float(r[0]) for r in rows])
        f = np.array([float(r[1]) for r in rows])
        slopes = np.diff(np.log(f)) / np.diff(np.log(w))
        assert np.allclose(slopes, 2.0, atol=1e-9)

    def test_invert_round_trips_with_simulate(self, exp3, tmp_path, capsys):
        out = tmp_path / "sweep"
        main(["simulate-c2pef", "--config", str(exp3), "--power-grid",
              "1e-9:1e-8:3", "--sigma-c-gm", "570", "--out", str(out)])
        rows = list(csv.reader(open(out / "c2pef_power_sweep.csv")))[1:]
        w0, fc = (float(x) for x in rows[0])
        capsys.readouterr()
        coeff_uw2 = fc / (w0 * 1e6) ** 2
        code = main(["invert-c2pa", "--config", str(exp3),
                     "--fit-coefficient", str(coeff_uw2)])
        assert code == 0
        text = capsys.readouterr().out
        assert "sigma_C = 570.0" in text

    def test_invert_batch_averages(self, capsys):
        code = main(["invert-c2pa",
                     "--config", str(CONFIG_DIR / "experiment-1.json"),
                     "--config", str(CONFIG_DIR / "experiment-2.json"),
                     "--config", str(CONFIG_DIR / "experiment-3.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "average sigma_C" in out
        assert "over 3 experiments" in out

    def test_e2pa_bound_runs(self, capsys):
        code = main(["e2pa-bound", "--config",
                     str(CONFIG_DIR / "experiment-spdc.json"), "--flb", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sigma_E upper bound" in out
        assert "entanglement area interval" in out

    def test_e2pa_bound_needs_pair_source(self, exp3):
        assert main(["e2pa-bound", "--config", str(exp3)]) == 2

    def test_entanglement_time_matches_oracle(self, tmp_path, capsys):
        js = gaussian_jsi(5e13, 2.325e15, n=96)
        jsi_path = tmp_path / "jsi.csv"
        js.write_csv(jsi_path)
        out = tmp_path / "te"
        code = main(["entanglement-time", "--jsi", str(jsi_path),
                     "--gdd-fs2", "1000", "--gvd-fs2-per-cm", "0",
                     "--z-grid", "0:4:1", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(open(out / "entanglement_time.csv")))[1:]
        te0 = float(rows[0][1])
        assert te0 == pytest.approx(gaussian_te_analytic(5e13, 1000.0), rel=0.01)

    def test_frames_closed_loop_through_cli(self, tmp_path, capsys):
        run = tmp_path / "frames"
        assert main(["synth-frames", "--truth-rate", "1.6", "--n", "96",
                     "--seed", "7", "--out", str(run)]) == 0
        out = tmp_path / "analysis"
        assert main(["analyze-frames", "--manifest", str(run / "manifest.json"),
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "mean rate" in text
        assert (out / "rates.csv").exists()
        assert (out / "allan.csv").exists()

    def test_synth_frames_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth-frames", "--truth-rate", "1.0", "--n", "5",
                         "--seed", "3", "--out", str(out)]) == 0
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert (a / "sig_00002.csv").read_bytes() == (b / "sig_00002.csv").read_bytes()

    def test_report_prints_reference_checks(self, capsys):
        code = main(["report", "--config",
                     str(CONFIG_DIR / "experiment-spdc.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "resolved parameters" in out
        assert "reference checks" in out
        assert "[PASS] modes at 810 nm" in out
        assert "[PASS] R_UB" in out

    def test_report_includes_example_budget(self, capsys):
        code = main(["report", "--config", str(CONFIG_DIR / "experiment-3.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "uncertainty budget" in out
        assert "34.000 %" in out

    def test_invert_reports_expanded_uncertainty(self, capsys):
        code = main(["invert-c2pa", "--config",
                     str(CONFIG_DIR / "experiment-3.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "+/-" in out and "k-expanded" in out

    def test_report_partial_config_still_works(self, exp3, capsys):
        # strip optional sections; the report should shrink, not fail
        rewrite(exp3, lambda c: [c.pop(k, None) for k in
                                 ("measurement", "camera")])
        assert main(["report", "--config", str(exp3)]) == 0
        out = capsys.readouterr().out
        assert "waveguide" in out
        assert "classical cross-section" not in out
