"""Command-line front end: parsing, validation exit codes, output
formats, determinism."""

import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abx import cli, krein, scattering
from abx.extension import ALPHA_MAX, ALPHA_MIN

PI = math.pi
# this checkout's package, ahead of any installed abx, for subprocess tests
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MIXING_ARGS = ["--alpha", "0.5", "--eta", "0", "--a", "0,0", "--b", "1,0"]
POINTS = {
    "regular": [],
    "b0": ["--eta", "0.3", "--a", "0,1", "--b", "0,0"],
    "coupled": ["--alpha", "0.4", "--eta", "0", "--a", "0,0", "--b", "1,0"],
}

# Grid-task requests at extreme inputs, run at a coupled point with 4 angles,
# and the exit code each gave when the grid tasks ran on numpy
GRID_PROBES = [
    (["--radii", "1e300", "eigenfunction"], 2),
    (["--radii", "1e300", "resolvent"], 2),
    (["--k", "1e300", "eigenfunction"], 2),
    (["--k", "1e300", "resolvent"], 2),
    (["--radii", "1e-300", "eigenfunction"], 0),
    (["--radii", "1e-300", "resolvent"], 0),
    (["--theta", "1e300", "eigenfunction"], 0),
    (["--k-imag", "1e300", "resolvent"], 2),
    (["--source", "1e-200,0", "resolvent"], 0),
    (["--k", "1e-300", "eigenfunction"], 2),
    (["--alpha", "1e-6", "eigenfunction"], 0),
    (["--alpha", "0.999999", "--k-imag", "0.3", "resolvent"], 0),
    # run first on Python arithmetic: a source angle whose angular-sum phases
    # left the float range before it was reduced mod 2 pi
    (["--alpha", "0.4", "--eta", "0.2", "--a", "0.6,0", "--b", "0.8,0", "--k", "1",
      "--radii", "1", "--source", "1,1e308", "resolvent"], 0),
]


def readme_cli_lines() -> list[str]:
    """The `abx ...` command lines of README.md's CLI section."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("abx ")]


def run_cli(argv) -> tuple[int, str, str]:
    """cli.main in this process; any uncaught exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestParse:
    def test_mixing_spectrum_run(self):
        cfg = cli.parse_config(MIXING_ARGS + ["spectrum"])
        assert cfg.task == "spectrum"
        assert cfg.alpha == 0.5
        assert cfg.params.b == 1.0 + 0j
        from abx.extension import ExtensionKind, classify

        assert classify(cfg.params) is ExtensionKind.MIXING

    def test_norm_violation_rejected(self):
        with pytest.raises(ValueError, match="0.82"):
            cli.parse_config(["--alpha", "0.5", "--a", "0.9,0", "--b", "0.1,0",
                              "spectrum"])

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_config(["--alpha", "1.5", "spectrum"])

    def test_angle_count_bounded_by_grid_limit(self):
        # refused before the angle grid is allocated (8 GB here)
        with pytest.raises(ValueError, match=str(cli._MAX_OUTPUT_VALUES)):
            cli.parse_config(["--angles", "1000000000", "xsection"])

    @pytest.mark.parametrize("argv, count", [
        (["--k", "1,2,3,4", "--angles", "1000001", "amplitude"], 4_000_004),
        (["--k", "1,2", "--angles", "2000001", "xsection"], 4_000_002),
        (["--k", "1,2", "--radii", "1,2", "--angles", "1000001", "eigenfunction"], 4_000_004),
        (["--k", "1,2", "--radii", "1,2,3,4", "--angles", "500001", "resolvent"], 4_000_008),
    ], ids=["amplitude", "xsection", "eigenfunction", "resolvent"])
    def test_output_values_bounded_at_parse_time(self, argv, count):
        # the bound is on momenta x radii x angles, not on the angle count alone
        with pytest.raises(ValueError, match=f"{count} values, above the limit of 4000000"):
            cli.parse_config(argv)

    @pytest.mark.parametrize("argv", [
        ["--k", "1,2,3,4", "--angles", "1000000", "amplitude"],
        ["--k", "1,2", "--radii", "1,2", "--angles", "1000000", "resolvent"],
        ["--angles", "1000000000", "spectrum"],
    ])
    def test_output_at_the_bound_accepted(self, argv):
        assert cli.parse_config(argv).task == argv[-1]

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha=0.5\nk=1\nangles=360\nformat=csv\n")
        cfg = cli.parse_config(["--config", str(cfgfile), "xsection"])
        assert cfg.task == "xsection"
        assert cfg.k_values == (1.0,)
        assert cfg.angle_count == 360
        assert cfg.fmt == "csv"
        # defaults still applied for unspecified fields
        assert cfg.params.a == -1.0 + 0j and cfg.params.b == 0j
        assert cfg.theta == 0.0
        # flags override the file
        cfg2 = cli.parse_config(["--config", str(cfgfile), "--angles", "8", "xsection"])
        assert cfg2.angle_count == 8

    def test_config_keys_are_flag_names(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        for key in ("k-imag", "k_imag"):
            cfgfile.write_text(f"{key}=0.4\n")
            assert cli.parse_config(["--config", str(cfgfile), "resolvent"]).k_imag == 0.4

    def test_task_from_config_file_only(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("task=spectrum\nalpha=0.5\n")
        assert cli.parse_config(["--config", str(cfgfile)]).task == "spectrum"

    @pytest.mark.parametrize("argv, config, cause", [
        (["--a", "1,2,3", "spectrum"], None, "a: expected 're' or 're,im', got '1,2,3'"),
        (["--a", "1,", "spectrum"], None,
         "a: expected comma-separated numbers, got '1,' with an empty entry"),
        (["--b=,1", "spectrum"], None,
         "b: expected comma-separated numbers, got ',1' with an empty entry"),
        (["--k", ",", "xsection"], None, "k: expected comma-separated numbers, got ','"),
        (["--k", "1,,2", "--angles", "4", "xsection"], None,
         "k: expected comma-separated numbers, got '1,,2' with an empty entry"),
        (["--radii", "0.5,", "eigenfunction"], None,
         "radii: expected comma-separated numbers, got '0.5,' with an empty entry"),
        (["xsection"], "k=1,,2\n", "k: expected comma-separated numbers, got '1,,2'"),
        (["--source", "1", "resolvent"], None, "source must be r,phi"),
        (["--source", "1,2,3", "resolvent"], None, "source must be r,phi"),
        (["--angles", "0", "xsection"], None, "angle grid needs at least 1 point, got 0"),
        (["--angles", "-3", "xsection"], None, "angle grid needs at least 1 point, got -3"),
        # 64e6 values, about 23 GB of JSON
        (["--k", "1,2,3,4", "--angles", "16000000", "amplitude"], None,
         "amplitude would print 64000000 values, above the limit of 4000000"),
        (["foo"], None, "task must be one of"),
        ([], None, "task must be one of"),
        (["spectrum"], "# run\nalpha 0.5\n", "run.cfg:2: expected key=value, got 'alpha 0.5'"),
    ], ids=["a-three-parts", "a-trailing-comma", "b-leading-comma", "k-empty", "k-empty-entry",
            "radii-trailing-comma", "config-k-empty-entry", "source-one", "source-three",
            "angles-zero", "angles-negative", "amplitude-64e6-values", "unknown-task", "no-task",
            "config-line-without-equals"])
    def test_invalid_input_exits_2_naming_its_cause(self, tmp_path, argv, config, cause):
        if config is not None:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(config)
            argv = ["--config", str(cfgfile), *argv]
        rc, out, err = run_cli(argv)
        assert rc == 2 and out == ""
        assert err.startswith("abx: invalid configuration: ") and cause in err

    def test_accepted_forms(self, tmp_path):
        assert cli.parse_config(["--a", "1", "spectrum"]).params.a == 1 + 0j
        # spaces around list entries stay accepted
        assert cli.parse_config(["--k", " 1 , 2 ", "xsection"]).k_values == (1.0, 2.0)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# momenta\n\n  k = 1, 2  \n\n# grid\nangles=8\n")
        cfg = cli.parse_config(["--config", str(cfgfile), "xsection"])
        assert cfg.k_values == (1.0, 2.0) and cfg.angle_count == 8


class TestRun:
    def test_spectrum_json_values(self, capsys):
        assert cli.main(MIXING_ARGS + ["spectrum"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["task"] == "spectrum"
        assert doc["results"]["zero_resonance"] is True
        assert len(doc["results"]["bound_states"]) == 1
        assert doc["results"]["bound_states"][0] == pytest.approx(-2.0, abs=1e-10)
        assert doc["params"]["alpha"] == 0.5
        assert doc["params"]["b"] == [1.0, 0.0]
        assert "provenance" in doc and "diagnostics" in doc

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_params_header_echoes_eta(self, fmt):
        # the requested eta is printed as given, not moved by its wrapping
        rc, out, _ = run_cli(["--eta=-0.1", "--a=-1,0", "--format", fmt, "mixing"])
        assert rc == 0
        if fmt == "json":
            assert repr(json.loads(out)["params"]["eta"]) == "-0.1"
        else:
            assert " eta=-0.1 " in out.splitlines()[1]
            header, row = csv.reader(l for l in out.splitlines() if not l.startswith("#"))
            assert row[header.index("eta")] == "-0.1"

    def test_validation_error_exit_code(self, capsys):
        rc = cli.main(["--alpha", "0.5", "--a", "0.9,0", "--b", "0.1,0", "spectrum"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "|a|^2 + |b|^2" in err and "0.82" in err

    def test_near_eigenvalue_exit_code(self, capsys):
        # resolvent evaluated essentially at the bound-state wavenumber
        rc = cli.main(MIXING_ARGS + [
            "--k", "1e-13", "--k-imag", repr(math.sqrt(2.0)),
            "--angles", "2", "--radii", "1.0", "resolvent"])
        assert rc == 3
        assert "eigenvalue" in capsys.readouterr().err

    def test_deep_bound_state_resolvent_refused_as_near_eigenvalue(self):
        # Im k next to a bound state at E = -1.5e7: the two determinant routes
        # differ by 1.4e-9, within 1e-10 of their terms, and the p(k)
        # inversion is what cannot be trusted
        rc, out, err = run_cli([
            "--alpha=0.8748531859059256", "--eta=-2.3042044473273635",
            "--a=0.6982450357113406,0.2769484608386118",
            "--b=-0.39714222951110406,-0.5272868950415345", "--k=1e-3",
            "--k-imag=3833.47883856233", "--radii=0.001", "--angles=4", "resolvent"])
        assert rc == 3 and out == ""
        assert "near an eigenvalue" in err and "condition number" in err
        assert "disagree" not in err

    def test_xsection_csv_matches_classical(self, capsys):
        # note the --a=-1,0 form: a leading dash needs the = syntax
        rc = cli.main(["--alpha", "0.3", "--eta", "0", "--a=-1,0", "--b", "0,0",
                       "--k", "2.0", "--angles", "16", "--format", "csv", "xsection"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        assert header[:6] == ["alpha", "eta", "a_re", "a_im", "b_re", "b_im"]
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 16
        icol = {name: i for i, name in enumerate(header)}
        for row in rows:
            assert float(row[icol["alpha"]]) == 0.3  # provenance on every row
            phi = float(row[icol["phi"]])
            want = math.sin(PI * 0.3) ** 2 / (2 * PI * 2.0 * math.sin(phi / 2) ** 2)
            assert float(row[icol["dsigma_dphi"]]) == pytest.approx(want, rel=1e-10)
            assert row[icol["in_forward_cone"]] == "False"

    def test_forward_cone_marker_in_csv(self, capsys):
        # theta centered on a grid point puts that point inside the cone
        rc = cli.main(["--alpha", "0.3", "--k", "1.0", "--angles", "8",
                       "--theta", repr((0.5) * (2 * PI / 8)),
                       "--format", "csv", "xsection"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = [ln.split(",") for ln in out.splitlines()
                if ln and not ln.startswith("#")][1:]
        flags = [row[-1] for row in rows]
        assert flags.count("True") == 1
        excluded = rows[flags.index("True")]
        assert excluded[-2] == ""  # no value inside the cone

    def test_mixing_task(self, capsys):
        assert cli.main(MIXING_ARGS + ["--k", "0.5,1.0", "mixing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["results"]) == 2
        for row in doc["results"]:
            assert row["prob_0_to_m1"] == pytest.approx(row["prob_m1_to_0"], rel=1e-12)
            assert row["constant"] == pytest.approx(8.0 * row["k"], rel=1e-12)

    def test_eigenfunction_task_matches_library(self, capsys):
        assert cli.main(MIXING_ARGS + ["--k", "1.0", "--angles", "4",
                                       "--radii", "1.5", "eigenfunction"]) == 0
        doc = json.loads(capsys.readouterr().out)
        from abx.extension import ExtensionParams
        from abx.scattering import PlaneWaveChannel, psi_u

        chan = PlaneWaveChannel(1.0, 0.0)
        params = ExtensionParams.mixing(0.0)
        block = doc["results"][0]
        for (r, phi), (re, im) in zip(block["points"], block["psi"]):
            want = psi_u(params, 0.5, chan, r, phi)
            assert complex(re, im) == pytest.approx(want, rel=1e-12)

    def test_validate_task(self, capsys):
        assert cli.main(MIXING_ARGS + ["validate"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["limit_oracle_ok"] is True
        assert doc["results"]["limit_oracle_rel_error"] < 2e-2

    def test_output_file_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = MIXING_ARGS + ["--k", "1.0", "--angles", "12", "--out"]
        assert cli.main(args + [str(out1), "amplitude"]) == 0
        assert cli.main(args + [str(out2), "amplitude"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("args", [
        ["--theta", "nan"],
        ["--eta", "nan"],
        ["--a", "nan,0", "--b", "0,0"],
        ["--source", "nan,0"],
        ["--radii", "1.0,inf"],
        ["--k-imag=nan"],
        ["--k-imag=-0.5"],
        ["--k", "nan"],
        ["--theta", "x"],
        ["--format", "xml"],
        ["--config", "/nonexistent.cfg"],
        ["--out", "/nonexistent/x.json"],
    ])
    def test_nonfinite_and_mislabelled_inputs_rejected(self, args, capsys):
        task = "resolvent" if args[0] in ("--source", "--k-imag=-0.5") else "eigenfunction"
        assert cli.main(args + ["--angles", "4", task]) == 2
        out = capsys.readouterr()
        assert "NaN" not in out.out and "invalid" in out.err

    @pytest.mark.parametrize("text, named", [
        ("alhpa=0.3\n", "'alhpa'"),
        ("k-img=0.4\n", "'k-img'"),
        ("config=other.cfg\n", "'config'"),
        ("format=xml\n", "'xml'"),
        ("fmt=csv\n", "'fmt'"),
        ("angles=4.5\n", "configuration: angles: "),
        ("alpha=x\n", "configuration: alpha: "),
        ("k=1,x\n", "configuration: k: "),
        ("theta=y\n", "configuration: theta: "),
    ])
    def test_config_file_keys_checked(self, text, named, tmp_path):
        # a misspelt key, an unknown format or a malformed value is refused,
        # not dropped, and the message names it
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text, encoding="utf-8")
        rc, out, err = run_cli(["--config", str(cfgfile), "spectrum"])
        assert (rc, out) == (2, "")
        assert err.startswith("abx: invalid configuration") and named in err

    @pytest.mark.parametrize("args", [
        ["--angles", "4.5"],
        ["--alpha", "x"],
        ["--k", "1,x"],
        ["--theta", "y"],
        ["--k-imag", "z"],
    ])
    def test_malformed_flag_value_named(self, args):
        rc, out, err = run_cli(args + ["xsection"])
        assert (rc, out) == (2, "")
        assert err.startswith(f"abx: invalid configuration: {args[0][2:]}: ")

    @pytest.mark.parametrize("point", sorted(POINTS))
    @pytest.mark.parametrize("task", ["xsection", "amplitude", "mixing"])
    def test_overflow_at_extreme_momenta_exits_3(self, task, point):
        # (-k^2)^s overflows above k ~ 1.3e154; the message names it and k
        for k in ("1e155", "1e300", "1e308"):
            rc, out, err = run_cli(POINTS[point] + ["--k", k, "--angles", "4", task])
            assert rc == 3 and out == ""
            assert err.startswith("abx: numerical failure: OverflowError: (-k^2)^s ")
            assert f"k = ({float(k)!r}+0j)" in err

    @pytest.mark.parametrize("task", ["eigenfunction", "resolvent"])
    def test_oversized_partial_wave_grid_refused(self, task):
        # k = 1e6 on the default 4 radii x 360 angles would need a 46 GB phase
        # matrix; it is refused before anything is allocated
        rc, out, err = run_cli(["--k", "1e6", task])
        assert rc == 2 and out == ""
        assert "partial-wave grid too large at k*r = " in err

    @pytest.mark.parametrize("argv", [
        ["--k", "1e-271", "validate"],
        ["--k", "1e-200", "--k-imag", "1e-200", "--angles", "4", "--radii", "0.5", "resolvent"],
        ["--alpha", "0.37", "--eta", "0.3", "--a", "0.6,0.2", "--b=-0.7745966692414834,0",
         "--k", "0.7071067811865476", "--k-imag", "0.7071067811865475", "--radii", "0.5,2",
         "--angles", "4", "resolvent"],
    ])
    def test_edge_momenta_answer(self, argv):
        # (-k^2)^s is formed without k^2, which underflows below |k| ~ 1e-154;
        # at k = e^{i pi/4}, the channel system's reference point, S = 1
        rc, out, err = run_cli(argv)
        assert (rc, err) == (0, "")
        assert "NaN" not in out and "Infinity" not in out

    def test_kernel_far_below_the_float_range_is_zero(self):
        # at k r = 1000 + 5000i the scaled H1 ladder's top orders have parts
        # near 1e308, a modulus beyond the float range; the kernel there is
        # about e^{-5 x 999}, exactly 0, and the radius 2 beside it is untouched
        point = ["--alpha", "0.5", "--eta", "0.3", "--a", "0.6,0.2", "--b", "0.7,0.3316624790355399",
                 "--k", "1", "--k-imag", "5", "--angles", "7", "--source", "1,0", "resolvent"]
        (rc, out, err), (_, alone, _) = (run_cli(["--radii", radii] + point) for radii in ("1000,2", "2"))
        assert (rc, err) == (0, "")
        kernel = json.loads(out)["results"][0]["kernel"]
        assert kernel[:7] == [[0.0, 0.0]] * 7
        assert kernel[7:] == json.loads(alone)["results"][0]["kernel"]

    @pytest.mark.parametrize("argv, code", GRID_PROBES,
                             ids=["-".join(argv).replace("--", "") for argv, _ in GRID_PROBES])
    def test_grid_tasks_at_extreme_inputs(self, argv, code):
        # The grid tasks run in Python arithmetic, which raises where numpy
        # gave inf or nan (ZeroDivisionError, OverflowError from ldexp or exp):
        # each probe exits as it did under numpy, with no traceback and no
        # NaN or Infinity in the output
        point = ["--alpha=0.37", "--eta=0.3", "--a=0.6,0.2", "--b=0.6,0.4898979485566356",
                 "--angles", "4"]
        rc, out, err = run_cli(point + argv)
        assert rc == code, err
        assert (out != "", err == "") == (rc == 0, rc == 0)
        assert "NaN" not in out and "Infinity" not in out

    @pytest.mark.parametrize("argv", [
        ["--radii", "1e-310", "--angles", "2", "eigenfunction"],
        ["--k", "1e-300", "--radii", "1e-10", "--angles", "2", "eigenfunction"],
        ["--a", "0,0", "--b", "1,0", "--source", "1e-320,0", "--angles", "2", "resolvent"],
        ["--k", "2.3e-308", "--angles", "6000", "xsection"],
        ["--k", "2.3e-308", "--angles", "6000", "amplitude"],
        ["--k", "1e-305", "--angles", "6000", "xsection"],
    ])
    def test_tiny_arguments_refused(self, argv):
        # k r below the Bessel ladders' domain exits 2; sqrt(2 pi/k) or
        # |f|^2 beyond the float range exits 3
        rc, out, err = run_cli(argv)
        assert rc in (2, 3) and out == "", err
        assert "NaN" not in out and "Infinity" not in out

    @pytest.mark.parametrize("k", ["1e-9", "1e-20", "1e-100"])
    def test_ill_conditioned_threshold_reported_as_near_eigenvalue(self, k):
        # zero-energy resonance of the coupled point: the channel system's
        # condition number grows like 1/k, which is not an internal bug
        for task in ("amplitude", "xsection", "mixing", "eigenfunction", "resolvent"):
            rc, _, err = run_cli(MIXING_ARGS + ["--k", k, "--angles", "4", "--radii", "0.5", task])
            assert rc == 3
            assert "disagree" not in err and "condition number" in err

    @pytest.mark.parametrize("task", cli.TASKS)
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(g=st.tuples(*[st.floats(-1.0, 1.0)] * 4), eta=st.floats(-PI, PI),
           alpha=st.floats(ALPHA_MIN, ALPHA_MAX), theta=st.floats(0.0, 2 * PI),
           log_k=st.one_of(st.floats(-300.0, 3.0), st.floats(8.0, 308.0)))
    def test_exit_code_contract(self, task, g, eta, alpha, theta, log_k):
        # every accepted input either answers or exits 2/3: no traceback,
        # no NaN.  Momenta between 1e3 and 1e8 are left out: an accepted draw
        # there costs seconds of Bessel work, and the grid guard has its own test.
        norm = math.hypot(*g)
        a, b = (complex(g[0], g[1]) / norm, complex(g[2], g[3]) / norm) if norm > 1e-3 else (-1, 0)
        argv = [f"--alpha={alpha!r}", f"--eta={eta!r}", f"--a={a.real!r},{a.imag!r}",
                f"--b={b.real!r},{b.imag!r}", f"--k={10.0 ** log_k!r}", f"--theta={theta!r}",
                "--angles", "4", "--radii", "0.5", task]
        rc, out, err = run_cli(argv)
        assert rc in (0, 2, 3), err
        assert "NaN" not in out and "Infinity" not in out
        assert (rc == 0) == (out != "")

    @pytest.mark.parametrize("task", ["xsection", "amplitude", "eigenfunction", "resolvent"])
    def test_p_of_k_solved_once_per_momentum(self, task, monkeypatch):
        calls = []
        p_of_k = krein.p_of_k

        def counting(*args, **kwargs):
            calls.append(args[2])
            return p_of_k(*args, **kwargs)

        monkeypatch.setattr(scattering, "p_of_k", counting)
        monkeypatch.setattr(krein, "p_of_k", counting)
        assert cli.main(MIXING_ARGS + ["--k", "0.5,1.0,2.0", "--angles", "16",
                                       "--radii", "0.5,2.0", task]) == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("task", ["xsection", "amplitude"])
    def test_forward_cone_tested_once_per_angle(self, task, monkeypatch):
        # the CLI masks the request's grid once, not once per momentum; the
        # amplitude's refusal then tests each momentum's off-cone angles
        # (3598 of 3600 at theta = 0), so each angle meets _forward_cone
        # once per momentum there
        calls = []
        forward_cone = scattering._forward_cone

        def counting(theta, angles):
            calls.append(len(angles))
            return forward_cone(theta, angles)

        monkeypatch.setattr(cli, "_forward_cone", counting)
        monkeypatch.setattr(scattering, "_forward_cone", counting)
        rc, out, _ = run_cli(MIXING_ARGS + ["--k", "1,2,3,4", "--angles", "3600", task])
        assert rc == 0 and len(json.loads(out)["results"]) == 4
        assert calls == [3600] + 4 * [3598]

    def test_run_config_is_an_immutable_value(self):
        argv = MIXING_ARGS + ["--k", "1,2", "xsection"]
        cfg, again = cli.parse_config(argv), cli.parse_config(argv)
        assert cfg == again and hash(cfg) == hash(again) and cfg is not again
        assert cfg != cli.parse_config(MIXING_ARGS + ["--k", "1,3", "xsection"])
        with pytest.raises(AttributeError):
            cfg.k_values = (1.0,)
        with pytest.raises(AttributeError):
            cfg.extra = 0


def test_amplitude_is_the_last_dataclass():
    # The other seven value types are plain immutable types, which abx builds
    # at import without the dataclasses module.  Amplitude stays one while
    # the benchmark's tracer rebuilds it with dataclasses.replace; the change
    # that may edit perfbench/ (ROADMAP item 12's) converts it too.
    import dataclasses
    import importlib
    import pkgutil

    import abx
    modules = [importlib.import_module(f"abx.{m.name}") for m in pkgutil.iter_modules(abx.__path__)]
    found = sorted(f"{mod.__name__}.{name}" for mod in modules for name, obj in vars(mod).items()
                   if isinstance(obj, type) and obj.__module__ == mod.__name__
                   and dataclasses.is_dataclass(obj))
    assert found == ["abx.scattering.Amplitude"]


def test_json_request_loads_no_csv():
    # csv is imported by the CSV renderer alone
    code = blocking("csv") + """
import io
from contextlib import redirect_stdout
import abx.cli
with redirect_stdout(io.StringIO()):
    rc = abx.cli.main(sys.argv[1:] + ["xsection"])
print(rc, "csv" in sys.modules, Block.tried)
try:
    with redirect_stdout(io.StringIO()):
        abx.cli.main(sys.argv[1:] + ["--format", "csv", "xsection"])
except ImportError:
    print(Block.tried)
"""
    out = run_python(code, *POINTS["coupled"], "--k", "1,2", "--angles", "8")
    assert out.splitlines() == ["0 False []", "['csv']"]


def _c2l(z):
    return [float(z.real), float(z.imag)]


def _off_cone(cfg, angles, values_at):
    cone = [scattering._forward_cone(cfg.theta, [phi])[0] for phi in angles]
    vals = iter(values_at([phi for phi, inside in zip(angles, cone) if not inside]))
    return [None if inside else next(vals) for inside in cone]


def _xsection_per_value(cfg):
    angles = cli._angle_grid(cfg.angle_count)
    results = []
    for k in cfg.k_values:
        vals = _off_cone(cfg, angles, lambda phi: scattering.cross_section(
            cfg.params, cfg.alpha, k, cfg.theta, phi))
        results.append({"k": k, "theta": cfg.theta, "phi": angles, "dsigma_dphi": vals,
                        "forward_excluded": [v is None for v in vals]})
    cols = ["k", "theta", "phi", "dsigma_dphi", "in_forward_cone"]
    rows = ([r["k"], r["theta"], phi, "" if v is None else v, v is None]
            for r in results for phi, v in zip(r["phi"], r["dsigma_dphi"]))
    return results, cols, rows, [f"forward_cone_halfwidth={scattering.FORWARD_EPSILON}"]


def _amplitude_per_value(cfg):
    angles = cli._angle_grid(cfg.angle_count)
    results = []
    for k in cfg.k_values:
        amp = scattering.amplitude_u(cfg.params, cfg.alpha, k)
        vals = [None if v is None else _c2l(v)
                for v in _off_cone(cfg, angles, lambda phis: [amp.smooth(cfg.theta, phi) for phi in phis])]
        results.append({"k": k, "theta": cfg.theta, "phi": angles, "smooth": vals,
                        "forward_delta_coeff": _c2l(amp.forward_delta_coeff),
                        "forward_pv_weight": _c2l(amp.forward_pv_weight),
                        "notes": list(cli._AMPLITUDE_NOTES)})
    cols = ["k", "theta", "phi", "f_re", "f_im", "in_forward_cone"]
    rows = ([r["k"], r["theta"], phi, *(["", ""] if v is None else v), v is None]
            for r in results for phi, v in zip(r["phi"], r["smooth"]))
    return results, cols, rows, []


def _eigenfunction_per_value(cfg):
    angles = cli._angle_grid(cfg.angle_count)
    points = [[float(r), float(phi)] for r in cfg.radii for phi in angles]
    results = []
    for k in cfg.k_values:
        vals = scattering.psi_u(cfg.params, cfg.alpha, scattering.PlaneWaveChannel(k, cfg.theta),
                                cfg.radii, angles)
        results.append({"k": k, "theta": cfg.theta, "points": points,
                        "psi": [_c2l(v) for row in vals for v in row]})
    cols = ["k", "theta", "r", "phi", "psi_re", "psi_im"]
    rows = ([r["k"], r["theta"], *p, *v] for r in results for p, v in zip(r["points"], r["psi"]))
    return results, cols, rows, []


def _resolvent_per_value(cfg):
    angles = cli._angle_grid(cfg.angle_count)
    points = [[float(r), float(phi)] for r in cfg.radii for phi in angles]
    results = []
    for k in cfg.k_values:
        vals = krein.full_resolvent_kernel(cfg.params, cfg.alpha, complex(k, cfg.k_imag),
                                           (cfg.radii, angles), cfg.source)
        results.append({"k": [k, cfg.k_imag], "source": list(cfg.source), "points": points,
                        "kernel": [_c2l(v) for row in vals for v in row]})
    cols = ["k_re", "k_im", "src_r", "src_phi", "r", "phi", "kernel_re", "kernel_im"]
    rows = ([*r["k"], *r["source"], *p, *v]
            for r in results for p, v in zip(r["points"], r["kernel"]))
    return results, cols, rows, []


# The grid tasks as they were first written: one Python value at a time,
# with the angle grid listed again in every momentum block.
PER_VALUE_TASKS = {
    "xsection": _xsection_per_value,
    "amplitude": _amplitude_per_value,
    "eigenfunction": _eigenfunction_per_value,
    "resolvent": _resolvent_per_value,
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", [
    # two cone points at each end of the grid; one at each, theta below 2 pi
    ["--theta", "0", "--angles", "10000", "--k", "0.7,1.9", "--radii", "0.5"],
    ["--theta", repr(2 * PI - 1e-4), "--angles", "4000", "--radii", "0.5"],
    ["--theta", repr(PI), "--angles", "1"],  # the only angle lies in the cone
    ["--k", "0.7,1.9,3.1", "--angles", "16", "--radii", "0.5,1.3,2.0", "--k-imag", "0.4"],
])
@pytest.mark.parametrize("task", sorted(PER_VALUE_TASKS))
def test_render_matches_per_value_construction(task, case, fmt, monkeypatch):
    argv = POINTS["coupled"] + case + ["--format", fmt, task]
    rc, out, err = run_cli(argv)
    assert (rc, err) == (0, "")
    monkeypatch.setitem(cli._TASK_FNS, task, PER_VALUE_TASKS[task])
    assert run_cli(argv) == (rc, out, err)


REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "responses.json")
# Rounding alone (Python against numpy complex arithmetic) once moved printed
# values by up to 2.3e-13 of themselves; a replayed number may move by 1e-12
# of the largest number under its key, a refactor's rounding but not a change
# of the physics.
REFERENCE_TOL = 1e-12


def _numbers(doc):
    """Every number in the JSON value doc; booleans are not numbers."""
    if isinstance(doc, (dict, list)):
        for value in doc.values() if isinstance(doc, dict) else doc:
            yield from _numbers(value)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


def _drift(ref, got, path: str, scale: float = 0.0) -> float:
    """The largest |got - ref| over the numbers of the JSON value ref, each
    over the largest |number| under its nearest key; AssertionError naming
    the path where the structure or a value that is not a number differs."""
    if isinstance(ref, dict):
        assert isinstance(got, dict) and got.keys() == ref.keys(), path
        return max((_drift(v, got[key], f"{path}.{key}", max(map(abs, _numbers(v)), default=0.0))
                    for key, v in ref.items()), default=0.0)
    if isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), path
        return max((_drift(v, w, path, scale) for v, w in zip(ref, got)), default=0.0)
    if next(_numbers(ref), None) is None or next(_numbers(got), None) is None:
        assert got == ref, path
        return 0.0
    return 0.0 if got == ref else abs(got - ref) / scale if scale else math.inf


def test_reference_responses_replay():
    # One shrunk cycle (8 angles, one momentum) of scatter-dense, field-grid
    # and task-mix at seeds 1-3, stored by tests/reference/regenerate.py: a
    # pin of today's values, not an oracle.  -s prints the largest change.
    with open(REFERENCE, encoding="utf-8") as fh:
        responses = json.load(fh)
    assert len(responses) == 57
    worst, where = 0.0, None
    for ref in responses:
        rc, out, err = run_cli(ref["argv"])
        assert (rc, err) == (ref["code"], ref["stderr"]), ref["argv"]
        drift = _drift(ref["output"], json.loads(out) if out else None, shlex.join(ref["argv"]))
        if drift > worst:
            worst, where = drift, ref["argv"]
    print(f"largest change {worst:.3g} of its key's largest number, at {where}")
    assert worst <= REFERENCE_TOL, (worst, where)


def test_only_the_cli_freezes_the_import_heap():
    # the CLI exempts its import-time heap from the collector; the library
    # leaves the collector as it found it
    code = """
import gc, io, sys
from contextlib import redirect_stdout
import abx
print(gc.get_freeze_count())
from abx import cli
print(gc.get_freeze_count() > 0)
for task in ("xsection", "amplitude", "eigenfunction", "resolvent", "validate"):
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(sys.argv[1:] + [task])
        outs.append(buf.getvalue())
    print(task, outs[0] == outs[1] and outs[0].startswith('{"diagnostics"'))
"""
    out = run_python(code, *POINTS["coupled"], "--k", "0.5,2", "--angles", "32", "--radii", "0.5,3")
    assert out.splitlines() == ["0", "True", "xsection True", "amplitude True", "eigenfunction True",
                                "resolvent True", "validate True"]


def test_validate_leaves_the_heap_frozen_once():
    # validate loads no numpy and no task freezes again: the import-time
    # freeze leaves about 170 objects tracked after this run (786 while
    # validate loaded numpy and froze a second time, 8605 without that freeze)
    code = """
import gc, io, sys
from contextlib import redirect_stdout
from abx import cli
with redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
print(len(gc.get_objects()))
"""
    assert int(run_python(code, "validate")) < 1000


def test_grid_task_freezes_once_per_process():
    # no task freezes the heap after the CLI's import, so the freeze count
    # stays fixed and cyclic garbage a caller makes between in-process calls
    # stays collectable
    code = """
import gc, io, sys, weakref
from contextlib import redirect_stdout
from abx import cli

class Node:
    pass

counts, cycles = [], []
for task in ("validate", "eigenfunction", "resolvent"):
    with redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:] + [task]) == 0
    counts.append(gc.get_freeze_count())
    node = Node()
    node.self = node
    cycles.append(weakref.ref(node))
    del node
gc.collect()
print(counts[0] > 0, counts[1:] == counts[:1] * 2, [ref() is None for ref in cycles])
"""
    out = run_python(code, *POINTS["coupled"], "--k", "0.5", "--angles", "8", "--radii", "0.5,3")
    assert out.strip() == "True True [True, True, True]"


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_examples_run(line):
    rc, out, err = run_cli(shlex.split(line)[1:])
    assert (rc, err) == (0, "")
    if "--format csv" in line:
        header, *rows = csv.reader(l for l in out.splitlines() if not l.startswith("#"))
        assert rows and all(len(row) == len(header) for row in rows)
    else:
        assert json.loads(out)["task"] == line.split()[-1]


def run_python(code: str, *args: str) -> str:
    """stdout of `python -c code args` in a fresh interpreter that imports
    this checkout's abx."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path}).stdout


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_loads_no_scipy():
    out = run_python(f"import sys, abx, abx.cli; print(abx.__file__); print({SCIPY_MODULES})")
    assert out.splitlines() == [os.path.join(SRC, "abx", "__init__.py"), "[]"]


def blocking(package: str) -> str:
    """Python code that refuses every import of package, a guarded or lazy
    one included, and records each in Block.tried."""
    return f"""
import importlib.abc, sys

class Block(importlib.abc.MetaPathFinder):
    tried = []

    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == {package!r}:
            self.tried.append(name)
            raise ImportError({package!r} + ' is blocked: ' + name)
        return None

sys.meta_path.insert(0, Block())
"""


def test_package_resolves_the_ladders_on_first_use():
    # abx lists specfun's exports without importing specfun, which only the grid code needs
    import abx
    from abx import specfun
    assert abx._SPECFUN == tuple(specfun.__all__)
    assert all(getattr(abx, name) is getattr(specfun, name) for name in specfun.__all__)


BLOCKED_ARGV = POINTS["coupled"] + ["--k", "0.5,2", "--angles", "8", "--radii", "0.5,3"]


def blocked_runs(package: str):
    """The imports of package tried, and {"task fmt": [exit code, stdout]}
    for every task in JSON and CSV, in a fresh interpreter that refuses
    package."""
    code = blocking(package) + """
import io, json
from contextlib import redirect_stdout
import abx, abx.cli
runs = {}
for task in abx.cli.TASKS:
    for fmt in ("json", "csv"):
        out = io.StringIO()
        with redirect_stdout(out):
            rc = abx.cli.main(json.loads(sys.argv[1]) + ["--format", fmt, task])
        runs[f"{task} {fmt}"] = [rc, out.getvalue()]
print(json.dumps([Block.tried, runs]))
"""
    return json.loads(run_python(code, json.dumps(BLOCKED_ARGV)))


def test_tasks_load_no_scipy():
    # every task, the Bessel ones included, runs without scipy
    tried, runs = blocked_runs("scipy")
    assert tried == []
    assert sorted(cli.TASKS) == sorted(["spectrum", "amplitude", "xsection", "mixing",
                                        "eigenfunction", "resolvent", "validate"])
    assert all(rc == 0 for rc, _ in runs.values()), runs
    for task, key in (("eigenfunction", "psi"), ("resolvent", "kernel")):
        out = runs[f"{task} json"][1]
        assert "NaN" not in out and "Infinity" not in out
        assert [len(block[key]) for block in json.loads(out)["results"]] == [2 * 8, 2 * 8]


def test_closed_form_tasks_load_no_numpy():
    # import abx and every task, validate included, need no numpy: with it
    # refused, each prints, in JSON and CSV, the bytes of an unblocked run,
    # and nothing tries to import it
    tried, runs = blocked_runs("numpy")
    assert tried == []
    for task in cli.TASKS:
        for fmt in ("json", "csv"):
            rc, out = runs[f"{task} {fmt}"]
            assert run_cli(BLOCKED_ARGV + ["--format", fmt, task]) == (rc, out, "") and rc == 0, \
                (task, fmt)


def test_modules_import_the_standard_library_alone():
    # abx has no runtime dependency, numpy included, and reads no module out
    # of sys.modules, where a caller's numpy would be: numbers and lists go
    # in and come out
    import ast
    import glob

    outside, reads = set(), []
    for path in glob.glob(os.path.join(SRC, "abx", "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "modules"
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                reads.append(f"{os.path.basename(path)}:{node.lineno}")
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside.update(f"{os.path.basename(path)}: {name}" for name in names
                           if name.split(".")[0] not in sys.stdlib_module_names)
    assert outside == set()
    assert reads == []


def test_library_results_are_numbers_and_lists_without_numpy():
    # With numpy refused, a grid evaluator gives a complex for two numbers, a
    # list for one list or tuple and a list of rows, one per radius, for two;
    # a ladder gives a float (J at real z) or complex for one order and a list
    # of them for a sequence.  Nothing tries to import numpy.
    code = blocking("numpy") + """
import json
import abx
params, chan = abx.ExtensionParams.mixing(0.7), abx.PlaneWaveChannel(1.0, 0.3)
grids = {
    "psi_u": lambda r, phi: abx.psi_u(params, 0.4, chan, r, phi),
    "kernel": lambda r, phi: abx.full_resolvent_kernel(params, 0.4, 1j, (r, phi), (2.5, 0.1)),
    "basis": abx.analytic_basis(0, 0.4, 1.0),
}

def form(value):
    return [form(v) for v in value] if isinstance(value, list) else type(value).__name__

out = {}
for name, grid in grids.items():
    for r, phi in ((1.0, 0.5), ([1.0, 2.0], 0.5), (1.0, (0.5, 1.5, 2.5)), ((1.0, 2.0), [0.5, 1.5, 2.5])):
        out[f"{name} {type(r).__name__} {type(phi).__name__}"] = form(grid(r, phi))
for name in ("bessel_j_orders", "hankel1_orders"):
    for label, nus in (("one", 0.5), ("list", [0.5, 1.5]), ("tuple", (0.5, 1.37, 2.5)), ("empty", [])):
        for z in (2.0, 2.0 + 1j):
            out[f"{name} {label} {type(z).__name__}"] = form(getattr(abx, name)(nus, z))
print(json.dumps([Block.tried, out]))
"""
    tried, out = json.loads(run_python(code))
    assert tried == []
    want = {}
    for name in ("psi_u", "kernel", "basis"):
        want.update({f"{name} float float": "complex", f"{name} list float": ["complex"] * 2,
                     f"{name} float tuple": ["complex"] * 3,
                     f"{name} tuple list": [["complex"] * 3] * 2})
    for name in ("bessel_j_orders", "hankel1_orders"):
        for z in ("float", "complex"):
            kind = "float" if name == "bessel_j_orders" and z == "float" else "complex"
            want.update({f"{name} one {z}": kind, f"{name} list {z}": [kind] * 2,
                         f"{name} tuple {z}": [kind] * 3, f"{name} empty {z}": []})
    assert out == want
