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

        assert classify(cfg.params).kind is ExtensionKind.MIXING

    def test_norm_violation_rejected(self):
        with pytest.raises(ValueError, match="0.82"):
            cli.parse_config(["--alpha", "0.5", "--a", "0.9,0", "--b", "0.1,0",
                              "spectrum"])

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_config(["--alpha", "1.5", "spectrum"])

    def test_angle_count_bounded_by_grid_limit(self):
        # refused before the angle grid is allocated (8 GB here)
        with pytest.raises(ValueError, match=str(krein._MAX_GRID_ELEMENTS)):
            cli.parse_config(["--angles", "1000000000", "xsection"])

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
    ])
    def test_config_file_keys_checked(self, text, named, tmp_path):
        # a misspelt key or an unknown format is refused, not dropped
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text, encoding="utf-8")
        rc, out, err = run_cli(["--config", str(cfgfile), "spectrum"])
        assert (rc, out) == (2, "")
        assert err.startswith("abx: invalid configuration") and named in err

    @pytest.mark.parametrize("point", sorted(POINTS))
    @pytest.mark.parametrize("task", ["xsection", "mixing"])
    def test_overflow_at_extreme_momenta_exits_3(self, task, point):
        # (-k^2)^s overflows above k ~ 1.3e154
        for k in ("1e155", "1e308"):
            rc, out, err = run_cli(POINTS[point] + ["--k", k, "--angles", "4", task])
            assert rc == 3 and out == ""
            assert err.startswith("abx: numerical failure: OverflowError")

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
    ])
    def test_tiny_momenta_answer(self, argv):
        # (-k^2)^s is formed without k^2, which underflows below |k| ~ 1e-154
        rc, out, err = run_cli(argv)
        assert (rc, err) == (0, "")
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
                          check=True, env=dict(os.environ, PYTHONPATH=path)).stdout


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_loads_no_scipy():
    out = run_python(f"import sys, abx, abx.cli; print(abx.__file__); print({SCIPY_MODULES})")
    assert out.splitlines() == [os.path.join(SRC, "abx", "__init__.py"), "[]"]


def test_tasks_load_no_scipy():
    # every task, the Bessel ones included, runs on numpy alone
    code = f"""
import io, json, sys
from contextlib import redirect_stdout
from abx import cli
args = json.loads(sys.argv[1])
runs = {{}}
for task in cli.TASKS:
    out = io.StringIO()
    with redirect_stdout(out):
        runs[task] = [cli.main(args + [task]), out.getvalue()]
print(json.dumps([{SCIPY_MODULES}, runs]))
"""
    argv = POINTS["coupled"] + ["--k", "0.5,2", "--angles", "8", "--radii", "0.5,3"]
    loaded, runs = json.loads(run_python(code, json.dumps(argv)))
    assert sorted(runs) == sorted(["spectrum", "amplitude", "xsection", "mixing",
                                   "eigenfunction", "resolvent", "validate"])
    assert loaded == []
    assert all(rc == 0 for rc, _ in runs.values()), runs
    for task, key in (("eigenfunction", "psi"), ("resolvent", "kernel")):
        rc, out = runs[task]
        assert "NaN" not in out and "Infinity" not in out
        assert [len(block[key]) for block in json.loads(out)["results"]] == [2 * 8, 2 * 8]
