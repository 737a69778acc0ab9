import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momentkit.cli import main

from conftest import SPAN_V, SPAN_W


def write_subspace(path, vectors, n):
    payload = {
        "n": n,
        "vectors": [[[float(np.real(z)), float(np.imag(z))] for z in vec] for vec in vectors],
    }
    path.write_text(json.dumps(payload))
    return str(path)


def write_matrix(path, entries):
    n = len(entries)
    payload = {
        "n": n,
        "entries": [
            [[float(np.real(z)), float(np.imag(z))] for z in row] for row in entries
        ],
    }
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def v_file(tmp_path):
    return write_subspace(tmp_path / "V.json", SPAN_V, 3)


@pytest.fixture
def w_file(tmp_path):
    return write_subspace(tmp_path / "W.json", SPAN_W, 3)


class TestMomentSample:
    def test_rows_sum_to_one(self, tmp_path, v_file):
        out = tmp_path / "pts.csv"
        assert main(["moment-sample", "--subspace", v_file, "--count", "3", "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,x3"
        assert len(lines) == 4
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")]
            assert sum(vals) == pytest.approx(1.0, abs=1e-10)

    def test_report_sidecar(self, tmp_path, v_file):
        out = tmp_path / "pts.csv"
        main(["moment-sample", "--subspace", v_file, "--count", "2", "--seed", "1", "--out", str(out)])
        report = json.loads((tmp_path / "pts.csv.report.json").read_text())
        assert report["command"] == "moment-sample"
        assert report["seed"] == 1
        assert str(out) in report["outputs"]
        assert v_file in report["inputs"]

    def test_axis_line_constant_rows(self, tmp_path):
        sub = write_subspace(tmp_path / "axis.json", [(1, 0)], 2)
        out = tmp_path / "axis.csv"
        main(["moment-sample", "--subspace", sub, "--count", "5", "--seed", "3", "--out", str(out)])
        rows = out.read_text().strip().splitlines()[1:]
        for row in rows:
            vals = [float(x) for x in row.split(",")]
            assert vals == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "vectors": [[[1, 0]')
        out = tmp_path / "x.csv"
        assert main(["moment-sample", "--subspace", str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "line" in err


class TestCurve:
    def test_first_row_is_principal_moment(self, tmp_path, v_file):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--subspace", v_file, "-j", "1", "-k", "2", "--steps", "4", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1:4] == pytest.approx([2 / 3, 1 / 6, 1 / 6], abs=1e-12)

    def test_ellipse_sidecar(self, tmp_path, v_file):
        out = tmp_path / "curve.csv"
        main(["curve", "--subspace", v_file, "-j", "1", "-k", "2", "--steps", "4", "--out", str(out)])
        sidecar = json.loads((tmp_path / "curve.csv.ellipse.json").read_text())
        assert sidecar["a"] == pytest.approx([2 / np.sqrt(6), 1 / np.sqrt(6)], abs=1e-12)
        assert sidecar["b"] == pytest.approx([0.0, 1 / np.sqrt(2)], abs=1e-12)
        assert not sidecar["segment"]

    def test_orthogonal_pair_flags_segment(self, tmp_path):
        sub = write_subspace(tmp_path / "s.json", [(1, 1, 0, 0), (0, 0, 1, 1)], 4)
        out = tmp_path / "curve.csv"
        assert main(["curve", "--subspace", sub, "-j", "1", "-k", "3", "--steps", "4", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "curve.csv.ellipse.json").read_text())
        assert sidecar["segment"]

    def test_equal_indices_rejected(self, tmp_path, v_file, capsys):
        assert main(["curve", "--subspace", v_file, "-j", "2", "-k", "2", "--out", str(tmp_path / "c.csv")]) == 3
        assert "differ" in capsys.readouterr().err

    def test_degenerate_pair_rejected(self, tmp_path, capsys):
        sub = write_subspace(tmp_path / "line.json", [(1, 1, 1)], 3)
        assert main(["curve", "--subspace", sub, "-j", "1", "-k", "2", "--out", str(tmp_path / "c.csv")]) == 3

    @pytest.mark.parametrize("steps", ["0", "-1", "-2"])
    def test_steps_below_one_rejected(self, tmp_path, v_file, capsys, steps):
        out = tmp_path / "c.csv"
        argv = ["curve", "--subspace", v_file, "-j", "1", "-k", "2", "--steps", steps, "--out", str(out)]
        assert main(argv) == 3
        assert "--steps must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestMinimalCheck:
    def test_minimal_exit_zero(self, tmp_path, capsys):
        mat = write_matrix(tmp_path / "m.json", [[0, -1j], [1j, 0]])
        assert main(["minimal-check", "--matrix", mat]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "MINIMAL"
        assert payload["certificate"]["common"] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_not_minimal_exit_one(self, tmp_path):
        mat = write_matrix(tmp_path / "m.json", [[1, 0], [0, -1]])
        assert main(["minimal-check", "--matrix", mat]) == 1

    def test_near_tangent_indeterminate_exit_two(self, tmp_path):
        angle = np.pi / 4 + 1e-10
        v = np.array([np.cos(angle), np.sin(angle)])
        w = np.array([-np.sin(angle), np.cos(angle)])
        m = np.outer(v, v) - np.outer(w, w)
        mat = write_matrix(tmp_path / "m.json", m)
        assert main(["minimal-check", "--matrix", mat, "--tol", "1e-12"]) == 2

    @pytest.mark.parametrize("eig_tol", ["-1", "nan", "inf", "2"])
    def test_bad_eig_tol_exit_three(self, tmp_path, capsys, eig_tol):
        mat = write_matrix(tmp_path / "m.json", [[0, -1j], [1j, 0]])
        assert main(["minimal-check", "--matrix", mat, f"--eig-tol={eig_tol}"]) == 3
        assert "eig_tol" in capsys.readouterr().err

    def test_non_hermitian_exit_three(self, tmp_path, capsys):
        mat = write_matrix(tmp_path / "m.json", [[0, 1], [0, 0]])
        assert main(["minimal-check", "--matrix", mat]) == 3
        assert "hermitian" in capsys.readouterr().err


class TestIntersectAndFriends:
    def test_intersect_conjugate_lines(self, tmp_path, capsys):
        x = np.array([1, 1j]) / np.sqrt(2)
        va = write_subspace(tmp_path / "a.json", [x], 2)
        vb = write_subspace(tmp_path / "b.json", [np.conj(x)], 2)
        assert main(["intersect", "--subspace-v", va, "--subspace-w", vb]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "INTERSECT"
        assert payload["common"] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_disjoint_exit_one(self, tmp_path):
        va = write_subspace(tmp_path / "a.json", [(1, 0)], 2)
        vb = write_subspace(tmp_path / "b.json", [(0, 1)], 2)
        assert main(["intersect", "--subspace-v", va, "--subspace-w", vb]) == 1

    def test_near_tangent_exit_two(self, tmp_path):
        angle = np.pi / 4 + 1e-10
        va = write_subspace(tmp_path / "a.json", [(np.cos(angle), np.sin(angle))], 2)
        vb = write_subspace(tmp_path / "b.json", [(-np.sin(angle), np.cos(angle))], 2)
        assert main([
            "intersect", "--subspace-v", va, "--subspace-w", vb, "--tol", "1e-12",
        ]) == 2

    @pytest.mark.parametrize("tol", ["-1e-7", "nan", "inf"])
    def test_bad_tol_exit_three(self, tmp_path, capsys, tol):
        # With --tol inf this disjoint pair exited 0 (INTERSECT), and so did
        # minimal-check on diag(1, -1) (MINIMAL).
        va = write_subspace(tmp_path / "a.json", [(1, 0)], 2)
        vb = write_subspace(tmp_path / "b.json", [(0, 1)], 2)
        mat = write_matrix(tmp_path / "m.json", [[1, 0], [0, -1]])
        asymmetric = write_matrix(tmp_path / "m2.json", [[1, 0], [0, -0.5]])
        for argv in (["intersect", "--subspace-v", va, "--subspace-w", vb],
                     ["minimal-check", "--matrix", mat],
                     ["minimal-check", "--matrix", asymmetric]):
            assert main([*argv, f"--tol={tol}"]) == 3
            assert "tol must be finite and nonnegative" in capsys.readouterr().err

    def test_usage_errors_exit_three(self, tmp_path, capsys):
        # argparse exits 2, which would read as INDETERMINATE.
        va = write_subspace(tmp_path / "a.json", [(1, 0)], 2)
        vb = write_subspace(tmp_path / "b.json", [(0, 1)], 2)
        argv = ["intersect", "--subspace-v", va, "--subspace-w", vb]
        assert main([*argv, "--tol", "-1e-7"]) == 3  # -1e-7 reads as an option
        assert "expected one argument" in capsys.readouterr().err
        assert main(argv[:3]) == 3
        assert "required" in capsys.readouterr().err
        assert main([*argv, "--max-iter", "-4"]) == 3  # was 1, DISJOINT
        assert "max_iter must be finite and nonnegative" in capsys.readouterr().err
        assert main(["--version"]) == 0
        assert main(["intersect", "--help"]) == 0

    @pytest.mark.parametrize("command", ["intersect", "centroid"])
    def test_unwritable_out_exit_three(self, tmp_path, v_file, command):
        # Exit 1 would read as DISJOINT for intersect.
        inputs = {
            "intersect": ["--subspace-v", v_file, "--subspace-w", v_file],
            "centroid": ["--subspace", v_file],
        }[command]
        out = tmp_path / "missing" / "out.json"
        proc = subprocess.run(
            [sys.executable, "-m", "momentkit.cli", command, *inputs, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_support_direction_length_mismatch(self, tmp_path, v_file, capsys):
        assert main(["support", "--subspace", v_file, "--direction", "1,0"]) == 3
        assert "expected 3" in capsys.readouterr().err

    def test_support_whole_space(self, tmp_path, capsys):
        sub = write_subspace(tmp_path / "c3.json", np.eye(3), 3)
        assert main(["support", "--subspace", sub, "--direction", "3,1,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["moment_support"] == pytest.approx(3.0, abs=1e-12)

    def test_centroid_reference(self, tmp_path, v_file, capsys):
        assert main(["centroid", "--subspace", v_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["centroid"] == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_jnr_boundary_fibonacci(self, tmp_path, v_file):
        out = tmp_path / "b.csv"
        assert main(["jnr-boundary", "--subspace", v_file, "--directions", "fibonacci:25", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 26
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")]
            assert -1e-10 <= sum(vals[3:]) <= 1.0 + 1e-10

    def test_hausdorff_equal_moments(self, tmp_path, v_file, w_file, capsys):
        assert main([
            "hausdorff",
            "--subspace-v", v_file,
            "--subspace-w", w_file,
            "--directions", "fibonacci:200",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimate"] <= 1e-9

    def test_directions_file(self, tmp_path, v_file):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [1, 1, 1]]))
        out = tmp_path / "b.csv"
        assert main(["jnr-boundary", "--subspace", v_file, "--directions", str(dirs), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 4


class TestRunReport:
    """The RunReport sidecar of every file-producing command."""

    @pytest.fixture
    def files(self, tmp_path, v_file, w_file):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [1, 1, 1]]))
        x = np.array([1, 1j]) / np.sqrt(2)
        return {
            "v": v_file,
            "w": w_file,
            "dirs": str(dirs),
            "a": write_subspace(tmp_path / "a.json", [x], 2),
            "b": write_subspace(tmp_path / "b.json", [np.conj(x)], 2),
            "m": write_matrix(tmp_path / "m.json", [[0, -1j], [1j, 0]]),
        }

    CASES = {
        "moment-sample": (["--subspace", "{v}", "--count", "3", "--seed", "5"], "s.csv",
                          ["v"], 5, {}),
        "curve": (["--subspace", "{v}", "-j", "1", "-k", "2", "--steps", "4"], "c.csv",
                  ["v"], None, {}),
        "jnr-boundary": (["--subspace", "{v}", "--directions", "{dirs}"], "b.csv",
                         ["v", "dirs"], None, {}),
        "jnr-boundary-fibonacci": (["--subspace", "{v}", "--directions", "fibonacci:7"], "f.csv",
                                   ["v"], None, {}),
        "centroid": (["--subspace", "{v}"], "c.json", ["v"], None, {}),
        "support": (["--subspace", "{v}", "--direction", "1,0,2"], "s.json", ["v"], None, {}),
        "hausdorff": (["--subspace-v", "{v}", "--subspace-w", "{w}", "--directions", "{dirs}"],
                      "h.json", ["v", "w", "dirs"], None, {}),
        "hausdorff-fibonacci": (["--subspace-v", "{v}", "--subspace-w", "{w}"], "g.json",
                                ["v", "w"], None, {}),
        "intersect": (["--subspace-v", "{a}", "--subspace-w", "{b}", "--max-iter", "900"], "i.json",
                      ["a", "b"], None, {"tol": 1e-7, "max_iter": 900}),
        "minimal-check": (["--matrix", "{m}", "--tol", "1e-6"], "m.json", ["m"], None,
                          {"eig_tol": 1e-8, "tol": 1e-6, "max_iter": 50_000}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_fields(self, tmp_path, files, case):
        flags, name, inputs, seed, tolerances = self.CASES[case]
        command = case.removesuffix("-fibonacci")
        out = str(tmp_path / name)
        argv = [command, *(flag.format(**files) for flag in flags), "--out", out]
        assert main(argv) == 0
        report = json.loads(Path(out + ".report.json").read_text())
        outputs = [out, out + ".ellipse.json"] if command == "curve" else [out]
        assert report["command"] == command
        assert report["outputs"] == outputs
        assert sorted(report["inputs"]) == sorted(files[key] for key in inputs)
        assert all(len(digest) == 64 for digest in report["inputs"].values())
        assert report["seed"] == seed
        assert report["tolerances"] == tolerances
        assert f"command={command}" in report["invocation"]
        assert report["wall_time_s"] >= 0.0

    @pytest.mark.parametrize("command", ["centroid", "support", "minimal-check"])
    def test_no_report_without_out(self, tmp_path, files, command, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = {
            "centroid": ["centroid", "--subspace", files["v"]],
            "support": ["support", "--subspace", files["v"], "--direction", "1,0,2"],
            "minimal-check": ["minimal-check", "--matrix", files["m"]],
        }[command]
        before = set(tmp_path.iterdir())
        assert main(argv) == 0
        assert set(tmp_path.iterdir()) == before


class TestDeterminism:
    def test_sample_outputs_byte_identical(self, tmp_path, v_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["moment-sample", "--subspace", v_file, "--count", "50", "--seed", "9", "--out", str(out1)])
        main(["moment-sample", "--subspace", v_file, "--count", "50", "--seed", "9", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_curve_outputs_byte_identical(self, tmp_path, v_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            main(["curve", "--subspace", v_file, "-j", "1", "-k", "3", "--steps", "32", "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.ellipse.json").read_bytes() == (
            tmp_path / "b.csv.ellipse.json"
        ).read_bytes()

    @pytest.mark.parametrize("case, code", [("intersect", 0), ("disjoint", 1), ("minimal", 0)])
    def test_verdict_outputs_byte_identical(self, tmp_path, v_file, w_file, case, code):
        if case == "minimal":
            # Nested pair: V = span{x} and W = span{conj(x), f2}, so m_V lies in m_W.
            frame, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
            x = (frame[:, 0] + 1j * frame[:, 1]) / np.sqrt(2.0)
            m = (np.outer(x, x.conj()) - np.outer(x.conj(), x)
                 - np.outer(frame[:, 2], frame[:, 2]) + 0.5 * np.outer(frame[:, 3], frame[:, 3]))
            argv = ["minimal-check", "--matrix", write_matrix(tmp_path / "m.json", m)]
        else:
            if case == "disjoint":
                w_file = write_subspace(tmp_path / "axis.json", [(1, 0, 0)], 3)
            argv = ["intersect", "--subspace-v", v_file, "--subspace-w", w_file]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main([*argv, "--out", str(out)]) == code
        assert out1.read_bytes() == out2.read_bytes()

    def test_console_script_entry(self, tmp_path, v_file):
        out = tmp_path / "pts.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "momentkit.cli", "moment-sample", "--subspace", v_file,
             "--count", "4", "--seed", "2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_thread_cap_env(self, tmp_path, v_file):
        out = tmp_path / "pts.csv"
        env = dict(os.environ, MOMENTKIT_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "momentkit.cli", "moment-sample", "--subspace", v_file,
             "--count", "4", "--seed", "2", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        baseline = tmp_path / "base.csv"
        main(["moment-sample", "--subspace", v_file, "--count", "4", "--seed", "2", "--out", str(baseline)])
        assert out.read_bytes() == baseline.read_bytes()


def test_cli_import_loads_no_scipy():
    # scipy is imported only by the calls that need it (NNLS, the normal
    # quantile for n >= 4 direction schedules).
    import momentkit

    src = str(Path(momentkit.__file__).resolve().parents[1])
    code = "import sys, momentkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    assert proc.stdout.strip() == "[]"
