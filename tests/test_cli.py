import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from momentkit.cli import _CSV_BLOCK, _dumps, _write_csv, load_hermitian, load_subspace, main
from momentkit.feasibility import moments_intersect
from momentkit.minimality import check_minimal
from momentkit.moment import support_moment

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


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


#: A JSON integer beyond the float range.
HUGE = "1" + "0" * 400


@pytest.fixture
def v_file(tmp_path):
    return write_subspace(tmp_path / "V.json", SPAN_V, 3)


@pytest.fixture
def w_file(tmp_path):
    return write_subspace(tmp_path / "W.json", SPAN_W, 3)


def test_csv_rows_keep_17_digits(tmp_path):
    row = [-0.0, 5e-324, 1e308, 0.1, 1 / 3]
    out = tmp_path / "d.csv"
    _write_csv(str(out), list("abcde"), [row, np.array(row)])
    line = ",".join(f"{x:.17g}" for x in row)
    assert out.read_text() == f"a,b,c,d,e\n{line}\n{line}\n"


def _joined_csv(header, rows) -> str:
    """The whole CSV as one string, as ``_write_csv`` built it before it
    wrote in blocks."""
    line = ",".join(["%.17g"] * len(header))
    lines = [",".join(header), *(line % tuple(row) for row in np.asarray(rows, float).tolist())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("count", [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1,
                                   5 * _CSV_BLOCK // 2])
def test_csv_blocks_keep_bytes(tmp_path, count):
    rng = np.random.default_rng(count)
    scales = [5e-324, -1e-300, 1e306, -1.0, 1 / 3]
    rows = rng.standard_normal((count, 5)) * scales
    rows[::7, 0] = -0.0
    header = list("abcde")
    out = tmp_path / "d.csv"
    _write_csv(str(out), header, rows)
    assert out.read_bytes() == _joined_csv(header, rows).encode()


def test_csv_is_written_in_blocks(tmp_path):
    # The rows as Python lists and then as one string peaked at 10.25 MB.
    rows = np.random.default_rng(0).standard_normal((20_000, 8))
    header = [f"x{i}" for i in range(8)]
    tracemalloc.start()
    try:
        _write_csv(str(tmp_path / "d.csv"), header, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert len((tmp_path / "d.csv").read_text().splitlines()) == 20_001


def _bits(a) -> bytes:
    """Bytes of a float64 array; a complex array as its interleaved re, im."""
    return np.ascontiguousarray(a).view(np.float64).tobytes()


def _payload_bits(value) -> bytes:
    return np.array(value, dtype=np.float64).tobytes()


def test_json_payloads_keep_exact_bits(tmp_path, capsys):
    row = np.array([-0.0, 5e-324, 1e308, 0.1, 1 / 3])
    matrix = np.array([row, -row]) + 1j * np.array([row[::-1], row])
    values = {"real": row, "complex": row[::-1] - 1j * row, "matrix": matrix,
              "scalar": np.complex128(-0.0 + 5e-324j), "float": np.float64(-0.0)}
    back = json.loads(_dumps({**values, "int": np.int64(-7), "bool": np.bool_(True),
                              "false": np.False_}))
    for key, value in values.items():
        assert _payload_bits(back[key]) == _bits(value), key
    assert back["int"] == -7 and type(back["int"]) is int
    assert back["bool"] is True and back["false"] is False

    # Every array of the intersect, minimal-check and support payloads, bit
    # for bit against the library call with the same inputs.
    x = np.array([1, 1j]) / np.sqrt(2)
    pairs = {
        "INTERSECT": (write_subspace(tmp_path / "a.json", [x], 2),
                      write_subspace(tmp_path / "b.json", [np.conj(x)], 2)),
        "DISJOINT": (write_subspace(tmp_path / "c.json", [(1, 0)], 2),
                     write_subspace(tmp_path / "d.json", [(0, 1)], 2)),
    }
    for status, (va, vb) in pairs.items():
        main(["intersect", "--subspace-v", va, "--subspace-w", vb])
        payload = json.loads(capsys.readouterr().out)
        cert = moments_intersect(load_subspace(va), load_subspace(vb))
        assert payload["status"] == cert.status.value == status
        keys = ["witness_y", "witness_x", "common"] if status == "INTERSECT" else ["direction"]
        for key in keys:
            assert _payload_bits(payload[key]) == _bits(getattr(cert, key)), key
        assert payload["gap"] == cert.gap and payload["iterations"] == cert.iterations
        assert ("margin" in payload) == (status == "DISJOINT")
        if status == "DISJOINT":
            assert payload["margin"] == cert.margin

    mat = write_matrix(tmp_path / "m.json", [[0, -1j], [1j, 0]])
    assert main(["minimal-check", "--matrix", mat]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = check_minimal(load_hermitian(mat))
    assert _payload_bits(payload["eigenspace_pos"]) == _bits(report.space_pos.basis)
    assert _payload_bits(payload["eigenspace_neg"]) == _bits(report.space_neg.basis)
    for key in ("witness_y", "witness_x", "common"):
        assert _payload_bits(payload["certificate"][key]) == _bits(getattr(report.certificate, key))

    sub = write_subspace(tmp_path / "s.json", SPAN_W, 3)
    assert main(["support", "--subspace", sub, "--direction", "0.1,-0.0,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    c = np.array([0.1, -0.0, 3.0])
    side = support_moment(load_subspace(sub), c)
    assert _payload_bits(payload["direction"]) == _bits(c)
    assert _payload_bits(payload["moment_maximizer"]) == _bits(side.maximizer)
    assert payload["moment_support"] == side.value


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

    def test_entries_up_to_float_limit(self, tmp_path, capsys):
        # Symmetrizing overflowed: overflow warnings, then "matrix has
        # non-finite entries" and exit 3.
        mat = write_matrix(tmp_path / "m.json", [[0, 1e308], [1e308, 0]])
        assert main(["minimal-check", "--matrix", mat]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["norm"] == pytest.approx(1e308, rel=1e-15)
        assert captured.err == ""

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
        for schedule in ("fibonacci:0", "fibonacci:x"):
            assert main(["jnr-boundary", "--subspace", va, "--directions", schedule,
                         "--out", str(tmp_path / "b.csv")]) == 3
            assert "fibonacci" in capsys.readouterr().err
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

    @pytest.mark.parametrize("case", [
        "unreadable", "missing-key", "not-square", "empty-vectors", "short-row", "zero-span",
        "direction-text", "non-finite-directions", "zero-direction", "coordinate-range",
        "non-finite-matrix", "undecodable", "huge-integer-subspace", "huge-integer-directions",
        "infinite-direction", "nan-direction",
    ])
    def test_input_errors_exit_three(self, tmp_path, v_file, capsys, case):
        def file(text):
            path = tmp_path / "input.json"
            path.write_text(text)
            return str(path)

        def raw(data):
            path = tmp_path / "raw.json"
            path.write_bytes(data)
            return str(path)

        def boundary(directions):
            return ["jnr-boundary", "--subspace", v_file, "--directions", file(directions),
                    "--out", str(tmp_path / "b.csv")]

        argv, message = {
            "unreadable": (lambda: ["centroid", "--subspace", str(tmp_path / "missing.json")],
                           "cannot read"),
            "missing-key": (lambda: ["centroid", "--subspace", file('{"n": 3}')],
                            "expected an object with keys 'n' and 'vectors'"),
            "not-square": (lambda: ["minimal-check", "--matrix",
                                    file('{"n": 3, "entries": [[[1, 0], [0, 0], [0, 0]]]}')],
                           "'entries' must be an 3 x 3 nested list"),
            "empty-vectors": (lambda: ["centroid", "--subspace", file('{"n": 3, "vectors": []}')],
                              "'vectors' must be a non-empty list"),
            "short-row": (lambda: ["centroid", "--subspace",
                                   file('{"n": 3, "vectors": [[[1, 0], [0, 0]]]}')],
                          "vectors[0] must have 3 entries"),
            "zero-span": (lambda: ["centroid", "--subspace",
                                   write_subspace(tmp_path / "z.json", [(0, 0, 0)], 3)],
                          "the span is the zero subspace"),
            "direction-text": (lambda: ["support", "--subspace", v_file, "--direction=a,b,c"],
                               "--direction must be comma-separated numbers"),
            "non-finite-directions": (lambda: boundary("[[1e999, 0, 0]]"),
                                      "directions must be finite and nonzero"),
            "zero-direction": (lambda: boundary("[[1, 0, 0], [0, 0, 0]]"),
                               "directions must be finite and nonzero"),
            "coordinate-range": (lambda: ["curve", "--subspace", v_file, "-j", "1", "-k", "4",
                                          "--out", str(tmp_path / "c.csv")],
                                 "coordinates must lie in 1..3"),
            # Only the hermitian check's own error used to name the file.
            "non-finite-matrix": (lambda: ["minimal-check", "--matrix",
                                           file('{"n": 2, "entries": [[[1e999, 0], [0, 0]],'
                                                ' [[0, 0], [1, 0]]]}')],
                                  f"{tmp_path / 'input.json'}: matrix has non-finite entries"),
            # Not UTF-8: the decode error used to name no file.
            "undecodable": (lambda: ["centroid", "--subspace", raw(b'{"n": 1\xff}')],
                            f"cannot read {tmp_path / 'raw.json'}: 'utf-8' codec"),
            # An integer beyond the float range raised OverflowError, which
            # exited 1: DISJOINT for intersect.
            "huge-integer-subspace": (lambda: ["intersect", "--subspace-v",
                                               file(f'{{"n": 2, "vectors": [[[1, 0], [{HUGE}, 0]]]}}'),
                                               "--subspace-w", v_file],
                                      f"{tmp_path / 'input.json'}: vectors[0][1]: "
                                      "entry is beyond the float range"),
            "huge-integer-directions": (lambda: boundary(f"[[1, 0, {HUGE}]]"),
                                        f"{tmp_path / 'input.json'}: "
                                        "directions must be finite and nonzero"),
            # The library's "directions must be finite real rows" named no flag.
            "infinite-direction": (lambda: ["support", "--subspace", v_file,
                                            "--direction", "1e999,0,0"],
                                   "--direction must have finite entries"),
            "nan-direction": (lambda: ["support", "--subspace", v_file, "--direction", "nan,0,0"],
                              "--direction must have finite entries"),
        }[case]
        assert main(argv()) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_support_direction_length_mismatch(self, tmp_path, v_file, capsys):
        assert main(["support", "--subspace", v_file, "--direction", "1,0"]) == 3
        assert "expected 3" in capsys.readouterr().err

    def test_support_whole_space(self, tmp_path, capsys):
        sub = write_subspace(tmp_path / "c3.json", np.eye(3), 3)
        assert main(["support", "--subspace", sub, "--direction", "3,1,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["moment_support"] == pytest.approx(3.0, abs=1e-12)

    def test_support_direction_near_float_limit(self, v_file, capsys):
        assert main(["support", "--subspace", v_file, "--direction", "1e308,1e308,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["moment_support"] == 9.999999999999998e307

    @pytest.mark.parametrize("where", ["entry", "n"])
    def test_json_booleans_are_no_numbers(self, tmp_path, capsys, where):
        # true == 1 in Python; the loader must not read it as a coordinate or
        # a dimension.
        payload = {"n": 2, "vectors": [[[1, 0], [0, 0]]]}
        if where == "entry":
            payload["vectors"][0][0] = [True, False]
        else:
            payload = {"n": True, "vectors": [[[1, 0]]]}
        sub = tmp_path / "bool.json"
        sub.write_text(json.dumps(payload))
        assert main(["centroid", "--subspace", str(sub)]) == 3
        assert "error: " in capsys.readouterr().err

    def test_directions_file_booleans_rejected(self, tmp_path, v_file, capsys):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([[True, 0, 0]]))
        out = tmp_path / "b.csv"
        assert main(["jnr-boundary", "--subspace", v_file, "--directions", str(dirs),
                     "--out", str(out)]) == 3
        assert "3-vectors" in capsys.readouterr().err

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
        assert sorted(payload) == ["direction_count", "estimate", "frobenius_distance",
                                   "spectral_distance"]

    def test_directions_file(self, tmp_path, v_file):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [1, 1, 1]]))
        out = tmp_path / "b.csv"
        assert main(["jnr-boundary", "--subspace", v_file, "--directions", str(dirs), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_directions_file_object_form(self, tmp_path, v_file):
        rows = [[1, 0, 0], [0, 1, 0], [1, 1, 1]]
        csv = {}
        for form, payload in (("list", rows), ("object", {"directions": rows})):
            dirs = tmp_path / f"{form}.json"
            dirs.write_text(json.dumps(payload))
            out = tmp_path / f"{form}.csv"
            assert main(["jnr-boundary", "--subspace", v_file, "--directions", str(dirs),
                         "--out", str(out)]) == 0
            csv[form] = out.read_bytes()
        assert csv["object"] == csv["list"]

    def test_spans_of_any_finite_scale(self, tmp_path, capsys):
        # The norms of the raw vectors underflowed: "empty basis", exit 3.
        sub = write_subspace(tmp_path / "tiny.json", [(1e-200, 3e-200), (1e-200, 0)], 2)
        assert main(["centroid", "--subspace", sub]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r"] == 2
        assert payload["centroid"] == pytest.approx([0.5, 0.5], abs=1e-15)


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

    def test_digest_is_of_the_bytes_read(self, files):
        # The output overwrites its input: the report used to re-read the
        # path after the command ran and record the output's digest.
        path = files["v"]
        read = _sha256(path)
        assert main(["centroid", "--subspace", path, "--out", path]) == 0
        assert _sha256(path) != read
        report = json.loads(Path(path + ".report.json").read_text())
        assert report["inputs"] == {path: read}

    def test_repeated_calls_report_the_same_inputs(self, tmp_path, files):
        argv = ["hausdorff", "--subspace-v", files["v"], "--subspace-w", files["w"],
                "--directions", files["dirs"], "--out", str(tmp_path / "h.json")]
        inputs = []
        for _ in range(2):
            assert main(argv) == 0
            inputs.append(json.loads((tmp_path / "h.json.report.json").read_text())["inputs"])
        assert inputs[0] == inputs[1] == {files[key]: _sha256(files[key]) for key in ("v", "w", "dirs")}

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

    @pytest.mark.parametrize("case, code", [
        ("intersect", 0), ("disjoint", 1), ("minimal", 0),
        ("support", 0), ("centroid", 0), ("jnr-boundary", 0), ("hausdorff", 0),
    ])
    def test_verdict_outputs_byte_identical(self, tmp_path, v_file, w_file, case, code):
        if case == "minimal":
            # Nested pair: V = span{x} and W = span{conj(x), f2}, so m_V lies in m_W.
            frame, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
            x = (frame[:, 0] + 1j * frame[:, 1]) / np.sqrt(2.0)
            m = (np.outer(x, x.conj()) - np.outer(x.conj(), x)
                 - np.outer(frame[:, 2], frame[:, 2]) + 0.5 * np.outer(frame[:, 3], frame[:, 3]))
            argv = ["minimal-check", "--matrix", write_matrix(tmp_path / "m.json", m)]
        elif case == "support":
            argv = ["support", "--subspace", w_file, "--direction", "0.1,-2,1e-3"]
        elif case == "centroid":
            argv = ["centroid", "--subspace", w_file]
        elif case == "jnr-boundary":
            argv = ["jnr-boundary", "--subspace", w_file, "--directions", "fibonacci:64"]
        elif case == "hausdorff":
            argv = ["hausdorff", "--subspace-v", v_file, "--subspace-w", w_file]
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


SCIPY_FREE = {
    "import": "pass",
    "fibonacci": "from momentkit.directions import fibonacci_directions; fibonacci_directions(8, 10)",
    "jnr-boundary": "main(['jnr-boundary', '--subspace', {v!r}, '--directions', 'fibonacci:64',"
                    " '--out', {out!r}])",
    "hausdorff": "main(['hausdorff', '--subspace-v', {v!r}, '--subspace-w', {w!r}, '--out', {out!r}])",
    "intersect": "main(['intersect', '--subspace-v', {pv!r}, '--subspace-w', {pw!r}, '--out', {out!r}])",
    "intersect-steps": "main(['intersect', '--subspace-v', {bv!r}, '--subspace-w', {bw!r},"
                       " '--out', {out!r}])",
    "minimal-check": "main(['minimal-check', '--matrix', {m4!r}, '--out', {out!r}])",
    "minimal-check-steps": "main(['minimal-check', '--matrix', {mb!r}, '--out', {out!r}])",
}


def nested_matrix(n: int) -> np.ndarray:
    """y y* - conj(y) conj(y)* - (f f* + ...) + h h* / 2 from a real
    orthogonal frame of a fixed seed, y = (a + i b)/sqrt(2): MINIMAL, its
    eigenspace at +1 the line of y, inside conj of the one at -1, which has
    rank n - 2."""
    frame, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))
    y = (frame[:, 0] + 1j * frame[:, 1]) / np.sqrt(2.0)
    rest = frame[:, 2:n - 1]
    return (np.outer(y, y.conj()) - np.outer(y.conj(), y) - rest @ rest.T
            + 0.5 * np.outer(frame[:, -1], frame[:, -1]))


def boundary_matrix() -> np.ndarray:
    """P_x - P_W + h h* / 2 for x = (1, 1, 1, 0, 0)/sqrt(3), W of rank 3
    orthogonal to x and holding x' = (1, w, w^2, 0, 0)/sqrt(3), w = exp(2 pi
    i / 3), and h the unit vector orthogonal to both, from a fixed seed:
    MINIMAL, the moment sets of x and W meeting only at |x|^2 = |x'|^2, a
    boundary point of m_W whose only preimage in W is the pure state of x'."""
    x = np.array([1, 1, 1, 0, 0]) / np.sqrt(3.0)
    other = np.array([1, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3), 0, 0]) / np.sqrt(3.0)
    g = np.random.default_rng(0).standard_normal((5, 3))
    frame, _ = np.linalg.qr(np.column_stack([x, other, g]))
    w, h = frame[:, 1:4], frame[:, 4]
    m = np.outer(x, x) - w @ w.conj().T + 0.5 * np.outer(h, h.conj())
    return 0.5 * (m + m.conj().T)


def test_cli_import_loads_no_scipy(tmp_path):
    # No command loads scipy: not the CLI import, not the n >= 4 direction
    # schedules (here n = 8, the hausdorff command with its default
    # fibonacci:500), and not the solvers.  The intersect pair (W spanned by
    # D_k x_k for diagonal unitaries D_k) and the nested minimal-check matrix
    # in C^4 are settled by the fiber's least-squares solve.  The "-steps"
    # cases, a line and a space of rank 3 whose moment sets meet only at a
    # boundary point, are declined by its phase I and take Frank-Wolfe
    # steps, so they reach the master solve.  One fresh child each.
    import momentkit

    rng = np.random.default_rng(8)
    spans = {
        name: write_subspace(tmp_path / f"{name}.json",
                             rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)), 8)
        for name in "vw"
    }
    x = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))[0].T
    spans["pv"] = write_subspace(tmp_path / "pv.json", x, 5)
    spans["pw"] = write_subspace(tmp_path / "pw.json", x * np.exp(2j * np.pi * rng.random((2, 5))), 5)
    spans["bv"] = write_subspace(tmp_path / "bv.json", [(1, 0, 1j, 0)], 4)
    spans["bw"] = write_subspace(tmp_path / "bw.json",
                                 [(-1j, 1j, 1j, 1), (1j, 0, -1, -1), (-1j, 0, -1j, 0)], 4)
    spans["m4"] = write_matrix(tmp_path / "m4.json", nested_matrix(4))
    spans["mb"] = write_matrix(tmp_path / "mb.json", boundary_matrix())
    src = str(Path(momentkit.__file__).resolve().parents[1])
    loaded = {}
    for case, run in SCIPY_FREE.items():
        run = run.format(out=str(tmp_path / f"{case}.out"), **spans)
        code = ("import sys; from momentkit.cli import main; "
                f"{run}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            check=True,
        )
        loaded[case] = proc.stdout.splitlines()[-1]
    intersect = json.loads((tmp_path / "intersect.out").read_text())
    assert intersect["iterations"] == 0 and intersect["gap"] <= 1e-14
    assert json.loads((tmp_path / "intersect-steps.out").read_text())["iterations"] >= 1
    assert json.loads((tmp_path / "minimal-check.out").read_text())["certificate"]["iterations"] == 0
    steps = json.loads((tmp_path / "minimal-check-steps.out").read_text())
    assert steps["verdict"] == "MINIMAL" and steps["certificate"]["iterations"] >= 1
    assert loaded == dict.fromkeys(SCIPY_FREE, "[]")


#: The momentkit modules each command loads beyond the package, ``cli``,
#: ``linalg`` and ``subspace``, which every command uses.  ``hausdorff``
#: runs its default ``fibonacci:500`` schedule.
COMMAND_MODULES = {
    "centroid": set(),
    "moment-sample": {"moment"},
    "curve": {"moment"},
    "support": {"moment", "jnr"},
    "jnr-boundary": {"jnr", "directions"},
    "intersect": {"feasibility"},
    "minimal-check": {"minimality", "feasibility"},
    "hausdorff": {"minimality", "feasibility", "directions"},
}


def _child_modules(code: str, src: str) -> list[str]:
    """The last stdout line of a fresh interpreter running ``code``."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_modules(tmp_path, v_file, w_file, command):
    import momentkit

    matrix = write_matrix(tmp_path / "M.json", [[0.0, -1j], [1j, 0.0]])
    out = str(tmp_path / "out")
    argv = {
        "centroid": ["--subspace", v_file],
        "moment-sample": ["--subspace", v_file, "--count", "5", "--out", out],
        "curve": ["--subspace", v_file, "-j", "1", "-k", "2", "--steps", "4", "--out", out],
        "support": ["--subspace", v_file, "--direction", "1,0,0"],
        "jnr-boundary": ["--subspace", v_file, "--directions", "fibonacci:8", "--out", out],
        "intersect": ["--subspace-v", v_file, "--subspace-w", w_file],
        "minimal-check": ["--matrix", matrix],
        "hausdorff": ["--subspace-v", v_file, "--subspace-w", w_file],
    }[command]
    code = ("import json, sys; from momentkit.cli import main; "
            f"code = main({[command, *argv]!r}); "
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('momentkit'))]))")
    src = str(Path(momentkit.__file__).resolve().parents[1])
    exit_code, loaded = _child_modules(code, src)
    assert exit_code in (0, 1, 2)
    expected = {"cli", "linalg", "subspace", *COMMAND_MODULES[command]}
    assert loaded == sorted(["momentkit", *(f"momentkit.{m}" for m in expected)])


def test_package_import_loads_no_module():
    import momentkit

    src = str(Path(momentkit.__file__).resolve().parents[1])
    code = ("import json, sys, momentkit; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] in ('momentkit', 'numpy'))))")
    assert _child_modules(code, src) == ["momentkit"]


def test_cli_forwards_the_package_names():
    # Any public name of the package reads through cli, as itself; a name
    # the package lacks, or a private one, is not there.
    import momentkit
    import momentkit.feasibility
    from momentkit import cli

    assert cli.moments_intersect is momentkit.feasibility.moments_intersect
    with pytest.raises(AttributeError, match="momentkit.cli"):
        cli.no_such_name
    with pytest.raises(AttributeError):
        cli._EXPORTS
    assert not hasattr(cli, "__path__")
