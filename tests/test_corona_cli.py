import csv

import numpy as np
import pytest

import rtensor.corona.cli as corona_cli
from rtensor.corona.bench import BenchRow
from rtensor.corona.cli import main as corona_main
from rtensor.corona.model import hess_mult
from rtensor.corona.pgm import read_csv, read_mask, read_pgm, write_csv, write_mask, write_pgm
from rtensor.errors import DataFileError, DimMismatchError, SpecError


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(12, 17))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (12, 17)
    assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12


def test_pgm_header_is_p5_16bit(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.ones((2, 3)))
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n3 2\n65535\n")
    assert blob[len(b"P5\n3 2\n65535\n"):] == b"\xff\xff" * 6


def test_pgm_clamps_and_squares(tmp_path):
    # squaring happens before the clamp, so negatives display bright
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[-1.0, 0.5, 2.0]]), square=True)
    back = read_pgm(path)
    np.testing.assert_allclose(back.ravel(), [1.0, 0.25, 1.0], atol=1e-4)


def test_mask_roundtrip(tmp_path):
    mask = np.random.default_rng(1).uniform(size=(9, 9)) > 0.5
    path = tmp_path / "mask.pgm"
    write_mask(path, mask)
    np.testing.assert_array_equal(read_mask(path), mask)


def test_synth_and_solve_pipeline(tmp_path):
    scene = tmp_path / "scene"
    assert corona_main(["synth", "--size", "48", "--seed", "5", "--out", str(scene)]) == 0
    for name in ("source.pgm", "ground_truth.pgm", "mask.pgm", "aberrated.pgm"):
        assert (scene / name).exists()
    out = tmp_path / "solved"
    assert corona_main([
        "solve", "--in", str(scene), "--max-iter", "40",
        "--grad-tol", "1e-8", "--out", str(out),
    ]) == 0
    assert (out / "corrected.pgm").exists()
    assert (out / "phase.csv").exists()
    with open(out / "report.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["step", "sse", "grad_inf_norm", "secs"]
    sses = [float(r[1]) for r in rows[1:]]
    assert sses[-1] < sses[0]
    assert all(b <= a for a, b in zip(sses, sses[1:]))


def test_solve_report_times_each_accepted_step(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert corona_main(["synth", "--size", "32", "--seed", "1", "--out", str(scene)]) == 0
    out = tmp_path / "solved"
    assert corona_main(["solve", "--in", str(scene), "--max-iter", "40", "--out", str(out)]) == 0
    iterations = int(capsys.readouterr().out.split(" iterations")[0].split()[-1])
    with open(out / "report.csv") as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) < iterations + 1  # some steps were rejected
    secs = [float(r[3]) for r in rows]
    assert secs == sorted(secs)


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert corona_main(["bench", "--sizes", "16,24", "--reps", "1", "--out", str(out)]) == 0
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["M", "N", "op", "secs", "bytes"]
    assert len(rows) - 1 == 2 * 3
    # bytes are tracemalloc peaks, so every op holds some and they grow with the format
    nbytes = {(int(r[0]), r[2]): int(r[4]) for r in rows[1:]}
    for op in ("sse", "sse_grad", "hmf"):
        assert 0 < nbytes[(16, op)] < nbytes[(24, op)]


def test_bench_prints_one_row_per_measured_size_in_run_order(tmp_path, capsys, monkeypatch):
    rows = [BenchRow(16, 16, op, 1e-3 * k * j, 100 * k * j)
            for k in (1, 2) for op, j in (("sse", 1), ("sse_grad", 2), ("hmf", 4))]
    monkeypatch.setattr(corona_cli, "benchmark", lambda sizes, reps: rows)
    out = tmp_path / "bench.csv"
    assert corona_main(["bench", "--sizes", "16,16", "--out", str(out)]) == 0
    table = [line.split() for line in capsys.readouterr().out.splitlines()[1:-1]]
    with open(out) as f:
        written = list(csv.reader(f))[1:]
    assert len(table) == 2 and len(written) == 6
    for line, k in zip(table, (1, 2)):
        assert line[0] == "16" and line[-3:] == [str(100 * k), str(200 * k), str(400 * k)]
        assert [int(r[4]) for r in written[3 * k - 3:3 * k]] == [100 * k, 200 * k, 400 * k]


def test_bench_interleaves_the_repetitions_of_its_ops(monkeypatch):
    import rtensor.corona.bench as bench

    calls = []
    sse, hess = bench.sse, bench.hess_mult_cached
    monkeypatch.setattr(bench, "sse", lambda *a, want_gradient=False: calls.append(
        "sse_grad" if want_gradient else "sse") or sse(*a, want_gradient=want_gradient))
    monkeypatch.setattr(bench, "hess_mult_cached", lambda *a: calls.append("hmf") or hess(*a))
    rows = bench.benchmark([16], reps=3)
    # three timed rounds of every op in turn, then one traced call of each
    assert calls == ["sse", "sse_grad", "hmf"] * 4
    assert [r.op for r in rows] == ["sse", "sse_grad", "hmf"]


def _pgm_blob(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.full((2, 3), 0.5))
    return path.read_bytes()


PGM_FAULTS = {
    "truncated body": lambda blob: blob[:-1],
    "header cut short": lambda blob: b"P5\n3 ",
    "header comment runs to end": lambda blob: b"P5\n3 2 # no maxval",
    "non-integer header": lambda blob: blob.replace(b"3 2", b"3 x", 1),
    "zero width": lambda blob: blob.replace(b"3 2", b"0 2", 1),
    "not P5": lambda blob: b"P2" + blob[2:],
}


@pytest.mark.parametrize("fault", PGM_FAULTS)
def test_read_pgm_faults_carry_the_path(tmp_path, fault):
    path = tmp_path / "bad.pgm"
    path.write_bytes(PGM_FAULTS[fault](_pgm_blob(tmp_path)))
    with pytest.raises(DataFileError) as info:
        read_pgm(path)
    assert info.value.path == path


@pytest.mark.parametrize("text", ["1,2\n3\n", "1,x\n"])
def test_read_csv_malformed_carries_the_path(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataFileError) as info:
        read_csv(path)
    assert info.value.path == path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n  \n", "# a comment\n", "  # two\n# comments"])
def test_read_csv_with_no_data_is_reported_without_a_warning(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(DataFileError, match="no data$") as info:
        read_csv(path)
    assert info.value.path == path


def test_solve_reports_an_empty_csv_with_its_path(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert corona_main(["synth", "--size", "16", "--out", str(scene)]) == 0
    (scene / "aberrated.csv").write_text("# no rows\n")
    assert corona_main(["solve", "--in", str(scene), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {scene / 'aberrated.csv'}: no data\n"


@pytest.mark.parametrize("read", [read_pgm, read_csv])
def test_missing_file_carries_the_path(tmp_path, read):
    path = tmp_path / "absent"
    with pytest.raises(DataFileError) as info:
        read(path)
    assert info.value.path == path


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "m.csv"
    for shape in [(3, 4), (3, 1), (1, 3), (1, 1)]:  # a single row or column keeps its shape
        matrix = rng.standard_normal(shape)
        write_csv(path, matrix)
        back = read_csv(path)
        assert back.shape == shape
        np.testing.assert_array_equal(back, matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_write_pgm_rejects_non_finite_pixels(tmp_path, bad):
    path = tmp_path / "img.pgm"
    with pytest.raises(SpecError):
        write_pgm(path, np.array([[0.5, bad]]))
    assert not path.exists()


def test_write_pgm_rejects_a_complex_image(tmp_path):
    path = tmp_path / "img.pgm"
    with pytest.raises(DimMismatchError):
        write_pgm(path, np.full((2, 2), 0.5) + 0.5j)
    assert not path.exists()


@pytest.mark.parametrize("command", [["synth", "--size", "32"], ["solve", "--max-iter", "1"]])
def test_unwritable_output_is_reported_with_its_path(tmp_path, capsys, command):
    scene = tmp_path / "scene"
    assert corona_main(["synth", "--size", "32", "--out", str(scene)]) == 0
    blocked = tmp_path / "a_file"
    blocked.write_text("")
    if command[0] == "solve":
        command = command + ["--in", str(scene)]
    assert corona_main(command + ["--out", str(blocked)]) == 1
    assert f"error: {blocked}: cannot write" in capsys.readouterr().err


def test_synth_with_a_negative_seed_is_reported_before_writing(tmp_path, capsys):
    out = tmp_path / "d"
    assert corona_main(["synth", "--size", "16", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_bench_to_a_missing_directory_is_reported_with_its_path(tmp_path, capsys):
    out = tmp_path / "missing" / "b.csv"
    assert corona_main(["bench", "--sizes", "16", "--reps", "1", "--out", str(out)]) == 1
    assert f"error: {out}: cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_bench_with_no_repetitions_is_reported_before_writing(tmp_path, capsys, reps):
    out = tmp_path / "b.csv"
    assert corona_main(["bench", "--sizes", "16", "--reps", reps, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: reps must be at least 1")
    assert not out.exists()


@pytest.mark.parametrize("option, value, field", [
    ("--max-iter", "-3", "max_iter"), ("--grad-tol", "nan", "grad_tol"), ("--grad-tol", "-1", "grad_tol"),
])
def test_solve_rejects_a_setting_that_disables_the_solver(tmp_path, capsys, option, value, field):
    scene = tmp_path / "scene"
    assert corona_main(["synth", "--size", "32", "--out", str(scene)]) == 0
    out = tmp_path / "out"
    assert corona_main(["solve", "--in", str(scene), option, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be nonnegative, got ")
    assert not out.exists()


def test_solve_reports_a_malformed_csv_with_its_path(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert corona_main(["synth", "--size", "32", "--out", str(scene)]) == 0
    (scene / "aberrated.csv").write_text("1,x\n")
    assert corona_main(["solve", "--in", str(scene), "--out", str(tmp_path / "out")]) == 1
    assert str(scene / "aberrated.csv") in capsys.readouterr().err


def test_cli_lets_unexpected_errors_propagate(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug, not an input fault")

    monkeypatch.setattr(corona_cli, "benchmark", broken)
    with pytest.raises(RuntimeError):
        corona_main(["bench", "--sizes", "16", "--out", str(tmp_path / "b.csv")])


def test_check_command():
    assert corona_main(["check"]) == 0


def test_check_fails_for_a_hessian_exact_only_at_odd_phases(monkeypatch, capsys):
    """The check's random phase is not odd, so the product from ``xt`` alone,
    which takes the phase-shifted spectrum as ``fft2(xt)``, must fail it."""
    monkeypatch.setattr(corona_cli, "hess_mult_cached", lambda s, d: hess_mult(s.xt, d, s.wb))
    assert corona_main(["check"]) == 1
    out = capsys.readouterr().out
    assert out.count("hessian page") == 3 and "gradient direction" not in out
