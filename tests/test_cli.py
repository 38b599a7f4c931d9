import csv
import io
import json

import pytest

from segre_secant import SecantReport
from segre_secant.cli import CSV_COLUMNS, EXIT_DISCREPANCY, EXIT_OK, EXIT_USAGE, main
from segre_secant.numerology import ClassificationVerdict


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_sporadic_case_json(capsys):
    code, out, _ = run(capsys, ["dim", "--n", "2", "--m", "1", "--a", "3", "--b", "1", "--s", "5"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "segre-secant/1"
    assert payload["expected_dim"] == 19
    assert payload["computed_dim"] == 18
    assert payload["defect"] == 1
    assert payload["classification"]["rule"] == "main-theorem"
    assert payload["agreement"] is True
    # the JSON output parses back into the report type unchanged
    report = SecantReport.from_dict(payload)
    assert (report.s, report.computed_dim, report.method) == (5, 18, "terracini")


def test_dim_trivial_case(capsys):
    code, out, _ = run(capsys, ["dim", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--s", "1"])
    assert code == EXIT_OK
    assert json.loads(out)["computed_dim"] == 2


def test_dim_cross_check_agreement(capsys):
    code, out, _ = run(
        capsys,
        ["dim", "--n", "3", "--m", "1", "--a", "2", "--b", "2", "--s", "5", "--cross-check"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["computed_dim"] == 23
    assert payload["cross_check"]["computed_dim"] == 23
    assert payload["cross_check"]["method"] == "affine-reduction"


def test_dim_csv_columns(capsys):
    code, out, _ = run(
        capsys,
        ["dim", "--n", "2", "--m", "1", "--a", "3", "--b", "1", "--s", "5", "--format", "csv"],
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_COLUMNS
    record = dict(zip(rows[0], rows[1]))
    assert record["computed_dim"] == "18"
    assert record["rule"] == "main-theorem"


def test_dim_byte_identical_reruns(capsys):
    argv = ["dim", "--n", "2", "--m", "1", "--a", "2", "--b", "2", "--s", "4"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SEGRE_SECANT_SEED", "7")
    _, out, _ = run(capsys, ["dim", "--n", "1", "--m", "1", "--a", "2", "--b", "1", "--s", "2"])
    assert json.loads(out)["seed"] == 7
    _, out, _ = run(
        capsys,
        ["dim", "--n", "1", "--m", "1", "--a", "2", "--b", "1", "--s", "2", "--seed", "9"],
    )
    assert json.loads(out)["seed"] == 9


def test_invalid_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SEGRE_SECANT_SEED", "not-a-number")
    code, _, err = run(capsys, ["dim", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--s", "1"])
    assert code == EXIT_USAGE
    assert "SEGRE_SECANT_SEED" in err


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, ["dim", "--n", "0", "--m", "1", "--a", "1", "--b", "1", "--s", "1"])
    assert code == EXIT_USAGE and "error" in err
    code, _, _ = run(capsys, ["replay", "--n-max", "2", "--a-max", "8", "--b-max", "6"])
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, ["verify", "--s-policy", "list"])
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, ["verify", "--s-policy", "list", "--s-list", ""])
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, ["verify", "--m", "2"])
    assert code == EXIT_USAGE


def test_argparse_error_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["dim", "--n", "2"])  # missing required flags
    assert excinfo.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == EXIT_USAGE


def test_sizing_error_reports_offender(capsys):
    code, _, err = run(
        capsys,
        ["dim", "--n", "3", "--m", "1", "--a", "4", "--b", "1", "--s", "14",
         "--memory-budget", "100"],
    )
    assert code == EXIT_USAGE
    assert "n=3" in err and "100" in err


def test_verify_small_grid_csv(capsys):
    code, out, err = run(
        capsys,
        ["verify", "--n-min", "2", "--n-max", "2", "--a-min", "2", "--a-max", "2",
         "--b-min", "2", "--b-max", "2", "--format", "csv", "--jobs", "1"],
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_COLUMNS
    records = [dict(zip(rows[0], row)) for row in rows[1:]]
    defective = sorted(int(r["s"]) for r in records if int(r["defect"]) > 0)
    assert defective == [4, 5]  # the d = 1 window for n = 2
    assert "cells / agreements / discrepancies: 6 / 6 / 0" in err


def test_verify_window_cells_json(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--n-min", "1", "--n-max", "3", "--a-min", "2", "--a-max", "2",
         "--b-min", "2", "--b-max", "2", "--jobs", "1"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["summary"]["discrepancies"] == 0
    for cell in payload["cells"]:
        n, s = cell["n"], cell["s"]
        in_window = n + 2 <= s <= 2 * n + 1
        assert (cell["defect"] > 0) == in_window, cell


def test_verify_explicit_s_list(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--n-min", "2", "--n-max", "2", "--a-min", "3", "--a-max", "3",
         "--b-min", "1", "--b-max", "1", "--s-policy", "list", "--s-list", "5",
         "--jobs", "1"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["cells"]) == 1
    assert payload["cells"][0]["computed_dim"] == 18


def test_verify_jobs_deterministic(capsys):
    argv = ["verify", "--n-min", "1", "--n-max", "2", "--a-min", "1", "--a-max", "2",
            "--b-min", "1", "--b-max", "2"]
    _, sequential, _ = run(capsys, argv + ["--jobs", "1"])
    _, parallel, _ = run(capsys, argv + ["--jobs", "2"])
    assert sequential == parallel


def test_verify_discrepancy_exit_code(capsys, monkeypatch):
    # Inject a wrong closed form to exercise the mismatch path end to end.
    from segre_secant.numerology import classify as classify_original

    def wrong_classify(n, a, b, s):
        true = classify_original(n, a, b, s)
        return ClassificationVerdict(False, 0, true.dim + 1, "main-theorem")

    monkeypatch.setattr("segre_secant.cli.classify", wrong_classify)
    code, out, err = run(
        capsys,
        ["verify", "--n-min", "1", "--n-max", "1", "--a-min", "1", "--a-max", "1",
         "--b-min", "1", "--b-max", "1", "--jobs", "1"],
    )
    assert code == EXIT_DISCREPANCY
    assert json.loads(out)["summary"]["discrepancies"] > 0


def test_verify_cell_error_exits_one(capsys):
    # A sizing error inside a cell is a usage error, as for dim, not a
    # mathematical discrepancy; the payload still counts it.
    code, out, err = run(
        capsys,
        ["verify", "--n-min", "1", "--n-max", "1", "--a-min", "1", "--a-max", "1",
         "--b-min", "1", "--b-max", "1", "--memory-budget", "10", "--jobs", "1"],
    )
    assert code == EXIT_USAGE
    payload = json.loads(out)
    assert payload["cells"] == []
    assert payload["summary"]["discrepancies"] == 1
    assert "budget is 10" in payload["errors"][0]["error"]
    assert "cell (1, 1, 1, 1): " in err


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_verify_jobs_clamped_to_cells_and_cores(capsys, monkeypatch):
    monkeypatch.setattr("segre_secant.cli.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    grid = ["verify", "--n-min", "1", "--n-max", "2", "--a-min", "1", "--a-max", "2",
            "--b-min", "1", "--b-max", "1"]  # 4 cells
    _, serial, _ = run(capsys, grid + ["--jobs", "1"])
    monkeypatch.setattr("segre_secant.cli._available_cores", lambda: 3)
    code, clamped, _ = run(capsys, grid + ["--jobs", "100000"])
    assert code == EXIT_OK and clamped == serial
    monkeypatch.setattr("segre_secant.cli._available_cores", lambda: 64)
    run(capsys, grid + ["--jobs", "100000"])
    monkeypatch.setattr("segre_secant.cli._available_cores", lambda: 1)
    run(capsys, grid + ["--jobs", "100000"])
    assert _SerialPool.sizes == [3, 4]


def test_dim_discrepancy_exit_code(capsys, monkeypatch):
    from segre_secant.numerology import classify as classify_original

    def wrong_classify(n, a, b, s):
        true = classify_original(n, a, b, s)
        return ClassificationVerdict(True, 1, true.dim - 1, "main-theorem")

    monkeypatch.setattr("segre_secant.cli.classify", wrong_classify)
    code, _, err = run(capsys, ["dim", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--s", "1"])
    assert code == EXIT_DISCREPANCY
    assert "witness" in err


def test_replay_cli_small_grid(capsys):
    code, out, err = run(capsys, ["replay", "--n-max", "3", "--a-max", "5", "--b-max", "2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["summary"]["all_passed"] is True
    assert payload["summary"]["cells"] == 1 * 2 * 2
    code, out, _ = run(
        capsys, ["replay", "--n-max", "3", "--a-max", "4", "--b-max", "1", "--format", "csv"]
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "n" and len(rows) == 2
    code, out, err = run(capsys, ["replay", "--n-max", "2", "--a-max", "8", "--b-max", "6"])
    assert code == EXIT_USAGE and out == ""
    assert err == (
        "segre-secant: error: the inductive region starts at n = 3, a = 4, b = 1; "
        "got bounds (2, 8, 6)\n"
    )


def test_grassmann_cli(capsys):
    code, out, err = run(capsys, ["grassmann", "--n-max", "3", "--a-max", "5"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["summary"]["passed"] is True
    assert payload["defective"] == [
        {"n": 2, "a": 3, "s": 5, "expected_dim": 16, "dim": 15, "defect": 1}
    ]
    code, out, err = run(capsys, ["grassmann", "--n-max", "1", "--a-max", "5"])
    assert code == EXIT_USAGE and out == ""
    assert err == "segre-secant: error: bounds must be >= 2, got (1, 5)\n"


def test_numerology_cli(capsys):
    code, out, _ = run(capsys, ["numerology", "--n", "3", "--m", "1", "--a", "4", "--b", "1"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["q"], payload["r"], payload["qstar"]) == (14, 0, 14)
    assert (payload["e"], payload["estar"]) == (14, 14)
    code, out, _ = run(capsys, ["numerology", "--n", "2", "--m", "2", "--a", "1", "--b", "1",
                                "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert "e" not in rows[0]  # no closed form away from m = 1
