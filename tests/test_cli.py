import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import segre_secant
from segre_secant import (
    SecantReport,
    SegreVeroneseSpec,
    SizingError,
    cli,
    dimension_profile,
    expected_dimension,
    invariants,
)
from segre_secant import affine, terracini, field as field_module
from segre_secant.monomials import euler_panel
from segre_secant.cli import CSV_COLUMNS, EXIT_DISCREPANCY, EXIT_OK, EXIT_USAGE, main
from segre_secant.numerology import ClassificationVerdict


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(argv, timeout):
    """The CLI in a fresh interpreter, killed after timeout seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(segre_secant.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "segre_secant.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def fresh_json(proc):
    """The JSON stdout of a run_fresh process; a failure to parse shows its stderr."""
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise AssertionError(f"stdout is not JSON ({exc}); stderr: {proc.stderr!r}") from None


def test_dim_sporadic_case_json(capsys):
    code, out, _ = run(capsys, ["dim", "--n", "2", "--m", "1", "--a", "3", "--b", "1", "--s", "5"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "segre-secant/2"
    assert payload["rule"] == "main-theorem"
    assert payload["expected_dim"] == 19
    assert payload["computed_dim"] == 18
    assert payload["defect"] == 1
    assert payload["classification"]["rule"] == "main-theorem"
    assert payload["agreement"] is True
    # the JSON output parses back into the report type unchanged
    report = SecantReport._make(payload[key] for key in CSV_COLUMNS)
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


def test_dim_and_verify_print_one_row_layout(capsys):
    # Every secant row, in dim's payload, its cross_check and verify's
    # cells, has the CSV columns as its keys in order; verify adds only
    # classify_dim and agree, and schema and rng appear once per payload.
    assert CSV_COLUMNS == (
        "n", "m", "a", "b", "s", "N", "expected_dim", "computed_dim", "defect",
        "rule", "prime", "seed", "trials", "method",
    )
    _, out, _ = run(capsys, ["dim", "--n", "2", "--m", "1", "--a", "2", "--b", "2", "--s", "4", "--cross-check"])
    assert out.count("\n") == 1 and out.count("segre-secant/2") == 1 and out.count('"rng"') == 1
    payload = json.loads(out)
    assert tuple(payload)[:2] == ("schema", "rng")
    assert tuple(payload)[2:-3] == CSV_COLUMNS
    assert tuple(payload["cross_check"]) == CSV_COLUMNS
    assert payload["cross_check"]["rule"] == payload["rule"] == "abrescia-2b"
    _, out, _ = run(capsys, ["verify", "--n-max", "1", "--a-max", "2", "--b-max", "1", "--jobs", "1"])
    assert out.count("\n") == 1 and out.count("segre-secant/2") == 1 and out.count('"rng"') == 1
    for row in json.loads(out)["cells"]:
        assert tuple(row) == CSV_COLUMNS + ("classify_dim", "agree")


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


def test_negative_seed_flag_is_usage_error(capsys):
    for argv in (["dim", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--s", "1"], ["verify"]):
        code, out, err = run(capsys, argv + ["--seed", "-1"])
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert "--seed must be a non-negative integer, got -1" in err


def test_negative_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SEGRE_SECANT_SEED", "-1")
    for argv in (["dim", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--s", "1"], ["verify"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert "SEGRE_SECANT_SEED must be a non-negative integer, got -1" in err


def test_s_list_needs_the_list_policy(capsys):
    argv = ["verify", "--n-max", "1", "--a-max", "2", "--b-max", "2", "--s-list", "3", "--jobs", "1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert "--s-list is read only with --s-policy list" in err
    with pytest.raises(ValueError, match="--s-policy list"):
        dataclasses.replace(_sweep((1,), (2,), (2,), 1), s_list=(3,))
    code, _, _ = run(capsys, argv + ["--s-policy", "list"])
    assert code == EXIT_OK


def test_integer_lists_name_their_flag(capsys):
    for flag in ("--s-list", "--primes"):
        code, out, err = run(capsys, ["verify", "--s-policy", "list", "--s-list", "3", flag, "x"])
        assert (code, out) == (EXIT_USAGE, ""), flag
        assert f"{flag} must be a comma-separated integer list, got 'x'" in err
    code, out, err = run(capsys, ["verify", "--primes", ","])
    assert (code, out) == (EXIT_USAGE, "")
    assert "--primes must name at least one prime" in err


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
    assert err == "cells / agreements / discrepancies / errors: 6 / 6 / 0 / 0\n"


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
    summary = json.loads(out)["summary"]
    assert summary["discrepancies"] > 0 and summary["errors"] == 0


def test_huge_s_is_refused_before_sampling(capsys):
    # The profile holds three arrays of s entries, so s = 10**9 exceeds the
    # default budget and exits at once instead of allocating or looping.
    code, out, err = run(
        capsys,
        ["dim", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--s", "1000000000"],
    )
    assert code == EXIT_USAGE and out == ""
    assert "s=1000000000" in err and "budget is" in err


def test_verify_cell_error_exits_one(capsys):
    # A sizing error inside a cell is a usage error, as for dim, not a
    # mathematical discrepancy; the payload counts it as an error.
    code, out, err = run(
        capsys,
        ["verify", "--n-min", "1", "--n-max", "1", "--a-min", "1", "--a-max", "1",
         "--b-min", "1", "--b-max", "1", "--memory-budget", "10", "--jobs", "1"],
    )
    assert code == EXIT_USAGE
    payload = json.loads(out)
    assert payload["cells"] == []
    assert payload["summary"] == {"cells": 0, "agreements": 0, "discrepancies": 0, "errors": 1}
    assert "budget is 10" in payload["errors"][0]["error"]
    assert "cell (1, 1, 1, 1): " in err


def test_verify_refuses_a_huge_s_list_before_sizing_the_cell():
    # The first prime's checks run before the cell builds anything of s_max
    # entries, so s = 10**8 is refused at once, in a fresh interpreter with
    # a time limit, and with the text dimension_profile raises.  The count
    # is three profile arrays of 10**8, 3 * (16 // 4) basis entries and a
    # panel of 10 points of n + m + 1 = 3 rows on 4 columns.
    argv = ["verify", "--s-policy", "list", "--s-list", "100000000", "--n-max", "1", "--a-max", "1", "--b-max", "1"]
    proc = run_fresh(argv, timeout=2)
    message = (
        "tangent rank profile for SegreVeroneseSpec(n=1, m=1, a=1, b=1) with s=100000000 "
        "needs 300000132 entries, budget is 33554432"
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert fresh_json(proc)["errors"] == [{"cell": [1, 1, 1, 1], "error": message}]
    assert proc.stderr == f"cells / agreements / discrepancies / errors: 0 / 0 / 0 / 1\ncell (1, 1, 1, 1): {message}\n"
    with pytest.raises(SizingError) as excinfo:
        dimension_profile(SegreVeroneseSpec(1, 1, 1, 1), 100000000)
    assert str(excinfo.value) == message


def test_verify_s_list_of_a_million_builds_its_bound_at_once():
    # The bound is one numpy range, not a million expected_dimension calls.
    # (1, 1, 1, 1) fills P^3 at s = 2, so the first prime's profile equals
    # the bound and the second prime is never computed.
    argv = ["verify", "--s-policy", "list", "--s-list", "1000000", "--n-max", "1", "--a-max", "1", "--b-max", "1"]
    proc = run_fresh(argv, timeout=2)
    assert proc.returncode == EXIT_OK, proc.stderr
    (row,) = fresh_json(proc)["cells"]
    assert (row["s"], row["expected_dim"], row["computed_dim"], row["prime"]) == (1000000, 3, 3, 2147483647)
    assert proc.stderr == "cells / agreements / discrepancies / errors: 1 / 1 / 0 / 0\n"


@pytest.mark.parametrize("s_list, s", [("0", 0), ("-1,2", -1), ("-3,2", -3)])
def test_verify_refuses_an_s_list_entry_below_one(capsys, s_list, s):
    # The cell's verdict is read before its profiles are indexed, so an s
    # below 1 is the cell's error, never an index into a profile.
    argv = ["verify", "--s-policy", "list", f"--s-list={s_list}", "--n-max", "1", "--a-max", "1", "--b-max", "1",
            "--jobs", "1"]
    code, out, err = run(capsys, argv)
    message = f"s must be >= 1, got {s}"
    assert code == EXIT_USAGE
    assert json.loads(out)["errors"] == [{"cell": [1, 1, 1, 1], "error": message}]
    assert err == f"cells / agreements / discrepancies / errors: 0 / 0 / 0 / 1\ncell (1, 1, 1, 1): {message}\n"


def test_expected_dimensions_match_expected_dimension():
    # The array form equals the scalar one at every s, on both sides of the
    # cap at N, and with an N + 1 past the int64 range.
    for n, m, a, b in [(1, 1, 1, 1), (2, 1, 3, 1), (3, 2, 2, 4), (4, 1, 5, 5)]:
        s_max = invariants(n, m, a, b).qstar + 3
        reference = [expected_dimension(n, m, a, b, s) for s in range(1, s_max + 1)]
        assert cli._expected_dimensions(n, m, a, b, s_max).tolist() == reference
    assert comb(80, 40) ** 2 > 2**63
    assert cli._expected_dimensions(40, 40, 40, 40, 3).tolist() == [80, 161, 242]
    assert cli._expected_dimensions(1, 1, 1, 1, 1).tolist() == [2]
    with pytest.raises(ValueError, match=r"^s must be >= 1, got 0$"):
        cli._expected_dimensions(1, 1, 1, 1, 0)


def test_verify_refuses_zero_trials_as_dim_does(capsys):
    # SweepConfig gives the engine's text, so both commands print one line.
    code, out, err = run(capsys, ["verify", "--trials", "0", "--n-max", "1", "--a-max", "1", "--b-max", "1"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "segre-secant: error: trials must be >= 1, got 0\n"
    assert run(capsys, ["dim", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--s", "1", "--trials", "0"]) == (
        EXIT_USAGE, "", err
    )


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_refuses_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, ["verify", "--n-max", "1", "--a-max", "1", "--b-max", "1", "--jobs", jobs])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"segre-secant: error: --jobs must be >= 1, got {jobs}\n"
    with pytest.raises(ValueError, match="--jobs must be >= 1"):
        _sweep((1,), (1,), (1,), int(jobs))


def test_verify_jobs_defaults_to_the_available_cores(monkeypatch):
    # The affinity mask the pool's clamp reads, not the machine's core count.
    monkeypatch.setattr("segre_secant.cli._available_cores", lambda: 3)
    assert cli.build_parser().parse_args(["verify"]).jobs == 3


@pytest.mark.parametrize("primes", ["2147483647,2147483647", "101,103,101"])
def test_verify_refuses_a_repeated_prime(capsys, primes):
    # A repeated prime would run the same streams again on a defective cell.
    repeated = primes.split(",")[0]
    code, out, err = run(capsys, ["verify", "--primes", primes, "--n-max", "1", "--a-max", "1", "--b-max", "1"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"segre-secant: error: --primes names {repeated} more than once\n"
    with pytest.raises(ValueError, match=f"^--primes names {repeated} more than once$"):
        dataclasses.replace(_sweep((1,), (1,), (1,), 1), primes=tuple(int(p) for p in primes.split(",")))


@pytest.mark.parametrize("s_list, repeated", [("1,1", 1), ("2,3,2", 2)])
def test_verify_refuses_a_repeated_s(capsys, s_list, repeated):
    # A repeated s would print the same row twice and count it twice.
    argv = ["verify", "--s-policy", "list", "--s-list", s_list, "--n-max", "1", "--a-max", "1", "--b-max", "1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"segre-secant: error: --s-list names {repeated} more than once\n"
    with pytest.raises(ValueError, match=f"^--s-list names {repeated} more than once$"):
        dataclasses.replace(
            _sweep((1,), (1,), (1,), 1), s_policy="list", s_list=tuple(int(s) for s in s_list.split(","))
        )


@pytest.mark.parametrize("policy", ["upto-qstar", "", "LIST"])
def test_sweep_config_refuses_unknown_s_policy(policy):
    # Without the check every cell of such a sweep failed on an empty s list.
    with pytest.raises(ValueError, match=f"^s_policy must be 'uptoqstar' or 'list', got {policy!r}$"):
        dataclasses.replace(_sweep((1,), (1,), (1,), 1), s_policy=policy)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its arguments, maps in-process."""

    sizes: list = []
    options: list = []
    items: list = []
    blas_threads: list = []

    def __init__(self, max_workers, **options):
        self.sizes.append(max_workers)
        self.options.append(options)
        calls = field_module._openblas_thread_calls()
        self.blas_threads.append(None if calls is None else calls[1]())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        self.items.extend(items)
        return map(fn, items)


def test_verify_jobs_clamped_to_cells_and_cores(capsys, monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "options", [])
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
    # No initializer: the pool forks inside field.one_blas_thread, the one
    # OpenBLAS control, and a worker started otherwise runs each profile in
    # its own scope.
    assert _SerialPool.options == [{}] * 2


def _sweep(n_range, a_range, b_range, jobs):
    return cli.SweepConfig(
        n_range=n_range, m_range=(1,), a_range=a_range, b_range=b_range,
        s_policy="uptoqstar", s_list=(), trials=2, primes=(cli.DEFAULT_PRIME, cli.SECOND_PRIME),
        seed=0, fmt="json", memory_budget=cli.DEFAULT_MEMORY_BUDGET, jobs=jobs,
    )


def test_verify_pool_runs_largest_cells_first_in_grid_order_output(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "items", [])
    monkeypatch.setattr("segre_secant.cli._available_cores", lambda: 2)
    config = _sweep((1, 2, 3), (1, 3), (1, 2), 2)
    serial = cli.run_verify(_sweep((1, 2, 3), (1, 3), (1, 2), 1))
    assert cli.run_verify(config) == serial
    costs = [cli._cell_cost(config, cell) for cell in _SerialPool.items]
    assert len(costs) == 12 and costs == sorted(costs, reverse=True)
    assert _SerialPool.items[0] == (3, 1, 3, 2)
    # ncols**2 * (q* + 1): (3, 1, 3, 2) has 20 * 3 columns and q* = 12.
    assert costs[0] == 60**2 * 13


def test_verify_pool_starts_on_one_blas_thread(monkeypatch):
    # Workers forked from a parent on one thread inherit it and make no set
    # call; the caller's own count comes back afterwards.
    calls = field_module._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread control in this numpy")
    set_threads, get_threads = calls
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "blas_threads", [])
    monkeypatch.setattr("segre_secant.cli._available_cores", lambda: 2)
    before = get_threads()
    set_threads(2)
    try:
        cli.run_verify(_sweep((1, 2), (1,), (1,), 2))
        assert _SerialPool.blas_threads == [1]
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_verify_pool_matches_serial_payload(monkeypatch):
    # A real pool of two workers, on a grid with a large cell: the payload,
    # and so stdout, is the serial one whatever order cells finish in.
    grid = ((1, 3), (1, 4), (1, 4))
    serial = cli.run_verify(_sweep(*grid, 1))
    monkeypatch.setattr("segre_secant.cli._available_cores", lambda: 2)
    assert cli.run_verify(_sweep(*grid, 2)) == serial
    assert serial[2] == EXIT_OK and len(serial[0]["cells"]) > 20


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_verify_pool_matches_serial_payload_under_every_start_method(monkeypatch, method):
    # Workers that are not forked from the one-thread scope load their own
    # OpenBLAS, with no initializer; the payload is still the serial one.
    from concurrent.futures import ProcessPoolExecutor

    grid = ((1, 2), (1, 2), (1, 2))
    serial = cli.run_verify(_sweep(*grid, 1))
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(
        "concurrent.futures.ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=context)
    )
    monkeypatch.setattr("segre_secant.cli._available_cores", lambda: 2)
    assert cli.run_verify(_sweep(*grid, 2)) == serial


def test_main_leaves_the_blas_thread_count_to_the_rank_profiles(capsys):
    # main makes no OpenBLAS call of its own: a closed-form command leaves
    # the caller's count alone, and dim's profile restores it.
    calls = field_module._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread control in this numpy")
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(2)
    try:
        assert run(capsys, ["numerology", "--n", "1", "--m", "1", "--a", "1", "--b", "1"])[0] == EXIT_OK
        assert get_threads() == 2
        assert run(capsys, ["dim", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--s", "2"])[0] == EXIT_OK
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_numerology_builds_no_embedding_spec(capsys, monkeypatch):
    # N comes from the closed-form layer, which refuses an n, m, a, b below
    # 1 with the same text.
    def refuse(*args):
        raise AssertionError("numerology built a SegreVeroneseSpec")

    monkeypatch.setattr(cli, "SegreVeroneseSpec", refuse)
    code, out, _ = run(capsys, ["numerology", "--n", "3", "--m", "2", "--a", "2", "--b", "2"])
    assert code == EXIT_OK and json.loads(out)["N"] == SegreVeroneseSpec(3, 2, 2, 2).N
    code, out, err = run(capsys, ["numerology", "--n", "0", "--m", "1", "--a", "2", "--b", "2"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "segre-secant: error: n, m, a, b must all be >= 1, got (0, 1, 2, 2)\n"


def test_closed_stdout_exits_one_without_a_traceback():
    # Each command writes into a pipe whose read end is closed before it
    # starts, as `segre-secant ... | head -0` may: exit 1 and one error
    # line, no BrokenPipeError traceback.
    commands = [
        ["dim", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--s", "1"],
        ["verify", "--n-max", "1", "--a-max", "1", "--b-max", "1", "--jobs", "1"],
        ["replay", "--n-max", "6", "--a-max", "8", "--b-max", "6", "--format", "csv"],
        ["grassmann", "--n-max", "3", "--a-max", "5"],
        ["numerology", "--n", "2", "--m", "1", "--a", "3", "--b", "1"],
        ["--help"],
        ["verify", "--help"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(segre_secant.__file__)))
    read, write = os.pipe()
    os.close(read)
    try:
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "segre_secant.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            )
            for argv in commands
        ]
    finally:
        os.close(write)
    for argv, proc in zip(commands, procs):
        _, err = proc.communicate(timeout=30)
        assert (proc.returncode, err) == (
            EXIT_USAGE, "segre-secant: error: stdout was closed before all output was written\n"
        ), argv


def test_verify_skips_primes_after_a_certified_profile(capsys, monkeypatch):
    # (2, 1, 2, 3) reaches min(N, s(n+2) - 1) at every s on its first prime;
    # (2, 1, 2, 2) is defective at s = 4, 5, so both primes run.
    primes = []
    original = cli.dimension_profile

    def recording(spec, s_max, **kwargs):
        primes.append(kwargs["field"].p)
        return original(spec, s_max, **kwargs)

    monkeypatch.setattr("segre_secant.cli.dimension_profile", recording)
    for b, expected in ((3, [2147483647]), (2, [2147483647, 2147483629])):
        primes.clear()
        code, out, _ = run(
            capsys,
            ["verify", "--n-min", "2", "--n-max", "2", "--a-min", "2", "--a-max", "2",
             "--b-min", str(b), "--b-max", str(b), "--jobs", "1"],
        )
        assert code == EXIT_OK and primes == expected
        assert {cell["prime"] for cell in json.loads(out)["cells"]} == {2147483647}


def test_dim_discrepancy_exit_code(capsys, monkeypatch):
    from segre_secant.numerology import classify as classify_original

    def wrong_classify(n, a, b, s):
        true = classify_original(n, a, b, s)
        return ClassificationVerdict(True, 1, true.dim - 1, "main-theorem")

    monkeypatch.setattr("segre_secant.cli.classify", wrong_classify)
    code, _, err = run(capsys, ["dim", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--s", "1"])
    assert code == EXIT_DISCREPANCY
    assert "witness" in err


# sha256 of stdout for fixed seed, primes and flags; a change to any of them
# means the engine no longer reproduces earlier runs byte for byte.
PINNED_STDOUT = {
    # The full default grid: the largest cells the kernel meets.
    ("verify", "--jobs", "1"):
        "98fe0613d957dbe9de0d0789811dd5cbadd9981a3efe38c48d27f8041d9c0f0f",
    ("verify", "--jobs", "1", "--n-max", "2", "--a-max", "3", "--b-max", "3"):
        "7fd5ec4ec10c5adc5358700aa35b53412c5dc66a16dcf83f5b961ac224c4cea5",
    ("verify", "--jobs", "1", "--n-max", "2", "--a-max", "3", "--b-max", "3", "--format", "csv"):
        "b0f828843421fee814dd4a103dd3604b100fe18cf51325d5c6ab1f0611c226d1",
    ("dim", "--n", "3", "--m", "1", "--a", "2", "--b", "2", "--s", "5", "--cross-check"):
        "f73db2cd72848eaa2d185b1f56ce717d67f9944cf8e7189a5830b6ad0519c430",
    ("dim", "--n", "2", "--m", "2", "--a", "2", "--b", "3", "--s", "6", "--cross-check"):
        "436e95c72acd82a056ce253964917acfa1395ac35e75c1c0f036adaf5e3d61de",
    ("replay", "--n-max", "6", "--a-max", "8", "--b-max", "6"):
        "a3f22be45a86fcf3bf7d6a72da6381e746f34020d99eff989d2f630799175437",
    ("grassmann", "--n-max", "3", "--a-max", "5"):
        "efa41cc2bb8febb942ddd434fd347cb4e20d38b573731589890d0ff5cb3d507c",
    # The inputs of the benchmark's certificates workload.
    ("grassmann", "--n-max", "5", "--a-max", "6"):
        "670d9bb41d336f41d8b3143a3a8463d4f26be6504ef32c61fe69e4d32a8b23b5",
    ("replay", "--n-max", "8", "--a-max", "10", "--b-max", "8"):
        "d3cf2eb556edd69d81449ddd3a9f37843763065a96c52843efdcc01d4af3760f",
    # The CSV and numerology outputs, whose rows are the library's records.
    ("replay", "--n-max", "8", "--a-max", "10", "--b-max", "8", "--format", "csv"):
        "0f61d4405310b77cddcd9a7d86ce05ab4060ed76d0877fae04e7897287d2f9da",
    ("grassmann", "--n-max", "5", "--a-max", "6", "--format", "csv"):
        "228cd77c1790ac9fb2305561e588d51bb8fb324fa036a9e9ba6b8d745f2785e0",
    ("numerology", "--n", "2", "--m", "1", "--a", "3", "--b", "1"):
        "5d8fcc5fb6f7d7739f7978a73c442844c8a620cfd52926df158e4e34d2024bfa",
    ("numerology", "--n", "2", "--m", "1", "--a", "3", "--b", "1", "--format", "csv"):
        "d8265c410f138dde0f82780e66bd76dd319bc6fbb61a6f9af6787aecdb1a95b8",
    ("numerology", "--n", "3", "--m", "2", "--a", "2", "--b", "2", "--format", "csv"):
        "cc4fef0a7f089e8bcba6606800d72a318c8e1c9d051b61a0a82288986d475d7b",
    ("dim", "--n", "2", "--m", "1", "--a", "3", "--b", "1", "--s", "5", "--cross-check", "--format", "csv"):
        "b3350784dc080e13261abb88fdd51003b4a5d43d3225bcbb2778ae844f951af1",
    # At p = 67 the one trial draws a point with a zero coordinate on each
    # path, whose panel must take the exact partials: computed_dim 18 on
    # both paths, 17 if the Euler rows were kept there.
    ("dim", "--n", "2", "--m", "1", "--a", "3", "--b", "1", "--s", "5", "--cross-check", "--trials", "1",
     "--prime", "67"):
        "31d2e77680f71dac47060a10415585e077ff866ef41d0cc659cad18c71a459de",
    # The same at m = 2, where the tangent fallback's inserted y_0 = 1 sits
    # before two y coordinates: computed_dim 14 on both paths, 13 if the
    # Euler rows were kept there.
    ("dim", "--n", "2", "--m", "2", "--a", "2", "--b", "2", "--s", "3", "--cross-check", "--trials", "1",
     "--prime", "53", "--seed", "7"):
        "73e100ed2f12674d1a1bd1966b57af17ac24e8b1ddb0db490c74a9d05b64fa3a",
}


def test_stdout_matches_pinned_digests(capsys):
    for argv, digest in PINNED_STDOUT.items():
        code, out, _ = run(capsys, list(argv))
        assert code == EXIT_OK, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


@pytest.mark.parametrize("argv", [argv for argv in PINNED_STDOUT if "--prime" in argv])
def test_small_prime_pins_take_the_exact_partials_on_both_paths(capsys, monkeypatch, argv):
    # Each small-prime pin streams at least one panel with a zero
    # coordinate on the tangent path and on the affine path, so its digest
    # covers euler_panel's exact-partials fallback on both.
    zero_panels = {}

    def counting(path):
        def panel(exps, one, p):
            rows_at = euler_panel(exps, one, p)

            def counted(z):
                zero_panels[path] = zero_panels.get(path, 0) + int(not z[:, 1:].all())
                return rows_at(z)

            return counted

        return panel

    monkeypatch.setattr(terracini, "euler_panel", counting("tangent"))
    monkeypatch.setattr(affine, "euler_panel", counting("affine"))
    code, out, _ = run(capsys, list(argv))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]
    assert zero_panels["tangent"] >= 1 and zero_panels["affine"] >= 1, zero_panels


def test_dim_prime_too_small_exits_one(capsys):
    # 12 = min(18, 4) * (2 + 2 - 1) >= 2: one trial bounds nothing.
    code, out, err = run(
        capsys,
        ["dim", "--n", "2", "--m", "1", "--a", "2", "--b", "2", "--s", "1", "--prime", "2"],
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "prime 2 is too small" in err and "12/2" in err
    code, _, _ = run(
        capsys,
        ["dim", "--n", "2", "--m", "1", "--a", "2", "--b", "2", "--s", "1", "--prime", "13"],
    )
    assert code == EXIT_OK


def test_verify_prime_too_small_records_cell_errors(capsys):
    code, out, err = run(
        capsys,
        ["verify", "--n-min", "2", "--n-max", "2", "--a-min", "2", "--a-max", "2",
         "--b-min", "2", "--b-max", "2", "--primes", "2", "--jobs", "1"],
    )
    assert code == EXIT_USAGE
    payload = json.loads(out)
    assert payload["cells"] == []
    assert "prime 2 is too small" in payload["errors"][0]["error"]
    assert "cell (2, 1, 2, 2): prime 2 is too small" in err


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


def test_grassmann_cli_without_cubics_passes(capsys):
    # a_max = 2 leaves out (2, 3, 5): an empty defective list is the expected one.
    code, out, err = run(capsys, ["grassmann", "--n-max", "6", "--a-max", "2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["summary"]["passed"] is True
    assert payload["defective"] == []
    assert err.endswith("grassmann cells / defective: 86 / 0\n")


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_numerology_names_the_input_past_the_digit_limit(capsys, fmt):
    # N = C(200000, 100000) * 2 - 1 has about 60000 digits, past the
    # interpreter's limit for printing an integer (4300 by default).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    argv = ["numerology", "--n", "100000", "--m", "1", "--a", "100000", "--b", "1", "--format", fmt]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"segre-secant: error: N of (n, m, a, b) = (100000, 1, 100000, 1) has more than {limit} digits, "
        "the limit for printing an integer\n"
    )


def test_numerology_answers_any_size():
    # q* is about 10**35 here: the thresholds come from where the defective
    # run starts and ends, with no scan over s.
    proc = run_fresh(["numerology", "--n", "60", "--m", "1", "--a", "60", "--b", "60"], timeout=2)
    assert proc.returncode == EXIT_OK, proc.stderr
    payload = fresh_json(proc)
    q, r = divmod(comb(120, 60) * 61, 62)
    assert (payload["N"], payload["q"], payload["r"]) == (comb(120, 60) * 61 - 1, q, r)
    assert payload["e"] == payload["q"]
    assert payload["estar"] == payload["qstar"]


@pytest.mark.parametrize(
    "argv, sweep",
    [
        (["replay", "--n-max", "40", "--a-max", "40", "--b-max", "40"], "the replay grid up to (40, 40, 40)"),
        (["grassmann", "--n-max", "60", "--a-max", "60"], "the k = 1 corollary sweep up to (60, 60)"),
    ],
    ids=["replay", "grassmann"],
)
def test_oversized_sweeps_are_refused_before_any_cell(argv, sweep):
    proc = run_fresh(argv, timeout=2)
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, ""), proc.stderr
    assert proc.stderr == f"segre-secant: error: {sweep} has more than MAX_SWEEP_CELLS = 20000 cells\n"


@pytest.mark.parametrize(
    "bounds, sweep",
    [
        (["--b-max", "10000000000000000000000"], "(1, 1, 1) to (4, 5, 10000000000000000000000)"),
        (["--b-max", "1001", "--jobs", "1"], "(1, 1, 1) to (4, 5, 1001)"),
    ],
    ids=["huge", "just-over"],
)
def test_oversized_verify_grid_is_refused_before_any_range(bounds, sweep):
    # The cells are counted from the bounds: 4 * 5 * 1001 = 20020 is one
    # grid just over the cap, and a bound past the index range builds no
    # range at all.
    proc = run_fresh(["verify", *bounds], timeout=5)
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, ""), proc.stderr
    assert proc.stderr == (
        f"segre-secant: error: the verify grid from (n, a, b) = {sweep} has more than MAX_SWEEP_CELLS = 20000 cells\n"
    )


def test_importing_the_cli_loads_no_pool_parser_or_csv_modules():
    # These load where they are used (a pool, a parser, CSV output), so
    # every process that only imports the CLI skips their start-up cost.
    lazy = ("concurrent.futures", "multiprocessing", "argparse", "csv", "glob")
    code = f"import sys, segre_secant.cli; print([m for m in {lazy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(segre_secant.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# Edge inputs of every subcommand.  Sizes stay at most 3, --trials at most 3
# and --jobs at 1 or 2: a defective cell runs every trial it is given, so a
# larger value only costs time.  Values are weighted towards valid ones, and
# a required flag is left out one time in twenty, so that most draws get past
# the parser.  verify always names its upper bounds, since its defaults are
# the full grid.
_SIZE = st.sampled_from((1, 2, 3) * 3 + (0, -1))
_PRIME = st.sampled_from(("101", "2147483647", "2147483629") * 2 + ("2", "4", "0", "-7", "2147483648"))
_INT_LIST = st.lists(_SIZE.map(str), max_size=3).map(",".join) | st.sampled_from(["x", ","])
_PRIME_LIST = st.lists(_PRIME, min_size=1, max_size=3).map(",".join) | st.sampled_from(["x", ","])
_FORMAT = st.sampled_from(["json", "csv", "json", "csv", "xml"])
_ENGINE = {
    "--trials": st.integers(-1, 3),
    "--seed": _SIZE,
    "--memory-budget": st.sampled_from([-1, 0, 10, 1000]),
    "--format": _FORMAT,
}
_FLAGS = {
    "dim": {**dict.fromkeys(["--n", "--m", "--a", "--b", "--s"], _SIZE), "--prime": _PRIME,
            "--cross-check": st.none(), **_ENGINE},
    "verify": {**dict.fromkeys(["--n-min", "--a-min", "--b-min", "--m"], _SIZE),
               "--s-policy": st.sampled_from(["uptoqstar", "list", "uptoqstar", "list", "all"]),
               "--s-list": _INT_LIST, "--primes": _PRIME_LIST, "--jobs": st.sampled_from([1, 2]), **_ENGINE},
    "replay": {**dict.fromkeys(["--n-max", "--a-max", "--b-max"], _SIZE), "--format": _FORMAT},
    "grassmann": {**dict.fromkeys(["--n-max", "--a-max"], _SIZE), "--format": _FORMAT},
    "numerology": {**dict.fromkeys(["--n", "--m", "--a", "--b"], _SIZE), "--format": _FORMAT},
}
_REQUIRED = {"--n", "--m", "--a", "--b", "--s", "--n-max", "--a-max", "--b-max"}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if draw(st.integers(0, 19)) > (0 if flag in _REQUIRED else 9):
            value = draw(values)
            # The --flag=value form keeps a negative value from reading as a flag.
            argv.append(flag if value is None else f"{flag}={value}")
    if command == "verify":
        argv += [f"{flag}={draw(_SIZE)}" for flag in ("--n-max", "--a-max", "--b-max")]
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
@example(argv=["verify", "--b-max", "10000000000000000000000"])
@example(argv=["verify", "--s-policy", "list", "--s-list", "1,1", "--n-max", "1", "--a-max", "1", "--b-max", "1"])
def test_every_argv_exits_with_a_code_and_an_error_line(argv):
    # Run in-process: any exception but SystemExit fails the test.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DISCREPANCY), (code, err)
    assert "Traceback" not in err
    if code == EXIT_USAGE:
        # main's line, argparse's line, or, for verify, one of its cell errors.
        lines = [r"segre-secant: error: ", rf"segre-secant {argv[0]}: error: "]
        if argv[0] == "verify":
            lines.append(r"cell \(-?\d+, -?\d+, -?\d+, -?\d+\): ")
        assert any(re.match("|".join(lines), text) for text in err.splitlines()), err
