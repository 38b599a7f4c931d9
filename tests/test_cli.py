import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from math import comb

import pytest

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
    assert proc.stderr == f"cells / agreements / discrepancies: 0 / 0 / 1\ncell (1, 1, 1, 1): {message}\n"
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
    assert proc.stderr == "cells / agreements / discrepancies: 1 / 1 / 0\n"


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
    assert err == f"cells / agreements / discrepancies: 0 / 0 / 1\ncell (1, 1, 1, 1): {message}\n"


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


@pytest.mark.parametrize("policy", ["upto-qstar", "", "LIST"])
def test_sweep_config_refuses_unknown_s_policy(policy):
    # Without the check every cell of such a sweep failed on an empty s list.
    with pytest.raises(ValueError, match=f"^s_policy must be 'uptoqstar' or 'list', got {policy!r}$"):
        dataclasses.replace(_sweep((1,), (1,), (1,), 1), s_policy=policy)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its arguments, maps in-process."""

    sizes: list = []
    initializers: list = []
    items: list = []
    blas_threads: list = []

    def __init__(self, max_workers, initializer=None):
        self.sizes.append(max_workers)
        self.initializers.append(initializer)
        calls = cli._openblas_thread_calls()
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
    # every pool worker pins BLAS to one thread as it starts
    assert _SerialPool.initializers == [cli._pin_blas_threads] * 2


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
    costs = [cli._cell_cost(job) for job in _SerialPool.items]
    assert len(costs) == 12 and costs == sorted(costs, reverse=True)
    assert _SerialPool.items[0][:4] == (3, 1, 3, 2)
    # ncols**2 * (q* + 1): (3, 1, 3, 2) has 20 * 3 columns and q* = 12.
    assert costs[0] == 60**2 * 13


def test_verify_pool_starts_on_one_blas_thread(monkeypatch):
    # Workers forked from a parent on one thread inherit it and make no set
    # call; the caller's own count comes back afterwards.
    calls = cli._openblas_thread_calls()
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


def test_main_pins_blas_to_one_thread(capsys):
    calls = cli._openblas_thread_calls()
    if calls is not None:
        set_threads, get_threads = calls
        set_threads(2)
    code, _, _ = run(capsys, ["numerology", "--n", "1", "--m", "1", "--a", "1", "--b", "1"])
    assert code == EXIT_OK
    if calls is not None:
        assert get_threads() == 1


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
        "43e4da61c732b35acd19a171c67f6cab969dc6b7a21fa472df6a06f60f64dbdc",
    ("verify", "--jobs", "1", "--n-max", "2", "--a-max", "3", "--b-max", "3"):
        "7a1d032747686aed315b053e9ab42d867ad1023826c93a7792d2143d1c5f7aae",
    ("verify", "--jobs", "1", "--n-max", "2", "--a-max", "3", "--b-max", "3", "--format", "csv"):
        "b0f828843421fee814dd4a103dd3604b100fe18cf51325d5c6ab1f0611c226d1",
    ("dim", "--n", "3", "--m", "1", "--a", "2", "--b", "2", "--s", "5", "--cross-check"):
        "825db0397a47d2179c2c649cc588d47e0b66c60cf4194a0f49d5af80ed2d4535",
    ("dim", "--n", "2", "--m", "2", "--a", "2", "--b", "3", "--s", "6", "--cross-check"):
        "7150fcde553fb8dd42ec198d449b9179b93599ca39573d1deb9a14e16e56bf0c",
    ("replay", "--n-max", "6", "--a-max", "8", "--b-max", "6"):
        "fa155a0ad5589ef36012c1796b9fd2d71efac81c121c2ff07e88c2014f97066b",
    ("grassmann", "--n-max", "3", "--a-max", "5"):
        "4e708a44fbb5991f26c340e1cf73b7d010f9bd0076a031bc2471f21c1a639d4b",
    # The inputs of the benchmark's certificates workload.
    ("grassmann", "--n-max", "5", "--a-max", "6"):
        "6085a5f20e90a42d51855eb45320b109d060c067a3a167e1bbef67d573965d4b",
    ("replay", "--n-max", "8", "--a-max", "10", "--b-max", "8"):
        "fcc5cbae0825f5905009a2eca0bc301feecf7172c278ea6dd11a05483f8b6f5e",
    # The CSV and numerology outputs, whose rows are the library's records.
    ("replay", "--n-max", "8", "--a-max", "10", "--b-max", "8", "--format", "csv"):
        "0f61d4405310b77cddcd9a7d86ce05ab4060ed76d0877fae04e7897287d2f9da",
    ("grassmann", "--n-max", "5", "--a-max", "6", "--format", "csv"):
        "228cd77c1790ac9fb2305561e588d51bb8fb324fa036a9e9ba6b8d745f2785e0",
    ("numerology", "--n", "2", "--m", "1", "--a", "3", "--b", "1"):
        "c7774ae1cc4c530731b705aa624e032bb8f3ea2bcf31bff72cd6792c13f88c9a",
    ("numerology", "--n", "2", "--m", "1", "--a", "3", "--b", "1", "--format", "csv"):
        "d8265c410f138dde0f82780e66bd76dd319bc6fbb61a6f9af6787aecdb1a95b8",
    ("numerology", "--n", "3", "--m", "2", "--a", "2", "--b", "2", "--format", "csv"):
        "cc4fef0a7f089e8bcba6606800d72a318c8e1c9d051b61a0a82288986d475d7b",
    ("dim", "--n", "2", "--m", "1", "--a", "3", "--b", "1", "--s", "5", "--cross-check", "--format", "csv"):
        "b3350784dc080e13261abb88fdd51003b4a5d43d3225bcbb2778ae844f951af1",
}


def test_stdout_matches_pinned_digests(capsys):
    for argv, digest in PINNED_STDOUT.items():
        code, out, _ = run(capsys, list(argv))
        assert code == EXIT_OK, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


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


def test_importing_the_cli_loads_no_pool_parser_or_csv_modules():
    # These load where they are used (a pool, a parser, CSV output), so
    # every process that only imports the CLI skips their start-up cost.
    lazy = ("concurrent.futures", "multiprocessing", "argparse", "csv", "glob")
    code = f"import sys, segre_secant.cli; print([m for m in {lazy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(segre_secant.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
