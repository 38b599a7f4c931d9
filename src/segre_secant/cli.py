"""Command-line surface: single queries, grid sweeps, certificate replays.

Subcommands
-----------
dim         dimension of one secant variety (optionally cross-checked
            against the affine-reduction path, and against the closed-form
            classification when m = 1)
verify      grid sweep comparing Monte-Carlo dimensions with the m = 1
            classification, cell by cell
replay      arithmetic certificates of the inductive nondefectivity proof
grassmann   closed-form sweep of k = 1 Grassmann secants of Veronese images
numerology  the counting invariants q, r, q* (and e, e* when m = 1)

Conventions: data goes to stdout (JSON by default, CSV on request with a
fixed column set), diagnostics to stderr.  Exit code 0 means success and
agreement, 1 a usage or sizing error (also when raised inside a verify
cell), 2 a mathematical discrepancy.  The seed comes from --seed, falling
back to the SEGRE_SECANT_SEED environment variable, then 0; identical
seed, primes and flags produce byte-identical output regardless of --jobs.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .affine import GenericityError, secant_dimension_via_reduction
from .field import DEFAULT_PRIME, SECOND_PRIME, PrimeField, SizingError, _openblas_thread_calls, one_blas_thread
from .grassmann import CorollaryCell, check_corollary
from .induction import ReplayCell, replay_main_theorem
from .numerology import (
    classify,
    closed_form_e,
    closed_form_estar,
    expected_dimension,
    invariants,
)
from .terracini import (
    DEFAULT_MEMORY_BUDGET,
    RNG_DESCRIPTION,
    SCHEMA,
    SegreVeroneseSpec,
    check_prime_bound,
    dimension_profile,
    secant_dimension,
)

#: Fixed CSV layout for secant-dimension rows.
CSV_COLUMNS = (
    "n", "m", "a", "b", "s", "N",
    "expected_dim", "computed_dim", "defect",
    "rule", "prime", "seed", "trials", "method",
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISCREPANCY = 2


@dataclass
class SweepConfig:
    """Grid and engine settings for the verify sweep.

    The payload's "config" is every field but ``fmt`` and ``jobs``, in field
    order, tuples as lists.  ``run_verify`` does not read ``fmt``; it stays
    because callers such as perfbench construct the config with it.
    """

    n_range: tuple[int, ...]
    m_range: tuple[int, ...]
    a_range: tuple[int, ...]
    b_range: tuple[int, ...]
    s_policy: str  # "uptoqstar" or "list"
    s_list: tuple[int, ...]
    trials: int
    primes: tuple[int, ...]
    seed: int
    fmt: str
    memory_budget: int
    jobs: int

    def __post_init__(self) -> None:
        if not (self.n_range and self.m_range and self.a_range and self.b_range):
            raise ValueError("all grid ranges must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {self.jobs}")
        if not self.primes:
            raise ValueError("need at least one prime")
        if self.s_policy not in ("uptoqstar", "list"):
            raise ValueError(f"s_policy must be 'uptoqstar' or 'list', got {self.s_policy!r}")
        if self.s_policy == "list" and not self.s_list:
            raise ValueError("explicit s policy needs a nonempty --s-list")
        if self.s_policy != "list" and self.s_list:
            raise ValueError("--s-list is read only with --s-policy list")
        if tuple(self.m_range) != (1,):
            raise ValueError("classification comparison requires m = 1")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        source, seed = "--seed", args.seed
    else:
        env = os.environ.get("SEGRE_SECANT_SEED")
        if env is None:
            return 0
        try:
            source, seed = "SEGRE_SECANT_SEED", int(env)
        except ValueError:
            raise ValueError(f"SEGRE_SECANT_SEED must be an integer, got {env!r}")
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    """Comma-separated integers, empty parts skipped; ``flag`` names the source in errors."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated integer list, got {text!r}")


def _emit(fmt: str, payload: dict, rows, columns) -> None:
    """Prints the JSON payload, or the rows as CSV under a header of columns."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(col, "") for col in columns])


def _report_row(report, rule: str) -> dict:
    d = report.to_dict()
    d.pop("schema", None)
    d.pop("rng", None)
    d["rule"] = rule
    return d


# ---------------------------------------------------------------------------
# dim

def cmd_dim(args) -> int:
    spec = SegreVeroneseSpec(args.n, args.m, args.a, args.b)
    field = PrimeField(args.prime)
    seed = _resolve_seed(args)
    report = secant_dimension(
        spec, args.s, trials=args.trials, field=field, seed=seed,
        memory_budget=args.memory_budget,
    )
    rule = ""
    payload = report.to_dict()
    agreements = []
    if args.m == 1:
        verdict = classify(args.n, args.a, args.b, args.s)
        rule = verdict.rule
        payload["classification"] = verdict._asdict()
        agreements.append(report.computed_dim == verdict.dim)
    rows = [_report_row(report, rule)]
    if args.cross_check:
        reduction = secant_dimension_via_reduction(
            spec, args.s, trials=args.trials, field=field, seed=seed,
            memory_budget=args.memory_budget,
        )
        payload["cross_check"] = reduction.to_dict()
        payload["cross_check"].pop("schema", None)
        agreements.append(reduction.computed_dim == report.computed_dim)
        rows.append(_report_row(reduction, rule))
    agree = all(agreements)
    payload["agreement"] = agree
    _emit(args.format, payload, rows, CSV_COLUMNS)
    if not agree:
        print(
            f"discrepancy for {spec} s={args.s}: seed={seed} prime={field.p} "
            f"trials={args.trials} (witness preserved for investigation)",
            file=sys.stderr,
        )
        return EXIT_DISCREPANCY
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _expected_dimensions(n: int, m: int, a: int, b: int, s_max: int) -> np.ndarray:
    """expected_dimension(n, m, a, b, s) for s = 1..s_max, as one int64 array."""
    # The value at s_max caps every entry, and fits int64 where N + 1 may not.
    cap = expected_dimension(n, m, a, b, s_max)
    return np.minimum(np.arange(1, s_max + 1, dtype=np.int64) * (n + m + 1) - 1, cap)


def _s_max(job) -> int:
    """The largest s of a verify cell: q* + 1, or the largest listed s."""
    n, m, a, b, s_policy, s_list = job[:6]
    return invariants(n, m, a, b).qstar + 1 if s_policy == "uptoqstar" else max(s_list)


def _verify_cell(job) -> dict:
    """Worker for one (n, m, a, b) cell; returns rows or an error record."""
    (n, m, a, b, s_policy, s_list, trials, primes, seed, memory_budget) = job
    try:
        spec = SegreVeroneseSpec(n, m, a, b)
        s_max = _s_max(job)
        profiles, bound = [], None
        for p in primes:
            field = PrimeField(p)
            if bound is not None and np.array_equal(profiles[-1], bound):
                # No prime can exceed the bound, so the max and the first
                # prime reaching it are known; the prime is still refused
                # where a computed one would be.
                check_prime_bound(spec, s_max, p)
                continue
            profiles.append(dimension_profile(
                spec, s_max, trials=trials, field=field, seed=seed,
                memory_budget=memory_budget,
            ))
            if bound is None:
                # The first profile has made the cell's size checks (the
                # modulus, the prime bound, the budget), so nothing here is
                # sized by s_max before they pass.
                bound = _expected_dimensions(n, m, a, b, s_max)
        rows = []
        for s in range(1, s_max + 1) if s_policy == "uptoqstar" else s_list:
            # classify refuses an s below 1 before it can index a profile.
            verdict = classify(n, a, b, s)
            per_prime = [int(profile[s - 1]) for profile in profiles]
            computed = max(per_prime)
            prime = primes[per_prime.index(computed)]
            expected = expected_dimension(n, m, a, b, s)
            rows.append({
                "n": n, "m": m, "a": a, "b": b, "s": s, "N": spec.N,
                "expected_dim": expected,
                "computed_dim": computed,
                "defect": expected - computed,
                "rule": verdict.rule,
                "prime": prime,
                "seed": seed,
                "trials": trials,
                "method": "terracini",
                "classify_dim": verdict.dim,
                "agree": computed == verdict.dim,
            })
        return {"cell": (n, m, a, b), "rows": rows}
    except (ValueError, SizingError, GenericityError) as exc:
        return {"cell": (n, m, a, b), "error": str(exc)}


def _pin_blas_threads() -> None:
    """Runs OpenBLAS on one thread in this process; does nothing without it.

    Parallelism comes from --jobs, one cell per core: OpenBLAS threads in
    the parent and in each pool worker would compete for the same cores.
    The engine's own scope (``field.one_blas_thread``) then finds one
    thread and makes no call.  ``run_verify`` forks its pool inside that
    scope, so a forked worker already runs on one thread and is left
    alone: in a forked child any set call restarts OpenBLAS's thread pool,
    whose new threads spin-wait before they sleep.
    """
    calls = _openblas_thread_calls()
    if calls is not None:
        set_threads, get_threads = calls
        if get_threads() != 1:
            set_threads(1)


def _cell_cost(job) -> int:
    """ncols**2 * s_max, the scale of a verify cell's elimination work.

    0 for a cell that ``_verify_cell`` refuses before any work.
    """
    try:
        s_max = _s_max(job)
    except ValueError:
        return 0
    return (SegreVeroneseSpec(*job[:4]).N + 1) ** 2 * s_max


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_verify(config: SweepConfig) -> tuple[dict, list[dict], int]:
    """Execute the sweep; returns (payload, csv rows, exit code)."""
    jobs = [
        (n, m, a, b, config.s_policy, config.s_list, config.trials,
         config.primes, config.seed, config.memory_budget)
        for n in config.n_range
        for m in config.m_range
        for a in config.a_range
        for b in config.b_range
    ]
    # A forking pool starts all its workers at once, so more than there are
    # cells or cores would only cost processes.
    workers = min(config.jobs, len(jobs), _available_cores())
    if workers > 1:
        # Largest cells first, so none is left to run alone at the end;
        # results go back into grid order.  The pool forks inside the
        # one-thread scope, so its workers start on one BLAS thread and
        # their initializer makes no set call.  concurrent.futures is
        # imported only here: it also loads multiprocessing, logging, socket
        # and subprocess, which a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        order = sorted(range(len(jobs)), key=lambda i: _cell_cost(jobs[i]), reverse=True)
        results = [None] * len(jobs)
        with one_blas_thread(), ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas_threads) as pool:
            for i, result in zip(order, pool.map(_verify_cell, [jobs[i] for i in order])):
                results[i] = result
    else:
        results = [_verify_cell(job) for job in jobs]
    rows: list[dict] = []
    errors: list[dict] = []
    for result in results:
        if "error" in result:
            errors.append({"cell": list(result["cell"]), "error": result["error"]})
        else:
            rows.extend(result["rows"])
    agreements = sum(1 for row in rows if row["agree"])
    disagreements = len(rows) - agreements
    discrepancies = disagreements + len(errors)
    payload = {
        "schema": SCHEMA,
        "rng": RNG_DESCRIPTION,
        "config": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(config).items()
            if key not in ("fmt", "jobs")
        },
        "cells": rows,
        "errors": errors,
        "summary": {
            "cells": len(rows),
            "agreements": agreements,
            "discrepancies": discrepancies,
        },
    }
    if disagreements:
        exit_code = EXIT_DISCREPANCY
    elif errors:
        exit_code = EXIT_USAGE
    else:
        exit_code = EXIT_OK
    return payload, rows, exit_code


def cmd_verify(args) -> int:
    s_list = _parse_int_list(args.s_list, "--s-list") if args.s_list is not None else ()
    primes = _parse_int_list(args.primes, "--primes")
    if not primes:
        raise ValueError("--primes must name at least one prime")
    config = SweepConfig(
        n_range=tuple(range(args.n_min, args.n_max + 1)),
        m_range=(args.m,),
        a_range=tuple(range(args.a_min, args.a_max + 1)),
        b_range=tuple(range(args.b_min, args.b_max + 1)),
        s_policy=args.s_policy,
        s_list=s_list,
        trials=args.trials,
        primes=primes,
        seed=_resolve_seed(args),
        fmt=args.format,
        memory_budget=args.memory_budget,
        jobs=args.jobs,
    )
    payload, rows, exit_code = run_verify(config)
    _emit(args.format, payload, rows, CSV_COLUMNS)
    summary = payload["summary"]
    print(
        f"cells / agreements / discrepancies: "
        f"{summary['cells']} / {summary['agreements']} / {summary['discrepancies']}",
        file=sys.stderr,
    )
    for error in payload["errors"]:
        print(f"cell {tuple(error['cell'])}: {error['error']}", file=sys.stderr)
    return exit_code


# ---------------------------------------------------------------------------
# replay

def _fraction_str(value) -> str:
    return "" if value is None else str(value)


def cmd_replay(args) -> int:
    report = replay_main_theorem(args.n_max, args.a_max, args.b_max)
    cells = [dict(cell._asdict(), f=_fraction_str(cell.f), g=_fraction_str(cell.g)) for cell in report.cells]
    payload = {
        "schema": SCHEMA,
        "bounds": {"n_max": args.n_max, "a_max": args.a_max, "b_max": args.b_max},
        "cells": cells,
        "base_attributions": [list(item) for item in report.base_attributions],
        "summary": {
            "cells": len(cells),
            "failures": len(report.failures),
            "case_counts": report.case_counts(),
            "all_passed": report.all_passed,
        },
    }
    _emit(args.format, payload, cells, ReplayCell._fields)
    print(
        f"inductive cells / failures: {len(cells)} / {len(report.failures)}",
        file=sys.stderr,
    )
    return EXIT_OK if report.all_passed else EXIT_DISCREPANCY


# ---------------------------------------------------------------------------
# grassmann

def cmd_grassmann(args) -> int:
    report = check_corollary(args.n_max, args.a_max)
    cells = [cell._asdict() for cell in report.cells]
    payload = {
        "schema": SCHEMA,
        "bounds": {"n_max": args.n_max, "a_max": args.a_max, "k": 1},
        "cells": cells,
        "defective": [c for c in cells if c["defect"] > 0],
        "summary": {"cells": len(cells), "passed": report.passed},
    }
    _emit(args.format, payload, cells, CorollaryCell._fields)
    print(
        f"grassmann cells / defective: {len(cells)} / {len(payload['defective'])}",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_DISCREPANCY


# ---------------------------------------------------------------------------
# numerology

def cmd_numerology(args) -> int:
    num = invariants(args.n, args.m, args.a, args.b)
    spec = SegreVeroneseSpec(args.n, args.m, args.a, args.b)
    payload = {
        "schema": SCHEMA,
        "n": args.n, "m": args.m, "a": args.a, "b": args.b,
        "N": spec.N, **num._asdict(),
    }
    if args.m == 1:
        payload["e"] = closed_form_e(args.n, args.a, args.b)
        payload["estar"] = closed_form_estar(args.n, args.a, args.b)
    _emit(args.format, payload, [payload], [key for key in payload if key != "schema"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring

def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")


def _add_engine_options(parser) -> None:
    parser.add_argument("--trials", type=int, default=3,
                        help="random trials per prime (default 3)")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: SEGRE_SECANT_SEED or 0)")
    parser.add_argument("--memory-budget", type=int, default=DEFAULT_MEMORY_BUDGET,
                        help="largest allowed matrix entry count")


def build_parser():
    # argparse is imported here, not at module level, so that importing the
    # CLI, as pool workers and the benchmark do, loads no parser machinery.
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse with the usage-error exit code pinned to 1."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="segre-secant",
                     description="Secant dimensions of Segre-Veronese embeddings "
                                 "by exact rank computation over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", help="dimension of one secant variety",
                           description="Monte-Carlo dimension of sigma_s, with the "
                                       "closed-form verdict when m = 1.")
    for name in ("n", "m", "a", "b", "s"):
        p_dim.add_argument(f"--{name}", type=int, required=True)
    p_dim.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p_dim.add_argument("--cross-check", action="store_true",
                       help="also compute through the affine reduction and compare")
    _add_engine_options(p_dim)
    _add_format(p_dim)
    p_dim.set_defaults(func=cmd_dim)

    p_verify = sub.add_parser("verify", help="grid sweep against the classification",
                              description="Monte-Carlo dimension vs closed form on a "
                                          "grid of (n, 1, a, b, s) cells.")
    p_verify.add_argument("--n-min", type=int, default=1)
    p_verify.add_argument("--n-max", type=int, default=4)
    p_verify.add_argument("--m", type=int, default=1)
    p_verify.add_argument("--a-min", type=int, default=1)
    p_verify.add_argument("--a-max", type=int, default=5)
    p_verify.add_argument("--b-min", type=int, default=1)
    p_verify.add_argument("--b-max", type=int, default=5)
    p_verify.add_argument("--s-policy", choices=("uptoqstar", "list"),
                          default="uptoqstar",
                          help="s values per cell: 1..q*+1 or an explicit list")
    p_verify.add_argument("--s-list", type=str, default=None,
                          help="comma-separated s values (with --s-policy list)")
    p_verify.add_argument("--primes", type=str,
                          default=f"{DEFAULT_PRIME},{SECOND_PRIME}")
    p_verify.add_argument("--jobs", type=int, default=_available_cores(),
                          help="parallel cell workers (default: available cores)")
    _add_engine_options(p_verify)
    _add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_replay = sub.add_parser("replay", help="inductive certificates",
                              description="Exact arithmetic replay of the inductive "
                                          "case analysis behind the classification.")
    p_replay.add_argument("--n-max", type=int, required=True)
    p_replay.add_argument("--a-max", type=int, required=True)
    p_replay.add_argument("--b-max", type=int, required=True)
    _add_format(p_replay)
    p_replay.set_defaults(func=cmd_replay)

    p_grass = sub.add_parser("grassmann", help="k = 1 Grassmann defectivity sweep",
                             description="Closed-form sweep of Sec_(1, s-1) of "
                                         "Veronese images within bounds.")
    p_grass.add_argument("--n-max", type=int, required=True)
    p_grass.add_argument("--a-max", type=int, required=True)
    _add_format(p_grass)
    p_grass.set_defaults(func=cmd_grassmann)

    p_num = sub.add_parser("numerology", help="counting invariants",
                           description="q, r, q* and, for m = 1, the closed-form "
                                       "thresholds e and e*.")
    for name in ("n", "m", "a", "b"):
        p_num.add_argument(f"--{name}", type=int, required=True)
    _add_format(p_num)
    p_num.set_defaults(func=cmd_numerology)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _pin_blas_threads()
    try:
        return args.func(args)
    except (ValueError, SizingError, GenericityError) as exc:
        print(f"segre-secant: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
