"""Per-layer spans of ``segre_secant``, recorded from outside the package.

The tracer rebinds each entry point below in every ``segre_secant`` module
(and any other module given to ``install``) that holds a reference to it,
so a name imported into another module is traced too.  Spans (name, start,
end, parent) are kept in flat arrays and written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.

Counters are taken at the same boundaries: rows, pivots and computed
multiply-adds of ``RankAccumulator.absorb``, trials run and trials that could
not change the result inside ``dimension_profile``, and repeated profiles.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array

import numpy as np

import segre_secant as ss

#: (module, attribute) of every traced entry point; the span is named
#: "<module>.<last attribute>".
ENTRY_POINTS = (
    ("field", "sample_point"),
    ("field", "rank"),
    ("field", "RankAccumulator.absorb"),
    ("terracini", "tangent_block"),
    ("terracini", "dimension_profile"),
    ("terracini", "secant_dimension"),
    ("affine", "condition_matrix"),
    ("affine", "sample_generic_point"),
    ("affine", "secant_dimension_via_reduction"),
    ("monomials", "exponent_vectors"),
    ("monomials", "split_exponent_array"),
    ("numerology", "classify"),
    ("numerology", "closed_form_e"),
    ("numerology", "closed_form_estar"),
    ("numerology", "computed_e"),
    ("numerology", "computed_estar"),
    ("induction", "replay_main_theorem"),
    ("induction", "check_lemma_conditions"),
    ("grassmann", "check_corollary"),
    ("cli", "run_verify"),
)

LAYERS = ("field", "terracini", "affine", "monomials", "numerology", "induction", "grassmann", "cli")

ROOT = "bench.pass"


class Tracer:
    """Span recorder for one traced pass; install, run, uninstall, read metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._originals: set[int] = set()
        # absorb and rank counters
        self.rows_in = self.pivots = self.post_fill_blocks = self.ops = 0
        self.rank_ops = 0
        # dimension_profile bookkeeping
        self._profile = None
        self._certified: dict[tuple, int] = {}
        self._profile_keys: set[tuple] = set()
        self.trials_run = self.redundant_trials = self.duplicate_profiles = 0

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _plain(self, name: str, fn):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _top_level_only(self, name: str, fn):
        """For recursive functions: one span per outermost call."""
        nid = self._name_id(name)
        traced_inner = self._plain(name, fn)
        stack, name_ids = self._stack, self.name_ids

        def traced(*args, **kwargs):
            if stack[-1] >= 0 and name_ids[stack[-1]] == nid:
                return fn(*args, **kwargs)
            return traced_inner(*args, **kwargs)

        return traced

    # -- counters at layer boundaries ----------------------------------------

    def _absorb(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self

        def absorb(acc, block):
            before = acc.rank
            rows = np.shape(block)[0] if np.ndim(block) == 2 else 1
            idx = tracer._open(nid)
            try:
                after = fn(acc, block)
            finally:
                tracer._close(idx)
            tracer.rows_in += rows
            tracer.pivots += after - before
            tracer.ops += rows * before * acc.ncols
            tracer.post_fill_blocks += before == acc.ncols
            if tracer._profile is not None:
                tracer._trial_step(acc, after)
            return after

        return absorb

    def _rank(self, name: str, fn):
        traced = self._plain(name, fn)
        tracer = self

        def rank(matrix):
            result = traced(matrix)
            tracer.rank_ops += matrix.rows * matrix.cols * result
            return result

        return rank

    def _profile_wrapper(self, name: str, fn):
        signature = inspect.signature(fn)
        traced = self._plain(name, fn)
        tracer = self

        def dimension_profile(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            spec = a["spec"]
            cell = (spec.n, spec.m, spec.a, spec.b)
            p = a["field"].p if a["field"] is not None else ss.DEFAULT_PRIME
            key = cell + (a["s_max"], a["trials"], p, a["seed"], a["memory_budget"])
            if key in tracer._profile_keys:
                tracer.duplicate_profiles += 1
            tracer._profile_keys.add(key)
            tracer._profile = {"cell": cell, "spec": spec, "s_max": a["s_max"], "acc": None, "ranks": []}
            try:
                return traced(*args, **kwargs)
            finally:
                tracer._finish_trial()
                tracer._profile = None

        return dimension_profile

    def _trial_step(self, acc, rank: int) -> None:
        prof = self._profile
        if prof["acc"] is not acc:
            self._finish_trial()
            prof["acc"] = acc
            prof["ranks"] = []
            self.trials_run += 1
            if self._certified.get(prof["cell"], 0) >= prof["s_max"]:
                self.redundant_trials += 1
        prof["ranks"].append(rank)

    def _finish_trial(self) -> None:
        """Marks the cell certified when the trial reached the expected bound at every s."""
        prof = self._profile
        if prof is None or prof["acc"] is None:
            return
        spec, ranks = prof["spec"], prof["ranks"]
        step = spec.n + spec.m + 1
        if all(r - 1 == min(spec.N, s * step - 1) for s, r in enumerate(ranks, start=1)):
            cell = prof["cell"]
            self._certified[cell] = max(self._certified.get(cell, 0), len(ranks))
        prof["acc"] = None

    # -- rebinding -----------------------------------------------------------

    def _modules(self, extra):
        mods = [m for name, m in sys.modules.items() if name == "segre_secant" or name.startswith("segre_secant.")]
        return mods + list(extra)

    def install(self, extra_modules=()) -> None:
        """Rebinds every entry point wherever a module holds a reference to it."""
        modules = self._modules(extra_modules)
        for mod_name, attr in ENTRY_POINTS:
            module = sys.modules[f"segre_secant.{mod_name}"]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._originals.add(id(original))
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._absorb(name, original))
                continue
            original = getattr(module, attr)
            self._originals.add(id(original))
            if attr == "exponent_vectors":
                wrapper = self._top_level_only(name, original)
            elif attr == "dimension_profile":
                wrapper = self._profile_wrapper(name, original)
            elif attr == "rank":
                wrapper = self._rank(name, original)
            else:
                wrapper = self._plain(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def missed_entry_points(self, extra_modules=()) -> list[str]:
        """module.attribute names still bound to an untraced entry point."""
        missed = []
        for mod in self._modules(extra_modules):
            for key, value in vars(mod).items():
                if id(value) in self._originals:
                    missed.append(f"{mod.__name__}.{key}")
        return missed

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(self seconds, span count), each indexed by name id."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        dur = ends - starts
        covered = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(covered, parents[nested], dur[nested])
        own = dur - covered
        k = len(self.names)
        return np.bincount(ids, weights=own, minlength=k), np.bincount(ids, minlength=k)

    def metrics(self, wall_s: float, cache_entries: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced pass, name -> (value, unit)."""
        self_s, calls = self.self_times()

        def s(name):
            return float(self_s[self._ids[name]]) if name in self._ids else 0.0

        def c(name):
            return int(calls[self._ids[name]]) if name in self._ids else 0

        absorb_s = s("field.absorb")
        out = {
            "field.absorb.self_s": (absorb_s, "s"),
            "field.absorb.calls": (c("field.absorb"), "count"),
            "field.absorb.rows_in": (self.rows_in, "count"),
            "field.absorb.pivots": (self.pivots, "count"),
            "field.absorb.useful_share": (self.pivots / self.rows_in if self.rows_in else 0.0, "share"),
            "field.absorb.post_fill_blocks": (self.post_fill_blocks, "count"),
            "field.absorb.ops": (self.ops, "madd"),
            "field.absorb.ops_per_s": (self.ops / absorb_s if absorb_s else 0.0, "madd/s"),
            "field.rank.self_s": (s("field.rank"), "s"),
            "field.rank.calls": (c("field.rank"), "count"),
            "field.rank.ops": (self.rank_ops, "madd"),
            "field.sample_point.self_s": (s("field.sample_point"), "s"),
            "field.sample_point.calls": (c("field.sample_point"), "count"),
            "terracini.tangent_block.self_s": (s("terracini.tangent_block"), "s"),
            "terracini.tangent_block.calls": (c("terracini.tangent_block"), "count"),
            "terracini.dimension_profile.self_s": (s("terracini.dimension_profile"), "s"),
            "terracini.dimension_profile.calls": (c("terracini.dimension_profile"), "count"),
            "terracini.trials_run": (self.trials_run, "count"),
            "terracini.redundant_trials": (self.redundant_trials, "count"),
            "terracini.redundant_trial_share": (
                self.redundant_trials / self.trials_run if self.trials_run else 0.0, "share"),
            "terracini.duplicate_profiles": (self.duplicate_profiles, "count"),
            "affine.condition_matrix.self_s": (s("affine.condition_matrix"), "s"),
            "affine.condition_matrix.calls": (c("affine.condition_matrix"), "count"),
            "affine.secant_dimension_via_reduction.self_s": (s("affine.secant_dimension_via_reduction"), "s"),
            "affine.sample_generic_point.calls": (c("affine.sample_generic_point"), "count"),
            "monomials.exponent_vectors.self_s": (s("monomials.exponent_vectors"), "s"),
            "monomials.exponent_vectors.calls": (c("monomials.exponent_vectors"), "count"),
            "monomials.split_exponent_array.self_s": (s("monomials.split_exponent_array"), "s"),
            "monomials.split_exponent_array.calls": (c("monomials.split_exponent_array"), "count"),
            "numerology.classify.self_s": (s("numerology.classify"), "s"),
            "numerology.classify.calls": (c("numerology.classify"), "count"),
            "numerology.classify.cache_entries": (cache_entries, "count"),
            "numerology.closed_form_e.self_s": (s("numerology.closed_form_e"), "s"),
            "numerology.closed_form_estar.self_s": (s("numerology.closed_form_estar"), "s"),
            "numerology.computed_e.self_s": (s("numerology.computed_e"), "s"),
            "numerology.computed_estar.self_s": (s("numerology.computed_estar"), "s"),
            "induction.replay_main_theorem.self_s": (s("induction.replay_main_theorem"), "s"),
            "induction.check_lemma_conditions.calls": (c("induction.check_lemma_conditions"), "count"),
            "grassmann.check_corollary.self_s": (s("grassmann.check_corollary"), "s"),
            "cli.run_verify.self_s": (s("cli.run_verify"), "s"),
        }
        attributed = 0.0
        for layer in LAYERS:
            total = sum(s(n) for n in self.names if n.startswith(layer + "."))
            out[f"{layer}.self_s"] = (total, "s")
            attributed += total
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unattributed_s"] = (wall_s - attributed, "s")
        out["trace.spans"] = (len(self.starts), "count")
        return out

    def write_spans(self, path: str, workload: str) -> None:
        """All spans as arrays: name id, parent span index, start, end (s)."""
        np.savez_compressed(
            path,
            workload=np.array(workload),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )
