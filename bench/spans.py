"""In-memory spans and counts around efy's public functions, installed from outside.

The tracer replaces functions and methods of the already imported ``efy``
modules with thin wrappers while it is installed, and puts the originals back
when it is removed, so no file of the library changes. Per-solve, per-sample,
per-batch and per-run functions get spans; functions called once per solver
iteration get counts only, because a span there would cost more than the work
it measures.

A span is ``[name, parent, root, start, end, info]``: ``parent`` and ``root``
are indices of the enclosing and outermost open spans (-1 and the span itself
for a root), and ``info`` holds what the wrapped call returned that the
metrics need, such as a solve's status and iteration count. A count is keyed
by ``(root span index, innermost open span name, counted name)``.
"""
from __future__ import annotations

import csv
import functools
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, PARENT, ROOT, START, END, INFO = range(6)


def _solve_info(out):
    # (p, status, iters, gap) from the two iterative solvers
    return out[1], out[2]


def _result_info(out):
    return out.status, out.iters


class Tracer:
    """Spans and counts for one process, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # ------------------------------------------------------------ recording

    def open(self, name: str) -> int:
        stack = self._stack
        i = len(self.spans)
        self.spans.append([name, stack[-1] if stack else -1, stack[0] if stack else i, 0.0, 0.0, None])
        stack.append(i)
        self.spans[i][START] = perf_counter()
        return i

    def close(self, i: int) -> None:
        self.spans[i][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def count(self, name: str) -> None:
        stack = self._stack
        if stack:
            self.counts[(stack[0], self.spans[stack[-1]][NAME], name)] += 1

    # ------------------------------------------------------------- wrappers

    def _spanned(self, name, fn, info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if info is not None:
                self.spans[i][INFO] = info(out)
            return out

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap efy's public functions while the block runs, then restore them."""
        import importlib

        import efy

        undo: list[tuple[object, str, object]] = []

        def replace_function(fn, wrapper):
            # Modules bind imported functions under their own names, so every
            # efy module namespace that holds the original gets the wrapper.
            for mod in list(sys.modules.values()):
                modname = getattr(mod, "__name__", "")
                if modname != "efy" and not modname.startswith("efy."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

        def replace_method(cls, attr, wrap):
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, wrap(original))

        def subclasses_defining(base, attr):
            seen, todo = [], [base]
            while todo:
                cls = todo.pop()
                todo.extend(cls.__subclasses__())
                if attr in cls.__dict__ and cls not in seen:
                    seen.append(cls)
            return seen

        # ``efy.conjugate`` is the function the package re-exports, not the module
        data, models, losses, conjugate, training = (
            importlib.import_module(f"efy.{m}") for m in ("data", "models", "losses", "conjugate", "training")
        )
        spanned = [
            ("data.planted", data.planted_pairwise, None),
            ("data.split", data.split, None),
            ("data.standardize", data.standardize, None),
            ("models.make_model", models.make_model, None),
            ("losses.gfy_loss", losses.gfy_loss, None),
            ("losses.perceptron_loss", losses.perceptron_loss, None),
            ("losses.energy_loss", losses.energy_loss, None),
            ("losses.xent_loss", losses.xent_loss, None),
            ("conjugate", conjugate.conjugate, _result_info),
            ("conjugate.coord_ascent", conjugate.coordinate_ascent_box_quadratic, _solve_info),
            ("conjugate.pga", conjugate.projected_gradient_ascent, _solve_info),
            ("training.train", training.train, None),
            ("training.batch_gradient", training.batch_gradient, None),
            ("training.predict", training.predict_marginals, None),
            ("training.evaluate", training.evaluate_accuracy, None),
        ]
        try:
            for name, fn, info in spanned:
                replace_function(fn, self._spanned(name, fn, info))
            for attr, name in (
                ("forward", "models.forward"),
                ("vjp", "models.vjp"),
                ("params_to_vec", "models.flatten"),
                ("vec_to_params", "models.flatten"),
            ):
                for cls in subclasses_defining(models.Model, attr):
                    replace_method(cls, attr, lambda fn, name=name: self._spanned(name, fn))
            for cls, attr, name in (
                (efy.regularizers.OutputSet, "contains", "regularizers.contains"),
                (efy.regularizers.OutputSet, "project", "regularizers.project"),
                (efy.regularizers.Regularizer, "value", "regularizers.value"),
            ):
                replace_method(cls, attr, lambda fn, name=name: self._counted(name, fn))
            for attr in ("value", "grad_p", "grad_v"):
                for cls in subclasses_defining(efy.energies.Energy, attr):
                    replace_method(cls, attr, lambda fn, attr=attr: self._counted(f"energies.{attr}", fn))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write_csv(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "parent", "root", "start_s", "end_s", "self_s", "info"])
            for i, (s, st) in enumerate(zip(self.spans, selfs)):
                info = "" if s[INFO] is None else " ".join(map(str, s[INFO]))
                out.writerow([i, s[NAME], s[PARENT], s[ROOT], repr(s[START]), repr(s[END]), repr(st), info])


def _percentile(values, q: float) -> float:
    # numpy is imported late so that run.load_efy's import time includes it
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, timed: tuple[str, ...], setup: str) -> dict[str, float]:
    """Per-layer figures from spans under the root spans named in ``timed``.

    Set-up figures come from the root spans named ``setup`` (one per data
    set); everything else, ``conjugate.*`` included, only from the timed
    roots, so solves made while building the data stay out of them.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    timed_roots = {i for i, s in enumerate(spans) if s[PARENT] < 0 and s[NAME] in timed}
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        if s[ROOT] in timed_roots:
            by_name[s[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def busy(name):
        return sum(dur(i) for i in by_name[name])

    counts, pga_counts = Counter(), Counter()
    for (root, innermost, name), n in tracer.counts.items():
        if root in timed_roots:
            counts[name] += n
            if innermost == "conjugate.pga":
                pga_counts[name] += n

    def info(i):
        # a call that raised returned nothing to describe
        return spans[i][INFO] or ("raised", 0)

    conj = by_name["conjugate"]
    closed = [i for i in conj if info(i)[0] == "closed_form"]
    exact = [i for i in conj if info(i)[0] in ("closed_form", "converged")]
    sweeps = [info(i)[1] for i in by_name["conjugate.coord_ascent"]]
    iters = [info(i)[1] for i in by_name["conjugate.pga"]]
    capped = [i for i in by_name["conjugate.pga"] if info(i)[0] == "max_iters"]
    losses = [i for name, idx in by_name.items() if name.startswith("losses.") for i in idx]
    outer_losses = [i for i in losses if not spans[spans[i][PARENT]][NAME].startswith("losses.")]
    batches = by_name["training.batch_gradient"]
    # training.train.self_s keeps unflatten in the optimizer step: only the
    # batch_gradient children are taken off the train span
    batch_time_under = defaultdict(float)
    for i in batches:
        batch_time_under[spans[i][PARENT]] += dur(i)

    per_setup = defaultdict(lambda: {"planted": 0.0, "split_standardize": 0.0})
    for i, s in enumerate(spans):
        if spans[s[ROOT]][NAME] != setup:
            continue
        if s[NAME] == "data.planted":
            per_setup[s[ROOT]]["planted"] += dur(i)
        elif s[NAME] in ("data.split", "data.standardize"):
            per_setup[s[ROOT]]["split_standardize"] += dur(i)

    def setup_median(key):
        values = [v[key] for v in per_setup.values()]
        return statistics.median(values) if values else 0.0

    conj_us = [1e6 * dur(i) for i in conj]
    batch_ms = [1e3 * dur(i) for i in batches]
    return {
        "conjugate.solves": len(conj),
        "conjugate.solve_us_p50": _percentile(conj_us, 50),
        "conjugate.solve_us_p99": _percentile(conj_us, 99),
        "conjugate.busy_s": busy("conjugate"),
        "conjugate.exact_frac": len(exact) / len(conj) if conj else 0.0,
        "conjugate.closed_form.solves": len(closed),
        "conjugate.closed_form.busy_s": sum(dur(i) for i in closed),
        "conjugate.coord_ascent.solves": len(sweeps),
        "conjugate.coord_ascent.busy_s": busy("conjugate.coord_ascent"),
        "conjugate.coord_ascent.sweeps_p50": _percentile(sweeps, 50),
        "conjugate.coord_ascent.sweeps_max": max(sweeps, default=0),
        "conjugate.pga.solves": len(iters),
        "conjugate.pga.busy_s": busy("conjugate.pga"),
        "conjugate.pga.iters_p50": _percentile(iters, 50),
        "conjugate.pga.iters_max": max(iters, default=0),
        "conjugate.pga.max_iters_count": len(capped),
        "regularizers.contains_calls": counts["regularizers.contains"],
        "regularizers.project_calls": counts["regularizers.project"],
        "regularizers.value_calls": counts["regularizers.value"],
        "regularizers.contains_per_pga_iter": (
            pga_counts["regularizers.contains"] / sum(iters) if iters else 0.0
        ),
        "energies.value_calls": counts["energies.value"],
        "energies.grad_p_calls": counts["energies.grad_p"],
        "energies.grad_v_calls": counts["energies.grad_v"],
        "models.forward_calls": len(by_name["models.forward"]),
        "models.forward.busy_s": busy("models.forward"),
        "models.vjp.busy_s": busy("models.vjp"),
        "models.flatten_calls": len(by_name["models.flatten"]),
        "models.flatten.busy_s": busy("models.flatten"),
        "losses.calls": len(outer_losses),
        "losses.self_s": sum(selfs[i] for i in losses),
        "training.batch_gradient_ms_p50": _percentile(batch_ms, 50),
        "training.batch_gradient_ms_p99": _percentile(batch_ms, 99),
        "training.batch_gradient.self_s": sum(selfs[i] for i in batches),
        "training.predict.busy_s": busy("training.predict"),
        "training.train.self_s": sum(dur(i) - batch_time_under[i] for i in by_name["training.train"]),
        "data.planted_s": setup_median("planted"),
        "data.split_standardize_s": setup_median("split_standardize"),
    }
