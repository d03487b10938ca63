#!/usr/bin/env python3
"""Training and prediction benchmark for efy at the planted-benchmark shape.

    python3 bench/run.py --workload pairwise-gfy --seed 0 --seconds 10 --trace 0

Each run is a closed loop in one process with one caller and no extra
threads. It builds ``Shape.datasets`` planted data sets from the seed (data
set ``i`` is seeded ``datasets * seed + i``, so per-seed differences in solver
work average out within a run), trains one model per data set, predicts on
the held-out rows with whole-matrix and with single-row ``predict_marginals``
calls, and checks the outputs. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones in ``BENCHMARK.json``, the
timed ones and ``setup_s`` in reference time (see ``REFERENCE_PROBE_S``); with ``--trace 1``
they are the per-layer ones, taken from spans the benchmark records around
the library's public functions. Details land in ``bench/out/``.

The library is timed from outside: no file under ``src/efy`` is changed.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Shares of each data set's part of --seconds given to training,
# whole-matrix prediction and single-row prediction; each runs at least once.
TRAIN_SHARE = 0.6
MATRIX_SHARE = 0.15
SINGLE_SHARE = 0.25

# The shared machines this runs on change speed by up to 1.7x from one
# stretch of seconds to the next, for all code alike. A fixed loop of small
# numpy steps, like the library's own per-row work and timed between measured
# calls, tracks that speed (on a 2-core Xeon it followed the time of
# single-row predictions more closely than a pure-Python loop did), and the
# timed end-to-end metrics and setup_s are reported in reference time: wall
# time scaled by REFERENCE_PROBE_S / (probe time around the call).
# REFERENCE_PROBE_S is the probe's time on the 2-core Xeon (Python 3.11,
# numpy 2.4) this benchmark was written on when quiet, so reference and wall
# time agree there.
PROBE_LOOPS = 1000
REFERENCE_PROBE_S = 0.006
PROBE_EVERY_S = 0.05  # measured time between two probes

LOSS_TOL = 1e-6  # |generalized loss at y = p*|
ARGMAX_TOL = 1e-6  # max-norm distance to the reference argmax
ROW_MATCH_TOL = 1e-6  # single-row vs whole-matrix prediction of one row
# Projected ascent can stall at a 1e-9..2e-8 gap on these rows, where the
# Armijo test no longer resolves the objective change; its last iterate is
# then still within 1e-8 of the argmax, so the check compares iterates and
# does not require a "converged" status.
REFERENCE_SOLVER = {"tol": 1e-8, "max_iters": 20000}


@dataclass(frozen=True)
class Shape:
    """Problem size; the defaults are the planted-benchmark shape."""

    n: int = 2000
    d: int = 20
    k: int = 5
    coupling: float = 8.0
    unary_scale: float = 3.0
    gamma: float = 0.5
    hidden: int = 4
    batch_size: int = 32
    learning_rate: float = 0.02
    datasets: int = 3
    single_rows: int = 1000  # least single-row calls per data set, so each p99 has >= 10 beyond it
    check_rows: int = 12  # held-out rows per data set given the full output check


PLANTED = Shape()


@dataclass(frozen=True)
class Workload:
    architecture: str
    loss: str
    epochs: int  # per training run; sized so one run fills about 60% of a data set's share of 10 s
    solver: dict | None = None  # SolverConfig fields for TrainConfig.solver


WORKLOADS = {
    "unary-gfy": Workload("unary", "gfy", epochs=10),
    "pairwise-gfy": Workload("pairwise", "gfy", epochs=3),
    # the perceptron solver of the planted acceptance gate: long stride, hard cap
    "pairwise-perceptron": Workload(
        "pairwise", "perceptron", epochs=1, solver={"tol": 2e-3, "max_iters": 120, "init_step": 25.0}
    ),
}


# Called through these module objects at call time, so the tracer's wrappers apply.
LIB_MODULES = ("conjugate", "data", "exceptions", "losses", "models", "regularizers", "training")


def load_efy() -> tuple[SimpleNamespace, float]:
    """Import efy from this checkout's ``src``; returns its modules and the seconds it took.

    ``lib.errors`` holds the library's exception types.
    """
    init = SRC / "efy" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a checkout of the repository")
    start = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    efy = importlib.import_module("efy")
    lib = SimpleNamespace(**{m: importlib.import_module(f"efy.{m}") for m in LIB_MODULES})
    took = perf_counter() - start
    if Path(efy.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: efy was imported from {efy.__file__}, not from {init}")
    exc = lib.exceptions
    lib.errors = tuple(
        v for v in vars(exc).values() if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == exc.__name__
    )
    return lib, took


def probe() -> float:
    """Seconds of a fixed loop of small numpy steps: the machine's current speed."""
    import numpy as np

    a, y = np.linspace(-1.0, 1.0, 25).reshape(5, 5), np.linspace(0.0, 1.0, 5)
    start = perf_counter()
    for _ in range(PROBE_LOOPS):
        y = np.clip(a @ y + 0.1, -1.0, 1.0) * 0.5
    return perf_counter() - start


class Clock:
    """Scale factors from wall time to reference time, from probes around the measured calls."""

    def start(self) -> None:
        self.last = probe()

    def scale(self) -> float:
        """Factor for the calls since the previous probe; takes a new probe."""
        now = probe()
        factor = 2.0 * REFERENCE_PROBE_S / (self.last + now)
        self.last = now
        return factor

    def measure(self, call, inner: tuple[object, str] | None = None):
        """Runs ``call()``; returns its result and the wall and reference seconds it took.

        ``inner`` names a ``(module, attribute)`` function that ``call`` makes
        many short calls to. It is wrapped while ``call`` runs, so the clock
        also probes every ``PROBE_EVERY_S`` inside one long call and leaves
        the probes' own time out. If the module has no such function, or
        ``call`` never reaches it, the probes around the whole call scale it.
        """
        wall = ref = 0.0
        self.start()
        mark = perf_counter()

        def lap() -> None:
            nonlocal wall, ref, mark
            took = perf_counter() - mark
            wall += took
            ref += took * self.scale()
            mark = perf_counter()

        if inner is None or not hasattr(*inner):
            out = call()
        else:
            module, attr = inner
            original = getattr(module, attr)

            @functools.wraps(original)
            def probing(*args, **kwargs):
                result = original(*args, **kwargs)
                if perf_counter() - mark > PROBE_EVERY_S:
                    lap()
                return result

            setattr(module, attr, probing)
            try:
                out = call()
            finally:
                setattr(module, attr, original)
        lap()
        return out, wall, ref


@dataclass
class Ledger:
    """Operations attempted and the problems found with them.

    An operation is a data set's training (all its repeats), a data set's
    prediction (every whole-matrix and single-row call) or one checked row,
    so the count does not depend on how fast the calls run.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str | None]) -> None:
        """One operation, failed if any of its ``problems`` is set."""
        self.attempted += 1
        found = [p for p in problems if p]
        if found:
            more = f" (and {len(found) - 1} more problems)" if len(found) > 1 else ""
            self.failures.append(f"{what}: {found[0]}{more}")


@dataclass
class DataSet:
    train: object
    test: object
    model: object
    reg: object
    cfg: object
    params: object = None
    losses: list | None = None
    predicted: object = None  # whole-matrix marginals on the test rows


@contextmanager
def phase(tracer: Tracer | None, name: str):
    """A root span with the library wrapped, or nothing when untraced."""
    if tracer is None:
        yield
        return
    with tracer.installed(), tracer.span(name):
        yield


def marginals_problem(P, rows: int, k: int) -> str | None:
    import numpy as np

    if P.shape != (rows, k):
        return f"shape {P.shape}, expected {(rows, k)}"
    if not np.all(np.isfinite(P)):
        return "non-finite marginals"
    if np.any(P < 0.0) or np.any(P > 1.0):
        return "marginals outside [0, 1]^k"
    return None


def check_row(lib, ds: DataSet, x, p) -> str | None:
    """The paper's invariant and an independent solve for one predicted row.

    The generalized loss at ``y = p*`` must vanish (and never go below
    ``-LOSS_TOL``), and ``p*`` must match a tight projected-ascent solve of the
    same regularized maximization.
    """
    import numpy as np

    if problem := marginals_problem(p[None, :], 1, ds.model.k):
        return problem
    energy, reg = ds.model.energy(), ds.reg
    v = ds.model.forward(ds.params, x)
    try:
        loss = lib.losses.gfy_loss(energy, reg, v, p).value
    except lib.errors as exc:
        return f"loss at p* raised {exc!r}"
    if not -LOSS_TOL <= loss <= LOSS_TOL:
        return f"loss at p* is {loss:.3e}, not within {LOSS_TOL:g} of zero"

    def objective(q):
        return energy.value(v, q) - reg.value(q)

    def gradient(q):
        return energy.grad_p(v, q) - reg.grad(q)

    cfg = lib.conjugate.SolverConfig(**REFERENCE_SOLVER)
    q, status, iters, gap = lib.conjugate.projected_gradient_ascent(objective, gradient, reg.domain, cfg)
    dist = float(np.max(np.abs(q - p)))
    if dist > ARGMAX_TOL:
        return f"argmax is {dist:.3e} from the reference solve ({status} after {iters} iterations, gap {gap:.1e})"
    if objective(p) < objective(q) - LOSS_TOL:
        return f"objective {objective(p):.9g} below the reference {objective(q):.9g}"
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, shape: Shape = PLANTED) -> dict:
    """One benchmark run; returns its metrics, operation counts, failures and tracer.

    The data sets are handled one after another, each in one round of set-up,
    training, whole-matrix prediction, single-row prediction and output
    check, so every metric is measured at several points spread over the run
    rather than in one stretch that a slow spell of a shared machine can cover.
    """
    import numpy as np

    wl = WORKLOADS[name]
    lib, import_s = load_efy()
    clock = Clock()
    clock.start()  # the probe needs numpy, so it can only follow the import
    import_ref_s = import_s * REFERENCE_PROBE_S / clock.last
    tracer = Tracer() if trace else None
    ledger = Ledger()
    rng = np.random.default_rng(seed)
    share = seconds / shape.datasets
    setup_times, accuracies, rounds = [], [], []
    trained = [0, 0.0, 0.0]  # sample-epochs, wall seconds, reference seconds (untraced training)
    traced_train = [0.0, 0.0]  # wall seconds of the traced runs, of the untraced runs before them
    matrix = [0, 0.0, 0.0]  # rows, wall seconds, reference seconds

    def train_once(ds: DataSet) -> str | None:
        try:
            rep = lib.training.train(ds.model, ds.reg, ds.train, ds.cfg)
        except lib.exceptions.TrainingDivergence as exc:
            return f"raised {exc!r}"
        problem = None
        if not all(math.isfinite(v) for v in rep.train_loss):
            problem = "non-finite training loss"
        elif ds.losses is not None and rep.train_loss != ds.losses:
            problem = "a repeated run gave a different loss trajectory"
        if ds.params is None:
            ds.params, ds.losses = rep.params, rep.train_loss
        return problem

    def predict_matrix(ds: DataSet) -> str | None:
        try:
            ds.predicted = lib.training.predict_marginals(ds.model, ds.params, ds.reg, ds.test.X)
        except lib.errors as exc:
            ds.predicted = np.full((ds.test.n, shape.k), np.nan)
            return f"whole matrix raised {exc!r}"
        return marginals_problem(ds.predicted, ds.test.n, shape.k)

    # Long calls are also probed between the short library calls they make
    # many of, so a slow spell inside one call does not skew it. Traced runs
    # leave these probes out, so that they stay out of the spans.
    def inner(module, attr: str) -> tuple[object, str] | None:
        return None if tracer else (module, attr)

    for i in range(shape.datasets):
        data_seed = shape.datasets * seed + i
        # ---------------------------------------------------------- set-up
        def set_up():
            full = lib.data.planted_pairwise(
                shape.n, shape.d, shape.k, seed=data_seed,
                coupling=shape.coupling, unary_scale=shape.unary_scale, gamma=shape.gamma,
            )
            tr, te = lib.data.split(full, (0.75, 0.25), seed=data_seed)
            tr, te, _ = lib.data.standardize(tr, te)
            model = lib.models.make_model(wl.architecture, shape.d, shape.k, hidden=shape.hidden)
            return tr, te, model, lib.regularizers.GiniBinary(shape.gamma, shape.k)

        with phase(tracer, "run.setup"):
            (tr, te, model, reg), _, took = clock.measure(set_up, inner(lib.data, "coordinate_ascent_box_quadratic"))
            setup_times.append(took)
        extra = {"solver": lib.conjugate.SolverConfig(**wl.solver)} if wl.solver else {}
        cfg = lib.training.TrainConfig(
            loss=wl.loss, epochs=wl.epochs, batch_size=shape.batch_size,
            learning_rate=shape.learning_rate, seed=data_seed, **extra,
        )
        ds = DataSet(tr, te, model, reg, cfg)

        # -------------------------------------------------------- training
        before = (trained[:], matrix[:])
        problems = []
        start = perf_counter()
        while True:
            problem, took, ref = clock.measure(lambda: train_once(ds), inner(lib.training, "batch_gradient"))
            problems.append(problem)
            trained[0] += ds.train.n * wl.epochs
            trained[1] += took
            trained[2] += ref
            if tracer is not None or perf_counter() - start + took > TRAIN_SHARE * share:
                break
        if tracer is not None:
            with phase(tracer, "run.train"):
                traced = perf_counter()
                problems.append(train_once(ds))
                traced_train[0] += perf_counter() - traced
            traced_train[1] += took
        ledger.record(f"training on data set {i}", problems)
        if ds.params is None:  # training failed; predict with the initial parameters
            ds.params = ds.model.init_params(data_seed)

        # ------------------------------------------------------ prediction
        singles, expected, problems, lat, lat_ref = [], [], [], [], []
        with phase(tracer, "run.predict"):
            start = perf_counter()
            while True:
                problem, took, ref = clock.measure(lambda: predict_matrix(ds), inner(lib.training, "conjugate"))
                problems.append(problem)
                matrix[0] += ds.test.n
                matrix[1] += took
                matrix[2] += ref
                if tracer is not None or perf_counter() - start + took > MATRIX_SHARE * share:
                    break
            start = perf_counter()
            r = 0

            def more() -> bool:
                return r < shape.single_rows or (tracer is None and perf_counter() - start < SINGLE_SHARE * share)

            while more():
                chunk = []
                chunk_end = perf_counter() + PROBE_EVERY_S
                while more() and perf_counter() < chunk_end:
                    row = r % ds.test.n
                    t0 = perf_counter()
                    try:
                        out = lib.training.predict_marginals(ds.model, ds.params, ds.reg, ds.test.X[row : row + 1])
                    except lib.errors as exc:
                        problems.append(f"single-row call on row {row} raised {exc!r}")
                    else:
                        chunk.append(perf_counter() - t0)
                        singles.append(out)
                        expected.append(ds.predicted[row])
                    r += 1
                factor = clock.scale()
                lat.extend(chunk)
                lat_ref.extend(t * factor for t in chunk)
        for out, want in zip(singles, expected):
            problem = marginals_problem(out, 1, shape.k)
            if problem is None and float(np.max(np.abs(out[0] - want))) > ROW_MATCH_TOL:
                problem = "a single-row call differs from the whole-matrix prediction of the same row"
            problems.append(problem)
        ledger.record(f"prediction on data set {i}", problems)
        samples, predicted_rows = trained[0] - before[0][0], matrix[0] - before[1][0]
        rounds.append({
            "setup_ref_s": setup_times[-1],
            "train_samples_per_wall_s": samples / (trained[1] - before[0][1]),
            "train_samples_per_ref_s": samples / (trained[2] - before[0][2]),
            "predict_rows_per_wall_s": predicted_rows / (matrix[1] - before[1][1]),
            "predict_rows_per_ref_s": predicted_rows / (matrix[2] - before[1][2]),
            "predict1_wall_us_p50_p99": (1e6 * np.percentile(lat, [50, 99])).tolist() if lat else [math.nan] * 2,
            "predict1_ref_us_p50_p99": (1e6 * np.percentile(lat_ref, [50, 99])).tolist() if lat else [math.nan] * 2,
            "single_row_calls": len(lat),
        })

        # ---------------------------------------------------- output check
        with phase(tracer, "run.check"):
            rows = rng.choice(ds.test.n, size=min(shape.check_rows, ds.test.n), replace=False)
            for row in rows:
                ledger.record(f"check of row {row} of data set {i}", [check_row(lib, ds, ds.test.X[row], ds.predicted[row])])
            accuracies.append(lib.training.evaluate_accuracy(ds.model, ds.params, ds.reg, ds.test))

    if tracer is None:
        # Percentiles per data set, then their median: one slow spell of the
        # machine lifts the pooled tail of the whole run, but only one of these.
        p50, p99 = (statistics.median(r["predict1_ref_us_p50_p99"][j] for r in rounds) for j in (0, 1))
        metrics = {
            "train_samples_per_s": trained[0] / trained[2],
            "predict_rows_per_s": matrix[0] / matrix[2],
            "predict1_us_p50": float(p50),
            "predict1_us_p99": float(p99),
            "test_accuracy": statistics.fmean(accuracies),
            "setup_s": import_ref_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(ledger.failures) / ledger.attempted,
        }
    else:
        metrics = layer_metrics(tracer, timed=("run.train", "run.predict"), setup="run.setup")
        metrics["trace.overhead_frac"] = traced_train[0] / traced_train[1] - 1.0
    return {
        "metrics": metrics,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "single_row_calls": sum(r["single_row_calls"] for r in rounds),
        "rounds": rounds,
        "tracer": tracer,
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def provenance(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    trace = bool(args.trace)
    # pinned before numpy loads, so every run uses single-threaded BLAS
    for var in THREAD_VARS:
        os.environ[var] = "1"

    declared = declared_metrics(trace)
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json")
    prov = provenance(args.workload, args.seed, args.seconds, trace)
    failed = len(result["failures"])
    line = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"provenance": prov, "result": line, "failures": result["failures"], "rounds": result["rounds"]}, fh, indent=1)
    if result["tracer"] is not None:
        result["tracer"].write_csv(OUT / f"{args.workload}.spans.csv")

    print(f"provenance {json.dumps(prov)}")
    for m in declared:
        print(f"  {m['name']:<40} {metrics[m['name']]:>16.6g} {m['unit']:<8} ({m['better']} is better)")
    print(
        f"  failed_frac {failed / result['attempted']:.6g}: {failed} of {result['attempted']} operations failed"
        f" ({result['single_row_calls']} single-row calls)"
    )
    for problem in result["failures"][:10]:
        print(f"  failure: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
