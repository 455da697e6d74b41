"""Wrappers the benchmark puts around names inside the ``har`` modules.

Two kinds: a capture keeps what one op produced in memory (the model the CLI
saved, the Gram it was fit on, the predictions it wrote) for the output
checks; a tracer records one span per call at each layer boundary.  Both
replace the name in the namespace of the module that calls it, so
``har.solver.gram_matrix`` is what ``tune`` sees.  A name that no longer
exists is recorded as absent instead of failing the run, and every replaced
name is put back by ``Patches.restore``.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import threading
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter


def run_cli(main, argv) -> tuple[int, str]:
    """Call the CLI entry point in-process; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


class Patches:
    """Replaces module attributes and restores every original."""

    def __init__(self):
        self._saved = []
        self.absent = []

    def wrap(self, module, name: str, make) -> bool:
        try:
            orig = getattr(module, name)
        except AttributeError:
            self.absent.append(f"{module.__name__}.{name}")
            return False
        self._saved.append((module, name, orig))
        setattr(module, name, make(orig))
        return True

    def restore(self) -> None:
        while self._saved:
            module, name, orig = self._saved.pop()
            setattr(module, name, orig)


class Capture:
    """While armed, keeps the in-memory results of CLI calls."""

    def __init__(self, patches: Patches, har):
        self.armed = False
        self.clear()
        patches.wrap(har.cli, "save_model", self._spy(lambda a, k, r: self.models.append(a[0])))
        patches.wrap(har.cli, "load_model", self._spy(lambda a, k, r: self.loaded.append(r[0])))
        patches.wrap(har.cli, "predict", self._spy(lambda a, k, r: self.predictions.append(r)))
        patches.wrap(har.solver, "fit", self._spy(lambda a, k, r: self.grams.append(k.get("gram"))))

    def clear(self) -> None:
        self.models, self.loaded, self.predictions, self.grams = [], [], [], []

    def _spy(self, record):
        def make(orig):
            def spy(*args, **kwargs):
                result = orig(*args, **kwargs)
                if self.armed:
                    record(args, kwargs, result)
                return result

            return spy

        return make


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    op: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _gram_info(args, kwargs, result) -> dict:
    knots = args[0] if args else kwargs["knots"]
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    n = knots.n
    # pair-knot terms for har (each entry sums over n knots), entries otherwise;
    # the unique upper triangle is the work, however the code covers it
    pairs = n * (n + 1) // 2
    return {"n": n, "family": spec.family, "work": pairs * (n if spec.family == "har" else 1)}


def _rows_in(args, kwargs, result) -> dict:
    return {"rows": args[1].n}


def _rows_out(args, kwargs, result) -> dict:
    return {"rows": int(result[1].shape[0]) + int(result[2])}


def _zero(args, kwargs, result) -> dict:
    return {"zero": result == 0.0}


#: (module, name in that module, span name, note on the call)
BOUNDARIES = (
    ("cli", "tune", "solver.tune", None),
    ("cli", "predict", "solver.predict", _rows_in),
    ("cli", "save_model", "solver.save_model", None),
    ("cli", "load_model", "solver.load_model", None),
    ("cli", "read_table", "data.read_table", _rows_out),
    ("cli", "load_csv", "data.load_csv", None),
    ("cli", "fit_scaling", "data.fit_scaling", None),
    ("cli", "apply_scaling", "data.apply_scaling", None),
    ("cli", "rmse", "data.rmse", None),
    ("data", "read_table", "data.read_table", _rows_out),
    ("solver", "gram_matrix", "kernels.gram_matrix", _gram_info),
    ("solver", "cross_kernel_matrix", "kernels.cross_kernel_matrix", None),
    ("solver", "membership_masks", "kernels.membership_masks", None),
    ("kernels", "membership_masks", "kernels.membership_masks", None),
    ("solver", "lambda_max", "solver.lambda_max", None),
    ("solver", "smallest_eigenvalue", "solver.smallest_eigenvalue", _zero),
    ("solver", "eigh", "solver.eigh", None),
    ("solver", "fit", "solver.fit", None),
    ("solver", "cho_factor", "solver.cho_factor", None),
    ("solver", "cho_solve", "solver.cho_solve", None),
)


class Tracer:
    """Records spans (name, start, end, parent, op id) in memory.

    Gram spans also run under ``tracemalloc`` to measure their peak
    allocation; that probe slows the Gram itself slightly and is not part of
    ``overhead``, which sums only the wrappers' own bookkeeping time.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.overhead = 0.0
        self.gram_calls = []  # (op, args, kwargs) of every traced Gram
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, patches: Patches, har) -> None:
        for module, attr, name, note in BOUNDARIES:
            patches.wrap(getattr(har, module), attr, lambda orig, n=name, f=note: self.wrapper(n, orig, f))

    def wrapper(self, name: str, orig, note=None):
        probe = name == "kernels.gram_matrix"

        def traced(*args, **kwargs):
            t0 = perf_counter()
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None, self.op)
            stack.append(len(self.spans))
            self.spans.append(span)
            if probe:
                self.gram_calls.append((self.op, args, kwargs))
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if probe:
                    span.info["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if note is not None:
                span.info.update(note(args, kwargs, result))
            self.overhead += (span.start - t0) + (perf_counter() - span.end)
            return result

        return traced

    def to_json(self) -> list:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op, **s.info}
            for s in self.spans
        ]


def op_metrics(spans: list[Span], op: int) -> dict:
    """Per-layer metrics of one traced op, from its spans alone."""
    mine = [(i, s) for i, s in enumerate(spans) if s.op == op]
    child_time: dict = {}
    for _, s in mine:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def of(name):
        return [(i, s) for i, s in mine if s.name == name]

    def total(name):
        return sum(s.duration for _, s in of(name))

    def self_time(name):
        return sum(s.duration - child_time.get(i, 0.0) for i, s in of(name))

    def under(child, parent):
        return sum(1 for _, s in of(child) if s.parent is not None and spans[s.parent].name == parent)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    gram = [s for _, s in of("kernels.gram_matrix")]
    predict = [s for _, s in of("solver.predict")]
    reads = [s for _, s in of("data.read_table")]
    fits = len(of("solver.fit"))
    return {
        "kernels.gram_matrix.s": total("kernels.gram_matrix"),
        "kernels.gram_matrix.calls": len(gram),
        "kernels.gram_matrix.evals_per_s": rate(sum(s.info["work"] for s in gram), total("kernels.gram_matrix")),
        "kernels.gram_matrix.peak_alloc_mb": max((s.info["peak_alloc"] for s in gram), default=0) / 2**20,
        "kernels.membership_masks.s": total("kernels.membership_masks"),
        "kernels.cross_kernel_matrix.s": total("kernels.cross_kernel_matrix"),
        "kernels.cross_kernel_matrix.calls": len(of("kernels.cross_kernel_matrix")),
        "solver.smallest_eigenvalue.s": total("solver.smallest_eigenvalue"),
        "solver.smallest_eigenvalue.calls": len(of("solver.smallest_eigenvalue")),
        "solver.smallest_eigenvalue.iterations": under("solver.cho_solve", "solver.smallest_eigenvalue"),
        "solver.smallest_eigenvalue.zero_returns": sum(
            1 for _, s in of("solver.smallest_eigenvalue") if s.info.get("zero")
        ),
        "solver.eigh.s": total("solver.eigh"),
        "solver.tune.self_s": self_time("solver.tune"),
        "solver.lambda_max.self_s": self_time("solver.lambda_max"),
        "solver.fit.s": total("solver.fit"),
        "solver.fit.cholesky_retries": max(0, under("solver.cho_factor", "solver.fit") - fits),
        "solver.predict.s": total("solver.predict"),
        "solver.predict.self_s": self_time("solver.predict"),
        "solver.predict.rows_per_s": rate(sum(s.info["rows"] for s in predict), total("solver.predict")),
        "solver.save_model.s": total("solver.save_model"),
        "solver.load_model.s": total("solver.load_model"),
        "data.read_table.s": total("data.read_table"),
        "data.read_table.rows_per_s": rate(sum(s.info["rows"] for s in reads), total("data.read_table")),
        "data.apply_scaling.s": total("data.apply_scaling"),
        "cli.main.self_s": self_time("cli.main"),
    }


def median_metrics(per_op: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
