"""Outside-in span tracing of the hsidet pipeline.

A ``Tracer`` replaces public functions with timing wrappers at the place
where their callers look them up (a module attribute such as
``hsidet.detector.sparse_code``), records one span per call (name, start,
end, parent) and restores the originals when it is removed.  Nothing inside
``src/`` is changed.  A target that no longer exists is skipped and its
metrics read zero, so the tracer survives refactors that rename or inline a
function.

Sparse-coding calls are sorted into categories by the enclosing span and
by dictionary identity: inside ``odl_learn`` -> ``odl``; against a target
dictionary returned by ``learn_global_dictionaries`` -> ``target``; inside
``std_detect`` -> ``std``; inside ``residual_maps`` -> ``background``.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

import numpy as np

# (module the caller looks the name up in, attribute, span name).  The span
# name is fixed here so that metrics stay comparable if a function moves.
TARGETS = (
    ("hsidet.synth", "generate", "synth.generate"),
    ("hsidet.cube", "load_cube", "cube.load_cube"),
    ("hsidet.cube", "save_cube", "cube.save_cube"),
    ("hsidet.cube", "load_mask", "cube.load_mask"),
    ("hsidet.cube", "load_signature", "cube.load_signature"),
    ("hsidet.cube", "load_scoremap", "cube.load_scoremap"),
    ("hsidet.cube", "save_scoremap", "cube.save_scoremap"),
    ("hsidet.predetect", "cem_detect", "predetect.cem_detect"),
    ("hsidet.predetect", "ace_detect", "predetect.ace_detect"),
    ("hsidet.dictlearn", "cem_detect", "predetect.cem_detect"),
    ("hsidet.dictlearn", "select_training_sets", "predetect.select_training_sets"),
    ("hsidet.dictlearn", "odl_learn", "dictlearn.odl_learn"),
    ("hsidet.dictlearn", "sparse_code", "sparse.sparse_code"),
    ("hsidet.detector", "learn_global_dictionaries", "dictlearn.learn_global_dictionaries"),
    ("hsidet.detector", "hierarchical_residuals", "detector.hierarchical_residuals"),
    ("hsidet.detector", "residual_maps", "detector.residual_maps"),
    ("hsidet.detector", "local_background", "hierdict.local_background"),
    ("hsidet.detector", "build_hierarchical", "hierdict.build_hierarchical"),
    ("hsidet.detector", "sparse_code", "sparse.sparse_code"),
    ("hsidet.detector", "normalize_scores", "detector.normalize_scores"),
    ("hsidet.detector", "orient_scores", "detector.orient_scores"),
    ("hsidet.detector", "fuse_scores", "detector.fuse_scores"),
    ("hsidet.detector", "wshr_detect", "detector.wshr_detect"),
    ("hsidet.detector", "std_detect", "detector.std_detect"),
    ("hsidet.metrics", "roc", "metrics.roc"),
)

SPARSE_CATEGORIES = ("odl", "target", "background", "std")
CUBE_IO = ("load_cube", "save_cube", "load_scoremap", "save_scoremap")
FUSION = ("detector.normalize_scores", "detector.orient_scores", "detector.fuse_scores")


def _io_counters() -> tuple[int, int]:
    """Bytes this process has passed through read()/write() so far (Linux)."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh if ":" in line)
        return int(fields["rchar"]), int(fields["wchar"])
    except (OSError, KeyError, ValueError):
        return 0, 0


def _arg(args, kwargs, pos: int, name: str):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info: dict = {}

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """Context manager: wrap every target on entry, restore on exit.

    Spans accumulate across entries.  Calls made on pool threads with no
    open span of their own are parented to the innermost span open on the
    installing thread, which is blocked in the call that owns the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._saved: list = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._targets: list = []      # target dictionaries of this job
        self._odl_outputs: list = []  # [dictionary, root span, used]
        self._hooks = {
            "sparse.sparse_code": self._on_sparse_code,
            "dictlearn.learn_global_dictionaries": self._on_learn_global,
            "dictlearn.odl_learn": self._on_odl,
            "hierdict.local_background": self._on_local_background,
            "hierdict.build_hierarchical": self._on_build_hierarchical,
            "detector.residual_maps": self._on_pixels,
            "detector.std_detect": self._on_pixels,
        }

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._main_stack = self._stack()
        self.missing = []
        for module_name, attr, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, span_name: str):
        hook = self._hooks.get(span_name)
        is_io = span_name.startswith("cube.")

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(span_name, parent)
            if is_io:
                io0 = _io_counters()
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if is_io:
                io1 = _io_counters()
                span.info["read"] = io1[0] - io0[0]
                span.info["written"] = io1[1] - io0[1]
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks: record what each call worked on ---------------------------

    def _on_learn_global(self, span, args, kwargs, result) -> None:
        if isinstance(result, tuple) and result:
            self._targets.append(result[0])

    def _on_odl(self, span, args, kwargs, result) -> None:
        self._odl_outputs.append([result, span.root(), False])

    def _on_local_background(self, span, args, kwargs, result) -> None:
        span.info["atoms"] = getattr(result, "n_atoms", 0)

    def _on_build_hierarchical(self, span, args, kwargs, result) -> None:
        global_part = _arg(args, kwargs, 0, "D_b_global")
        self._local.hier = (result, getattr(global_part, "n_atoms", 0))

    def _on_pixels(self, span, args, kwargs, result) -> None:
        span.info["pixels"] = getattr(_arg(args, kwargs, 0, "cube"), "n_pixels", 0)

    def _on_sparse_code(self, span, args, kwargs, result) -> None:
        D = _arg(args, kwargs, 1, "D")
        names = {a.name for a in span.ancestors()}
        if "dictlearn.odl_learn" in names:
            category = "odl"
        elif any(D is t for t in self._targets):
            category = "target"
        elif "detector.std_detect" in names:
            category = "std"
        elif "detector.residual_maps" in names:
            category = "background"
        else:
            category = "other"
        indices = np.asarray(getattr(result, "indices", ()))
        span.info["category"] = category
        span.info["nnz"] = int(getattr(result, "n_nonzeros", indices.size))
        if category == "background":
            hier = getattr(self._local, "hier", None)
            n_global = hier[1] if hier is not None and hier[0] is D else 0
            span.info["nnz_local"] = int(np.count_nonzero(indices >= n_global))
        if category != "odl":
            self._mark_used(D, span.root())

    def _mark_used(self, D, root: Span) -> None:
        """An ODL output reaches a score map when a later coding call of the
        same top-level call codes against it, alone or as the leading column
        block of a hierarchical or joint dictionary."""
        cols = getattr(D, "columns", None)
        for entry in self._odl_outputs:
            learned, learned_root, used = entry
            if used or learned_root is not root:
                continue
            if D is learned:
                entry[2] = True
                continue
            ref = getattr(learned, "columns", None)
            if (
                cols is not None and ref is not None
                and cols.shape[0] == ref.shape[0] and cols.shape[1] >= ref.shape[1]
                and np.array_equal(cols[:, : ref.shape[1]], ref)
            ):
                entry[2] = True

    def odl_useful(self) -> int:
        return sum(1 for _, _, used in self._odl_outputs if used)


# -- aggregation --------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        kids = children.get(id(span), ())
        covered = _covered(
            (max(k.start, span.start), min(k.end, span.end)) for k in kids
        )
        out[id(span)] = (span.end - span.start) - covered
    return out


def summary(spans) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span.end - span.start
        row["self_s"] += own[id(span)]
    return dict(sorted(table.items()))


def layer_metrics(tracer: Tracer, job_start: float, job_end: float) -> dict[str, float]:
    """Per-layer metrics of one traced job.  Absent spans read zero."""
    spans = tracer.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_total(name):
        return sum(own[id(s)] for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    odl = by_name["dictlearn.odl_learn"]
    m["dictlearn.odl_s"] = total("dictlearn.odl_learn")
    m["dictlearn.odl_self_s"] = self_total("dictlearn.odl_learn")
    m["dictlearn.odl_runs"] = len(odl)
    m["dictlearn.odl_useful_frac"] = ratio(tracer.odl_useful(), len(odl))
    m["predetect.cem_calls"] = len(by_name["predetect.cem_detect"])
    m["predetect.cem_s"] = total("predetect.cem_detect")
    m["predetect.ace_s"] = total("predetect.ace_detect")

    coded = defaultdict(list)
    for span in by_name["sparse.sparse_code"]:
        coded[span.info.get("category", "other")].append(span)
    for cat in SPARSE_CATEGORIES:
        calls = coded[cat]
        seconds = sum(s.end - s.start for s in calls)
        m[f"sparse.calls.{cat}"] = len(calls)
        m[f"sparse.s.{cat}"] = seconds
        m[f"sparse.us_per_call.{cat}"] = ratio(seconds * 1e6, len(calls))
        m[f"sparse.mean_nnz.{cat}"] = ratio(sum(s.info.get("nnz", 0) for s in calls), len(calls))

    local = by_name["hierdict.local_background"]
    m["hierdict.local_background_s"] = total("hierdict.local_background")
    m["hierdict.local_background_calls"] = len(local)
    m["hierdict.local_atoms_mean"] = ratio(sum(s.info.get("atoms", 0) for s in local), len(local))
    m["hierdict.build_hierarchical_s"] = total("hierdict.build_hierarchical")

    m["detector.residual_maps_s"] = total("detector.residual_maps")
    m["detector.residual_maps_self_s"] = self_total("detector.residual_maps")
    m["detector.std_self_s"] = self_total("detector.std_detect")
    m["detector.fusion_s"] = sum(total(name) for name in FUSION)
    m["detector.pixels"] = sum(
        s.info.get("pixels", 0)
        for name in ("detector.residual_maps", "detector.std_detect")
        for s in by_name[name]
    )
    bg = coded["background"]
    m["detector.bg_local_share"] = ratio(
        sum(s.info.get("nnz_local", 0) for s in bg), sum(s.info.get("nnz", 0) for s in bg)
    )

    for op in CUBE_IO:
        m[f"cube.{op}_s"] = total(f"cube.{op}")
    io = [s for s in spans if s.name.startswith("cube.")]
    m["cube.bytes_read"] = sum(s.info.get("read", 0) for s in io)
    m["cube.bytes_written"] = sum(s.info.get("written", 0) for s in io)
    m["metrics.roc_s"] = total("metrics.roc")

    roots = [(s.start, s.end) for s in spans if s.parent is None]
    m["trace.uncovered_frac"] = ratio((job_end - job_start) - _covered(roots), job_end - job_start)
    return m
