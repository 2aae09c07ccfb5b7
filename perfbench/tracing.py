"""In-process tracing of voskit's layers for the benchmark's traced run.

Spans are recorded from the benchmark's side: each traced public function of
a voskit module is replaced by a wrapper that records (id, parent, name,
start, end) around the call. ``cli`` and ``tracker`` import functions by
name, so a wrapper is installed wherever a voskit module (or a module-level
dict such as ``gradcheck.CHECKS``) holds a reference to the original.
Generator functions get one span per resumption. Spans stay in memory until
the run ends. Names missing from the program are skipped, so the benchmark
keeps running when a later version renames or removes a function; their
metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    run_id: str
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)
    _next_id: int = 0

    def push(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def pop(self, span_id: int, parent: int | None, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans.append(Span(span_id, parent, name, start, end))

    def stage(self, name: str, fn):
        """Run fn() under a root span named ``stage.<name>``."""
        span_id, parent = self.push()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.pop(span_id, parent, f"stage.{name}", start, time.perf_counter())


# --- self time --------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans}


# --- what gets traced -------------------------------------------------------

# (module, attribute) pairs; "Class.method" patches the method on the class.
TRACED = (
    ("synth", "generate"),
    ("synth", "corrupt"),
    ("corpus", "read_pgm"),
    ("corpus", "write_pgm"),
    ("corpus", "channels_from_labels"),
    ("corpus", "label_ids"),
    ("tracker", "filter_stream"),
    ("tracker", "compose_label"),
    ("tracker", "write_track_csv"),
    ("boxes", "bbox_from_mask"),
    ("boxes", "attention_map"),
    ("metrics", "evaluate_sequence"),
    ("metrics", "contour_f"),
    ("metrics", "boundary_pixels"),
    ("metrics", "jaccard"),
    ("grid", "windowed_mean"),
    ("grid", "windowed_mean_adjoint"),
    ("losses", "ce_loss"),
    ("losses", "iou_loss"),
    ("losses", "ssim_loss"),
    ("losses", "total_loss"),
    ("gradcheck", "run_all"),
    ("gradcheck", "check_ce"),
    ("gradcheck", "check_iou"),
    ("gradcheck", "check_ssim"),
    ("gradcheck", "check_total"),
    ("gradcheck", "check_gelu"),
    ("gradcheck", "check_mlp"),
    ("gradcheck", "central_diff"),
    ("gradcheck", "max_err"),
    ("motion_mlp", "mlp_forward"),
    ("motion_mlp", "mlp_backward"),
    ("motion_mlp", "pt_loss"),
    ("motion_mlp", "Adam.step"),
    ("motion_mlp", "train_pt"),
    ("motion_mlp", "MotionPredictor.predict_motion"),
    ("motion_mlp", "extract_triples"),
    ("rng", "Rng.shuffle"),
    ("checkpoint", "save"),
    ("checkpoint", "load"),
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _on_read_pgm(tracer, args, kwargs, result):
    tracer.counters["corpus.bytes_read"] += _file_size(args[0] if args else kwargs.get("path"))


def _on_write_pgm(tracer, args, kwargs, result):
    tracer.counters["corpus.bytes_written"] += _file_size(args[0] if args else kwargs.get("path"))


def _on_attention_map(tracer, args, kwargs, result):
    tracer.counters["boxes.gate_area_sum"] += float(result.mean()) if result.size else 0.0


def _on_filtered_frame(tracer, frame):
    tracer.counters["tracker.frames"] += 1
    for row in getattr(frame, "rows", ()):
        tracer.counters[f"tracker.source.{row.source}"] += 1


def _on_evaluate_sequence(tracer, args, kwargs, result):
    tracer.counters["metrics.object_frames"] += len(result.rows)


def _on_extract_triples(tracer, args, kwargs, result):
    tracer.counters["motion_mlp.examples"] += len(result)


def _on_max_err(tracer, args, kwargs, result):
    first = args[0] if args else kwargs.get("analytic")
    tracer.counters["gradcheck.components_checked"] += int(getattr(first, "size", 1))


def _on_run_all(tracer, args, kwargs, result):
    margins = [r.max_err / r.tol for r in result]
    if margins:
        tracer.counters["gradcheck.worst_margin"] = max(
            tracer.counters["gradcheck.worst_margin"], max(margins)
        )


def _on_save(tracer, args, kwargs, result):
    tracer.counters["checkpoint.bytes"] += _file_size(args[1] if len(args) > 1 else kwargs.get("path"))


ON_RETURN = {
    "corpus.read_pgm": _on_read_pgm,
    "corpus.write_pgm": _on_write_pgm,
    "boxes.attention_map": _on_attention_map,
    "metrics.evaluate_sequence": _on_evaluate_sequence,
    "motion_mlp.extract_triples": _on_extract_triples,
    "gradcheck.max_err": _on_max_err,
    "gradcheck.run_all": _on_run_all,
    "checkpoint.save": _on_save,
}
ON_YIELD = {"tracker.filter_stream": _on_filtered_frame}


def _wrap(tracer: Tracer, name: str, fn):
    on_return = ON_RETURN.get(name)
    if inspect.isgeneratorfunction(fn):
        on_yield = ON_YIELD.get(name)

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                span_id, parent = tracer.push()
                start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.pop(span_id, parent, name, start, time.perf_counter())
                if on_yield is not None:
                    on_yield(tracer, item)
                yield item

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_id, parent = tracer.push()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop(span_id, parent, name, start, time.perf_counter())
        if on_return is not None:
            on_return(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every traced function of the imported voskit modules; returns an
    undo callable."""
    modules = [m for n, m in list(sys.modules.items()) if n == "voskit" or n.startswith("voskit.")]
    undo = []

    def replace_everywhere(orig, wrapped):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((setattr, mod, key, orig))
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for dk, dv in list(value.items()):
                        if dv is orig:
                            undo.append((dict.__setitem__, value, dk, orig))
                            value[dk] = wrapped

    for module_name, attr in TRACED:
        mod = sys.modules.get(f"voskit.{module_name}")
        if mod is None:
            continue
        name = f"{module_name}.{attr.split('.')[-1]}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name, None)
            orig = vars(owner).get(meth) if isinstance(owner, type) else None
            if not callable(orig):
                continue
            undo.append((setattr, owner, meth, orig))
            setattr(owner, meth, _wrap(tracer, name, orig))
        else:
            orig = getattr(mod, attr, None)
            if not callable(orig):
                continue
            replace_everywhere(orig, _wrap(tracer, name, orig))

    def uninstall():
        for setter, owner, key, orig in reversed(undo):
            setter(owner, key, orig)

    return uninstall


# --- per-layer metrics ------------------------------------------------------

# name -> unit, "better"; the order is the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_signal_s": ("s", "lower"),
    "cli.version_s": ("s", "lower"),
    "stage.synth.s": ("s", "lower"),
    "stage.filter.s": ("s", "lower"),
    "stage.eval.s": ("s", "lower"),
    "stage.train.s": ("s", "lower"),
    "stage.gradcheck.s": ("s", "lower"),
    "quality.jf_corrupted": ("score", "higher"),
    "quality.jf_filtered": ("score", "higher"),
    "quality.train_loss": ("loss", "lower"),
    "synth.generate.s": ("s", "lower"),
    "synth.corrupt.s": ("s", "lower"),
    "corpus.read_pgm.s": ("s", "lower"),
    "corpus.read_pgm.calls": ("count", "lower"),
    "corpus.write_pgm.s": ("s", "lower"),
    "corpus.write_pgm.calls": ("count", "lower"),
    "corpus.bytes_read": ("B", "lower"),
    "corpus.bytes_written": ("B", "lower"),
    "corpus.channels_from_labels.s": ("s", "lower"),
    "corpus.label_ids.s": ("s", "lower"),
    "corpus.reads_per_frame.filter": ("count", "lower"),
    "tracker.filter_stream.self_s": ("s", "lower"),
    "tracker.compose_label.s": ("s", "lower"),
    "tracker.compose_label.calls": ("count", "lower"),
    "tracker.write_track_csv.s": ("s", "lower"),
    "tracker.source.warmup": ("count", "lower"),
    "tracker.source.cv": ("count", "higher"),
    "tracker.source.pt": ("count", "higher"),
    "tracker.source.fallback": ("count", "lower"),
    "tracker.fallback_ratio": ("frac", "lower"),
    "boxes.bbox_from_mask.s": ("s", "lower"),
    "boxes.bbox_from_mask.calls": ("count", "lower"),
    "boxes.attention_map.s": ("s", "lower"),
    "boxes.attention_map.calls": ("count", "lower"),
    "boxes.gate_area_frac": ("frac", "lower"),
    "metrics.contour_f.s": ("s", "lower"),
    "metrics.contour_f.calls": ("count", "lower"),
    "metrics.contour_f.ms_per_call": ("ms", "lower"),
    "metrics.boundary_pixels.s": ("s", "lower"),
    "metrics.jaccard.s": ("s", "lower"),
    "metrics.jaccard.calls": ("count", "lower"),
    "metrics.evaluate_sequence.self_s": ("s", "lower"),
    "metrics.object_frames": ("count", "higher"),
    "grid.windowed_mean.s": ("s", "lower"),
    "grid.windowed_mean.calls": ("count", "lower"),
    "grid.windowed_mean_adjoint.s": ("s", "lower"),
    "grid.windowed_mean_adjoint.calls": ("count", "lower"),
    "losses.ce_loss.self_s": ("s", "lower"),
    "losses.ce_loss.calls": ("count", "lower"),
    "losses.iou_loss.self_s": ("s", "lower"),
    "losses.iou_loss.calls": ("count", "lower"),
    "losses.ssim_loss.self_s": ("s", "lower"),
    "losses.ssim_loss.calls": ("count", "lower"),
    "losses.total_loss.self_s": ("s", "lower"),
    "losses.total_loss.calls": ("count", "lower"),
    "gradcheck.check_ce.s": ("s", "lower"),
    "gradcheck.check_iou.s": ("s", "lower"),
    "gradcheck.check_ssim.s": ("s", "lower"),
    "gradcheck.check_total.s": ("s", "lower"),
    "gradcheck.check_gelu.s": ("s", "lower"),
    "gradcheck.check_mlp.s": ("s", "lower"),
    "gradcheck.loss_evals": ("count", "lower"),
    "gradcheck.components_checked": ("count", "higher"),
    "gradcheck.worst_margin": ("frac", "lower"),
    "motion_mlp.mlp_forward.s": ("s", "lower"),
    "motion_mlp.mlp_forward.calls": ("count", "lower"),
    "motion_mlp.mlp_backward.s": ("s", "lower"),
    "motion_mlp.mlp_backward.calls": ("count", "lower"),
    "motion_mlp.pt_loss.s": ("s", "lower"),
    "motion_mlp.pt_loss.calls": ("count", "lower"),
    "motion_mlp.adam_step.s": ("s", "lower"),
    "motion_mlp.train_pt.epoch_s": ("s", "lower"),
    "motion_mlp.predict_motion.s": ("s", "lower"),
    "motion_mlp.predict_motion.calls": ("count", "lower"),
    "motion_mlp.extract_triples.s": ("s", "lower"),
    "motion_mlp.examples": ("count", "higher"),
    "rng.shuffle.s": ("s", "lower"),
    "rng.shuffle.calls": ("count", "lower"),
    "checkpoint.save.s": ("s", "lower"),
    "checkpoint.load.s": ("s", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.unattributed_frac": ("frac", "lower"),
}

# Span name used for a metric whose span name differs from the metric stem.
_SPAN_OF = {"motion_mlp.adam_step": "motion_mlp.step"}


def _under(span: Span, by_id: dict[int, Span], prefix: str) -> bool:
    p = by_id.get(span.parent)
    while p is not None:
        if p.name.startswith(prefix):
            return True
        p = by_id.get(p.parent)
    return False


def span_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics derivable from one traced pass (everything except
    cli.*, stage.*, quality.* and trace.overhead_frac)."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    calls = Counter(s.name for s in spans)
    # No traced function calls itself, so summed durations count no time twice.
    inclusive = defaultdict(float)
    self_sum = defaultdict(float)
    for s in spans:
        inclusive[s.name] += s.duration
        self_sum[s.name] += selfs[s.id]

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        stem, _, kind = metric.rpartition(".")
        span_name = _SPAN_OF.get(stem, stem)
        if kind == "s" and not metric.startswith(("stage.", "cli.")):
            out[metric] = inclusive.get(span_name, 0.0)
        elif kind == "self_s":
            out[metric] = self_sum.get(span_name, 0.0)
        elif kind == "calls":
            out[metric] = float(calls.get(span_name, 0))

    filter_reads = sum(
        1 for s in spans if s.name == "corpus.read_pgm" and _under(s, by_id, "stage.filter")
    )
    frames = counters.get("tracker.frames", 0)
    out["corpus.reads_per_frame.filter"] = filter_reads / frames if frames else 0.0
    out["corpus.bytes_read"] = float(counters.get("corpus.bytes_read", 0))
    out["corpus.bytes_written"] = float(counters.get("corpus.bytes_written", 0))

    sources = {k: float(counters.get(f"tracker.source.{k}", 0)) for k in ("warmup", "cv", "pt", "fallback")}
    for k, v in sources.items():
        out[f"tracker.source.{k}"] = v
    gated = sources["cv"] + sources["pt"] + sources["fallback"]
    out["tracker.fallback_ratio"] = sources["fallback"] / gated if gated else 0.0

    n_gates = calls.get("boxes.attention_map", 0)
    out["boxes.gate_area_frac"] = counters.get("boxes.gate_area_sum", 0.0) / n_gates if n_gates else 0.0

    n_contour = calls.get("metrics.contour_f", 0)
    out["metrics.contour_f.ms_per_call"] = (
        1000.0 * out["metrics.contour_f.s"] / n_contour if n_contour else 0.0
    )
    out["metrics.object_frames"] = float(counters.get("metrics.object_frames", 0))

    out["gradcheck.loss_evals"] = float(
        sum(
            1
            for s in spans
            if s.name.startswith("losses.")
            and by_id.get(s.parent) is not None
            and by_id[s.parent].name == "gradcheck.central_diff"
        )
    )
    out["gradcheck.components_checked"] = float(counters.get("gradcheck.components_checked", 0))
    out["gradcheck.worst_margin"] = float(counters.get("gradcheck.worst_margin", 0.0))

    epochs = sum(
        1 for s in spans if s.name == "rng.shuffle" and by_id.get(s.parent) is not None
        and by_id[s.parent].name == "motion_mlp.train_pt"
    )
    out["motion_mlp.train_pt.epoch_s"] = (
        inclusive.get("motion_mlp.train_pt", 0.0) / epochs if epochs else 0.0
    )
    out["motion_mlp.examples"] = float(counters.get("motion_mlp.examples", 0))
    out["checkpoint.bytes"] = float(counters.get("checkpoint.bytes", 0))

    stage_spans = [s for s in spans if s.name.startswith("stage.")]
    stage_total = sum(s.duration for s in stage_spans)
    out["trace.unattributed_frac"] = (
        sum(selfs[s.id] for s in stage_spans) / stage_total if stage_total else 0.0
    )
    return out


def layer_table(spans) -> list[tuple[str, str, float, int, float]]:
    """(stage, layer, self seconds, calls, share of stage time) rows, largest
    self time first within each stage. A stage span's own self time is
    reported as layer ``cli`` (time outside every traced layer)."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    stage_of: dict[int, str] = {}
    for s in spans:
        p = s
        while p is not None and not p.name.startswith("stage."):
            p = by_id.get(p.parent)
        if p is not None:
            stage_of[s.id] = p.name[len("stage."):]
    stage_time = defaultdict(float)
    cells = defaultdict(lambda: [0.0, 0])
    for s in spans:
        stage = stage_of.get(s.id)
        if stage is None:
            continue
        if s.name.startswith("stage."):
            stage_time[stage] += s.duration
            layer = "cli"
        else:
            layer = s.name.split(".")[0]
        cell = cells[(stage, layer)]
        cell[0] += selfs[s.id]
        if not s.name.startswith("stage."):
            cell[1] += 1
    rows = [
        (stage, layer, t, n, t / stage_time[stage] if stage_time[stage] else 0.0)
        for (stage, layer), (t, n) in cells.items()
    ]
    order = list(dict.fromkeys(stage_of[s.id] for s in sorted(spans, key=lambda s: s.start) if s.id in stage_of))
    rows.sort(key=lambda r: (order.index(r[0]), -r[2]))
    return rows


def format_table(rows) -> str:
    lines = [f"{'stage':<16} {'layer':<12} {'self_s':>10} {'calls':>9} {'share':>7}"]
    for stage, layer, t, n, share in rows:
        lines.append(f"{stage:<16} {layer:<12} {t:>10.4f} {n:>9d} {100 * share:>6.1f}%")
    return "\n".join(lines)


def dominant_layers(rows) -> dict[str, str]:
    """Stage -> the layer with the largest self time in it."""
    out: dict[str, str] = {}
    for stage, layer, t, _, _ in rows:
        if stage not in out:
            out[stage] = layer
    return out
