"""Per-layer tracing for the benchmark, installed from outside the program.

Two kinds of wrapper go around rstcoh's public functions:

* spans record a name, start, end and parent on one stack per thread, so a
  layer's self time is its span time minus the time its child spans cover;
* counters only increment (optionally by a weight taken from the call's
  arguments) and record no span. They go around the numcore ops, which run
  about a million times per training run, and are installed in a separate
  counting run so that they do not distort the span run's self times.

Each wrapper is installed at the attribute its caller looks up at call time.
``tree_model`` imported ``encode_edu`` by name, so the EDU encoder is wrapped
at ``tree_model.encode_edu``; ``corpus`` calls ``rst_data.parse_tree`` through
the module, so the parser is wrapped on ``rst_data`` itself. A target that a
refactor removed is reported as absent; the traced run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import threading
import time
from typing import Callable, Iterable, NamedTuple, Sequence

# (module, attribute path the caller looks up, span name)
SPAN_TARGETS = (
    ("rstcoh.numcore", "backward", "numcore.backward"),
    ("rstcoh.numcore", "adam_step", "numcore.adam_step"),
    ("rstcoh.numcore", "lstm_cell_step", "numcore.lstm_cell_step"),
    ("rstcoh.numcore", "save_checkpoint", "numcore.save_checkpoint"),
    ("rstcoh.numcore", "load_checkpoint", "numcore.load_checkpoint"),
    ("rstcoh.tree_model", "encode_edu", "edu_encoder.encode_edu"),
    ("rstcoh.tree_model", "encode_subtree", "tree_model.encode_subtree"),
    ("rstcoh.tree_model", "label_embedding", "tree_model.label_embedding"),
    ("rstcoh.tree_model", "root_children_states", "tree_model.root_children_states"),
    ("rstcoh.parseq", "root_children_states", "tree_model.root_children_states"),
    ("rstcoh.parseq", "encode_parseq", "parseq.encode_parseq"),
    ("rstcoh.trainer", "Model.classify", "trainer.classify"),
    ("rstcoh.trainer", "cross_entropy", "trainer.cross_entropy"),
    ("rstcoh.trainer", "evaluate_model", "trainer.evaluate_model"),
    ("rstcoh.trainer", "train", "trainer.train"),
    ("rstcoh.trainer", "run_multi_seed", "trainer.run_multi_seed"),
    ("rstcoh.corpus", "load_corpus", "corpus.load_corpus"),
    ("rstcoh.corpus", "load_word_vectors", "corpus.load_word_vectors"),
    ("rstcoh.corpus", "rst_data.parse_tree", "rst_data.parse_tree"),
    ("rstcoh.corpus", "rst_data.validate_tree", "rst_data.validate_tree"),
    ("rstcoh.cli", "resolve_corpus", "cli.resolve_corpus"),
    ("rstcoh.cli", "load_model_from_checkpoint", "cli.load_model_from_checkpoint"),
)

# Spans that stay inside their caller's self time. The LSTM step is how the
# EDU encoder and ParSeq do their work, so those layers own its time; it is
# still reported on its own, for the change that fuses the cell.
INNER_SPANS = frozenset({"numcore.lstm_cell_step"})

# Spans that also record thread CPU time. Under the interpreter lock two
# seeds on two threads both span the whole run in wall time; their CPU time
# shows how much of it was useful.
CPU_SPANS = frozenset({"trainer.train"})

OP_KINDS = ("add", "mul", "neg", "matvec", "concat", "sigmoid", "tanh",
            "softmax", "pick", "row", "vsum", "log", "clamp_min")


def _count_leaves(args) -> int:
    from rstcoh import rst_data
    return rst_data.count_leaves(args[0])


# (module, attribute path, counter name, weight of one call or None for 1)
COUNT_TARGETS = tuple(
    ("rstcoh.numcore", kind, f"numcore.ops.{kind}", None) for kind in OP_KINDS
) + (
    # one classify call is one document through the forward pass
    ("rstcoh.trainer", "Model.classify", "docs", None),
    ("rstcoh.tree_model", "encode_edu", "edu_encoder.tokens",
     lambda args: len(args[0])),
    # a binary subtree with n leaves runs the tree cell n - 1 times
    ("rstcoh.tree_model", "encode_subtree", "tree_model.internal_nodes",
     lambda args: _count_leaves(args) - 1),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the same thread's span list, -1 at the top
    cpu: float  # thread CPU seconds; 0.0 unless the name is in CPU_SPANS


class _ThreadState:
    __slots__ = ("main", "spans", "stack", "counts")

    def __init__(self):
        self.main = threading.current_thread() is threading.main_thread()
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}


class Tracer:
    """Installs span or counter wrappers and collects what they record."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        cpu = name in CPU_SPANS
        thread_state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = thread_state()
            spans, stack = state.spans, state.stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            c0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, t0, t1, parent,
                                    time.thread_time() - c0 if cpu else 0.0)

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable, weight) -> Callable:
        thread_state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = thread_state().counts
            counts[name] = counts.get(name, 0) + (1 if weight is None else weight(args))
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, module: str, path: str, label: str, make) -> None:
        try:
            owner = importlib.import_module(module)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{path} ({label})")
            return
        setattr(owner, attr, make(original))
        self._installed.append((owner, attr, original))

    def install_spans(self) -> None:
        for module, path, name in SPAN_TARGETS:
            self._install(module, path, name,
                          lambda fn, name=name: self._span_wrapper(name, fn))

    def install_counters(self) -> None:
        for module, path, name, weight in COUNT_TARGETS:
            self._install(module, path, name,
                          lambda fn, name=name, weight=weight:
                          self._count_wrapper(name, fn, weight))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def threads(self) -> list[list[Span]]:
        """Spans of every thread that recorded any, the main thread first.
        Call it once every traced call has returned."""
        with self._lock:
            states = sorted(self._states, key=lambda st: not st.main)
        return [list(st.spans) for st in states]

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, n in st.counts.items():
                total[name] = total.get(name, 0) + n
        return total


def _enclosing(spans: Sequence[Span], inner: Span) -> int:
    """Index of the innermost span of ``spans`` whose interval holds ``inner``."""
    best = -1
    for i, s in enumerate(spans):
        if s.start <= inner.start and inner.end <= s.end and (
                best < 0 or s.start >= spans[best].start):
            best = i
    return best


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def span_stats(threads: Sequence[Sequence[Span]]) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) seconds, self seconds, CPU
    seconds and the list of per-call durations.

    ``threads[0]`` is the main thread. A span's children are the spans opened
    below it on its own stack, except those named in INNER_SPANS, and, for a
    main-thread span, the top-level spans of other threads (pool workers)
    that it encloses in time. Self time is the span's duration minus the part
    of it that the union of its children covers, so a span that waits for
    two workers at once loses the waiting time only once.
    """
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for t, spans in enumerate(threads):
        for s in spans:
            if s.name in INNER_SPANS:
                continue
            if s.parent >= 0:
                children.setdefault((t, s.parent), []).append((s.start, s.end))
            elif t > 0:
                host = _enclosing(threads[0], s)
                if host >= 0:
                    children.setdefault((0, host), []).append((s.start, s.end))
    stats: dict[str, dict] = {}
    for t, spans in enumerate(threads):
        for i, s in enumerate(spans):
            entry = stats.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0, "cpu_s": 0.0,
                                              "durations": []})
            duration = s.end - s.start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - _covered(s.start, s.end,
                                                   children.get((t, i), []))
            entry["cpu_s"] += s.cpu
            entry["durations"].append(duration)
    return stats


def total_under(threads: Iterable[Sequence[Span]], name: str,
                ancestor: str) -> tuple[float, float]:
    """Inclusive seconds of ``name`` spans (with, without) an ``ancestor``
    span above them on their thread."""
    inside = outside = 0.0
    for spans in threads:
        for s in spans:
            if s.name != name:
                continue
            p = s.parent
            while p >= 0 and spans[p].name != ancestor:
                p = spans[p].parent
            if p >= 0:
                inside += s.end - s.start
            else:
                outside += s.end - s.start
    return inside, outside


HIGH_PERCENTILES = (99.9, 99.0, 90.0)


def summarize(samples: Sequence[float]) -> dict:
    """Median ("value"), sample count and the highest percentile of HIGH_PERCENTILES
    with at least ten samples beyond it (nearest rank), or None when there
    are too few samples for any of them."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    high = None
    for pct in HIGH_PERCENTILES:
        rank = math.ceil(round(pct * n / 100.0, 6))  # nearest rank, float-safe
        if n - rank >= 10:
            high = (pct, ordered[rank - 1])
            break
    return {"n": n, "value": statistics.median(ordered), "high": high}
