"""Outside-in tracer: times calls into fedtier's public functions without
touching the package's source.

A traced function is replaced by a wrapper in *every* fedtier module that
binds it, because ``from .x import f`` copies the name: patching only the
defining module would miss calls made through the copies. Leaving the
tracer restores each binding to the identical original object.

Spans (name, start, end, parent, thread, work) are kept in memory. A span
opened on a worker thread with no open span of its own takes as parent the
innermost open span of the thread that installed the tracer, which is the
stage waiting on the pool. Self time is computed by a sweep over all span
boundaries: each instant goes to the spans that are open and have no open
child, split evenly when several threads are busy at once, and to
``unattributed`` when no span is open. Self times plus unattributed time
therefore add up to the traced wall time exactly, also under threads.
"""

import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class Target:
    """One function to trace: ``fedtier.<module>.<func>``.

    ``kind`` is "span" (record a span per call) or "count" (count calls only,
    for functions too hot and too small for a span). ``name`` overrides the
    reported name so several functions can share one layer metric.
    ``work`` maps the call's (args, kwargs) to a number summed per name.
    """

    module: str
    func: str
    kind: str = "span"
    name: str | None = None
    work: object = None

    @property
    def label(self) -> str:
        return self.name or f"{self.module}.{self.func}"


def _local_update_work(args, kwargs):
    opt = kwargs["opt"] if "opt" in kwargs else args[6]
    return len(args[2]) * opt.epochs


LOCAL_UPDATE = Target("model", "local_update", work=_local_update_work)

# Every layer boundary the benchmark reports on. Count-only targets are the
# per-call validation and composition helpers that run tens of thousands of
# times per iteration; compose_path, a few thousand times, is the span that
# gives the lora layer a time on every workload.
LAYER_TARGETS = (
    Target("datagen", "gen_pool"),
    Target("datagen", "partition"),
    Target("datagen", "split_unseen"),
    Target("model", "build_model"),
    Target("model", "encode", work=lambda a, k: len(a[1])),
    LOCAL_UPDATE,
    Target("model", "tier_gradient"),
    Target("lora", "delta", kind="count"),
    Target("lora", "compose_path"),
    Target("lora", "save_adapter", name="lora.checkpoint_io"),
    Target("lora", "read_adapter", name="lora.checkpoint_io"),
    Target("lora", "dump_matrix", name="lora.checkpoint_io"),
    Target("lora", "load_matrix", name="lora.checkpoint_io"),
    Target("linalg", "as_matrix", kind="count"),
    Target("linalg", "truncated_svd"),
    Target("linalg", "subspace_overlap"),
    Target("federation", "run_protocol"),
    Target("federation", "run_root_stage"),
    Target("federation", "run_cluster_stage"),
    Target("federation", "run_leaf_stage"),
    Target("federation", "aggregate_product"),
    Target("federation", "refactor"),
    Target("federation", "stop_check"),
    Target("clustering", "ema_update"),
    Target("clustering", "cluster_clients"),
    Target("clustering", "distance_matrix"),
    Target("clustering", "select_k"),
    Target("clustering", "spectral_cluster"),
    Target("metrics", "compute_metrics"),
    Target("metrics", "tier_gains"),
    Target("metrics", "accuracy"),
    Target("metrics", "orthogonality_report"),
    Target("metrics", "clustering_quality"),
    Target("adaptation", "adapt_unseen"),
    Target("adaptation", "probe_basis"),
    Target("adaptation", "build_representatives"),
    Target("adaptation", "assign_cluster"),
    Target("cli", "main"),
)


class Span(NamedTuple):
    sid: int
    name: str
    t0: float
    t1: float
    parent: int | None
    thread: int
    work: float


class Tracer:
    """Context manager that patches the targets on entry and restores them
    on exit. ``only_in`` limits patching to the named fedtier modules."""

    def __init__(self, targets, only_in=None):
        self.targets = tuple(targets)
        self.only_in = only_in
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._counts: dict[int, dict[str, int]] = {}
        self._patched = []
        self.owner = None

    # -- patching ---------------------------------------------------------

    def _modules(self):
        names = sorted(n for n in sys.modules
                       if n == "fedtier" or n.startswith("fedtier."))
        if self.only_in is not None:
            names = [n for n in names if n.rpartition(".")[2] in self.only_in]
        return [sys.modules[n] for n in names]

    def __enter__(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self.owner = threading.get_ident()
        modules = self._modules()
        for target in self.targets:
            original = getattr(sys.modules[f"fedtier.{target.module}"], target.func)
            wrapper = self._wrap(original, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
        return False

    def _wrap(self, fn, target: Target):
        label = target.label
        if target.kind == "count":
            def counted(*args, **kwargs):
                ident = threading.get_ident()
                counts = self._counts.get(ident)
                if counts is None:
                    counts = self._counts[ident] = defaultdict(int)
                counts[label] += 1
                return fn(*args, **kwargs)
            return counted

        work_of = target.work
        clock = time.perf_counter
        get_ident = threading.get_ident

        def spanned(*args, **kwargs):
            ident = get_ident()
            stack = self._stacks.get(ident)
            if stack is None:
                stack = self._stacks[ident] = []
            if stack:
                parent = stack[-1]
            else:
                owner = self._stacks.get(self.owner)
                parent = owner[-1] if owner else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.spans.append(Span(sid, label, t0, t1, parent, ident,
                                       work_of(args, kwargs) if work_of else 0))
        return spanned

    # -- results ----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        total = defaultdict(int)
        for per_thread in list(self._counts.values()):
            for name, n in per_thread.items():
                total[name] += n
        return dict(total)

    def reset(self):
        self.spans = []
        self._counts = {}


def self_times(spans, w0: float, w1: float):
    """Split the window [w0, w1] among spans; returns ({sid: self seconds},
    unattributed seconds). See the module docstring for the rule."""
    parent = {s.sid: s.parent for s in spans}
    events = sorted([(s.t0, 1, s.sid) for s in spans]
                    + [(s.t1, 0, s.sid) for s in spans])
    own = defaultdict(float)
    active: set[int] = set()
    idle = 0.0
    prev = w0
    for t, is_start, sid in events:
        dt = t - prev
        if dt > 0:
            if active:
                leaves = active - {parent[a] for a in active}
                share = dt / len(leaves)
                for a in leaves:
                    own[a] += share
            else:
                idle += dt
            prev = t
        if is_start:
            active.add(sid)
        else:
            active.discard(sid)
    idle += max(w1 - prev, 0.0)
    return own, idle


def has_ancestor(span: Span, by_id: dict, names) -> bool:
    """True if some enclosing span (including across threads) is one of
    ``names``."""
    sid = span.parent
    while sid is not None:
        up = by_id[sid]
        if up.name in names:
            return True
        sid = up.parent
    return False
