"""Shared plumbing for the benchmark: program import, cold caches, spans,
statistics and the run environment.

The benchmark is stdlib only.  It imports the program from ``src/`` of the
checkout it lives in and refuses any other copy, so that a directory without
the program's sources fails instead of measuring an installed package.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import importlib
import math
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
GOLDEN = BENCH / "golden"
OUT = ROOT / ".bench_out"

MODULES = ("numtheory", "lattice", "goeritz", "manifolds", "repvar", "cli")


class SetupError(RuntimeError):
    """The program or the benchmark's reference data cannot be found."""


def import_program() -> SimpleNamespace:
    """Import ``obstruct`` afresh from the checkout's ``src/``.

    Earlier imports are dropped from ``sys.modules`` first, so that every call
    pays the module execution a fresh process pays (byte-code caches aside).
    """
    if not (SRC / "obstruct" / "__init__.py").is_file():
        raise SetupError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "obstruct" or m.startswith("obstruct.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("obstruct")
    if Path(pkg.__file__).resolve().parent != (SRC / "obstruct").resolve():
        raise SetupError(f"imported obstruct from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        obstruct=pkg, **{m: importlib.import_module(f"obstruct.{m}") for m in MODULES}
    )


def clear_caches(mods: SimpleNamespace) -> None:
    """Empty every memo cache of the program, as a fresh process has them."""
    for name in MODULES:
        for obj in vars(getattr(mods, name)).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def program_env() -> dict:
    """Environment for the program's subprocesses: the checkout's sources first."""
    env = dict(os.environ)
    env.pop("OBSTRUCT_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ---------------------------------------------------------------------------
# spans


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    workload: str


@dataclass
class Tracer:
    """In-memory span recorder.  Spans nest strictly (one thread), so a
    span's self time is its duration minus the durations of its children."""

    workload: str = ""
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    item: str | None = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item, self.workload))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def self_times(self, workload: str) -> dict[str, dict]:
        """Per span name: count, total and self seconds, for one workload."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if s.workload != workload:
                continue
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child[i]
        return out

    def to_json(self) -> dict:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start", "end", "parent", "item", "workload"],
            "spans": [
                [index[s.name], round(s.start, 7), round(s.end, 7), s.parent, s.item, s.workload]
                for s in self.spans
            ],
        }


class _SpanContext:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.idx = self.tracer.begin(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.idx)


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared machine the speed of a core drifts by tens of percent over
# seconds, as other tenants load it.  An untraced run therefore samples the
# speed every PROBE_INTERVAL_S with a fixed piece of pure-Python work (the
# probe), and reports every end-to-end time scaled to the reference speed:
# a call's time is multiplied by REFERENCE_PROBE_S over the median probe time
# around it.  The raw times are kept in the run's record.

REFERENCE_PROBE_S = 0.0022  # probe time on a 2-CPU x86-64 VM core running unhindered
PROBE_INTERVAL_S = 0.05


def probe_s() -> float:
    """Duration of the fixed probe work: an interpreted integer-arithmetic
    loop.  Of the probes tried (this one, nested generators, modular powers,
    function calls) it tracked every workload's drift best.  It allocates no
    containers and runs with the garbage collector off, so the program's heap
    cannot change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc = (acc + i * i) % 1000003
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Runs the probe every PROBE_INTERVAL_S while active, from a SIGALRM
    handler, so that it samples the speed in the middle of long calls too.
    Python runs the handler in the main thread between bytecodes; a call that
    is interrupted simply takes longer by the probe's time, which ``scale``
    removes again."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []

    def _on_alarm(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        self.probes.append(probe_s())
        self.times.append(t)

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm()

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """The raw and the scaled duration of [start, end], both without the
        probes that ran inside it.  The scale comes from the median of those
        probes and the two on either side, so that a short call still gets
        several."""
        i = bisect.bisect_left(self.times, start)
        j = bisect.bisect_right(self.times, end)
        raw = end - start - sum(self.probes[i:j])
        around = self.probes[max(0, i - 2):j + 2]
        return raw, raw * REFERENCE_PROBE_S / statistics.median(around)


@contextlib.contextmanager
def gc_settled():
    """Collect, then freeze what is alive (the benchmark's own state) for the
    block, so that the garbage collector, which stays on, scans only what the
    program allocates inside it.  A full collection over the benchmark's state
    costs tens of milliseconds, and which call it lands in would otherwise
    decide the latency tail."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# statistics


def tail_fraction(min_samples: int) -> float:
    """The highest quantile with at least ten samples beyond it, for the
    smallest sample count a run can have.  Fixing it per workload keeps the
    reported percentile the same from run to run."""
    return max(0.5, 1.0 - 10.0 / min_samples)


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# run environment


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the program's Python sources, names and bytes."""
    h = hashlib.sha256()
    for path in sorted((SRC / "obstruct").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }
