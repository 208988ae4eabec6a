"""In-memory span tracer that instruments splitstream from the outside.

The tracer replaces module functions and class methods with wrappers that
record one span per call: name, optional key (the conv input size), start,
end, parent span, step id, thread and phase. Nothing inside the program is
edited; `restore()` puts every original back, so untraced sessions run the
unmodified code. Spans stay in memory and are written out once at the end.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "parent", "name", "key", "t0", "t1", "step", "thread", "phase")

    def __init__(self, id, parent, name, key, t0, step, thread, phase, t1=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.key = key
        self.t0 = t0
        self.t1 = t0 if t1 is None else t1
        self.step = step
        self.thread = thread
        self.phase = phase

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


# Spans that mostly block on a peer; they do not count as covered work.
WAITS = frozenset({"socket.recv"})
_INHERITED = object()


class Patches:
    """Replacements of module or class attributes, undone in reverse order."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def swap(self, owner, attr: str, new) -> None:
        """Replace `owner.attr` with `new` until `restore()`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for target, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._patches.clear()


class Tracer(Patches):
    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self.windows: list[tuple[float, float]] = []  # traced timed-phase intervals
        self.phase = "setup"
        self.session = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, key_of=None, step_of=None, step_of_result=None):
        """`fn` wrapped so every call records one span named `name`.

        `step_of(args)` / `step_of_result(result)` give the iteration a call
        belongs to; otherwise the span inherits its parent's step.
        """
        tracer = self
        local = self._local
        ids = self._ids
        spans = self.spans

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            it = step_of(args) if step_of is not None else None
            if it is not None:
                step = f"{tracer.session}:{it}"
            else:
                step = parent.step if parent is not None else None
            sp = Span(next(ids), parent.id if parent is not None else None, name,
                      key_of(args) if key_of is not None else None, 0.0, step,
                      threading.get_ident(), tracer.phase)
            stack.append(sp)
            result = None
            sp.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                sp.t1 = time.perf_counter()
                stack.pop()
                if step_of_result is not None and sp.step is None:
                    it = step_of_result(result)
                    if it is not None:
                        sp.step = f"{tracer.session}:{it}"
                spans.append(sp)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **opts) -> None:
        """Replace `owner.attr` (a module function or class method) with a
        traced wrapper. Where other splitstream modules imported the same
        function by name, their binding is replaced too."""
        original = vars(owner)[attr]
        wrapper = self.wrap(name, original, **opts)
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:
            modules = [m for n, m in list(sys.modules.items())
                       if n.startswith("splitstream") and m is not None]
            bindings = [(m, a) for m in modules for a, v in list(vars(m).items())
                        if v is original]
        for target, a in bindings:
            self.swap(target, a, wrapper)

    def begin_window(self) -> float:
        self.phase = "timed"
        return time.perf_counter()

    def end_window(self, t0: float) -> float:
        t1 = time.perf_counter()
        self.windows.append((t0, t1))
        self.phase = "setup"
        return t1 - t0

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps(sp.to_dict()) + "\n")


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    child = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.dur
    return {sp.id: sp.dur - child[sp.id] for sp in spans}


def nesting_errors(spans: list[Span]) -> list[str]:
    """Every child lies inside its parent, on the parent's thread."""
    by_id = {sp.id: sp for sp in spans}
    errors = []
    for sp in spans:
        if sp.t1 < sp.t0:
            errors.append(f"span {sp.id} {sp.name} ends before it starts")
        if sp.parent is None:
            continue
        p = by_id.get(sp.parent)
        if p is None:
            errors.append(f"span {sp.id} {sp.name}: parent {sp.parent} was never closed")
        elif p.thread != sp.thread or sp.t0 < p.t0 or sp.t1 > p.t1:
            errors.append(f"span {sp.id} {sp.name} is not inside its parent {p.id} {p.name}")
    return errors


def work_intervals(spans: list[Span]) -> list[tuple[float, float]]:
    """Each top-level span's interval minus the waits nested inside it."""
    by_id = {sp.id: sp for sp in spans}

    def top(sp):
        while sp.parent is not None and sp.parent in by_id:
            sp = by_id[sp.parent]
        return sp.id

    holes = defaultdict(list)
    for sp in spans:
        if sp.name in WAITS:
            holes[top(sp)].append((sp.t0, sp.t1))
    pieces = []
    for sp in spans:
        if sp.parent is not None:
            continue
        start = sp.t0
        for a, b in sorted(holes[sp.id]):
            if a > start:
                pieces.append((start, a))
            start = max(start, b)
        if sp.t1 > start and sp.name not in WAITS:
            pieces.append((start, sp.t1))
    return sorted(pieces)


def covered_time(spans: list[Span], windows: list[tuple[float, float]]) -> float:
    """Time inside `windows` during which some thread is inside a span and
    not waiting on a peer."""
    ivals = work_intervals(spans)
    total = 0.0
    for w0, w1 in windows:
        end = w0
        for a, b in ivals:
            a, b = max(a, end), min(b, w1)
            if b > a:
                total += b - a
                end = b
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def top_tables(spans: list[Span], wall: float, roles: dict[int, str]) -> str:
    """Self time by layer, by span name, by thread role and by conv shape."""
    selfs = self_times(spans)

    def table(title, rows):
        rows = sorted(rows.items(), key=lambda kv: -kv[1][1])
        out = [f"{title:<40} {'calls':>8} {'self ms':>11} {'share':>7}"]
        for k, (calls, ms) in rows:
            out.append(f"{k:<40} {calls:>8} {ms:>11.1f} {ms / (wall * 1e3):>7.1%}")
        return "\n".join(out)

    by_layer, by_name, by_role, by_shape = (defaultdict(lambda: [0, 0.0]) for _ in range(4))
    for sp in spans:
        ms = selfs[sp.id] * 1e3
        role = roles.get(sp.thread, "other")
        for acc, k in ((by_layer, layer_of(sp.name)), (by_name, sp.name),
                       (by_role, f"{role}/{layer_of(sp.name)}")):
            acc[k][0] += 1
            acc[k][1] += ms
        if sp.key is not None:
            k = f"{sp.name}[{sp.key}]"
            by_shape[k][0] += 1
            by_shape[k][1] += ms
    parts = [
        f"traced wall {wall:.3f} s; a share is self time over that wall, summed over "
        f"threads; {', '.join(sorted(WAITS))} is mostly time blocked on the peer",
        table("self time by layer", by_layer),
        table("self time by thread role / layer", by_role),
        table("self time by span", by_name),
        table("conv2d self time by input size", by_shape),
    ]
    return "\n\n".join(parts)
