"""In-memory span tracer for the d1q3rv layers, installed from outside the package.

Every public function of the five layer modules (``scheme``, ``stability``,
``simulator``, ``regionscan``, ``cli``) is replaced by a timing wrapper at
every module attribute it is bound to: its home module, the modules that
import it by name, and the ``d1q3rv`` package namespace.  ``src/`` is not
touched.

A call opens a span when it crosses into a layer from outside it (from the
benchmark or from another module).  Calls inside one module fold into the
caller's span, so ``build_relaxation_matrix`` includes ``build_M`` and
friends, and a self-recursive entry point such as ``emit_csv(grid, path)``
is counted once.  The phases of ``simulator.run`` (``PHASES``) are the one
exception: they always open their own span, so ``run``'s self time is its
per-step allocation and diagnostic reductions.

Spans live in flat arrays with a parent link and are turned into self times
(span minus the part of it that child spans cover) when the pass ends.
"""

from __future__ import annotations

import os
import threading
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("scheme", "stability", "simulator", "regionscan", "cli")

PHASES = {"simulator": ("init_state", "relax", "stream", "exact_density")}

# Span name -> metric group.  Spans not listed go to "<layer>.other".
GROUPS = {
    "scheme.build_relaxation_matrix": "scheme.build_relaxation_matrix",
    "scheme.relaxation_matrices": "scheme.relaxation_matrices",
    "stability.nine_inequalities": "stability.scalar_routes",
    "stability.reduced_condition": "stability.scalar_routes",
    "stability.matrix_entry_verdict": "stability.scalar_routes",
    "stability.gamma_feasible_interval": "stability.intervals",
    "stability.alpha_interval": "stability.intervals",
    "stability.relaxation_entries_closed_form": "stability.batched",
    "stability.chain_bounds": "stability.batched",
    "stability.necessary_slacks": "stability.batched",
    "simulator.run": "simulator.run",
    "simulator.init_state": "simulator.init_state",
    "simulator.relax": "simulator.relax",
    "simulator.stream": "simulator.stream",
    "simulator.exact_density": "simulator.exact_density",
    "regionscan.scan": "regionscan.scan",
    "regionscan.emit_csv": "regionscan.emit_csv",
    "regionscan.parse_csv": "regionscan.parse_csv",
    "regionscan.emit_svg": "regionscan.emit_svg",
    "cli.region": "cli.region",
    "cli.reproduce": "cli.reproduce",
}

SELF_GROUPS = tuple(dict.fromkeys(GROUPS.values())) + tuple(f"{m}.other" for m in LAYERS)


def group_of(span_name: str) -> str:
    return GROUPS.get(span_name, span_name.split(".", 1)[0] + ".other")


def _file_size(out) -> int:
    return os.path.getsize(out) if isinstance(out, (str, os.PathLike)) else 0


def _run_counts(profile, grid, p, n_steps, *_, **__):
    cells = n_steps * grid.n_cells
    # computed, not measured: one read and one write of the (n_cells, 3)
    # float64 state per step
    return {"simulator.steps": n_steps, "simulator.cell_updates": cells,
            "simulator.bytes_computed": 2 * 3 * 8 * cells}


def _scan_counts(spec, *_, **__):
    return {"regionscan.points": len(spec.u_list) * spec.s_points * spec.s_prime_points}


# Work counts taken from a call's arguments before it runs ...
COUNT_BEFORE = {
    "scheme.relaxation_matrices": lambda *a, **k: {
        "scheme.relaxation_matrices.tuples": np.broadcast(*a[:5]).size},
    "simulator.run": _run_counts,
    "regionscan.scan": _scan_counts,
}
# ... and after it returns (outside the span): bytes written to a path.
COUNT_AFTER = {
    "regionscan.emit_csv": lambda grid, out, *a, **k: {"regionscan.emit_csv.bytes": _file_size(out)},
    "regionscan.emit_svg": lambda grid, out, *a, **k: {"regionscan.emit_svg.bytes": _file_size(out)},
}


class Tracer:
    """Records spans of wrapped d1q3rv calls while ``active`` is true.

    The thread that creates the tracer is the benchmark's thread.  A span
    opened on another thread with nothing open there (the ``cli region``
    thread pool) takes as parent the innermost open span of the benchmark's
    thread, which waits for it.
    """

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.thread = array("q")
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def count(self, counts: dict) -> None:
        with self._lock:
            self.counts.update(counts)

    def _open(self, name: str, stack: list) -> int:
        if stack:
            parent = stack[-1][0]
        elif threading.get_ident() != self._main and self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = -1
        with self._lock:
            nid = self._name_ids.setdefault(name, len(self.names))
            if nid == len(self.names):
                self.names.append(name)
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.thread.append(threading.get_ident())
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        return sid

    def wrap(self, layer: str, fname: str, fn):
        qualified = f"{layer}.{fname}"
        always = fname in PHASES.get(layer, ())
        before = COUNT_BEFORE.get(qualified)
        after = COUNT_AFTER.get(qualified)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1][1] == layer and not always:
                return fn(*args, **kwargs)
            name = qualified
            if qualified == "cli.main" and args and args[0]:
                name = f"cli.{args[0][0]}"
            if before is not None:
                tracer.count(before(*args, **kwargs))
            sid = tracer._open(name, stack)
            stack.append((sid, layer))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[sid] = time.perf_counter()
                stack.pop()
                if after is not None:
                    tracer.count(after(*args, **kwargs))

        return traced

    def install(self, package, modules: dict) -> None:
        """Wrap every public function of ``modules`` (layer name -> module)."""
        wrappers = {}
        for layer, mod in modules.items():
            for fname, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not fname.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(layer, fname, obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def self_times(self):
        """Per-span self times, and the time covered by root spans.

        Self time is the span minus the part of it its children cover.  Where
        children on other threads overlap, each instant is shared equally
        among the children running then, and every span below such a child
        is scaled by that share, so self times add up to the covered time.
        """
        start = np.frombuffer(self.start, float)
        end = np.frombuffer(self.end, float)
        parent = np.frombuffer(self.parent, np.int64)
        thread = np.frombuffer(self.thread, np.int64)
        dur = end - start
        self_s = dur.copy()
        child = parent >= 0
        np.subtract.at(self_s, parent[child], dur[child])
        cross = np.nonzero(child & (thread != thread[np.maximum(parent, 0)]))[0]
        for p in np.unique(parent[cross]):
            kids = cross[parent[cross] == p]
            shares, covered = _shared(start[kids], end[kids])
            self_s[p] += dur[kids].sum() - covered
            for k, share in zip(kids, shares):
                below = (thread == thread[k]) & (start >= start[k]) & (end <= end[k])
                self_s[below] *= share / dur[k] if dur[k] > 0 else 1.0
        return self_s, float(dur[~child].sum())

    def metrics(self, wall_s: float) -> dict:
        self_s, covered = self.self_times()
        name = np.frombuffer(self.name, np.int32)
        out = {f"{g}.self_s": 0.0 for g in SELF_GROUPS}
        calls = Counter()
        for nid, span_name in enumerate(self.names):
            mask = name == nid
            out[f"{group_of(span_name)}.self_s"] += float(self_s[mask].sum())
            calls[group_of(span_name)] += int(mask.sum())
        out["scheme.build_relaxation_matrix.calls"] = calls["scheme.build_relaxation_matrix"]
        out["stability.scalar_routes.calls"] = calls["stability.scalar_routes"]
        out.update(self.counts)
        out["bench.traced_wall_s"] = wall_s
        out["bench.unattributed_s"] = wall_s - covered
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 start=np.frombuffer(self.start, float), end=np.frombuffer(self.end, float),
                 parent=np.frombuffer(self.parent, np.int64),
                 thread=np.frombuffer(self.thread, np.int64))


def _shared(starts, ends):
    """Each interval's share of time, split equally where intervals overlap,
    and the length of their union."""
    edges = np.unique(np.concatenate([starts, ends]))
    shares = np.zeros(len(starts))
    covered = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        running = (starts <= a) & (ends >= b)
        k = int(running.sum())
        if k:
            shares[running] += (b - a) / k
            covered += b - a
    return shares, covered
