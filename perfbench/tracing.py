"""Span tracing around the public functions of each vaisflow layer.

A :class:`Tracer` replaces a public function by a wrapper in every
``vaisflow`` module that holds a reference to it (``diff2`` is bound
separately in ``grid``, ``transverse`` and ``flow``), so calls made inside
the library are seen too.  Each wrapper appends a span (name, start, end,
parent) to in-memory lists; :meth:`Tracer.uninstall` puts the original
functions back.  Only public names are wrapped, so refactors of private
helpers do not break the benchmark.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np


def _array_work(args, result):
    """Points and compulsory bytes (one read of the input, one write of the output)."""
    values = args[0]
    return values.size, values.nbytes + result.nbytes


def _file_bytes(args, result):
    return 0, os.path.getsize(args[1] if len(args) > 1 else args[0])


# (module, public name, work counter or None).  A dotted name is a method.
LAYERS = (
    ("grid", "diff1", _array_work),
    ("grid", "diff2", _array_work),
    ("transverse", "ddbar", None),
    ("transverse", "ricci", None),
    ("transverse", "log_det", None),
    ("transverse", "metric_from_potential", None),
    ("flow", "initial_state", None),
    ("flow", "run", None),
    ("flow", "step", None),
    ("flow", "leafwise_defect", None),
    ("flow", "transverse_metric", None),
    ("forms", "CoefficientForm.exterior_derivative", None),
    ("forms", "wedge_one_form", None),
    ("forms", "hermitian_to_real_two_form", None),
    ("vaisman", "build_chart", None),
    ("vaisman", "deform", None),
    ("vaisman", "verify_vaisman", None),
    ("einstein", "assemble_full_ricci", None),
    ("einstein", "quasi_einstein_fit", None),
    ("einstein", "weyl_ricci_residual", None),
    ("einstein", "p0k_check", None),
    ("snapshots", "save_snapshot", _file_bytes),
    ("snapshots", "load_metric_bundle", _file_bytes),
    ("cli", "main", None),
)


class Tracer:
    """Records nested spans of wrapped calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.points: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._captures: dict[str, tuple[int, list]] = {}

    def capture(self, name: str, call_number: int) -> list:
        """Keep the result of the given (1-based) call of ``name``; returns the holder."""
        holder: list = []
        self._captures[name] = (call_number, holder)
        return holder

    def _wrapper(self, name: str, fn, work):
        name_id = len(self.names)
        self.names.append(name)
        spans_name, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent,
        )
        stack = self._stack
        perf_counter = time.perf_counter
        captures = self._captures
        calls = [0]

        def traced(*args, **kwargs):
            idx = len(starts)
            spans_name.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if work is not None:
                points, nbytes = work(args, result)
                self.points[name] += points
                self.bytes[name] += nbytes
            if name in captures:
                calls[0] += 1
                target, holder = captures[name]
                if calls[0] == target:
                    holder.append(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _plan(self):
        """Every (owner, attribute, original, wrapper) to swap, built once."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "vaisflow" or key.startswith("vaisflow."))
        ]
        plan = []
        for module_name, public, work in LAYERS:
            home = sys.modules[f"vaisflow.{module_name}"]
            name = f"{module_name}.{public}"
            if "." in public:
                cls_name, attr = public.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                plan.append((cls, attr, original, self._wrapper(name, original, work)))
                continue
            original = getattr(home, public)
            wrapper = self._wrapper(name, original, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        plan.append((module, attr, original, wrapper))
        return plan

    def install(self):
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------

    def arrays(self):
        """Spans as arrays: name id, start, end, parent index (-1 for a root)."""
        return (
            np.asarray(self.span_name, dtype=np.int32),
            np.asarray(self.span_start, dtype=np.float64),
            np.asarray(self.span_end, dtype=np.float64),
            np.asarray(self.span_parent, dtype=np.int64),
        )

    def summary(self) -> dict[str, dict]:
        """Per layer name: calls, inclusive time, self time and span durations."""
        name_id, start, end, parent = self.arrays()
        duration = end - start
        child_time = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        out = {}
        for i, name in enumerate(self.names):
            mask = name_id == i
            out[name] = {
                "calls": int(np.count_nonzero(mask)),
                "total_s": float(np.sum(duration[mask])),
                "self_s": float(np.sum(self_time[mask])),
                "durations": duration[mask],
                "points": self.points.get(name, 0),
                "bytes": self.bytes.get(name, 0),
            }
        return out

    def save(self, path):
        name_id, start, end, parent = self.arrays()
        np.savez(path, names=np.asarray(self.names), name_id=name_id,
                 start=start, end=end, parent=parent)
