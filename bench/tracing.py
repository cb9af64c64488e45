"""Spans around quditcv's public functions, recorded from outside the package.

Each traced function is replaced, in every ``quditcv`` module namespace that
binds it, by a wrapper that appends one span (name, start, end, parent span,
op id) to in-memory arrays.  Patching every binding matters: ``teleport``
looks ``restricted_weight`` up as its own module global and ``cli`` reaches
``teleport.fock_gain`` through the module, so wrapping only the defining
module would miss those calls.  Nothing is written until :meth:`Tracer.save`.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Counts are exact
and repeat run to run at one seed; times include the wrappers' own cost,
which the benchmark reports separately as the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# group -> (defining module, traced functions).  A group is a layer, except
# that fock_gain is split out of teleport as its own "teleport.gain" group.
TRACED = {
    "combinatorics": ("quditcv.combinatorics", ("restricted_weight", "restricted_weight_log")),
    "teleport.gain": ("quditcv.teleport", ("fock_gain",)),
    "teleport": ("quditcv.teleport", ("teleport_state", "teleport_coherent", "teleport_epr")),
    "multimode": ("quditcv.multimode", ("oracle_teleport", "apply_mode_unitary")),
    "qudit": ("quditcv.qudit", ("maximally_entangled", "teleport_qudit_branches")),
    "detectors": (
        "quditcv.detectors",
        (
            "povm_element",
            "pnr_povm",
            "apd_povm",
            "povm_completeness_defect",
            "scheme1_success",
            "scheme2_success",
            "advantage_region",
        ),
    ),
    "cli": ("quditcv.cli", ("main",)),
}

OP_SPAN = "op"

# Per-layer metrics, all exact except the *_s self times (seconds).  A *.calls
# count includes nested calls, e.g. the teleport_state inside teleport_coherent.
COUNT_METRICS = (
    "combinatorics.calls",
    "combinatorics.distinct_tables",
    "teleport.gain_calls",
    "teleport.calls",
    "multimode.oracle_calls",
    "multimode.unitary_calls",
    "multimode.grid_amplitudes",
    "qudit.calls",
    "detectors.element_calls",
    "detectors.weights",
    "cli.calls",
    "cli.rows",
    "cli.csv_bytes",
)
TIME_METRICS = (
    "combinatorics.self_s",
    "teleport.gain_self_s",
    "teleport.self_s",
    "multimode.self_s",
    "qudit.self_s",
    "detectors.self_s",
    "cli.self_s",
)


class Tracer:
    """Installs the wrappers, collects spans and layer counters for one batch."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.groups: list[str | None] = [None]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.tables: set[tuple[int, int]] = set()
        self.grid_amplitudes = 0
        self.weights = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "quditcv" or name.startswith("quditcv."))]
        for group, (module_name, functions) in TRACED.items():
            home = sys.modules[module_name]
            for attr in functions:
                original = getattr(home, attr)
                wrapper = self._wrap(original, f"{module_name.rsplit('.', 1)[1]}.{attr}", group)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def _wrap(self, fn, name: str, group: str):
        nid = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        eager = inspect.isgeneratorfunction(fn)
        hook = _HOOKS.get(name)
        name_id, parent, op, start, end = self.name_id, self.parent, self.op, self.start, self.end
        stack, clock, tracer = self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if eager:  # a generator's work happens while it is consumed
                    result = list(result)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return iter(result) if eager else result

        return wrapper

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        idx = len(self.start)
        self.name_id.append(0)
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())

    def end_op(self) -> None:
        self.end[self._stack.pop()] = time.perf_counter()
        self.op_id = -1

    def parent_group(self) -> str | None:
        """Group of the innermost open span (the caller of a returning wrapper)."""
        return self.groups[self.name_id[self._stack[-1]]] if self._stack else None

    # -- results -------------------------------------------------------------

    def layer_metrics(self, cli_rows: int, cli_csv_bytes: int) -> dict[str, float]:
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=len(duration))
        self_time = np.bincount(name_id, weights=duration - children, minlength=len(self.names))
        calls = np.bincount(name_id, minlength=len(self.names))

        def by_group(values, group):
            return sum(values[i] for i, g in enumerate(self.groups) if g == group)

        def by_name(values, name):
            return values[self.names.index(name)]

        return {
            "combinatorics.calls": int(by_group(calls, "combinatorics")),
            "combinatorics.self_s": float(by_group(self_time, "combinatorics")),
            "combinatorics.distinct_tables": len(self.tables),
            "teleport.gain_calls": int(by_group(calls, "teleport.gain")),
            "teleport.gain_self_s": float(by_group(self_time, "teleport.gain")),
            "teleport.calls": int(by_group(calls, "teleport")),
            "teleport.self_s": float(by_group(self_time, "teleport")),
            "multimode.oracle_calls": int(by_name(calls, "multimode.oracle_teleport")),
            "multimode.unitary_calls": int(by_name(calls, "multimode.apply_mode_unitary")),
            "multimode.self_s": float(by_group(self_time, "multimode")),
            "multimode.grid_amplitudes": self.grid_amplitudes,
            "qudit.calls": int(by_group(calls, "qudit")),
            "qudit.self_s": float(by_group(self_time, "qudit")),
            "detectors.element_calls": int(by_name(calls, "detectors.povm_element")),
            "detectors.self_s": float(by_group(self_time, "detectors")),
            "detectors.weights": self.weights,
            "cli.calls": int(by_group(calls, "cli")),
            "cli.self_s": float(by_group(self_time, "cli")),
            "cli.rows": cli_rows,
            "cli.csv_bytes": cli_csv_bytes,
        }

    def save(self, path: str, origin: float) -> int:
        """Write every span, times relative to `origin`, as a NumPy .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start) - origin,
            end=np.frombuffer(self.end) - origin,
        )
        return len(self.start)


# -- counters computed from a traced call's arguments or result ---------------

def _table_requested(tracer: Tracer, args, kwargs, result) -> None:
    n_modes = args[0] if args else kwargs["n_modes"]
    cutoff = args[2] if len(args) > 2 else kwargs["per_mode_cutoff"]
    tracer.tables.add((n_modes, cutoff))


def _oracle_grid(tracer: Tracer, args, kwargs, result) -> None:
    state = args[0] if args else kwargs["state"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    tracer.grid_amplitudes += (state.cutoff + 1) ** params.num_modes


def _povm_weights(tracer: Tracer, args, kwargs, result) -> None:
    # count each weight once: at the outermost detectors call that returns it
    if tracer.parent_group() == "detectors":
        return
    elements = result if isinstance(result, (list, tuple)) else [result]
    tracer.weights += sum(len(e.weights) for e in elements)


_HOOKS = {
    "combinatorics.restricted_weight": _table_requested,
    "combinatorics.restricted_weight_log": _table_requested,
    "multimode.oracle_teleport": _oracle_grid,
    "detectors.povm_element": _povm_weights,
    "detectors.pnr_povm": _povm_weights,
    "detectors.apd_povm": _povm_weights,
}
