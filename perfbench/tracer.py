"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps each layer's public entry point from outside the
package: the defining module's attribute (or the class attribute, for
methods) is replaced by a timing wrapper, and so is every other loaded
``repro`` module global that bound the same function object by
``from … import``.  A missed bind site would silently under-report a
layer, so the installer patches every alias it finds and the caller
cross-checks one layer's call count against the program's own counters.

Generator entry points are timed while they are consumed: one span per
resumption, so the work done between two ``yield``s is charged to the
generator and not to the loop that drives it.  Timing only the call
would record the creation of the generator object and nothing else.

Spans (name, start, end, parent span, job id) are kept in compact arrays
in memory and written to disk when the run ends.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path
from time import perf_counter

#: Layer name -> (defining module, attribute).  ``Class.method`` entries
#: are patched on the class, which covers every caller.  Layer names are
#: the ``repro`` module the entry point lives in.
LAYERS: dict[str, tuple[str, str]] = {
    "pool.execute_payload": ("repro.service.pool", "execute_payload"),
    "engine.verify": ("repro.verifier.engine", "Verifier.verify"),
    "engine.summary": ("repro.verifier.engine", "Verifier.summary"),
    "witness.concretize": ("repro.witness", "concretize"),
    "dsl.load": ("repro.dsl.loader", "load_document"),
    "karp_miller.build_km_graph": ("repro.vass.karp_miller", "build_km_graph"),
    "task_vass.successors": ("repro.verifier.task_vass", "TaskVASS.successors"),
    "task_vass.successor_states": (
        "repro.verifier.task_vass",
        "TaskVASS.successor_states",
    ),
    "store.canonical_key": ("repro.symbolic.store", "ConstraintStore.canonical_key"),
    "store.absorb": ("repro.symbolic.store", "ConstraintStore.absorb"),
    "store.restrict": ("repro.symbolic.store", "ConstraintStore.restrict"),
    "apply.apply_condition": ("repro.symbolic.apply", "apply_condition"),
    "fm.is_satisfiable": ("repro.arith.fm", "is_satisfiable"),
    "fm.project_components": ("repro.arith.fm", "project_components"),
    "cache.summary_put": ("repro.service.cache", "SummaryStore.put"),
    "cache.summary_get": ("repro.service.cache", "SummaryStore.get"),
    "repeated.accepting_cycle": ("repro.vass.repeated", "accepting_cycle"),
}

#: Bind sites that must end up patched; the generic alias scan finds
#: them, this list makes a miss fail loudly instead of under-reporting.
REQUIRED_BIND_SITES = (
    ("repro.verifier.engine", "apply_condition"),
    ("repro.verifier.task_vass", "apply_condition"),
    ("repro.witness.materialize", "apply_condition"),
    ("repro.symbolic.store", "is_satisfiable"),
    ("repro.symbolic.store", "project_components"),
    ("repro.arith.cells", "is_satisfiable"),
    ("repro.verifier.engine", "build_km_graph"),
    ("repro.verifier.engine", "accepting_cycle"),
)

JOB_LAYER = "pool.execute_payload"


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.bind_sites: dict[str, list[str]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._name = array.array("H")
        self._parent = array.array("l")
        self._job = array.array("L")
        self._start = array.array("d")
        self._end = array.array("d")
        self._stack: list[int] = []
        self._job_id = 0
        self._jobs_seen = 0

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def _begin(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._job.append(self._job_id)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        return index

    def _finish(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._stack.pop()

    def _layer_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        name_id = self._layer_id(name)
        calls = self.calls
        begin, finish = self._begin, self._finish

        if inspect.isgeneratorfunction(fn):

            def consume(generator):
                try:
                    while True:
                        index = begin(name_id)
                        try:
                            item = next(generator)
                        except StopIteration:
                            return
                        finally:
                            finish(index)
                        yield item
                finally:
                    generator.close()

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name_id] += 1
                return consume(fn(*args, **kwargs))

        elif name == JOB_LAYER:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name_id] += 1
                self._jobs_seen += 1
                self._job_id = self._jobs_seen
                index = begin(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(index)
                    self._job_id = 0

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name_id] += 1
                index = begin(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(index)

        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point and every alias bound to it."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and module is not None
        ]
        for layer, (module_name, attribute) in LAYERS.items():
            sites = [f"{module_name}.{attribute}"]
            owner = importlib.import_module(module_name)
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            wrapper = self._wrap(layer, original)
            self._patch(owner, attribute, wrapper)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)
                        sites.append(f"{module.__name__}.{alias}")
            self.bind_sites[layer] = sites
        for module_name, alias in REQUIRED_BIND_SITES:
            value = getattr(sys.modules[module_name], alias)
            if not hasattr(value, "__wrapped__"):
                raise RuntimeError(f"bind site {module_name}.{alias} left unpatched")

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Restore every patched attribute (recording stops)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, spans, total span time and self time (span
        time minus the time its direct child spans cover)."""
        count = len(self._start)
        child = [0.0] * count
        durations = [0.0] * count
        start, end, parent = self._start, self._end, self._parent
        for index in range(count):
            duration = end[index] - start[index]
            durations[index] = duration
            up = parent[index]
            if up >= 0:
                child[up] += duration
        totals = {
            name: {"calls": self.calls[i], "spans": 0, "total_s": 0.0, "self_s": 0.0}
            for i, name in enumerate(self.names)
        }
        names = self.names
        for index in range(count):
            row = totals[names[self._name[index]]]
            row["spans"] += 1
            row["total_s"] += durations[index]
            row["self_s"] += durations[index] - child[index]
        return totals

    def write(self, stem: Path) -> tuple[Path, Path]:
        """Write the spans as ``<stem>.spans.bin`` (the five arrays back
        to back) with a ``<stem>.spans.json`` header naming the layout."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = (
            ("name", self._name),
            ("parent", self._parent),
            ("job", self._job),
            ("start", self._start),
            ("end", self._end),
        )
        binary = stem.with_name(stem.name + ".spans.bin")
        header = stem.with_name(stem.name + ".spans.json")
        with open(binary, "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        header.write_text(
            json.dumps(
                {
                    "spans": len(self._start),
                    "names": self.names,
                    "columns": [
                        {"field": field, "typecode": column.typecode, "itemsize": column.itemsize}
                        for field, column in columns
                    ],
                    "clock": "time.perf_counter, seconds",
                    "parent": "index of the enclosing span, -1 at top level",
                    "job": "1-based execute_payload call, 0 outside jobs",
                },
                indent=1,
            )
        )
        return header, binary
