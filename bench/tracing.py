"""In-process span tracing of catlr's layers, from outside the package.

``Tracer.install`` wraps every public function of each layer module, and
every public method of the classes those modules define, then rebinds
each wrapped object in every loaded ``catlr.*`` namespace that holds it.
Calls made through an eager ``from .x import f`` binding and through a
lazy one (resolved from the defining module at call time) are therefore
both recorded.  Spans live in memory until ``write``.

Startup is measured from outside the process (``startup_probe``), since
an in-process trace starts after the interpreter and the imports.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import itertools
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

LAYERS = ("cli", "ingest", "model", "engine", "rng", "uncertainty", "report", "interpret", "simulate")

# Functions whose bound arguments or result give a work count for the span.
_WORK = {
    "uncertainty.bootstrap_interval": lambda args, result: args["replicates"],
    "uncertainty.dirichlet_interval": lambda args, result: args["draws"],
    "simulate.simulate_study": lambda args, result: len(result),
    "ingest.parse_records": lambda args, result: len(result),
}

_RENDER = {"report.render_lr_table", "report.render_summary_table", "report.lr_rows_payload",
           "report.canonical_json"}


class Span(NamedTuple):
    sid: int
    parent: int | None
    invocation: int
    name: str
    start: int  # perf_counter_ns
    end: int
    work: float | None


class Tracer:
    """Records one span per call of a wrapped catlr function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        work = _WORK.get(name)
        signature = inspect.signature(fn) if work else None
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs under the span that started the pool
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
            amount = None
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                amount = work(bound.arguments, result)
            self.spans.append(Span(sid, parent, self.invocation, name, start, end, amount))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public callables of every layer module that exists."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"catlr.{layer}")
            except ImportError:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped = self._wrap(f"{layer}.{attr}", value)
                    replaced[id(value)] = (value, wrapped)
                    self._set(module, attr, wrapped)
                elif inspect.isclass(value) and not issubclass(value, (enum.Enum, BaseException)):
                    self._wrap_methods(layer, value)
        for name, module in list(sys.modules.items()):
            if name != "catlr" and not name.startswith("catlr."):
                continue
            for attr, value in list(vars(module).items()):
                pair = replaced.get(id(value))
                if pair is not None and pair[0] is value:
                    self._set(module, attr, pair[1])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                self._set(cls, attr, self._wrap(name, value))
            elif isinstance(value, (classmethod, staticmethod)):
                self._set(cls, attr, type(value)(self._wrap(name, value.__func__)))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr) if not inspect.isclass(owner)
                              else vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Write all spans as CSV: id, parent, invocation, name, start_ns, end_ns."""
        with path.open("w", encoding="utf-8") as handle:
            handle.write("id,parent,invocation,name,start_ns,end_ns\n")
            for s in sorted(self.spans, key=lambda s: s.sid):
                parent = "" if s.parent is None else s.parent
                handle.write(f"{s.sid},{parent},{s.invocation},{s.name},{s.start},{s.end}\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for start, end in sorted(children.get(s.sid, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        result[s.sid] = (s.end - s.start) - covered
    return result


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_metrics(spans: list[Span], cycles: int, invocations: int, wall_ns: int) -> dict[str, float]:
    """Per-layer metrics from one traced pass of ``cycles`` whole cycles.

    ``invocations`` and ``wall_ns`` cover the whole pass; ``wall_ns`` is
    the harness's own timing of the calls into ``catlr.cli.run``.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    names = {s.sid: s.name for s in spans}

    def mean_ms(*fn_names: str) -> float:
        hits = [s for n in fn_names for s in by_name.get(n, ())]
        return sum(s.end - s.start for s in hits) / len(hits) / 1e6 if hits else 0.0

    def self_ms_per(layer: str, per: list[Span]) -> float:
        total = sum(selfs[s.sid] for s in spans if layer_of(s.name) == layer)
        return total / len(per) / 1e6 if per else 0.0

    interval_spans = by_name.get("uncertainty.bootstrap_interval", []) + by_name.get(
        "uncertainty.dirichlet_interval", [])
    interval_ns = sum(s.end - s.start for s in interval_spans)
    renders = [s for n in _RENDER for s in by_name.get(n, ()) if names.get(s.parent) not in _RENDER]
    build = by_name.get("report.build_report", [])
    roots = [s for s in spans if s.parent is None]

    m = {
        "cli.self_ms": self_ms_per("cli", by_name.get("cli.run", [])),
        "ingest.parse_aggregated_us": mean_ms("ingest.parse_aggregated") * 1e3,
        "ingest.parse_records_ms": mean_ms("ingest.parse_records"),
        "ingest.tally_ms": mean_ms("ingest.tally"),
        "ingest.emit_records_ms": mean_ms("ingest.emit_records"),
        "engine.full_table_lrs_us": mean_ms("engine.full_table_lrs") * 1e3,
        "rng.streams_built": len(by_name.get("rng.stream", [])) / cycles,
        "rng.stream_ms": mean_ms("rng.stream"),
        "uncertainty.bootstrap_ms": mean_ms("uncertainty.bootstrap_interval"),
        "uncertainty.dirichlet_ms": mean_ms("uncertainty.dirichlet_interval"),
        "uncertainty.self_ms": self_ms_per("uncertainty", interval_spans),
        "uncertainty.replicates_per_s": (
            sum(s.work for s in interval_spans) / (interval_ns / 1e9) if interval_ns else 0.0),
        "report.build_report_self_ms": (
            sum(selfs[s.sid] for s in build) / len(build) / 1e6 if build else 0.0),
        "report.render_us": (
            sum(s.end - s.start for s in renders) / len(renders) / 1e3 if renders else 0.0),
        "interpret.posterior_us": mean_ms("interpret.posterior_probability") * 1e3,
        "simulate.simulate_study_ms": mean_ms("simulate.simulate_study"),
        "trace.coverage": sum(s.end - s.start for s in roots) / wall_ns if wall_ns else 0.0,
        "trace.spans": len(spans) / cycles,
    }
    layer_self = {layer: 0 for layer in LAYERS}
    for s in spans:
        layer = layer_of(s.name)
        if layer in layer_self:
            layer_self[layer] += selfs[s.sid]
    m["_layer_self_ns_per_cycle"] = {k: v / cycles for k, v in layer_self.items()}
    m["_invocations_per_cycle"] = invocations / cycles
    return m


# ---- startup, measured from outside ------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def _importtime(python: str, code: str, env: dict) -> list[tuple[int, int, str]]:
    """(cumulative us, nesting depth, module) for each import ``code`` makes."""
    proc = subprocess.run([python, "-X", "importtime", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((int(match.group(2)), (len(match.group(3)) - 1) // 2, match.group(4)))
    return entries


def startup_probe(python: str, env: dict, repeats: int = 5) -> dict[str, float]:
    """Interpreter start and ``import catlr.cli`` cost, medians of ``repeats``."""
    python_ms, cli_ms, numpy_ms, numpy_loaded = [], [], [], 0
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, check=True, timeout=60)
        python_ms.append((time.perf_counter() - start) * 1e3)
        baseline = {name for _, _, name in _importtime(python, "pass", env)}
        entries = _importtime(python, "import catlr.cli", env)
        cli_ms.append(sum(us for us, depth, name in entries if depth == 0 and name not in baseline) / 1e3)
        numpy = [us for us, _, name in entries if name == "numpy"]
        numpy_ms.append(numpy[0] / 1e3 if numpy else 0.0)
        numpy_loaded = int(bool(numpy))
    return {
        "startup.python_ms": statistics.median(python_ms),
        "startup.import_cli_ms": statistics.median(cli_ms),
        "startup.import_numpy_ms": statistics.median(numpy_ms),
        "startup.numpy_loaded": numpy_loaded,
    }


def shares(metrics: dict, startup_ms_per_invocation: float) -> dict[str, float]:
    """Each layer's share of a cycle: startup plus traced in-process self times."""
    layer_self = metrics.pop("_layer_self_ns_per_cycle")
    invocations = metrics.pop("_invocations_per_cycle")
    startup_ns = startup_ms_per_invocation * 1e6 * invocations
    total = startup_ns + sum(layer_self.values())
    out = {"startup.share": startup_ns / total if total else 0.0}
    for layer, ns in layer_self.items():
        out[f"{layer}.share"] = ns / total if total else 0.0
    return out
