"""Spans around gdppath's public functions, recorded from outside the package.

``Tracer.install`` wraps every public function defined in the traced modules
(and ``PricedPanel.__post_init__``, the panel validation) and rebinds each
module global of the package that refers to the original, so calls between
modules are seen too.  A span is (name, parent, start, end); spans sit in
flat arrays in memory until ``fold`` adds them to per-name totals.  Wrappers
only record while ``active`` is set, so the benchmark's own checks stay
untraced.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
from array import array
from time import perf_counter

TRACED_MODULES = ("equilibrium", "scenarios", "indexes", "gap", "panel_io", "cli")
HELPERS = ("equilibrium.solve_capital_per_labor", "equilibrium.output_per_labor",
           "equilibrium.allocate_labor")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = False
        self.bytes_read = self.rows_read = 0
        self.bytes_written = self.rows_written = 0
        self._restore: list = []
        self.totals: dict[str, dict] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name_id: int, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _wrap(self, qualname: str, fn):
        tracer, nid = self, self.name_id(qualname)
        if qualname == "indexes.growth_series":
            def wrapper(*args, **kwargs):
                method = args[1] if len(args) > 1 else kwargs.get("method", ...)
                if kwargs.get("values") is not None or len(args) > 3:
                    label = "values"
                elif method is ...:
                    label = "laspeyres"
                else:
                    label = getattr(method, "value", str(method))
                return tracer.span(tracer.name_id(f"{qualname}.{label}"),
                                   fn, args, kwargs)
        elif qualname == "panel_io.read_panel":
            def wrapper(*args, **kwargs):
                panel = tracer.span(nid, fn, args, kwargs)
                if tracer.active:
                    text = args[0] if args else kwargs["text"]
                    tracer.bytes_read += len(text.encode())
                    tracer.rows_read += panel.n_periods
                return panel
        elif qualname == "panel_io.write_panel":
            def wrapper(*args, **kwargs):
                text = tracer.span(nid, fn, args, kwargs)
                if tracer.active:
                    panel = args[0] if args else kwargs["panel"]
                    tracer.bytes_written += len(text.encode())
                    tracer.rows_written += panel.n_periods
                return text
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(nid, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "gdppath" or k.startswith("gdppath.")]
        wrappers = {}
        for layer in TRACED_MODULES:
            mod = sys.modules[f"gdppath.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)][1])
        panel_cls = sys.modules["gdppath.indexes"].PricedPanel
        validate = panel_cls.__post_init__
        nid = self.name_id("indexes.panel_validate")
        self._restore.append((panel_cls, "__post_init__", validate))
        panel_cls.__post_init__ = functools.wraps(validate)(
            lambda panel: self.span(nid, validate, (panel,), {}))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # --- analysis ----------------------------------------------------------

    def fold(self) -> None:
        """Add the recorded spans to the per-name totals (calls, durations,
        self time) and clear them, so a long traced run keeps only totals."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        for i in range(n):
            entry = self.totals.setdefault(
                self.names[self.name[i]],
                {"calls": 0, "durations": array("d"), "self": 0.0})
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["durations"].append(dur)
            entry["self"] += dur - child[i]
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]

    def write(self, path) -> None:
        """All spans as gzipped CSV: id, parent, name, start and end in
        microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            chunk = []
            for i in range(len(self.start)):
                chunk.append(f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                             f"{(self.start[i] - t0) * 1e6:.3f},"
                             f"{(self.end[i] - t0) * 1e6:.3f}\n")
                if len(chunk) >= 65536:
                    fh.write("".join(chunk))
                    chunk.clear()
            fh.write("".join(chunk))


def layer_metrics(tracer: Tracer, ops: int, files_written: int,
                  overhead_ref: float) -> dict:
    """The per-layer metrics, each normalised per operation or per call.
    A layer the workload never calls reads 0."""
    tracer.fold()
    s = tracer.totals

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def median(name, scale):
        d = s.get(name, {}).get("durations")
        return statistics.median(d) * scale if d else 0.0

    def self_time(prefix):
        return sum(v["self"] for k, v in s.items() if k.startswith(prefix))

    def total(name):
        return sum(s[name]["durations"]) if name in s else 0.0

    def per_row(name, rows):
        return total(name) / rows * 1e6 if rows else 0.0

    m = {
        "equilibrium.solve_equilibrium.calls":
            (calls("equilibrium.solve_equilibrium") / ops, "count/op"),
        "equilibrium.helper_calls":
            (sum(calls(h) for h in HELPERS) / ops, "count/op"),
        "equilibrium.solve_equilibrium.us":
            (median("equilibrium.solve_equilibrium", 1e6), "us"),
        "equilibrium.self_s": (self_time("equilibrium.") / ops, "s/op"),
        "scenarios.calibrate.self_s":
            (self_time("scenarios.calibrate_constant_growth") / ops, "s/op"),
        "scenarios.generate_panel.ms":
            (median("scenarios.generate_panel", 1e3), "ms"),
        "indexes.real_growth.calls":
            (calls("indexes.real_growth") / ops, "count/op"),
    }
    for method in ("laspeyres", "paasche", "fisher", "tornqvist"):
        m[f"indexes.growth_series.{method}.ms"] = (
            median(f"indexes.growth_series.{method}", 1e3), "ms")
    m.update({
        "indexes.panel_validate.ms":
            (median("indexes.panel_validate", 1e3), "ms"),
        "indexes.self_s": (self_time("indexes.") / ops, "s/op"),
        "panel_io.read_panel.us_per_row":
            (per_row("panel_io.read_panel", tracer.rows_read), "us/row"),
        "panel_io.bytes_read": (tracer.bytes_read / ops, "B/op"),
        "panel_io.write_panel.us_per_row":
            (per_row("panel_io.write_panel", tracer.rows_written), "us/row"),
        "panel_io.bytes_written": (tracer.bytes_written / ops, "B/op"),
        "gap.model_catchup.ms": (median("gap.model_catchup", 1e3), "ms"),
        "gap.self_s": (self_time("gap.") / ops, "s/op"),
        "cli.main.self_ms": (self_time("cli.") / ops * 1e3, "ms/op"),
        "cli.files_written": (files_written / ops, "count/op"),
        "trace.overhead_ref": (overhead_ref, "ref"),
    })
    return m
