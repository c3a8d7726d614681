"""In-memory span tracer that wraps the public functions of bawcav's modules.

Each wrapped call records one span: name, start, end and the span that was
open when it began (its parent).  Spans live in flat ``array`` buffers so a
sweep's million-odd calls cost about 24 bytes each; they are summarised and
written out only after the traced invocations end.  A span's self time is
its duration minus the durations of its direct children, which cover
disjoint parts of it because the program is single-threaded.

The tracer patches each name where its caller looks it up (for example
``bawcav.cavity.erf`` as well as ``bawcav.specfun.erf``), so no file of the
program changes.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import time
import types
from array import array

import numpy as np

LAYERS = ("cli", "report", "cavity", "detection", "membrane", "material", "oracle", "specfun")

# Traced beyond each module's ``__all__``: the report's criteria, which
# ``report.run_all`` looks up as module globals.
EXTRA_NAMES = {"report": tuple(f"criterion_{k}" for k in range(1, 11))}

# Integrators whose first argument is the integrand; wrapping it counts the
# batches it is called with and the points in them.
INTEGRATORS = ("specfun.integrate_1d", "specfun.integrate_2d")


class Tracer:
    """Records spans for one child process; not thread-safe by design."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._top = -1
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        # per request: (first span index, one past last, integrand counts)
        self.requests: list[tuple[int, int, dict[str, int]]] = []
        self._counts: dict[str, int] = {}
        self._req_lo = 0

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so every call records a span called ``name``."""
        nid = self._name_id(name)
        start, end, names, parent = self.start, self.end, self.name, self.parent
        clock = time.perf_counter
        tracer = self
        if name in INTEGRATORS:
            points_key, batches_key = f"{name}.points", f"{name}.batches"
            counts = self._counts

            def inner(f, *args, **kwargs):
                def counted(x, *rest):
                    counts[points_key] = counts.get(points_key, 0) + np.size(x)
                    counts[batches_key] = counts.get(batches_key, 0) + 1
                    return f(x, *rest)

                return fn(counted, *args, **kwargs)
        else:
            inner = fn

        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(tracer._top)
            end.append(0.0)
            tracer._top = i
            start.append(clock())
            try:
                return inner(*args, **kwargs)
            finally:
                end[i] = clock()
                tracer._top = parent[i]

        return wrapper

    def begin_request(self):
        self._req_lo = len(self.start)
        self._counts.clear()

    def end_request(self):
        self.requests.append((self._req_lo, len(self.start), dict(self._counts)))

    # -- patching ------------------------------------------------------------

    def install(self, package: types.ModuleType):
        """Wrap every public function of each layer wherever a layer looks it up."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        traced: dict[int, str] = {}
        for layer, mod in modules.items():
            for attr in (*mod.__all__, *EXTRA_NAMES.get(layer, ())):
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType):
                    traced[id(obj)] = f"{layer}.{attr}"
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                key = id(obj)
                if key not in traced:
                    continue
                if key not in wrappers:
                    wrappers[key] = self.wrap(traced[key], obj)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[key])
        return sorted(traced.values())

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- summaries -----------------------------------------------------------

    def request_metrics(self, index: int) -> dict[str, float]:
        """Per-name calls, self and total seconds for one request, plus layer sums."""
        lo, hi, counts = self.requests[index]
        k = len(self.names)
        st = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        en = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        nm = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = en - st
        calls = np.bincount(nm, minlength=k)
        self_s = np.bincount(nm, weights=self_time(dur, par), minlength=k)
        total_s = np.bincount(nm, weights=dur, minlength=k)
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.total_s"] = float(total_s[i])
            layer_self[name.split(".", 1)[0]] += float(self_s[i])
            if calls[i]:
                us = dur[nm == i] * 1e6
                out[f"{name}.p50_us"] = float(np.percentile(us, 50))
                out[f"{name}.p99_us"] = float(np.percentile(us, 99))
            else:
                out[f"{name}.p50_us"] = out[f"{name}.p99_us"] = 0.0
        for layer, v in layer_self.items():
            out[f"{layer}.self_s"] = v
        for name in INTEGRATORS:
            for what in ("points", "batches"):
                out[f"{name}.{what}"] = int(counts.get(f"{name}.{what}", 0))
        return out

    def dump(self, path):
        """Write every recorded span, tagged with its request, as an .npz file."""
        n = len(self.start)
        request = np.full(n, -1, dtype=np.int32)
        for r, (lo, hi, _) in enumerate(self.requests):
            request[lo:hi] = r
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            request=request,
        )


def self_time(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children.

    ``parent`` holds indices into the same arrays, negative for a root span.
    """
    inner = parent >= 0
    cover = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
    return dur - cover
