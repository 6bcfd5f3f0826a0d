"""Timing wrappers installed from outside around hydrolens' public functions.

``Tracer.install()`` replaces every public function of the library modules,
and ``cli.main``, by a wrapper that records a span (name, parent span, start,
end, whether it raised) in memory.  The wrapper is put in place under every name a module holds
the function by, so ``gaussian_ppt.relative_moments`` and
``hydrogenic.gegenbauer`` are traced like the originals.  ``uninstall()``
puts the originals back.  A span is named after the module that defines the
function, so a call through an imported name counts with its original.

The wrappers only record spans.  ``layer_metrics`` derives calls, self time
(a span's duration minus the durations of its direct children), raises and
caller counts from the span arrays after the run.  The wrapper's own
bookkeeping therefore lands in the parent's self time, and
``trace.overhead_ratio`` sizes it.
"""

from __future__ import annotations

import dataclasses
import importlib
from array import array
from time import perf_counter

import numpy as np

LIBRARY = ("specfun", "hydrogenic", "free_schmidt", "moments", "gaussian_ppt",
           "linear_entropy", "oracle")


def _modules():
    pkg = importlib.import_module("hydrolens")
    mods = {name: importlib.import_module(f"hydrolens.{name}") for name in LIBRARY + ("cli",)}
    return pkg, mods


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.integrand_evals = 0
        self._stack: list[int] = []          # indices of the open spans
        self._patched: list[tuple] = []      # (module, attribute, original)

    def _wrap(self, func, name: str):
        nid = len(self.names)
        self.names.append(name)
        stack, name_id, parent, start, end, raised = (self._stack, self.name_id, self.parent,
                                                      self.start, self.end, self.raised)

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            start.append(0.0)
            end.append(0.0)
            raised.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return traced

    def _count_integrand(self, integrate):
        """oracle.integrate, with its integrand wrapped in an evaluation counter."""
        def counted(spec, *args, **kwargs):
            f = spec.integrand

            def g(x):
                self.integrand_evals += 1
                return f(x)

            return integrate(dataclasses.replace(spec, integrand=g), *args, **kwargs)

        return counted

    def install(self) -> None:
        pkg, mods = _modules()
        targets = {}
        for short in LIBRARY:
            mod = mods[short]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        # The CLI's handlers (cmd_map, ...) are reached only through main, so
        # their work (argument parsing, CSV formatting) counts as cli.main self time.
        targets[id(mods["cli"].main)] = (mods["cli"].main, "cli.main")
        wrappers = {}
        for key, (obj, name) in targets.items():
            inner = self._count_integrand(obj) if name == "oracle.integrate" else obj
            wrappers[key] = self._wrap(inner, name)
        for mod in (pkg, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][0]:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name_id": np.frombuffer(self.name_id, np.int32),
                "parent": np.frombuffer(self.parent, np.int32),
                "start": np.frombuffer(self.start, np.float64),
                "end": np.frombuffer(self.end, np.float64),
                "raised": np.frombuffer(self.raised, np.int8)}

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


# Per-layer metrics: (metric, unit, kind, span name).  Kinds: calls / self_ms
# are per traced op, self_us is per call of that span.
SPAN_METRICS = [
    ("cli.main.self_ms_per_op", "ms", "self_ms", "cli.main"),
    ("gaussian_ppt.detection_map.self_ms_per_op", "ms", "self_ms", "gaussian_ppt.detection_map"),
    ("gaussian_ppt.ppt_closed_form.calls_per_op", "count", "calls", "gaussian_ppt.ppt_closed_form"),
    ("gaussian_ppt.ppt_closed_form.self_ms_per_op", "ms", "self_ms", "gaussian_ppt.ppt_closed_form"),
    ("gaussian_ppt.blind_band_edges.self_ms_per_op", "ms", "self_ms", "gaussian_ppt.blind_band_edges"),
    ("moments.relative_moments.calls_per_op", "count", "calls", "moments.relative_moments"),
    ("moments.relative_moments.self_ms_per_op", "ms", "self_ms", "moments.relative_moments"),
    ("moments.kramer_pasternack.calls_per_op", "count", "calls", "moments.kramer_pasternack"),
    ("gaussian_ppt.ppt_numeric.self_ms_per_op", "ms", "self_ms", "gaussian_ppt.ppt_numeric"),
    ("gaussian_ppt.build_covariance.self_ms_per_op", "ms", "self_ms", "gaussian_ppt.build_covariance"),
    ("gaussian_ppt.partial_transpose.self_ms_per_op", "ms", "self_ms", "gaussian_ppt.partial_transpose"),
    ("gaussian_ppt.symplectic_eigenvalues.self_ms_per_op", "ms", "self_ms",
     "gaussian_ppt.symplectic_eigenvalues"),
    ("moments.moment_set.self_ms_per_op", "ms", "self_ms", "moments.moment_set"),
    ("oracle.integrate.calls_per_op", "count", "calls", "oracle.integrate"),
    ("oracle.integrate.self_ms_per_op", "ms", "self_ms", "oracle.integrate"),
    ("oracle.integrate_momentum.self_ms_per_op", "ms", "self_ms", "oracle.integrate_momentum"),
    ("oracle.integrate_semi_infinite.self_ms_per_op", "ms", "self_ms", "oracle.integrate_semi_infinite"),
    ("oracle.integrate_theta.self_ms_per_op", "ms", "self_ms", "oracle.integrate_theta"),
    ("hydrogenic.radial_momentum.calls_per_op", "count", "calls", "hydrogenic.radial_momentum"),
    ("hydrogenic.radial_momentum.self_us_per_call", "us", "self_us", "hydrogenic.radial_momentum"),
    ("hydrogenic.radial_position.calls_per_op", "count", "calls", "hydrogenic.radial_position"),
    ("hydrogenic.radial_position.self_us_per_call", "us", "self_us", "hydrogenic.radial_position"),
    ("specfun.gegenbauer.calls_per_op", "count", "calls", "specfun.gegenbauer"),
    ("specfun.gegenbauer.self_ms_per_op", "ms", "self_ms", "specfun.gegenbauer"),
    ("specfun.laguerre_assoc.calls_per_op", "count", "calls", "specfun.laguerre_assoc"),
    ("specfun.laguerre_assoc.self_ms_per_op", "ms", "self_ms", "specfun.laguerre_assoc"),
    ("specfun.spherical_harmonic_sq.calls_per_op", "count", "calls", "specfun.spherical_harmonic_sq"),
    ("specfun.wigner3j.calls_per_op", "count", "calls", "specfun.wigner3j"),
    ("specfun.wigner3j.self_ms_per_op", "ms", "self_ms", "specfun.wigner3j"),
    ("specfun.hyp3f2_unit.calls_per_op", "count", "calls", "specfun.hyp3f2_unit"),
    ("specfun.hyp3f2_unit.self_ms_per_op", "ms", "self_ms", "specfun.hyp3f2_unit"),
    ("linear_entropy.linear_entropy.self_ms_per_op", "ms", "self_ms", "linear_entropy.linear_entropy"),
    ("linear_entropy.radial_sum.self_ms_per_op", "ms", "self_ms", "linear_entropy.radial_sum"),
    ("linear_entropy.angular_sum.self_ms_per_op", "ms", "self_ms", "linear_entropy.angular_sum"),
]


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics of a traced pass over ``ops`` ops, as {name: (value, unit)}.
    A span name the program no longer has reads 0."""
    a = tracer.arrays()
    names, nid, parent = list(a["names"]), a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    nested = parent >= 0
    child_s = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    per_name = lambda weights=None: dict(zip(names, np.bincount(
        nid, weights=weights, minlength=len(names)).tolist()))
    calls, self_s, raised = per_name(), per_name(dur - child_s), per_name(a["raised"])

    out = {}
    for metric, unit, kind, span in SPAN_METRICS:
        n_calls, seconds = calls.get(span, 0), self_s.get(span, 0.0)
        if kind == "calls":
            value = n_calls / ops
        elif kind == "self_ms":
            value = seconds * 1e3 / ops
        else:
            value = seconds * 1e6 / n_calls if n_calls else 0.0
        out[metric] = (value, unit)
    bands = calls.get("gaussian_ppt.blind_band_edges", 0)
    band_calls = 0
    if bands:
        band = names.index("gaussian_ppt.blind_band_edges")
        closed = names.index("gaussian_ppt.ppt_closed_form")
        band_calls = int(np.count_nonzero(nested & (nid == closed) & (nid[parent] == band)))
    out["gaussian_ppt.blind_band_edges.closed_form_calls_per_band"] = (
        band_calls / bands if bands else 0.0, "count")
    out["gaussian_ppt.symplectic_eigenvalues.raised_per_op"] = (
        raised.get("gaussian_ppt.symplectic_eigenvalues", 0.0) / ops, "count")
    integrals = calls.get("oracle.integrate", 0)
    out["oracle.integrand_evals_per_op"] = (tracer.integrand_evals / ops, "count")
    out["oracle.integrand_evals_per_integral"] = (
        tracer.integrand_evals / integrals if integrals else 0.0, "count")
    return out
