"""Spans around the calls into each abx module, recorded from outside the
package.

``Tracer.install`` replaces every public function of the layer modules,
in every abx module namespace that binds it, with a wrapper that records a
span (layer, start, end, time covered by child spans) and the counts the
per-layer metrics need.  ``uninstall`` puts the originals back.  Spans are
kept as running sums in memory; nothing is written until the run ends.

Coercion helpers (``as_alpha``, ``as_order``, ``as_wavenumber``) and the
elementary power ``branch_power`` are not spanned: they are not layer work,
and wrapping them would cost more than they do.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("specfun", "extension", "krein", "scattering", "spectrum", "cli")
UNSPANNED = {"as_alpha", "as_order", "as_wavenumber", "branch_power"}
ERROR_TYPES = ("ValueError", "NearEigenvalueError", "ConvergenceError", "ConsistencyError",
               "AssertionError")


def _bessel_evals(name: str, args) -> int:
    """Order x argument pairs of one special-function call."""
    if name in ("bessel_j_orders", "hankel1_orders"):
        return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)
    if name in ("bessel_j", "bessel_y", "bessel_k"):
        return 1
    return 0  # hankel1 is built from spanned bessel_j and bessel_y calls


def _key_of(params, alpha, k):
    return (params, float(getattr(alpha, "alpha", alpha)), complex(getattr(k, "k", k)))


class Tracer:
    def __init__(self):
        # by "layer.function": calls, span time, span time minus child spans
        self.calls = collections.Counter()
        self.busy_s = collections.Counter()
        self.self_s = collections.Counter()
        self.errors = collections.Counter()       # (layer, exception type name)
        self.bessel_evals = 0
        self.p_of_k_calls = 0
        self.p_of_k_keys: set = set()
        self.covered_s = 0.0                      # time under outermost spans
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        qualname = f"{layer}.{name}"

        def spanned(*args, **kwargs):
            if layer == "specfun":
                self.bessel_evals += _bessel_evals(name, args)
            elif name == "p_of_k":
                self.p_of_k_calls += 1
                self.p_of_k_keys.add(_key_of(*args[:3]))
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_perfbench_counted", False):   # count where it is raised
                    exc._perfbench_counted = True
                    self.errors[(layer, type(exc).__name__)] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[qualname] += 1
                self.busy_s[qualname] += dt
                self.self_s[qualname] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.covered_s += dt
            if name in ("amplitude_u", "amplitude_ab"):
                out = dataclasses.replace(out, smooth=self._wrap(layer, "Amplitude.smooth", out.smooth))
            return out

        return spanned

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"abx.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or ["parse_config", "run"]
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and name not in UNSPANNED:
                    wrappers[fn] = functools.update_wrapper(self._wrap(layer, name, fn), fn)
        for mod in [importlib.import_module("abx"), *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- metrics -------------------------------------------------------------
    def _layer_sum(self, counter: collections.Counter, layer: str) -> float:
        return sum(v for q, v in counter.items() if q.startswith(layer + "."))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        m: dict[str, tuple[float, str]] = {}
        for layer in ("specfun", "extension", "krein", "scattering", "spectrum"):
            m[f"{layer}.calls"] = (self._layer_sum(self.calls, layer), "count")
            m[f"{layer}.self_s"] = (self._layer_sum(self.self_s, layer), "s")
        m["specfun.bessel_evals"] = (self.bessel_evals, "count")
        m["krein.p_of_k.calls"] = (self.p_of_k_calls, "count")
        m["krein.p_of_k.distinct"] = (len(self.p_of_k_keys), "count")
        m["krein.solve_reuse"] = (len(self.p_of_k_keys) / self.p_of_k_calls if self.p_of_k_calls else 1.0,
                                  "ratio")
        m["krein.kernel_calls"] = (self.calls["krein.full_resolvent_kernel"], "count")
        extracts = self.calls["scattering.extract_amplitude"]
        m["scattering.extract_s_per_call"] = (
            self.busy_s["scattering.extract_amplitude"] / extracts if extracts else 0.0, "s")
        m["cli.parse_s"] = (self.busy_s["cli.parse_config"], "s")
        m["cli.run_self_s"] = (self.self_s["cli.run"], "s")
        for layer in LAYERS:
            m[f"{layer}.errors"] = (sum(n for (lay, _), n in self.errors.items() if lay == layer), "count")
        for etype in ERROR_TYPES:
            m[f"errors.{etype}"] = (sum(n for (_, t), n in self.errors.items() if t == etype), "count")
        m["errors.other"] = (sum(n for (_, t), n in self.errors.items() if t not in ERROR_TYPES), "count")
        return m
