"""In-memory span tracer that wraps roughdelta's layer boundaries from outside.

Every function a roughdelta module imports from a sibling module is replaced,
in the importing module's namespace, by a wrapper that records one span per
call: name, start, end, parent span, whether it raised, the index of the
benchmark call it belongs to, and work counts computed from argument and
result shapes.  ``fbm.volterra_weights`` is wrapped inside ``fbm`` too, because
the samplers look it up there.  Nothing in ``src/`` is edited, and the
wrappers are installed only for the duration of a traced call.

A span's layer is the roughdelta module that defines the called function, so
``bel.sample_joint_batch`` records an ``fbm`` span.  Self time is a span's
duration minus the durations of its direct children; summed over all spans of
one call, self times add up to the root span's duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

# Modules whose sibling imports are wrapped (the callers).
CALLERS = ("cli", "bel", "fd", "rough_vol", "girsanov", "fbm")
# Functions wrapped inside their own module, because callers there bind them.
SAME_MODULE = {"fbm": ("volterra_weights",)}
# Factories whose returned callable is the unit of work counted as a runner call.
RUNNER_FACTORIES = ("sde_payoff_runner",)
ROOT = "cli.run"

LAYERS = ("fbm", "sde", "bel", "rough_vol", "fd", "girsanov", "frac_core", "cli")

# Busy-time metric -> the span whose summed duration it reports.
BUSY = {
    "fbm.sample_s": "fbm.sample_joint_batch",
    "fbm.increment_s": "fbm.wiener_increment_batch",
    "fbm.cholesky_s": "fbm.sample_cholesky_batch",
    "sde.euler_s": "sde.euler_solve_batch",
    "sde.flow_s": "sde.flow_derivative_batch",
    "bel.estimate_s": "bel.estimate_delta",
    "rough_vol.sbel_s": "rough_vol.sbel_delta",
    "fd.delta_s": "fd.fd_delta",
    "girsanov.xi_s": "girsanov.girsanov_xi_batch",
}
# Computed work-count metric -> unit.
COUNTS = {
    "fbm.paths_sampled": "paths",
    "fbm.normals": "count",
    "fbm.conv_flops": "flop",
    "sde.steps": "count",
    "bel.profile_flops": "flop",
    "fd.runner_calls": "count",
    "frac_core.calls": "count",
}
# Every per-layer metric a traced run reports -> unit.
UNITS = {
    **{m: "s" for m in BUSY},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **COUNTS,
    "frac_core.busy_s": "s",
    "fbm.weights_s": "s",
    "fbm.weights_mb": "MB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _shape_work(name: str, bound: inspect.BoundArguments, out) -> dict:
    """Computed work counts for one call, from the shapes at its boundary.

    They count what the call was asked to do; a cache hit inside the call
    counts the same as a miss.
    """
    args = bound.arguments
    if name == "fbm.sample_joint_batch":
        b, n, d = out[0].shape
        return {
            "fbm.paths_sampled": b,
            "fbm.normals": b * n * d,
            "fbm.conv_flops": 2 * b * (n + 1) * n * d,
        }
    if name == "fbm.wiener_increment_batch":
        return {"fbm.normals": out.size}
    if name == "fbm.sample_cholesky_batch":
        b, n1 = out.shape
        return {"fbm.normals": b * (n1 - 1)}
    if name == "fbm.volterra_weights":
        key = (args["h"].h, args["grid"].n_steps, args["grid"].horizon)
        return {"weights": (key, out.nbytes)}
    if name in ("sde.euler_solve_batch", "sde.flow_derivative_batch"):
        b, n1, _ = out.shape
        return {"sde.steps": b * (n1 - 1)}
    if name == "bel.estimate_delta":
        n = args["grid"].n_steps
        d = len(out.mean)
        return {"bel.profile_flops": 2 * args["n_paths"] * n * n * d}
    if name == "bel._weight_batch":
        b, n1, d = args["jac"].shape
        return {"bel.profile_flops": 2 * b * (n1 - 1) ** 2 * d}
    if name == "fd.runner":
        return {"fd.runner_calls": 1}
    if name.startswith("frac_core."):
        return {"frac_core.calls": 1}
    return {}


class Tracer:
    """Records spans of the calls made while :meth:`installed` is active."""

    def __init__(self, package) -> None:
        self.package = package
        # [name, start, end, parent, raised, call, work]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call = -1

    def wrap(self, fn, name: str):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, False, self.call, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            span[6] = _shape_work(name, signature.bind(*args, **kwargs), out)
            return out

        return wrapper

    def _runner_factory(self, factory, name: str):
        def make(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), "fd.runner")

        return self.wrap(functools.wraps(factory)(make), name)

    def _targets(self):
        """(module, attribute, wrapper) for every boundary."""
        prefix = self.package.__name__ + "."
        for caller in CALLERS:
            module = getattr(self.package, caller)
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or not fn.__module__.startswith(prefix):
                    continue
                layer = fn.__module__[len(prefix):]
                if layer == caller and attr not in SAME_MODULE.get(caller, ()):
                    continue
                name = f"{layer}.{fn.__name__}"
                if fn.__name__ in RUNNER_FACTORIES:
                    yield module, attr, self._runner_factory(fn, name)
                else:
                    yield module, attr, self.wrap(fn, name)

    @contextlib.contextmanager
    def installed(self, call: int):
        """Patch every boundary for one benchmark call, then restore it."""
        self.call = call
        saved = []
        try:
            for module, attr, wrapper in list(self._targets()):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
            yield self.wrap(self.package.cli.run, ROOT)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call_spans(self, call: int) -> dict[int, list]:
        """Spans of one benchmark call, keyed by their index in ``spans``."""
        return {i: s for i, s in enumerate(self.spans) if s[5] == call}


def duration(span: list) -> float:
    return span[2] - span[1]


def root_wall(spans: dict[int, list]) -> float:
    """Duration of the root ``cli.run`` span of one call."""
    return next(duration(s) for s in spans.values() if s[3] == -1)


def layer_metrics(spans: dict[int, list]) -> dict[str, float]:
    """Busy times, self times and computed counts for the spans of one call.

    ``frac_core.busy_s`` counts only outermost frac_core spans, so frac_core
    reached through another frac_core boundary is not counted twice.
    """
    layer = {i: s[0].split(".", 1)[0] for i, s in spans.items()}
    children: dict[int, float] = {}
    for s in spans.values():
        children[s[3]] = children.get(s[3], 0.0) + duration(s)
    out = {m: 0.0 for m in BUSY}
    out.update({f"{name}.self_s": 0.0 for name in LAYERS})
    out["frac_core.busy_s"] = 0.0
    out.update({m: 0 for m in COUNTS})
    weights = {}
    for i, s in spans.items():
        out[f"{layer[i]}.self_s"] += duration(s) - children.get(i, 0.0)
        if layer[i] == "frac_core" and layer.get(s[3]) != "frac_core":
            out["frac_core.busy_s"] += duration(s)
        for metric, name in BUSY.items():
            if s[0] == name:
                out[metric] += duration(s)
        for key, value in (s[6] or {}).items():
            if key == "weights":
                weights[value[0]] = value[1]
            else:
                out[key] += value
    out["fbm.weights_mb"] = sum(weights.values()) / 2**20
    return out
