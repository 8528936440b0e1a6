"""In-memory span recorder and the wrappers that attach it to cptq's layers.

Spans are recorded from outside the library: for each traced op the
benchmark replaces module functions and class methods with timing wrappers
and puts the originals back afterwards.  A module function is also replaced
wherever another cptq module bound it by name (``from .market import
budget``), so every call is traced whichever module makes it.  Every span
stores its parent, so a layer's self time is its duration minus the time its
child spans cover.

Two guards keep a refactor from silently turning a layer's numbers into
zeros: a wrapped name that no longer exists raises ``TraceError`` at install
time, and ``check_predictions`` raises it when a layer that the workload is
known to load recorded nothing.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from types import ModuleType

import numpy as np


class TraceError(RuntimeError):
    """The layer map no longer matches the library."""


class Tracer:
    """Span store: parent index, name code, start and end, one row per span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._codes = {}
        self.parent = array("i")
        self.code = array("h")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = {}
        self.maxima = {}
        self.failure = None

    def name_code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def open(self, code):
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.code.append(code)
        self.end.append(0.0)
        self.start.append(self.clock())
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self.stack.pop()

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def note_max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(self.name_code(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name, hook=None):
        """``fn`` recorded as a span ``name``.

        ``hook(tracer, args, kwargs, result)`` records counters from the
        call's arguments and result.
        """
        code = self.name_code(name)

        def traced(*args, **kwargs):
            idx = self.open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except Exception as exc:
                    self.failure = TraceError(f"counter of {name} failed: {exc!r}")
                    raise self.failure from exc
            return result

        traced.__wrapped__ = fn
        return traced

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.code, dtype=np.int16).astype(np.int64),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float))

    def durations(self):
        _, _, start, end = self.arrays()
        return end - start

    def self_times(self):
        """Duration of each span minus the summed durations of its children."""
        parent, _, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        return dur - covered

    def in_group(self, names):
        _, code, _, _ = self.arrays()
        codes = [self._codes[n] for n in names if n in self._codes]
        return np.isin(code, codes)

    def busy(self, names):
        """(spans, seconds covered) of the spans named in ``names``.

        Spans nested inside another span of the same group are counted but
        their time is not added twice.
        """
        parent, _, _, _ = self.arrays()
        member = self.in_group(names)
        nested = np.zeros(member.size, dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            nested[live] |= member[anc[live]]
            anc[live] = parent[anc[live]]
        outer = member & ~nested
        return int(np.count_nonzero(member)), float(np.sum(self.durations()[outer]))

    def self_time(self, names):
        return float(np.sum(self.self_times()[self.in_group(names)]))

    def save(self, path):
        parent, code, start, end = self.arrays()
        np.savez(path, parent=parent, code=code, start=start, end=end,
                 names=np.array(self.names))


# ---------------------------------------------------------------------------
# the layer map: (owner, attribute, span name, counter hook)


def _count_grid_points(tr, args, kwargs, result):
    tr.add("quad.points", np.size(result))


def _count_unconverged(tr, args, kwargs, result):
    _, converged = result
    tr.add("quad.unconverged", 0.0 if converged else 1.0)


def _count_tail_points(tr, args, kwargs, result):
    eps = args[1] if len(args) > 1 else kwargs["eps"]
    tr.add("market.tail.points", np.size(eps))


def _count_solver(tr, args, kwargs, result):
    _, diag = result
    tr.add("optimizer.proposals", diag.iterates)
    tr.add("optimizer.accepted", len(diag.neg_moment_trace) - diag.restarts)


def _cost_residual(tr, args, kwargs, result):
    # build_element(n, kernel, u_plus, u_minus, w_plus, w_minus, x0, ...)
    x0 = kwargs["x0"] if "x0" in kwargs else args[6]
    tr.note_max("constructions.cost_residual", abs(result.cost - x0))


def layer_map(lib):
    """Every wrapped call site; ``lib`` holds the imported cptq modules.

    ``market.assumptions`` and ``constructions.demo`` have no metric of their
    own; they keep library time out of ``cli.self_s``.
    """
    m = lib.market
    kernels = (m.LognormalKernel, m.TableKernel, m.DiscreteKernel)
    return [
        (lib.cli, "main", "cli.main", None),
        (lib.cli, "load_config", "cli.config", None),
        (lib.quad, "unit_integral", "quad.integral", _count_unconverged),
        (lib.quad, "stieltjes_integral", "quad.integral", None),
        (lib.quad, "cell_midpoints", "quad.grid", _count_grid_points),
    ] + [(k, "moment", "market.moment", None) for k in kernels] + [
        (k, "tail_expectation", "market.tail", _count_tail_points) for k in kernels
    ] + [
        (m, "budget", "market.budget", None),
        (m, "hardy_littlewood_check", "market.budget", None),
        (m, "check_assumptions", "market.assumptions", None),
        (lib.functions, "_eval", "functions.eval", None),
        (lib.choquet, "cpt_value", "choquet.value", None),
        (lib.choquet, "choquet_positive", "choquet.value", None),
        (lib.attainability, "liminf_condition", "attainability", None),
        (lib.attainability, "check_delta_threshold", "attainability", None),
        (lib.attainability, "check_growth_condition", "attainability", None),
        (lib.attainability, "asymptotic_elasticity", "attainability", None),
        (lib.constructions, "demonstrate_nonattainability", "constructions.demo", None),
        (lib.constructions, "find_level", "constructions.find_level", None),
        (lib.constructions, "build_element", "constructions.build_element", _cost_residual),
        (lib.optimizer, "solve", "optimizer.solve", _count_solver),
        (lib.optimizer._Grid, "__init__", "optimizer.grid_build", None),
        (lib.optimizer._Grid, "value", "optimizer.grid_value", None),
    ]


class Installation:
    """Wrappers installed on the library; ``remove`` restores the originals.

    ``aliases`` lists the by-name bindings (``module.name``) that were
    wrapped along with the defining module's attribute.
    """

    def __init__(self, tracer, lib):
        self.saved = []
        self.aliases = []
        try:
            sites = layer_map(lib)
        except AttributeError as exc:
            raise TraceError(f"layer map out of date: {exc}") from exc
        modules = [m for m in vars(lib).values() if isinstance(m, ModuleType)]
        try:
            for owner, attr, name, hook in sites:
                if not hasattr(owner, attr):
                    raise TraceError(f"{getattr(owner, '__name__', owner)}.{attr} no longer exists")
                original = getattr(owner, attr)
                wrapped = tracer.wrap(original, name, hook)
                self._replace(owner, attr, wrapped)
                if isinstance(owner, ModuleType):
                    self._replace_aliases(modules, original, wrapped)
            commands = lib.cli.COMMANDS
            for key, fn in list(commands.items()):
                self.saved.append((commands, key, fn, True))
                commands[key] = tracer.wrap(fn, "cli.command")
        except BaseException:
            self.remove()
            raise

    def _replace_aliases(self, modules, original, wrapped):
        for module in modules:
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, alias, wrapped)
                    self.aliases.append(f"{module.__name__}.{alias}")

    def _replace(self, owner, attr, new):
        own = attr in vars(owner)
        self.saved.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, new)

    def remove(self):
        for owner, attr, original, own in reversed(self.saved):
            if isinstance(owner, dict):
                owner[attr] = original
            elif own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.saved = []


def layer_metrics(tr, n_ops):
    """Per-op layer metrics from a finished traced phase of ``n_ops`` ops."""
    per_op = 1.0 / max(n_ops, 1)
    out = {}

    def busy(prefix, names):
        calls, seconds = tr.busy(names)
        out[f"{prefix}.calls"] = calls * per_op
        out[f"{prefix}.busy_s"] = seconds * per_op

    busy("quad", ["quad.integral"])
    out["quad.points"] = tr.counts.get("quad.points", 0.0) * per_op
    out["quad.unconverged"] = tr.counts.get("quad.unconverged", 0.0) * per_op
    busy("market.moment", ["market.moment"])
    busy("market.tail", ["market.tail"])
    out["market.tail.points"] = tr.counts.get("market.tail.points", 0.0) * per_op
    busy("market.budget", ["market.budget"])
    busy("functions.eval", ["functions.eval"])
    busy("choquet.value", ["choquet.value"])
    busy("attainability", ["attainability"])
    busy("constructions.find_level", ["constructions.find_level"])
    out["constructions.build_element.busy_s"] = tr.busy(["constructions.build_element"])[1] * per_op
    out["constructions.cost_residual.max"] = tr.maxima.get("constructions.cost_residual", 0.0)
    out["optimizer.solve.busy_s"] = tr.busy(["optimizer.solve"])[1] * per_op
    out["optimizer.solve.self_s"] = tr.self_time(["optimizer.solve"]) * per_op
    out["optimizer.grid_build.busy_s"] = tr.busy(["optimizer.grid_build"])[1] * per_op
    out["optimizer.grid_value.busy_s"] = tr.busy(["optimizer.grid_value"])[1] * per_op
    proposals = tr.counts.get("optimizer.proposals", 0.0)
    out["optimizer.proposals"] = proposals * per_op
    out["optimizer.accept_ratio"] = (
        tr.counts.get("optimizer.accepted", 0.0) / proposals if proposals else 0.0
    )
    out["cli.config_s"] = tr.busy(["cli.config"])[1] * per_op
    out["cli.self_s"] = tr.self_time(["cli.main", "cli.command"]) * per_op
    return out


# Layers each workload is known to load (README.md, per-layer metrics): a
# zero here means the layer map no longer reaches the code that does the work.
PREDICTED_NONZERO = {
    "attain": ("quad.calls", "quad.points", "market.moment.calls", "attainability.calls",
               "constructions.find_level.calls", "cli.config_s"),
    "optimize": ("optimizer.proposals", "optimizer.grid_build.busy_s",
                 "optimizer.grid_value.busy_s", "functions.eval.calls", "market.tail.calls",
                 "cli.config_s"),
    "price": ("market.tail.calls", "market.tail.points", "market.budget.calls",
              "choquet.value.calls", "functions.eval.calls", "cli.config_s"),
}


def check_predictions(workload, metrics):
    """Raise ``TraceError`` if a layer predicted to load ``workload`` recorded nothing."""
    silent = [name for name in PREDICTED_NONZERO[workload] if not metrics[name] > 0.0]
    if silent:
        raise TraceError(f"{workload}: no spans recorded for {', '.join(silent)}; "
                         "the layer map no longer reaches these layers")
