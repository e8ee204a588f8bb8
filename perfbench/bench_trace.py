"""Outside-in tracer for exploresim.

The tracer wraps public functions of the program's modules from the
benchmark's own files; nothing in ``src/`` knows about it.  Each call
through a wrapper is a span.  Spans are aggregated in memory per
(span name, parent span name): calls, total time and self time, where
self time is the span's duration minus the time its child spans cover.

A wrapper's bookkeeping costs time: part of it runs while its caller's
clock is running and would count as the caller's self time, the rest
inside the span's own duration.  ``install()`` therefore first times
wrapped no-ops, one per kind of wrapper (``sample_span_cost()`` repeats
that between commands), and ``corrected()`` takes both parts, per call,
out of the self time they landed in and out of the total time of every
span above.

``restore()`` puts every original function back; ``installed_wrappers()``
scans the program's modules for any wrapper left behind.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

MARK = "__perfbench_wrapped__"
BENCH_ROOT = "<bench>"

# (module, qualified name, span name).  A span name starts with its layer.
TARGETS = (
    ("exploresim.cli", "main", "cli.main"),
    ("exploresim.cli", "cmd_run", "cli.cmd_run"),
    ("exploresim.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("exploresim.cli", "cmd_report", "cli.cmd_report"),
    ("exploresim.config", "load_config", "config.load_config"),
    ("exploresim.config", "apply_overrides", "config.apply_overrides"),
    ("exploresim.config", "build_arena", "config.build_arena"),
    ("exploresim.config", "build_run_config", "config.build_run_config"),
    ("exploresim.config", "build_sweep_spec", "config.build_sweep_spec"),
    ("exploresim.harness", "run_sweep", "harness.run_sweep"),
    ("exploresim.harness", "_sweep_task", "harness._sweep_task"),
    ("exploresim.harness", "run_single", "harness.run_single"),
    ("exploresim.harness", "aggregate", "harness.aggregate"),
    ("exploresim.harness", "aggregate_detection", "harness.aggregate_detection"),
    ("exploresim.sensing", "TofBank.sample", "sensing.TofBank.sample"),
    ("exploresim.sensing", "objects_in_fov", "sensing.objects_in_fov"),
    ("exploresim.arena", "Arena.raycast", "arena.raycast"),
    ("exploresim.arena", "Arena.disc_blocked", "arena.disc_blocked"),
    ("exploresim.arena", "Arena.in_free_space", "arena.in_free_space"),
    ("exploresim.arena", "load_arena", "arena.load_arena"),
    ("exploresim.arena", "default_arena", "arena.default_arena"),
    ("exploresim.policies", "policy_step", "policies.policy_step"),
    ("exploresim.policies", "initial_state", "policies.initial_state"),
    ("exploresim.vehicle", "step", "vehicle.step"),
    ("exploresim.metrics", "OccupancyGrid.mark", "metrics.OccupancyGrid.mark"),
    ("exploresim.metrics", "dwell_matrix_csv", "metrics.dwell_matrix_csv"),
    ("exploresim.metrics", "dwell_matrix_pgm", "metrics.dwell_matrix_pgm"),
    ("exploresim.metrics", "mission_energy", "metrics.mission_energy"),
    ("exploresim.detection", "attempt_detection", "detection.attempt_detection"),
    ("exploresim.report", "parse_trajectory", "report.parse_trajectory"),
    ("exploresim.report", "coverage_series_csv", "report.coverage_series_csv"),
    ("exploresim.report", "detections_csv", "report.detections_csv"),
    ("exploresim.report", "runs_csv", "report.runs_csv"),
    ("exploresim.report", "aggregate_csv", "report.aggregate_csv"),
    ("exploresim.report", "detection_matrix_csv", "report.detection_matrix_csv"),
)

# Span names whose wrapper does more than the plain one; each kind of
# wrapper gets its own cost estimate.
SPECIAL = ("policies.policy_step", "sensing.TofBank.sample", "detection.attempt_detection")

_COST_CALLS = 5000
_COST_ARGS = ("spiral", [0], None, 0.0, None)   # fits the namer and every special wrapper


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "exploresim" or name.startswith("exploresim."))]


def _kind(label: str) -> str:
    """The wrapper kind of a span name: a name in ``SPECIAL`` or ``""``."""
    return next((k for k in SPECIAL if label.startswith(k)), "")


def _noop(*args):
    return None


def _drive(fn):
    for _ in range(_COST_CALLS):
        fn(*_COST_ARGS)


class Tracer:
    def __init__(self):
        self.stack = [[BENCH_ROOT, 0]]   # open spans: [name, ns covered by children]
        self.stats = {}                  # (name, parent) -> [calls, total_ns, self_ns]
        self.counters = {}
        self.cost_samples = {}           # wrapper kind -> [(ns in caller's self, ns in own span)]
        self.missing = []
        self._patches = []
        self._last_frame = [None]

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, namer=None):
        stack, stats = self.stack, self.stats
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if namer is None else namer(args)
            frame = [label, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                key = (label, parent[0])
                s = stats.get(key)
                if s is None:
                    stats[key] = [1, dur, dur - frame[1]]
                else:
                    s[0] += 1
                    s[1] += dur
                    s[2] += dur - frame[1]
        return wrapper

    def _count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap_tof_sample(self, fn, name):
        inner = self._wrap(fn, name)
        last = self._last_frame

        @functools.wraps(fn)
        def sample(*args, **kwargs):
            frame = inner(*args, **kwargs)
            if frame is not last[0]:  # a new frame object is a sensor refresh
                last[0] = frame
                self._count("tof_refreshes")
            return frame
        return sample

    def _wrap_attempt_detection(self, fn, name):
        inner = self._wrap(fn, name)

        @functools.wraps(fn)
        def attempt(*args, **kwargs):
            visible = args[1] if len(args) > 1 else kwargs.get("visible")
            if visible:
                self._count("frames_with_target")
            return inner(*args, **kwargs)
        return attempt

    def _make(self, fn, name):
        if name == "policies.policy_step":
            return self._wrap(fn, name, namer=lambda a: "policies.policy_step." + a[0])
        if name == "sensing.TofBank.sample":
            return self._wrap_tof_sample(fn, name)
        if name == "detection.attempt_detection":
            return self._wrap_attempt_detection(fn, name)
        return self._wrap(fn, name)

    def snapshot(self):
        return {k: list(v) for k, v in self.stats.items()}, dict(self.counters)

    # -- wrapper cost --------------------------------------------------------

    @staticmethod
    def measure_span_cost(kind: str) -> tuple[float, float]:
        """The time one call through a wrapper of ``kind`` adds, in ns, split
        into the part its caller's self time takes and the part the span's
        own duration takes.

        A wrapped loop calls a wrapped no-op; the same loop over the bare
        no-op is timed alone.  The caller's part is the wrapped loop's self
        time less the bare loop's time, the span's part is the no-op span's
        duration; both per call.
        """
        scratch = Tracer()
        child = scratch._make(_noop, kind or "calibration.child")
        scratch._wrap(_drive, "calibration.parent")(child)
        start = time.perf_counter_ns()
        _drive(_noop)
        bare = time.perf_counter_ns() - start
        caller = own = 0.0
        for (label, _), (_, total, self_ns) in scratch.stats.items():
            if label == "calibration.parent":
                caller = max(0.0, (self_ns - bare) / _COST_CALLS)
            else:
                own = total / _COST_CALLS
        return caller, own

    def sample_span_cost(self):
        """Time every kind of wrapper once more.

        The host's speed drifts, and the wrapper cost with it, so a traced
        run samples the cost between its commands and uses the mean.
        """
        for kind in ("", *SPECIAL):
            self.cost_samples.setdefault(kind, []).append(self.measure_span_cost(kind))

    @property
    def span_cost(self) -> dict:
        """Wrapper kind -> mean (ns in caller's self, ns in own span)."""
        return {kind: tuple(statistics.fmean(part) for part in zip(*samples))
                for kind, samples in self.cost_samples.items()}

    def corrected(self) -> dict:
        """The stats table less the estimated wrapper cost.

        A span's self time loses its own wrapper's share and the caller's
        share of the wrappers of its direct children; its total time loses
        the cost of its own wrapper and of every wrapper below it.  Costs
        below a span name are spread evenly over its calls.
        """
        calls, children = {}, {}
        for (label, parent), (c, _, _) in self.stats.items():
            calls[label] = calls.get(label, 0) + c
            children.setdefault(parent, []).append((label, c))
        span_cost = self.span_cost
        cost = {label: span_cost[_kind(label)] for label in calls}
        below = {}

        def cost_below(label):
            if label not in below:
                below[label] = sum(c * (sum(cost[child]) + cost_below(child) / calls[child])
                                   for child, c in children.get(label, ()))
            return below[label]

        table = {}
        for (label, parent), (c, total, own) in self.stats.items():
            direct = sum(n * cost[child][0] for child, n in children.get(label, ()))
            share = c / calls[label]
            inside = c * cost[label][1]
            table[(label, parent)] = [c, total - cost_below(label) * share - inside,
                                      max(0.0, own - direct * share - inside)]
        return table

    # -- installing ----------------------------------------------------------

    def install(self):
        self.sample_span_cost()
        modules = _program_modules()
        for modname, qualname, name in TARGETS:
            owner = sys.modules.get(modname)
            attr = qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(owner, cls_name, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._make(fn, name)
            setattr(wrapper, MARK, True)
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, fn, wrapper)
                    elif isinstance(value, dict):  # dispatch tables such as cli._COMMANDS
                        for dkey, dval in list(value.items()):
                            if dval is fn:
                                self._patch(value, dkey, fn, wrapper)

    def _patch(self, container, key, original, wrapper):
        if isinstance(container, dict):
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)
        self._patches.append((container, key, original))

    def restore(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()


def installed_wrappers() -> list[str]:
    """Names under exploresim that still hold a tracer wrapper."""
    found = []
    for mod in _program_modules():
        for key, value in list(vars(mod).items()):
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if getattr(v, MARK, False)]
            elif isinstance(value, dict):
                found += [f"{mod.__name__}.{key}[{k!r}]" for k, v in list(value.items())
                          if getattr(v, MARK, False)]
    return found
