"""In-memory spans around the calls one layer of hyperk makes into another.

The recorder interposes on module-level names as the calling module binds
them (``fracint.gauss_jacobi_rule`` is the rule function as the operator
sees it), so the package itself is untouched.  A name that no longer exists
is reported as absent instead of failing the run.  Spans are kept as
parallel lists until the run ends and summarised once.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter

import numpy as np

# (calling module, bound name, span name)
TARGETS = (
    ("hyperk.fracint", "gauss_jacobi_rule", "quadrature.rule"),
    ("hyperk.fracint", "_series_2f1_vec", "specfun.series_2f1"),
    ("hyperk.fracint", "integrate", "quadrature.integrate"),
    ("hyperk.fracint", "log_gamma", "specfun.gamma"),
    ("hyperk.fracint", "signed_log_gamma", "specfun.gamma"),
    ("hyperk.fracint", "signed_log_rgamma", "specfun.gamma"),
    ("hyperk.inequalities", "apply_operator", "fracint.apply_operator"),
    ("hyperk.inequalities", "operator_of_one", "fracint.operator_of_one"),
    ("hyperk.inequalities", "random_instance", "testfuncs.random_instance"),
)


def path_of(params) -> str:
    """The operator path a parameter set takes, by the rule fracint documents:
    terminating when a = alpha+beta+mu or b = -eta is a non-positive
    integer, nudged when the gap eta-beta-mu is within 1e-6 of an integer,
    split otherwise."""
    def nonpositive_integer(v):
        return v < 0.5 and abs(v - round(v)) < 1e-12

    a = params.alpha + params.beta + params.mu
    if nonpositive_integer(a) or nonpositive_integer(-params.eta):
        return "terminating"
    s = params.eta - params.beta - params.mu
    return "nudged" if abs(s - round(s)) < 1e-6 else "split"


class Recorder:
    """Spans of one process: name, start, end and parent index in parallel
    lists, plus at most one noted value per span."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.extra: dict[int, object] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        """fn with every call recorded as a span named name."""
        rec = self
        note = self._note_for(name, fn)

        def traced(*args, **kwargs):
            i = len(rec.names)
            rec.names.append(name)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.end.append(math.nan)
            rec._stack.append(i)
            rec.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end[i] = perf_counter()
                rec._stack.pop()
            if note is not None:
                rec.extra[i] = note(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _note_for(self, span, fn):
        """note(args, kwargs, result) -> the one value a span keeps, if any."""
        if span == "specfun.series_2f1":
            return lambda args, kwargs, out: int(np.size(out))
        if span == "quadrature.rule":
            info = getattr(fn, "cache_info", None)
            if info is None:
                return lambda args, kwargs, out: True
            state = {"misses": info().misses}

            def missed(args, kwargs, out):
                now = info().misses
                hit = now == state["misses"]
                state["misses"] = now
                return not hit

            return missed
        if span == "fracint.apply_operator":
            return lambda args, kwargs, out: point_of(args, kwargs)
        return None

    def summary(self, checks: int) -> dict:
        """Per-layer metrics of everything recorded so far, name -> (value, unit).

        Timings of layers only the campaign reaches (instance generation,
        the closed form for f = 1, one check per theorem) appear only when
        that layer ran, so no workload reports a time that is always zero.
        """
        n = len(self.names)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(n)
        for i, p in enumerate(self.parent):
            if p >= 0:
                # children of one span run one after another in this
                # single-threaded code, so their durations add up to the
                # part of the parent they cover
                child[p] += dur[i]
        self_time = dur - child
        by_name: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            by_name.setdefault(name, []).append(i)

        def idx(name):
            return by_name.get(name, [])

        def total(name, arr=dur):
            return float(sum(arr[i] for i in idx(name)))

        m = {}
        series = idx("specfun.series_2f1")
        m["specfun.series_2f1.calls"] = (len(series), "count")
        m["specfun.series_2f1.nodes"] = (int(sum(self.extra[i] for i in series)), "count")
        m["specfun.series_2f1.time_s"] = (total("specfun.series_2f1"), "s")
        m["specfun.gamma.calls"] = (len(idx("specfun.gamma")), "count")
        m["specfun.gamma.time_s"] = (total("specfun.gamma"), "s")
        rules = idx("quadrature.rule")
        missed = [i for i in rules if self.extra[i]]
        m["quadrature.rule.calls"] = (len(rules), "count")
        m["quadrature.rule.misses"] = (len(missed), "count")
        m["quadrature.rule.hit_ratio"] = (1.0 - len(missed) / len(rules) if rules else 0.0, "ratio")
        m["quadrature.rule.build_s"] = (float(sum(dur[i] for i in missed)), "s")
        m["quadrature.integrate.calls"] = (len(idx("quadrature.integrate")), "count")
        m["quadrature.integrate.self_s"] = (total("quadrature.integrate", self_time), "s")
        ops = idx("fracint.apply_operator")
        m["fracint.apply_operator.calls"] = (len(ops), "count")
        m["fracint.apply_operator.time_s"] = (total("fracint.apply_operator"), "s")
        m["fracint.apply_operator.self_s"] = (total("fracint.apply_operator", self_time), "s")
        for path in ("split", "terminating", "nudged"):
            m[f"fracint.apply_operator.path.{path}"] = (
                sum(1 for i in ops if self.extra[i][1] == path), "count")
        m["fracint.apply_operator.distinct_points"] = (len({self.extra[i][0] for i in ops}), "count")
        m["fracint.operator_of_one.calls"] = (len(idx("fracint.operator_of_one")), "count")
        m["testfuncs.random_instance.calls"] = (len(idx("testfuncs.random_instance")), "count")
        m["inequalities.images_per_check"] = (len(ops) / checks if checks else 0.0, "images/check")
        if idx("fracint.operator_of_one"):
            m["fracint.operator_of_one.time_s"] = (total("fracint.operator_of_one"), "s")
        if idx("testfuncs.random_instance"):
            m["testfuncs.random_instance.time_s"] = (total("testfuncs.random_instance"), "s")
        for tid in ("3.1", "3.2", "4.1", "4.2", "4.3", "4.4"):
            if idx(f"inequalities.check.{tid}"):
                m[f"inequalities.check.{tid}.ms_p50"] = (
                    float(np.median(dur[idx(f"inequalities.check.{tid}")])) * 1e3, "ms")
        return m


def point_of(args, kwargs):
    """((params, x), path) of one apply_operator(params, f, x, ...) call."""
    params = args[0] if args else kwargs["params"]
    x = args[2] if len(args) > 2 else kwargs["x"]
    return (params, float(x)), path_of(params)
