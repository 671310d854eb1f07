"""Layer tracing injected into one quantrep CLI child process.

Every public function of the traced modules is replaced, in every module
that holds a binding to it, by a wrapper that records a span (name, start,
end, parent, run id). Modules import names directly
(``from .quantile import fit_quantile_model``), so rebinding only the
defining module would miss the calls made through ``quantrep.cli``.

Calls made ~10^5 times per run (the logistic objective and gradient, the
dense-field logits, the inverse transform of the shift search) keep a call
counter and a timer instead of spans. A few wrappers also record computed
counts: sizes derived from argument shapes, not measured memory.

Spans live in memory and are written as one JSON file when the child ends.
Times are CLOCK_MONOTONIC nanoseconds, which the parent process shares.
"""

import inspect
import json
import os
import sys
import time

MODULES = ("cli", "datasets", "linear", "quantile", "ood", "calibration", "shift")

# name -> (module, owner class or None, attribute)
HOT = {
    "linear.logistic_gradient": ("linear", None, "logistic_gradient"),
    "linear.logistic_objective": ("linear", None, "logistic_objective"),
    "quantile.logits": ("quantile", "QuantileTask", "logits"),
    "shift.apply_inverse": ("shift", "Transform", "apply_inverse"),
}


def _rows(x):
    return int(getattr(x, "shape", (len(x),))[0])


def _after_fit(out, args, kwargs, add):
    add("linear.nonconverged", int(not out.converged))
    add("linear.degenerate", int(out.degenerate))


def _after_represent(out, args, kwargs, add):
    add("quantile.represent.bytes", int(out.values.size) * 8)


def _after_lof(out, args, kwargs, add):
    ref = args[0] if args else kwargs["reference"]
    qry = args[1] if len(args) > 1 else kwargs["queries"]
    m, q = _rows(ref), _rows(qry)
    add("ood.lof_scores.dist_bytes", (m * m + q * m) * 8)


def _after_load(out, args, kwargs, add):
    add("datasets.load_dataset.rows", int(out.n))


AFTER = {
    "linear.fit_weighted_logistic": _after_fit,
    "quantile.represent": _after_represent,
    "ood.lof_scores": _after_lof,
    "datasets.load_dataset": _after_load,
}


class Tracer:
    def __init__(self, run_id, parent, prefix):
        self.run_id = run_id
        self.prefix = prefix
        self.spans = []          # [id, name, start_ns, end_ns, parent_id, run_id]
        self.stack = [parent]
        self.counts = {}         # name -> int
        self.timers = {}         # name -> ns

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name, start, end, parent):
        sid = f"{self.prefix}.{len(self.spans)}"
        self.spans.append([sid, name, start, end, parent, self.run_id])
        return sid

    def span_wrapper(self, name, fn):
        after = AFTER.get(name)
        tracer = self

        def wrapped(*args, **kwargs):
            sid = f"{tracer.prefix}.{len(tracer.spans)}"
            record = [sid, name, time.monotonic_ns(), 0, tracer.stack[-1], tracer.run_id]
            tracer.spans.append(record)
            tracer.stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                record[3] = time.monotonic_ns()
            if after is not None:
                after(out, args, kwargs, tracer.add)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def counter_wrapper(self, name, fn):
        counts, timers = self.counts, self.timers
        counts.setdefault(f"{name}.calls", 0)
        timers.setdefault(name, 0)

        def wrapped(*args, **kwargs):
            t0 = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[name] += time.monotonic_ns() - t0
                counts[f"{name}.calls"] += 1

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self):
        """Wrap the public functions of the traced modules and the hot methods."""
        modules = {name: sys.modules[f"quantrep.{name}"] for name in MODULES}
        holders = [m for n, m in sys.modules.items()
                   if n == "quantrep" or n.startswith("quantrep.")]
        hot_functions = {(mod, attr) for mod, owner, attr in HOT.values() if owner is None}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if (short, attr) in hot_functions:
                    wrapped = self.counter_wrapper(f"{short}.{attr}", obj)
                else:
                    label = attr[4:].replace("_", "-") if attr.startswith("cmd_") else attr
                    wrapped = self.span_wrapper(f"{short}.{label}", obj)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, name, wrapped)
        for name, (short, owner, attr) in HOT.items():
            if owner is not None:
                cls = getattr(modules[short], owner)
                setattr(cls, attr, self.counter_wrapper(name, getattr(cls, attr)))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "timers_ns": self.timers}, fh)


def run_traced(start_ns, argv, path):
    """Import the CLI, install the wrappers, run it, and write the trace."""
    tracer = Tracer(os.environ["PERFBENCH_RUN"], os.environ["PERFBENCH_PARENT"],
                    os.environ["PERFBENCH_PARENT"] + "c")
    from quantrep import cli
    imported = time.monotonic_ns()
    tracer.span("cli.import", start_ns, imported, tracer.stack[-1])
    tracer.install()
    tracer.span("trace.install", imported, time.monotonic_ns(), tracer.stack[-1])
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(path)
    return code
