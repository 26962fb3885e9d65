"""Outside-in span recorder for the mnlab benchmark.

The recorder wraps public functions of the ``mnlab`` modules from outside
the program: each wrapped call records a span holding its name, start,
end, parent span, run id and the ``model`` / ``n`` attributes it was
called with.  Spans are kept in memory and written out when the workload
process ends; the program itself is not modified.

Several modules import names directly (``certificate`` does
``from .kl import kl_exact``), so a wrapper replaces the function in every
loaded ``mnlab`` module namespace that holds it, not only in the module
that defines it.  Targets are resolved at run time: a name that a later
refactor removes or renames is reported as absent and does not stop the
benchmark.

This module imports nothing from ``mnlab`` at import time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import threading
import time

# (span name, defining module, function name)
FUNCTION_TARGETS = (
    ("cli.main", "mnlab.cli", "main"),
    ("reporting.write_report", "mnlab.reporting", "write_report"),
    ("certificate.evaluate", "mnlab.certificate", "evaluate"),
    ("certificate.kl_scaling_probe", "mnlab.certificate", "kl_scaling_probe"),
    ("hypotheses.build_family", "mnlab.hypotheses", "build_family"),
    ("hypotheses.holder_check", "mnlab.hypotheses", "holder_check"),
    ("hypotheses.l2_separation", "mnlab.hypotheses", "l2_separation"),
    ("models.cov_differenced", "mnlab.models", "cov_differenced"),
    ("kl.kl_exact", "mnlab.kl", "kl_exact"),
    ("kl.kl_bound", "mnlab.kl", "kl_bound"),
    ("linalg.cholesky_lower", "mnlab.linalg", "cholesky_lower"),
    ("linalg.check_symmetric", "mnlab.linalg", "check_symmetric"),
    ("linalg.loewner_leq", "mnlab.linalg", "loewner_leq"),
    ("linalg.is_psd", "mnlab.linalg", "is_psd"),
    ("structures.sine_transform", "mnlab.structures", "sine_transform"),
    ("structures.eigvals_closed", "mnlab.structures", "eigvals_closed"),
    ("montecarlo.sample_m1_constant_diff", "mnlab.montecarlo",
     "sample_m1_constant_diff"),
    ("montecarlo.mle_const_sigma_m1", "mnlab.montecarlo", "mle_const_sigma_m1"),
)

# (span name, module, base class, method): the method is wrapped on the
# base class and on every loaded subclass that overrides it
METHOD_TARGETS = (
    ("profiles.poly_integral", "mnlab.profiles", "VolatilityProfile",
     "poly_integral"),
)

# spans whose argument matrix is identified by content digest
DIGESTED = frozenset({"linalg.cholesky_lower", "linalg.check_symmetric"})

# spans of the harness itself; their time is not program compute time
HARNESS_PREFIX = "bench."

# the entry point's span covers all program time by construction, so its
# self time is reported but does not count as attributed
ENTRY = "cli.main"

# the least share of compute time the named spans below the entry point
# must cover for the per-layer metrics to be trusted
COVERAGE_MIN = 0.9


class SpanRecorder:
    """Collects spans from wrapped calls; safe to call from several threads."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, run_id, model, n, extra]
        self.run_id = ""
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, model=None, n=None, extra=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if parent >= 0:
            up = self.spans[parent]
            model = up[5] if model is None else model
            n = up[6] if n is None else n
        span = [name, 0.0, 0.0, parent, self.run_id, model, n, extra]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        return index

    def _close(self, index) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name, fn, attrs=None, after=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``attrs(args, kwargs)`` gives the call's ``(model, n)``; missing
        values are inherited from the parent span.  ``after(args, kwargs,
        result)`` returns extra fields stored on the span.
        """
        recorder = self
        digest = name in DIGESTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model, n = attrs(args, kwargs) if attrs else (None, None)
            extra = {"digest": recorder.digest(args[0])} if digest and args else None
            index = recorder._open(name, model, n, extra)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index)
            if after is not None:
                span = recorder.spans[index]
                span[7] = {**(span[7] or {}), **after(args, kwargs, result)}
            return result

        return wrapper

    def digest(self, matrix) -> str | None:
        """SHA-1 of a matrix's shape and bytes, timed as a harness span."""
        index = self._open("bench.digest")
        try:
            shape = getattr(matrix, "shape", None)
            if shape is None:
                return None
            h = hashlib.sha1(repr(tuple(shape)).encode())
            h.update(matrix.data if matrix.flags.c_contiguous else matrix.tobytes())
            return h.hexdigest()
        finally:
            self._close(index)

    def records(self) -> list:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "run_id": s[4], "model": s[5], "n": s[6], "extra": s[7]}
            for s in self.spans
        ]


def _as_int(value):
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def _call_attrs(fn):
    """Attribute getter reading ``model`` and ``n`` from a call's arguments.

    Looks for parameters named ``model``, ``n``, ``spec`` or ``family``
    (objects carrying ``.model`` / ``.n``), and otherwise takes ``n`` from
    the first argument's leading dimension.
    """
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        params = []
    position = {name: i for i, name in enumerate(params)}

    def pick(args, kwargs, name):
        if name in kwargs:
            return kwargs[name]
        i = position.get(name)
        return args[i] if i is not None and i < len(args) else None

    def attrs(args, kwargs):
        model, n = pick(args, kwargs, "model"), pick(args, kwargs, "n")
        holder = pick(args, kwargs, "spec") or pick(args, kwargs, "family")
        if holder is not None:
            model = model if model is not None else getattr(holder, "model", None)
            n = n if n is not None else getattr(holder, "n", None)
        if n is None and args:
            shape = getattr(args[0], "shape", None)
            n = shape[0] if shape else None
        return (model if isinstance(model, str) else None), _as_int(n)

    return attrs


def _argv_attrs(args, kwargs):
    argv = list(kwargs.get("argv", args[0] if args else None) or [])
    model = argv[argv.index("--model") + 1] if "--model" in argv[:-1] else None
    return model, None


def _dense_bytes(args, kwargs, result):
    shape = getattr(result, "shape", ())
    return {"dense_bytes": shape[0] * shape[1] * 8} if len(shape) == 2 else {}


def _report_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    try:
        return {"bytes": os.path.getsize(path)}
    except (TypeError, OSError):
        return {}


_AFTER = {
    "models.cov_differenced": _dense_bytes,
    "reporting.write_report": _report_bytes,
}


def _replace_everywhere(original, wrapper) -> int:
    """Rebind ``original`` to ``wrapper`` in every loaded mnlab module."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "mnlab" or mod_name.startswith("mnlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    return count


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install(recorder: SpanRecorder) -> list:
    """Wrap every target that exists; return the span names found absent."""
    absent = []
    for name, mod_name, attr in FUNCTION_TARGETS:
        try:
            module = importlib.import_module(mod_name)
        except ImportError:
            absent.append(name)
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            absent.append(name)
            continue
        attrs = _argv_attrs if name == "cli.main" else _call_attrs(original)
        _replace_everywhere(original,
                            recorder.wrap(name, original, attrs, _AFTER.get(name)))
    for name, mod_name, base_name, method in METHOD_TARGETS:
        try:
            base = getattr(importlib.import_module(mod_name), base_name)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        wrapped = 0
        for cls in _subclasses(base):
            original = cls.__dict__.get(method)
            if callable(original):
                # attributes are inherited from the calling span
                setattr(cls, method, recorder.wrap(name, original))
                wrapped += 1
        if not wrapped:
            absent.append(name)
    return absent


# ---------------------------------------------------------------------------
# analysis of recorded spans


def self_times(spans: list) -> list:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def harness_seconds(spans: list) -> float:
    """Time spent in the harness's own spans (content digests)."""
    return sum(s["end"] - s["start"] for s in spans
               if s["name"].startswith(HARNESS_PREFIX))


def unattributed_seconds(spans: list, compute_s: float) -> float:
    """Program compute time covered by no named span below the entry point.

    ``compute_s`` is the traced process's time from set-up done to the
    last report written, minus the harness's own spans.  The self time of
    the entry point's span counts as unattributed.
    """
    own = self_times(spans)
    named = sum(t for s, t in zip(spans, own)
                if s["name"] != ENTRY and not s["name"].startswith(HARNESS_PREFIX))
    return compute_s - named
