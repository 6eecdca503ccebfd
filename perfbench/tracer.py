"""Outside-in layer tracing for spectral_rff.

The tracer wraps public functions of the package from outside: no file
under ``src/`` knows about it. A function imported by name into another
module (``from .features import features_for_mode``) is a separate
module attribute, so it is wrapped at every attribute of every loaded
``spectral_rff`` module that is bound to the same object. A function
that comes from outside the package (``scipy.linalg.solve_triangular``)
is wrapped only at the one attribute named in ``SPANS``; that is the
call site the span is meant to measure.

Spans are kept in memory as plain dicts (id, name, start_ns, end_ns,
parent, run) and written out by the caller when the command ends.
"""

import functools
import os
import sys
import time

# (module, function): the layer boundaries, outermost first.
SPANS = (
    ("cli", "main"),
    ("training", "train"),
    ("training", "lml_gradient"),
    ("training", "solve_triangular"),
    ("training", "adam_step"),
    ("training", "apply_gaussian_dropout"),
    ("measures", "sample_nonstationary"),
    ("model", "predict"),
    ("model", "reduced_core"),
    ("model", "log_marginal_likelihood_reduced"),
    ("model", "load_model"),
    ("model", "save_model"),
    ("features", "features_for_mode"),
    ("linalg", "cholesky"),
    ("linalg", "solve_lower"),
    ("linalg", "solve_upper"),
    ("linalg", "gram"),
    ("data", "read_table"),
    ("data", "write_predictions_csv"),
)

PACKAGE = "spectral_rff"
WRAPPED_MARK = "__perfbench_span__"


def _jitter_retry(args, result):
    """1 when the factorization needed a jitter rung above zero."""
    return int(result[1] > 0.0)


def _solve_gflop(args, result):
    """Triangular solve with a k x k factor and r right-hand sides: k^2 r flops."""
    k = args[0].shape[0]
    rhs = args[1].shape[1] if args[1].ndim == 2 else 1
    return k * k * rhs / 1e9


def _gram_gflop(args, result):
    """phi' phi for phi of shape (n, k), counted as a GEMM: 2 n k^2 flops."""
    n, k = args[0].shape
    return 2.0 * n * k * k / 1e9


def _file_mb(args, result):
    """Size of the file named by the first argument."""
    return os.path.getsize(args[0]) / 1e6


# span name -> (field, unit, function(args, result) giving the field's value)
ANNOTATIONS = {
    "linalg.cholesky": ("jitter_retries", "count", _jitter_retry),
    "linalg.solve_lower": ("gflop", "gflop_computed", _solve_gflop),
    "linalg.solve_upper": ("gflop", "gflop_computed", _solve_gflop),
    "linalg.gram": ("gflop", "gflop_computed", _gram_gflop),
    "data.read_table": ("mb", "MB", _file_mb),
    "data.write_predictions_csv": ("mb", "MB", _file_mb),
}


def package_modules():
    """Every loaded module of the package, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def installed_wrappers():
    """(module, attribute) pairs currently bound to a tracer wrapper."""
    return [(mod.__name__, attr) for mod in package_modules()
            for attr, value in vars(mod).items()
            if getattr(value, WRAPPED_MARK, None) is not None]


class Tracer:
    """Records nested spans around the functions named in ``SPANS``."""

    def __init__(self, run_id, clock=time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        field, _, annotate = ANNOTATIONS.get(name, (None, None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "run": self.run_id, "start_ns": self.clock(), "end_ns": None}
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = self.clock()
                self._stack.pop()
            if annotate is not None:
                span[field] = annotate(args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    def install(self):
        """Wrap every SPANS function at each attribute it is reached through."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for modname, attr in SPANS:
            home = by_name[f"{PACKAGE}.{modname}"]
            original = getattr(home, attr)
            wrapper = self._wrap(f"{modname}.{attr}", original)
            if getattr(original, "__module__", "").startswith(PACKAGE):
                sites = [(mod, name) for mod in modules
                         for name, value in list(vars(mod).items())
                         if value is original]
            else:
                sites = [(home, attr)]
            for mod, name in sites:
                setattr(mod, name, wrapper)
                self._patched.append((mod, name, original))

    def uninstall(self):
        """Put every original function back, last patched first."""
        while self._patched:
            mod, name, original = self._patched.pop()
            setattr(mod, name, original)


def self_times_ns(spans):
    """Span name -> total self time: duration minus what its children cover.

    Children of one span are sequential on a single thread, so the time
    they cover is the sum of their durations.
    """
    child_ns = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["run"], span["parent"])
            child_ns[key] = child_ns.get(key, 0) + span["end_ns"] - span["start_ns"]
    totals = {}
    for span in spans:
        own = span["end_ns"] - span["start_ns"] - child_ns.get((span["run"], span["id"]), 0)
        totals[span["name"]] = totals.get(span["name"], 0) + own
    return totals
