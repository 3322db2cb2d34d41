"""Layer tracer for one `verify run` child, installed from outside the package.

The tracer wraps the functions that form each layer's boundary (table
``LAYERS``) and rebinds every name that refers to them in every loaded
``sta.*`` module.  That matters because ``from .algebra import gp_batch``
copies the binding into ``fields``, ``geometry``, ``spinors``, ``suites`` and
``dirac``, and ``Product._eval`` finds ``evaluate``/``gp_batch`` through the
module globals of ``fields``: a wrapper set only on ``sta.algebra`` would miss
those calls.

Every call of a wrapped function is counted.  A span (name, start, end,
parent, run id) is recorded only when the call crosses a module boundary,
i.e. the caller's module differs from the callee's; so recursive
``fields.evaluate`` calls and geometry's own internal calls are counted but
not spanned.  Spans are kept in memory and written out by :meth:`dump`.

Node evaluations are observed where they happen, on each ``FieldExpr``
subclass's ``_eval``: an ``evaluate`` call that returns without reaching an
``_eval`` was answered by the memo.

The tracer keeps one span stack, so it assumes the single-threaded CLI path
(the benchmark removes ``VERIFY_THREADS`` from the child's environment).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# layer -> (defining module, attribute paths).  "Class.method" wraps a method.
LAYERS = {
    "algebra.gp_batch": ("sta.algebra", ["gp_batch"]),
    "fields.evaluate": ("sta.fields", ["evaluate", "Field.eval"]),
    "geometry.deriv_build": ("sta.geometry", [
        "directional_derivative", "cov_deriv_clifford", "cov_deriv_left",
        "cov_deriv_right", "effective_deriv", "effective_deriv_via_connection",
        "dirac_operator_left", "change_spin_frame", "transformed_frame_legs",
        "transformed_connection_form",
    ]),
    "geometry.transport": ("sta.geometry", ["parallel_transport"]),
    "geometry.omega_coord_at": ("sta.geometry", ["SpacetimeSetup.omega_coord_at"]),
    "dirac.residual": ("sta.dirac", [
        "residual_representative", "residual_left_form", "residual_complex_ideal",
        "residual_covariant",
    ]),
    "dirac.covariance": ("sta.dirac", [
        "gauge_transform_left_form", "gauge_transform_representative",
        "lorentz_covariance_check",
    ]),
    "dirac.bilinears": ("sta.dirac", ["bilinear_covariants"]),
    "spinors": ("sta.spinors", None),  # None: every public function and method
    "suites": ("sta.suites", ["run_suite"]),
    "scenario.build": ("sta.scenario", ["Scenario.__init__"]),
    "report.write": ("sta.report", ["Report.to_json_text", "Report.human_text"]),
}


def _caller_module() -> str:
    # frame 0: this function, 1: the wrapper, 2: the wrapper's caller
    return sys._getframe(2).f_globals.get("__name__", "")


def _public_callables(mod) -> list[str]:
    """Public functions of a module and public methods of its classes."""
    out = []
    for name, value in vars(mod).items():
        if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(value):
            out.append(name)
        elif inspect.isclass(value):
            out += [f"{name}.{m}" for m, v in vars(value).items()
                    if inspect.isfunction(v) and not m.startswith("_")]
    return out


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (span id, name, start, end, parent, run id)
        self._stack: list[int] = []
        self._evaluating: list[bool] = []
        self._next_id = 0

    # -- spans -----------------------------------------------------------------

    def _open(self) -> int:
        self._next_id += 1
        self._stack.append(self._next_id)
        return self._next_id

    def _close(self, span_id: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else 0
        self.spans.append((span_id, name, start, end, parent, self.run_id))

    def _wrap(self, layer: str, module: str, fn, on_call=None, span_name=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer + ".calls"] += 1
            if on_call is not None:
                on_call(args, kwargs)
            if _caller_module() == module:
                return fn(*args, **kwargs)
            name = span_name(args) if span_name else layer
            span_id = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, name, start)

        return wrapper

    # -- layer-specific wrappers -------------------------------------------------

    def _wrap_gp_batch(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            rows = out.size // out.shape[-1]
            counts["algebra.gp_batch.rows"] += rows
            if out.dtype.kind == "c":
                counts["algebra.gp_batch.complex_rows"] += rows
            counts["algebra.gp_batch.bytes_computed"] += rows * 3 * out.shape[-1] * out.itemsize
            return out

        return self._wrap("algebra.gp_batch", "sta.algebra", counted)

    def _wrap_evaluate(self, fn):
        evaluating = self._evaluating
        counts = self.counts

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            evaluating.append(False)
            try:
                return fn(*args, **kwargs)
            finally:
                if not evaluating.pop():
                    counts["fields.evaluate.memo_hits"] += 1

        return self._wrap("fields.evaluate", "sta.fields", observed)

    def _wrap_node_eval(self, cls, fn):
        evaluating = self._evaluating
        counts = self.counts
        is_product = cls.__name__ == "Product"

        @functools.wraps(fn)
        def node_eval(*args, **kwargs):
            if evaluating:
                evaluating[-1] = True
            counts["fields.evaluate.nodes"] += 1
            if is_product:
                counts["fields.evaluate.product_nodes"] += 1
            return fn(*args, **kwargs)

        return node_eval

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary of the imported ``sta`` package."""
        import sta.cli  # noqa: F401  (loads every module the CLI uses)
        from sta.fields import FieldExpr

        mods = {name: m for name, m in sys.modules.items()
                if name == "sta" or name.startswith("sta.")}

        steps_sig = inspect.signature(mods["sta.geometry"].parallel_transport)

        def transport_steps(args, kwargs):
            # steps integrated: a zero connection returns before stepping
            bound = steps_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if not bound.arguments["setup"].connection.is_zero:
                self.counts["geometry.transport.steps"] += int(bound.arguments["steps"])

        hooks = {"parallel_transport": transport_steps}
        names = {"run_suite": lambda args: f"suites.{args[0]}"}

        for layer, (modname, paths) in LAYERS.items():
            mod = mods[modname]
            if paths is None:
                paths = _public_callables(mod)
            for path in paths:
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(layer, modname, fn))
                    continue
                fn = getattr(mod, path)
                if path == "gp_batch":
                    wrapped = self._wrap_gp_batch(fn)
                elif path == "evaluate":
                    wrapped = self._wrap_evaluate(fn)
                else:
                    wrapped = self._wrap(layer, modname, fn, hooks.get(path), names.get(path))
                for m in mods.values():
                    if vars(m).get(path) is fn:
                        setattr(m, path, wrapped)

        pending = [FieldExpr]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "_eval" in cls.__dict__:
                cls._eval = self._wrap_node_eval(cls, cls.__dict__["_eval"])

    def dump(self, path: str) -> None:
        """Write counts and spans; every span of this file shares one run id."""
        data = {
            "run_id": self.run_id,
            "counts": dict(sorted(self.counts.items())),
            "spans": [[sid, name, start, end, parent]
                      for sid, name, start, end, parent, _ in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
