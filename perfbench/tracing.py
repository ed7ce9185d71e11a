"""Spans and counters recorded from outside the program.

``Tracer.install()`` replaces the public functions of each painleve_hh
module with timing wrappers, under every name that refers to them (the
defining module and each module that imported the name), and wraps the
``Scalar`` arithmetic dunders with counting wrappers.  ``uninstall()`` puts
the originals back.  Spans are ``[name, start, end, parent]`` records kept
in memory and written out by ``dump``.

A span's *own* time is its duration minus its children's.  Own time is
booked to the span that entered the span's layer (the layer is the module
prefix of the name), so ``laurent.build_series`` is charged with the
recurrence steps it runs but not with the energy expansion it calls in
``model``.  The own times of all spans sum to the time spent in the root
spans, which is how the per-layer self times account for ``solve_s``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of each function that gets a span; the span is named
# "<module>.<attribute>".  The CLI entry point is the root span of an op.
SPANNED_FUNCTIONS = (
    ("laurent", "build_series"),
    ("laurent", "enumerate_branches"),
    ("laurent", "branch_residue"),
    ("model", "energy_series"),
    ("model", "residual_of_series"),
    ("model", "state_from_series"),
    ("model", "energy"),
    ("integrate", "integrate_numeric"),
    ("convergence", "certify"),
    ("painleve", "classify"),
    ("painleve", "candidate_C_values"),
    ("linalg", "solve_linear"),
    ("subequation", "fit"),
    ("jsonio", "decode_series"),
    ("jsonio", "encode_certificate"),
    ("jsonio", "encode_fit_result"),
    ("jsonio", "encode_scalar"),
    ("jsonio", "encode_solution"),
    ("jsonio", "encode_state"),
    ("jsonio", "encode_verdict"),
)

# Functions that are only counted: one call per integrator step, and one
# per evaluation of the convergence step bounds.
COUNTED_FUNCTIONS = (
    ("integrate", "_taylor_coefficients", "integrate.steps"),
    ("convergence", "bound_step", "convergence.bound_evals"),
)

SCALAR_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                  "__pow__")


def _mul_macs(a, b) -> int:
    """Coefficient products PuiseuxSeries.__mul__ forms for a * b.

    Computed from the operand lengths and the product's known window, the
    way the product loop bounds them; exact-zero skipping is ignored.
    """
    if type(b) is not type(a) or not a.coeffs or not b.coeffs:
        return 0
    step = min(a.step, b.step)
    caps = []
    if a.max_exp is not None:
        caps.append(a.max_exp + b.lead)
    if b.max_exp is not None:
        caps.append(b.max_exp + a.lead)
    ratio_a, ratio_b = int(a.step / step), int(b.step / step)
    if not caps:
        return len(a.coeffs) * len(b.coeffs)
    nmax = int((min(caps) - a.lead - b.lead) / step)
    macs = 0
    for ia in range(len(a.coeffs)):
        room = nmax - ia * ratio_a
        if room >= 0:
            macs += min(len(b.coeffs), room // ratio_b + 1)
    return macs


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.scalar_tally = [0, 0]       # [exact results, rounded results]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _scalar_counted(self, fn, scalar_cls):
        tally = self.scalar_tally

        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            if type(result) is scalar_cls:
                tally[not result.is_exact] += 1
            return result
        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "painleve_hh" and not name.startswith("painleve_hh."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        import painleve_hh.cli  # noqa: F401  -- loads every module
        from painleve_hh import laurent
        from painleve_hh.scalars import Scalar
        from painleve_hh.series import PuiseuxSeries

        for mod, attr in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[f"painleve_hh.{mod}"], attr)
            self._replace_everywhere(original, self.span(
                f"{mod}.{attr}", original, self._hook(f"{mod}.{attr}")))
        for mod, attr, key in COUNTED_FUNCTIONS:
            module = sys.modules[f"painleve_hh.{mod}"]
            original = getattr(module, attr)
            self._replace_everywhere(original, self._counted(key, original))
        step = laurent._Recurrence.step
        self._set(laurent._Recurrence, "step", self.span("laurent.step", step))
        mul = PuiseuxSeries.__dict__["__mul__"]
        traced_mul = self.span("series.mul", mul, self._count_macs)
        self._set(PuiseuxSeries, "__mul__", traced_mul)
        self._set(PuiseuxSeries, "__rmul__", traced_mul)
        for dunder in SCALAR_DUNDERS:
            self._set(Scalar, dunder,
                      self._scalar_counted(Scalar.__dict__[dunder], Scalar))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _hook(self, name):
        if name == "linalg.solve_linear":
            def cells(args):
                self.counts["linalg.solve_linear.cells"] += \
                    args[0].rows * args[0].cols
            return cells
        return None

    def _count_macs(self, args):
        self.counts["series.mul.macs"] += _mul_macs(*args)

    # -- analysis -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, inclusive time and layer-booked own time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        entry = [0] * len(spans)
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        booked: defaultdict = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            same = parent >= 0 and spans[parent][0].split(".", 1)[0] == layer
            entry[i] = entry[parent] if same else i
            calls[name] += 1
            if parent < 0 or spans[parent][0] != name:
                inclusive[name] += end - start
            booked[spans[entry[i]][0]] += (end - start) - child_time[i]
        return {"calls": dict(calls), "inclusive_s": dict(inclusive),
                "booked_s": dict(booked)}

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
