"""In-memory span tracing of mteq's layers, installed by wrapping bound names.

``solver``, ``sketch`` and ``reduced`` import their collaborators with
``from ... import``, so a wrapper only takes effect where the name is bound
in the calling module: ``mteq.solver.truncate`` rather than
``mteq.lowrank.truncate``. :func:`install` patches every binding the solve
path goes through and returns a function that restores the originals.
Spans stay in memory; the caller writes them out when the run ends.

A span's self time is its duration minus the part of its interval covered
by its children, so the self times of all spans inside one ``solver.solve``
span add up to that span's duration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Layers on the solve path, whose self times are reported per pass.
LAYERS = ("solver", "precond", "sketch", "operator", "lowrank", "reduced")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    solve: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.solve, self.attrs]


class Tracer:
    """Span recorder with a stack of open spans; spans of one solve share an id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._solve: int | None = None
        self._solves = 0
        #: Bindings :func:`install` could not find.
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self._solve))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def begin_solve(self) -> None:
        self._solve = self._solves
        self._solves += 1

    def end_solve(self) -> None:
        self._solve = None


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _wrap(tracer: Tracer, fn, name, after=None, solve=False):
    """Wrap ``fn`` in a span.

    ``name`` is a string or a callable of the call's arguments that returns
    the span name, or ``None`` to record no span for that call. ``after``
    receives the closed span, the arguments and the result, and may rename
    the span or attach counts to ``span.attrs``.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        if label is None:
            return fn(*args, **kwargs)
        if solve:
            tracer.begin_solve()
        index = tracer.open(label)
        try:
            out = fn(*args, **kwargs)
        finally:
            span = tracer.close(index)
            if solve:
                tracer.end_solve()
        if after is not None:
            after(span, args, kwargs, out)
        return out

    return wrapper


class _ModuleProxy:
    """Stands in for a module inside one mteq module, overriding a few names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _qr_flops(span, args, kwargs, out):
    m, n = args[0].shape
    m, n = max(m, n), min(m, n)
    span.attrs["flops"] = 2.0 * m * n * n - 2.0 * n ** 3 / 3.0


def _truncate_widths(span, args, kwargs, out):
    # truncate(m, cfg) -> LowRankMatrix
    span.attrs["in_cols"] = _arg(args, kwargs, 0, "m").left.shape[1]
    span.attrs["out_rank"] = out.rank


def _svd_truncate_widths(span, args, kwargs, out):
    # truncated_svd(left, core, right, cfg) -> (LowRankMatrix, sigma)
    span.attrs["in_cols"] = _arg(args, kwargs, 0, "left").shape[1]
    span.attrs["out_rank"] = out[0].rank


def _stack_cols(span, args, kwargs, out):
    eq, v = _arg(args, kwargs, 0, "eq"), _arg(args, kwargs, 1, "v")
    span.attrs["cols"] = eq.p * v.shape[1]


def _sketch_cols(span, args, kwargs, out):
    m = _arg(args, kwargs, 1, "m")
    span.attrs["cols"] = 1 if getattr(m, "ndim", 2) == 1 else m.shape[1]


def _adi_cols(span, args, kwargs, out):
    # Every column of the ADI output factors came out of one sparse LU solve.
    span.attrs["solve_cols"] = out.left.shape[1] + out.right.shape[1]


def _reduced_path(span, args, kwargs, out):
    info = out[1]
    sys = _arg(args, kwargs, 0, "sys")
    if info["path"] == "pcg":
        span.name = "reduced.solve_pcg"
        span.attrs["pcg_iters"] = info["pcg_iters"]
    else:
        span.name = "reduced.solve_direct"
        span.attrs["kron_dim"] = sys.q_k ** 2
    span.attrs["unconverged"] = int(not info["converged"])
    span.attrs["regularized"] = int(bool(info["regularized"]))


def _sketched(eq, x, s_a=None, *rest, **kwargs):
    # With no row sketch the call is the exact QR+SVD path: record no
    # sketch span, so its children land on the operator and lowrank layers.
    return "sketch.residual_truncate" if s_a is not None else None


#: Wrapped bindings: (owner under the mteq package, attribute, span name or
#: name function, hook). A name imported into several modules is wrapped in
#: each module that calls it.
_TARGETS = (
    ("", "solve", "solver.solve", None),
    ("solver", "solve", "solver.solve", None),
    ("", "build_convdiff", "problems.build_convdiff", None),
    ("problems", "build_convdiff", "problems.build_convdiff", None),
    ("solver", "build_preconditioner", "precond.setup", None),
    ("precond.TwoTermAdiPreconditioner", "apply", "precond.apply", _adi_cols),
    ("solver", "sketched_residual_truncate", _sketched, None),
    ("sketch.SketchOperator", "apply", "sketch.apply", _sketch_cols),
    ("sketch", "residual_factored", "operator.residual_factored", None),
    ("solver", "residual_factored", "operator.residual_factored", None),
    ("operator", "left_stack", "operator.stack", _stack_cols),
    ("operator", "right_stack", "operator.stack", _stack_cols),
    ("reduced", "left_stack", "operator.stack", _stack_cols),
    ("reduced", "right_stack", "operator.stack", _stack_cols),
    ("reduced", "apply_L", "operator.apply_L", None),
    ("solver", "truncate", "lowrank.truncate", _truncate_widths),
    ("sketch", "truncated_svd", "lowrank.truncate", _svd_truncate_widths),
    ("solver", "factored_sum", "lowrank.factored_sum", None),
    ("solver", "build_reduced", "reduced.build", None),
    ("solver", "alpha_rhs", "reduced.rhs", None),
    ("solver", "beta_rhs", "reduced.rhs", None),
    ("solver", "solve_reduced", "reduced.solve", _reduced_path),
)


def _resolve(root, path: str):
    for part in filter(None, path.split(".")):
        root = getattr(root, part, None)
    return root


def install(tracer: Tracer, mteq) -> callable:
    """Wrap every layer entry point on the solve path; return the undo function.

    A binding that no longer exists is skipped and listed in
    ``tracer.missing``, so a renamed entry point reads as a zero layer
    metric instead of stopping the run.
    """
    import numpy as np
    import scipy.linalg as sla

    def w(fn, name, after=None):
        return _wrap(tracer, fn, name, after, solve=name == "solver.solve")

    # QR, SVD and the condition check are library calls made from inside
    # mteq modules: a stand-in for the library module wraps them there only.
    sla_proxy = _ModuleProxy(sla, qr=w(sla.qr, "lowrank.tall_qr", _qr_flops),
                             svd=w(sla.svd, "lowrank.core_svd"))
    np_proxy = _ModuleProxy(
        np, linalg=_ModuleProxy(np.linalg, cond=w(np.linalg.cond, "sketch.cond_check")))
    wanted = [(owner, attr, lambda fn, n=name, a=after: w(fn, n, a))
              for owner, attr, name, after in _TARGETS]
    wanted += [("lowrank", "sla", lambda _: sla_proxy), ("sketch", "sla", lambda _: sla_proxy),
               ("sketch", "np", lambda _: np_proxy)]

    saved = []
    for owner_path, attr, make in wanted:
        owner = _resolve(mteq, owner_path)
        original = getattr(owner, attr, None)
        if original is None:
            tracer.missing.append(f"mteq.{owner_path}.{attr}".replace("..", "."))
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


#: Metrics that sum the full duration of every span with the given name.
_INCLUSIVE = {
    "precond.setup.s": "precond.setup",
    "precond.apply.s": "precond.apply",
    "sketch.apply.s": "sketch.apply",
    "sketch.cond_check.s": "sketch.cond_check",
    "operator.residual_factored.s": "operator.residual_factored",
    "operator.stack.s": "operator.stack",
    "operator.apply_L.s": "operator.apply_L",
    "lowrank.factored_sum.s": "lowrank.factored_sum",
    "lowrank.tall_qr.s": "lowrank.tall_qr",
    "lowrank.core_svd.s": "lowrank.core_svd",
    "reduced.build.s": "reduced.build",
    "reduced.rhs.s": "reduced.rhs",
    "reduced.solve_direct.s": "reduced.solve_direct",
    "reduced.solve_pcg.s": "reduced.solve_pcg",
}
#: Metrics that sum span self time.
_SELF = {
    "solver.solve.self_s": "solver.solve",
    "sketch.residual_truncate.self_s": "sketch.residual_truncate",
    "lowrank.truncate.self_s": "lowrank.truncate",
}
#: Metrics that count spans.
_CALLS = {
    "precond.apply.calls": "precond.apply",
    "sketch.residual_truncate.calls": "sketch.residual_truncate",
    "lowrank.truncate.calls": "lowrank.truncate",
    "lowrank.tall_qr.calls": "lowrank.tall_qr",
    "reduced.solve_direct.calls": "reduced.solve_direct",
    "reduced.solve_pcg.calls": "reduced.solve_pcg",
}
#: Metrics that sum a count attached to spans: (span name, attribute).
_ATTRS = {
    "precond.apply.solve_cols": ("precond.apply", "solve_cols"),
    "sketch.apply.cols": ("sketch.apply", "cols"),
    "operator.stack.cols": ("operator.stack", "cols"),
    "lowrank.truncate.in_cols": ("lowrank.truncate", "in_cols"),
    "lowrank.tall_qr.flops": ("lowrank.tall_qr", "flops"),
    "reduced.pcg_iters": ("reduced.solve_pcg", "pcg_iters"),
    "reduced.pcg_unconverged": ("reduced.solve_pcg", "unconverged"),
}

#: Per-layer metrics that are times, and so depend on the BLAS thread count.
TIME_METRICS = tuple(_INCLUSIVE) + tuple(_SELF) + tuple(
    f"layer.{layer}.self_s" for layer in LAYERS)


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of a list of spans (one traced pass, or the set-up)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def attr_sum(name, attr):
        return float(sum(spans[i].attrs.get(attr, 0) for i in by_name[name]))

    out = {k: sum(spans[i].duration for i in by_name[n]) for k, n in _INCLUSIVE.items()}
    out |= {k: sum(selfs[i] for i in by_name[n]) for k, n in _SELF.items()}
    out |= {k: float(len(by_name[n])) for k, n in _CALLS.items()}
    out |= {k: attr_sum(*v) for k, v in _ATTRS.items()}
    out["problems.build_convdiff.s"] = sum(
        spans[i].duration for i in by_name["problems.build_convdiff"])
    in_cols = out["lowrank.truncate.in_cols"]
    out["lowrank.truncate.keep_ratio"] = (
        attr_sum("lowrank.truncate", "out_rank") / in_cols if in_cols else 0.0)
    out["reduced.kron_dim_max"] = float(max(
        (spans[i].attrs["kron_dim"] for i in by_name["reduced.solve_direct"]), default=0))
    out["reduced.regularized"] = (attr_sum("reduced.solve_direct", "regularized")
                                  + attr_sum("reduced.solve_pcg", "regularized"))
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            t for span, t in zip(spans, selfs) if span.name.split(".", 1)[0] == layer)
    return out

