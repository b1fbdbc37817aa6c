"""Spans around calls into parcap's public functions, recorded from outside.

`Tracer.install()` replaces each traced function at the module-level names
through which parcap calls it, and `uninstall()` puts the originals back.
Every call records a span: name, parent span, start, end and counts.  Counts
are computed after the span closes; the time that takes is charged to the
tracer, not to the parent's self time.

`from .capacity import capacity` in `parcap/__init__.py` rebinds the package
attribute `parcap.capacity` to the function, so the module is reached
through `sys.modules`.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

_CAP = "parcap.capacity"

# (module holding the function, attribute, span name, scope).  Scope
# "module" rebinds only that module's name: kernel_ratio_matrix is also the
# scalar kernel of averaging fixtures, which belongs to the field, not to the
# LP.  Scope "parcap" rebinds every parcap module's name for the function.
TARGETS = (
    (_CAP, "discretize", "discretize", "module"),
    (_CAP, "build_collocation", "collocation", "module"),
    (_CAP, "kernel_ratio_matrix", "kernel_matrix", "module"),
    (_CAP, "linprog", "lp", "module"),
    (_CAP, "potential_batch", "probe", "parcap"),
    (_CAP, "capacity", "capacity", "parcap"),
    (_CAP, "capacity_of_region", "capacity_of_region", "parcap"),
    ("parcap.hbrownian", "simulate", "simulate", "parcap"),
    ("parcap.hbrownian", "step_normals", "normals", "parcap"),
    ("parcap.hbrownian", "cluster_probability", "cluster", "parcap"),
    ("parcap.averaging", "mean_value", "mean_value", "parcap"),
    ("parcap.averaging", "harnack_check", "harnack", "parcap"),
    ("parcap.reporting", "dump_json", "report", "parcap"),
    ("parcap.reporting", "dump_csv", "report", "parcap"),
)


def _lp_counts(args, kwargs, res):
    a = kwargs["A_ub"]
    x = np.asarray(res.x) if res.x is not None else np.zeros(a.shape[1])
    top = float(np.max(x)) if x.size else 0.0
    return {
        "iterations": int(res.nit),
        "nnz": int(np.count_nonzero(a)),
        "cols": int(a.shape[1]),
        "support": int(np.sum(x > 1e-12 * top)) if top > 0.0 else 0,
        "retry": int(kwargs.get("method") == "highs-ipm"),
    }


def _probe_counts(args, kwargs, out):
    mu = args[0]
    return {
        "points": int(out.shape[0]),
        "atoms": len(mu),
        "with_mass": int(np.sum(mu.masses > 0.0)),
    }


def _simulate_counts(args, kwargs, ens):
    n_paths, k, dim = ens.paths.shape
    return {"path_steps": n_paths * (k - 1), "paths_bytes": ens.paths.nbytes}


def _cluster_counts(args, kwargs, est):
    ens = args[0]
    n_paths, k, _ = ens.paths.shape
    # the path array, the flattened time copy and the hit mask, all (n_paths, K)
    return {"paths_bytes": ens.paths.nbytes + n_paths * k * 8 + n_paths * k}


COUNTERS = {
    "discretize": lambda a, kw, out: {"nodes": len(out), "candidates": int(out.n_candidates)},
    "collocation": lambda a, kw, out: {"rows": len(out)},
    "kernel_matrix": lambda a, kw, out: {"entries": int(out.shape[0] * out.shape[1])},
    "lp": _lp_counts,
    "probe": _probe_counts,
    "simulate": _simulate_counts,
    "cluster": _cluster_counts,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts", "excluded")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None
        self.excluded = 0.0  # counting time of direct children, not the parent's work

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.field_calls = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, counter=None, field_arg=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if field_arg is not None:
                args = self._count_field(args, field_arg)
            parent = self.stack[-1] if self.stack else -1
            span = Span(name, parent)
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
                if parent >= 0:
                    self.spans[parent].excluded += time.perf_counter() - span.end
            return out

        return traced

    def _count_field(self, args, index):
        u = args[index]

        def counted(x, t):
            self.field_calls += 1
            return u(x, t)

        return args[:index] + (counted,) + args[index + 1 :]

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.field_calls = 0

    # -- installation -----------------------------------------------------

    def _rebind(self, module, attr, new):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self):
        mods = [m for n, m in sys.modules.items() if n == "parcap" or n.startswith("parcap.")]
        for modname, attr, name, scope in TARGETS:
            home = sys.modules[modname]
            original = getattr(home, attr)
            field_arg = 0 if name in ("mean_value", "harnack") else None
            wrapped = self._wrap(name, original, COUNTERS.get(name), field_arg)
            holders = [home] if scope == "module" else mods
            for mod in holders:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._rebind(mod, key, wrapped)
        for cls in _region_classes(sys.modules["parcap.regions"].Region):
            if "contains" in vars(cls):
                self._rebind(cls, "contains", self._wrap("contains", vars(cls)["contains"],
                                                          _contains_counts))

    def uninstall(self):
        while self._undo:
            target, attr, old = self._undo.pop()
            setattr(target, attr, old)

    # -- aggregation ------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        by_name: dict[str, list[Span]] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        def total(name, keep=lambda s: True):
            return sum(s.duration for s in by_name.get(name, ()) if keep(s))

        def count(name, key, keep=lambda s: True):
            return sum(s.counts[key] for s in by_name.get(name, ()) if keep(s))

        def parent_is(*names):
            return lambda s: s.parent >= 0 and spans[s.parent].name in names

        def ratio(a, b):
            return a / b if b else 0.0

        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        certify = sum(
            s.duration - child_time[i] - s.excluded
            for i, s in enumerate(spans) if s.name == "capacity"
        )
        top = [s for s in spans if s.parent < 0]
        not_nested = lambda s: not parent_is("contains")(s)
        lp_cols = count("lp", "cols")
        atoms = count("probe", "atoms")
        regions = len(by_name.get("capacity_of_region", ()))
        levels = len([s for s in by_name.get("capacity", ()) if parent_is("capacity_of_region")(s)])
        paths_bytes = max(
            [s.counts["paths_bytes"] for n in ("simulate", "cluster") for s in by_name.get(n, ())],
            default=0,
        )
        return {
            "discretize.s": total("discretize"),
            "discretize.nodes": count("discretize", "nodes"),
            "discretize.keep_ratio": ratio(count("discretize", "nodes"),
                                           count("discretize", "candidates")),
            "collocation.s": total("collocation"),
            "collocation.rows": count("collocation", "rows"),
            "kernel_matrix.s": total("kernel_matrix", parent_is("capacity")),
            "kernel_matrix.entries": count("kernel_matrix", "entries", parent_is("capacity")),
            "lp.s": total("lp"),
            "lp.calls": len(by_name.get("lp", ())),
            "lp.iterations": count("lp", "iterations"),
            "lp.retries": count("lp", "retry"),
            "lp.nnz": count("lp", "nnz"),
            "lp.support_ratio": ratio(count("lp", "support"), lp_cols),
            "probe.s": total("probe"),
            "probe.points": count("probe", "points"),
            "probe.support_ratio": ratio(count("probe", "with_mass"), atoms),
            "certify.s": certify,
            "refine.levels": ratio(levels, regions),
            "simulate.s": total("simulate"),
            "simulate.path_steps": count("simulate", "path_steps"),
            "normals.s": total("normals"),
            "cluster.s": total("cluster"),
            "paths.mb_computed": paths_bytes / 2**20,
            "contains.s": total("contains", not_nested),
            "contains.points": count("contains", "points", not_nested),
            "mean_value.s": total("mean_value"),
            "harnack.s": total("harnack"),
            "field.calls": self.field_calls,
            "report.s": total("report"),
            "trace.coverage": ratio(sum(s.duration for s in top), wall_s),
        }


def _contains_counts(args, kwargs, out):
    return {"points": int(np.shape(out)[0])}


def _region_classes(base):
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen
