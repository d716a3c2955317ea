"""Outside tracer: per-layer counts and times, taken by wrapping the package's
functions from the benchmark's own code.  No file of the package changes.

A wrapped function is replaced in *every* ``tduality.*`` module namespace and
in the other modules named at install time, because modules import names
directly (``from .scalar import diff``): patching only the defining module
would miss its callers.  Class methods are replaced on the class.  Everything
is restored on exit.

Aggregates are kept per group in memory, never one record per call: calls,
inclusive seconds (outermost calls of the group only, so recursion and nested
calls are not counted twice), self seconds (inclusive minus the time spent in
any other wrapped call), and calls that raised.
"""
from __future__ import annotations

import cProfile
import functools
import inspect
import pstats
import sys
import time
from collections import defaultdict

import numpy as np

from tduality import (bundle, courant, duality, exterior, randomgen, reduction,
                      scalar, structures)


class Group:
    __slots__ = ("calls", "incl_s", "self_s", "errors", "depth")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.depth = 0


# numpy.linalg entry points; the package calls them as ``np.linalg.<name>``.
LINALG = ("det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
          "matrix_rank", "norm", "pinv", "qr", "solve", "svd")

SCALAR_CONSTRUCT = ("rat", "const", "var", "as_scalar", "sadd", "ssub", "sneg",
                    "smul", "sdiv", "spow", "ssin", "scos", "sexp", "slog",
                    "ssqrt", "solve_linear_symbolic", "sym_det",
                    "sym_matrix_inverse")
CSCALAR_CONSTRUCT = ("of", "conj", "__add__", "__radd__", "__sub__", "__neg__",
                     "__mul__", "__rmul__", "__truediv__")
EXTERIOR = ("wedge", "contract", "exp_form", "fiber_integrate", "mukai_pairing")


def _public_functions(module):
    return [f for name, f in vars(module).items()
            if inspect.isfunction(f) and f.__module__ == module.__name__
            and not name.startswith("_")]


class Tracer:
    """Install with ``with Tracer(extra_modules) as tr:``; read ``tr.groups``."""

    def __init__(self, extra_modules=()):
        self.groups = defaultdict(Group)
        self.nodes_built = 0
        self.dualized = set()          # (id(pair), form key) seen in this trace
        self.dualize_repeats = 0
        self.coframes = set()          # coframes a PointFrame was built for
        self.pointframe_repeats = 0
        self.spinor_attempts = 0       # PureSpinor.from_data inside random_pure_spinor
        self._pairs = {}               # keeps ids in ``dualized`` from being reused
        self._stack = [0.0]            # time spent in wrapped callees, per open call
        self._extra = tuple(extra_modules)
        self._undo = []

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, fn, group, before=None):
        g = self.groups[group]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            g.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                g.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack[-2] += dt
                g.self_s += dt - stack.pop()
                g.calls += 1
                g.depth -= 1
                if not g.depth:
                    g.incl_s += dt
        return traced

    def _before_dualize(self, args):
        rho, pair = args[0], args[1]
        self._pairs[id(pair)] = pair
        key = (id(pair), rho.coframe, tuple(sorted(rho.coeffs.items())))
        if key in self.dualized:
            self.dualize_repeats += 1
        else:
            self.dualized.add(key)

    def _before_pointframe(self, args):
        cof = getattr(args[1], "coframe", args[1])
        if cof in self.coframes:
            self.pointframe_repeats += 1
        else:
            self.coframes.add(cof)

    def _before_from_data(self, args):
        if self.groups["randomgen.random_pure_spinor"].depth:
            self.spinor_attempts += 1

    def _targets(self):
        """(owner, attribute, group, before) for every wrapped function."""
        out = [(scalar, n, "scalar.construct", None) for n in SCALAR_CONSTRUCT]
        out += [(scalar.CScalar, n, "scalar.construct", None) for n in CSCALAR_CONSTRUCT]
        out += [(scalar, "diff", "scalar.diff", None),
                (scalar, "evaluate", "scalar.evaluate", None),
                (scalar.CScalar, "evaluate", "scalar.evaluate", None)]
        out += [(cls, n, "scalar.evaluate.arrays", None) for cls, n in (
            (exterior.Form, "eval_coeffs"), (exterior.Form, "eval_vector"),
            (exterior.FrameVector, "eval_vector"), (courant.Section, "eval_vector"),
            (structures.SymTensor, "eval_matrix"))]
        out += [(exterior, n, "exterior", None) for n in EXTERIOR]
        out += [(exterior.Form, "map_to", "exterior", None),
                (bundle, "twisted_derivative", "bundle.d_H", None),
                (courant, "courant_bracket", "courant.bracket", None),
                (duality, "dualize_form", "duality.dualize_form", self._before_dualize),
                (duality, "dualize_section", "duality.dualize_section", None),
                (duality, "transform_matrix_at", "duality.transform_matrix_at", None)]
        out += [(structures, f.__name__, "structures", None)
                for f in _public_functions(structures)]
        out += [(structures.PointFrame, n, "structures", None) for n in (
            "section_action", "spinor_action_matrix", "nullspace", "orthonormal_span")]
        out += [(structures.PointFrame, "__init__", "structures.pointframe",
                 self._before_pointframe),
                (structures.PureSpinor, "from_data", "structures", self._before_from_data)]
        out += [(reduction, f.__name__, "reduction", None)
                for f in _public_functions(reduction)]
        out += [(randomgen, f.__name__, "randomgen", None)
                for f in _public_functions(randomgen)
                if f is not randomgen.random_pure_spinor]
        out += [(randomgen, "random_pure_spinor", "randomgen.random_pure_spinor", None)]
        out += [(np.linalg, n, "linalg", None) for n in LINALG]
        return out

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "tduality" or name.startswith("tduality.")]
        modules += self._extra
        replace = {}
        for owner, attr, group, before in self._targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, group, before))
            else:
                new = self._wrap(raw, group, before)
            self._patch(owner, attr, new)
            if inspect.ismodule(owner) and owner is not np.linalg:
                replace[id(raw)] = (raw, new)
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, hit[1])
        init = scalar.Scalar.__init__

        def counted_init(node, *args, **kwargs):
            self.nodes_built += 1
            init(node, *args, **kwargs)
        self._patch(scalar.Scalar, "__init__", counted_init)
        return self

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        self._pairs.clear()
        return False

    # -- results -----------------------------------------------------------------
    def counts(self):
        """Every count the tracer takes; these repeat exactly for one seed."""
        g = self.groups
        out = {f"{name}.calls": grp.calls for name, grp in sorted(g.items())}
        out.update({
            "scalar.nodes_built": self.nodes_built,
            "scalar.evaluate.errors": g["scalar.evaluate"].errors,
            "duality.dualize_form.repeats": self.dualize_repeats,
            "structures.pointframe.coframe_repeats": self.pointframe_repeats,
            "randomgen.spinor_attempts": self.spinor_attempts,
            "randomgen.spinor_returns": (g["randomgen.random_pure_spinor"].calls
                                         - g["randomgen.random_pure_spinor"].errors),
        })
        return out

    def layer_metrics(self):
        """The per-layer metrics of one traced pass, by the names BENCHMARK.json uses."""
        g = self.groups

        def share(part, whole):
            return part / whole if whole else 0.0

        counts = self.counts()
        return {
            "scalar.construct.calls": g["scalar.construct"].calls,
            "scalar.construct.self_s": g["scalar.construct"].self_s,
            "scalar.nodes_built": self.nodes_built,
            "scalar.diff.calls": g["scalar.diff"].calls,
            "scalar.diff.incl_s": g["scalar.diff"].incl_s,
            "scalar.evaluate.calls": g["scalar.evaluate"].calls,
            "scalar.evaluate.self_s": (g["scalar.evaluate"].self_s
                                       + g["scalar.evaluate.arrays"].self_s),
            "scalar.evaluate.errors": g["scalar.evaluate"].errors,
            "exterior.calls": g["exterior"].calls,
            "exterior.self_s": g["exterior"].self_s,
            "bundle.d_H.calls": g["bundle.d_H"].calls,
            "bundle.d_H.incl_s": g["bundle.d_H"].incl_s,
            "courant.bracket.calls": g["courant.bracket"].calls,
            "courant.bracket.incl_s": g["courant.bracket"].incl_s,
            "duality.dualize_form.calls": g["duality.dualize_form"].calls,
            "duality.dualize_form.incl_s": g["duality.dualize_form"].incl_s,
            "duality.dualize_form.repeat_share": share(
                self.dualize_repeats, g["duality.dualize_form"].calls),
            "duality.dualize_section.incl_s": g["duality.dualize_section"].incl_s,
            "duality.transform_matrix_at.incl_s": g["duality.transform_matrix_at"].incl_s,
            "structures.pointframe.builds": g["structures.pointframe"].calls,
            "structures.pointframe.incl_s": g["structures.pointframe"].incl_s,
            "structures.pointframe.coframe_repeat_share": share(
                self.pointframe_repeats, g["structures.pointframe"].calls),
            "structures.self_s": g["structures"].self_s + g["structures.pointframe"].self_s,
            "linalg.calls": g["linalg"].calls,
            "linalg.self_s": g["linalg"].self_s,
            "reduction.incl_s": g["reduction"].incl_s,
            "randomgen.self_s": (g["randomgen"].self_s
                                 + g["randomgen.random_pure_spinor"].self_s),
            "randomgen.spinor_accept_ratio": share(
                counts["randomgen.spinor_returns"], self.spinor_attempts),
        }


def profile_by_module(fn, top=10):
    """Run ``fn`` under cProfile; return (total self s, top ``top`` (module, self s), all).

    C functions are not profiled (about a quarter less overhead); their time
    counts as self time of the Python function that called them.
    """
    prof = cProfile.Profile(builtins=False)
    prof.runcall(fn)
    by_file = {getattr(m, "__file__", None): name for name, m in list(sys.modules.items())}
    totals = defaultdict(float)
    for (filename, _, _), row in pstats.Stats(prof).stats.items():
        module = by_file.get(filename, filename.rsplit("/", 1)[-1])
        totals[module] += row[2]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])
    return sum(totals.values()), ranked[:top], totals
