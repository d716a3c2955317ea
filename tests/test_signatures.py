"""Every parameter of every function in the package is read by its body.

A parameter that nothing reads is a knob that does nothing: a caller may set
it and believe it took effect.  The allow-list holds the parameters that an
interface fixes: ``form_residual``'s ``domain``, which callers still pass
positionally, and the ``(coframe, chart, dual)`` flux-maker callbacks whose
signature ``DualityPair.from_charts`` dictates.

Tolerances belong to the checks that compare against them: ``Report.add``
carries each check's own tolerance, and no other function takes a ``tol``.
Numerical rank has one rule, ``structures._rank`` (relative to the largest
singular value), so nothing in the package calls ``matrix_rank``.  Like
terms have one collector, ``scalar.signed_sum``: what cancels structurally
decides which certificate instances count as proved, so a second collector
built from ``scalar``'s private pieces could prove a different set.  The
sign of moving a generator to the front lives in ``exterior.py``, which
makes the frame's action table from it; only ``bundle``'s d kernel reads
it elsewhere.  The
unpruned form constructor ``Form._pruned`` stays inside ``exterior.py``.
A ``functools.cache`` takes only an int ``m``: structural tables live on the
coframe or chart they index and die with it.  The readers that skip zero
frame-vector components read ``FrameVector.live``, not ``.components``.

Every function in the package has a caller in the package or in the
benchmark; a function that only tests call lives in the tests.  The
benchmark's tracer (``perfbench/tracer.py``) wraps package functions by
name, and its workloads call three one-point forms; a test keeps those names
alive.  The traced counts must repeat from one pass to the next, or no count
can be compared between versions: the last test runs
``perfbench/check_counts.py`` on paper-suite and large-samples, so a table
cached across passes fails there.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import tduality

ALLOWED = {
    ("bundle", "form_residual", "domain"),
    ("bundle", "standard_correspondence_flux", "dual"),
    ("scenarios", "flux_maker", "c"),
    ("scenarios", "flux_maker", "d"),
}


def _functions():
    """(module, function node) for every function in the package."""
    for path in sorted(Path(tduality.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, node


def _parameters(node):
    args = node.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    return params + [a for a in (args.vararg, args.kwarg) if a is not None]


def unread_parameters():
    """(module, function, parameter) for every parameter never loaded in
    its function, nested functions included."""
    out = set()
    for module, node in _functions():
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in _parameters(node):
            if p.arg not in ("self", "cls") and p.arg not in read:
                out.add((module, node.name, p.arg))
    return out


def test_every_parameter_is_read():
    assert unread_parameters() == ALLOWED


def test_every_function_has_a_caller():
    """Every function or method defined in the package, dunders aside, is
    referenced somewhere in the package outside its own definition, or is
    named in ``perfbench/*.py``, whose tracer and workloads reach package
    functions by name.  A function that only tests call belongs in the tests.
    The check works by name: a name defined on two classes, or also used as
    a variable, counts as used if any one of them is referenced."""
    uses = []
    for path in sorted(Path(tduality.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses.append((path.stem, node.lineno, getattr(node, "id", None) or node.attr))
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    bench_text = "\n".join(p.read_text() for p in sorted(bench.glob("*.py")))
    unused = []
    for module, fn in _functions():
        name = fn.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(n == name and not (m == module and fn.lineno <= line <= fn.end_lineno)
                   for m, line, n in uses) and not re.search(rf"\b{name}\b", bench_text):
            unused.append((module, name))
    assert unused == []


def test_only_report_add_takes_tol():
    takes_tol = [(module, node.name) for module, node in _functions()
                 if any(p.arg == "tol" for p in _parameters(node))]
    assert takes_tol == [("report", "add")]


def test_one_rank_rule():
    """No attribute, name, import or definition called ``matrix_rank``."""
    calls = []
    for path in sorted(Path(tduality.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "name", None))
            if name == "matrix_rank":
                calls.append((path.stem, node.lineno))
    assert calls == []


def test_one_like_term_collector():
    """Only ``scalar.py`` names the collector's pieces or defines a
    collector; every other module sums through ``sadd``, ``ssub`` or
    ``signed_sum``."""
    private = {"_mul_split", "_sum_node", "_make_term", "_collect_sum", "_signed_sum"}
    users = []
    for path in sorted(Path(tduality.__file__).parent.glob("*.py")):
        if path.stem == "scalar":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "name", None))
            if name in private:
                users.append(path.stem)
    assert users == []


def test_sign_rule_lives_in_exterior():
    """The sign of moving a generator to the front has one home: outside
    ``exterior.py``, only ``bundle.py``'s d kernel names ``contract_sign`` or
    ``_wedge_sign``; the frame's action on monomials is read from
    ``exterior.frame_action``."""
    signs = {"contract_sign", "_wedge_sign"}
    users = set()
    for path in sorted(Path(tduality.__file__).parent.glob("*.py")):
        if path.stem == "exterior":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "name", None))
            if name in signs:
                users.add(path.stem)
    assert users <= {"bundle"}


def test_module_caches_are_keyed_by_m_only():
    """Every ``functools.cache`` (or ``lru_cache``) in the package takes one
    parameter, the int ``m``.  A table keyed by a coframe, chart or form at
    module level would outlive the pass that built it and speed up only a
    repeated pass; such tables are kept on their owner instead."""
    cached = {}
    for module, node in _functions():
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = getattr(target, "attr", None) or getattr(target, "id", None)
            if name in ("cache", "lru_cache"):
                cached[(module, node.name)] = [p.arg for p in _parameters(node)]
    assert cached == {("exterior", "mukai_signs"): ["m"],
                      ("randomgen", "_spinor_tables"): ["m"],
                      ("structures", "_clifford_matrices"): ["m"]}


# functions that skip zero frame-vector components by reading ``live``
SPARSE_READERS = {("exterior", "contract"), ("exterior", "FrameVector.is_zero"),
                  ("exterior", "FrameVector.map_to"),
                  ("certify", "_coordinates"), ("courant", "_pairing_sums"),
                  ("courant", "_derivative")}


def test_sparse_readers_do_not_scan_components():
    """The readers that skip structurally zero components of a frame vector
    read its ``live`` pairs and never ``.components``, so none of them goes
    back to testing every component of every vector."""
    found = {}
    for path in sorted(Path(tduality.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            methods = [(f"{node.name}.", n) for n in node.body] if isinstance(
                node, ast.ClassDef) else [("", node)]
            for prefix, fn in methods:
                if isinstance(fn, ast.FunctionDef):
                    found[(path.stem, prefix + fn.name)] = fn
    assert SPARSE_READERS <= set(found)
    dense = sorted({key for key in SPARSE_READERS for n in ast.walk(found[key])
                    if isinstance(n, ast.Attribute) and n.attr == "components"})
    assert dense == []


def test_pruned_constructor_stays_in_exterior():
    """``Form._pruned`` skips the pruning that keeps structural zeros out of
    ``Form.coeffs``, so it is referenced only in ``exterior.py``, whose
    operations keep that invariant by construction; no other package module
    or test uses it."""
    files = sorted(Path(tduality.__file__).parent.glob("*.py"))
    files += sorted(Path(__file__).parent.glob("*.py"))
    users = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "name", None))
            if name == "_pruned":
                users.add(path.stem)
    assert users == {"exterior"}


def test_scenarios_do_not_import_numpy_ma():
    """``np.unique`` and some other numpy functions import ``numpy.ma`` on
    first use.  Importing it after running s3-hopf and reduction-suite raised
    the peak resident set of the process by 0.4 to 0.5 MB (ru_maxrss, three
    runs, Python 3.11 with numpy 2.4, x86-64), memory spent on a module the
    package does not use.  The reduction groups its points by nullspace rank
    with a Python set, not ``np.unique``, for this reason."""
    code = ("import sys\n"
            "from tduality.scenarios import run_scenario\n"
            "for name in ('s3-hopf', 'reduction-suite'):\n"
            "    run_scenario(name, 0, 8)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(tduality.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_the_benchmark_harness_finds_every_name_it_uses():
    """Entering the tracer looks up every function it wraps, so a renamed or
    deleted one fails here instead of in every traced benchmark run; the
    workloads' one-point calls run once on a circle chart."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(bench)
    with tracer.Tracer([workloads]):
        pass
    from tduality import duality, structures
    from tduality.scenarios import _s2_setup
    chart, *_, spinor = _s2_setup()
    pair = duality.DualityPair.from_chart(chart)
    point = {"t": 0.3}
    j = structures.gcs_matrix_at(spinor, chart, point)
    assert np.abs(j @ j + np.eye(4)).max() <= 1e-9
    assert duality.uk_transport_residual(spinor, pair, point) <= 1e-8
    assert duality.transform_matrix_at(pair, point).shape == (4, 4)


def test_the_traced_counts_repeat_across_passes():
    """``perfbench/check_counts.py`` runs each workload's traced pass twice in
    one process and exits 0 only when every count repeats."""
    script = Path(__file__).resolve().parent.parent / "perfbench" / "check_counts.py"
    out = subprocess.run([sys.executable, str(script), "--workload", "paper-suite",
                          "large-samples"], capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
