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
coframe or chart they index and die with it; the frame's action table
``exterior.frame_action(m)`` is one such int-keyed table.  The readers that
skip zero frame-vector components read the ``FrameVector.coeffs`` dict, not
the dense ``.components`` tuple; among them are the one Clifford-action
kernel ``exterior.clifford`` and the coordinate dict
``Section._coordinates`` that it takes.  The interior product is the vector
half of that kernel: ``contract``, the bracket table and the section
transform all call it, and no second contraction kernel (``courant._pair``
is gone: a vector on a 1-form is the kernel's scalar entry) or per-coframe
copy of the table exists.  ``Section.act`` is that kernel on the action
table: it builds no contraction or wedge of its own.
A CScalar or a Scalar is added at a dict key by one function,
``exterior._accumulate``, the certificate's residuals too: ``certify``
defines no keyed sum of its own.  How a sum or a negated sum cancels is decided in
``scalar.py`` alone: no other module reads whether a Scalar is a sum.  No
loop builds a form or tensor by adding one-term forms or tensors to it,
which copies its dict once per term.  The Buscher rules map
a generalized metric to its dual: they read its blocks through one call of
the block splitter ``duality.split_metric`` and build the dual with one call
of the block assembly ``duality.assemble_metric``.  Values at points
have one evaluator: outside ``scalar.py`` only ``exterior._value_array``
calls ``evaluate_points``, and ``exterior._eval_array`` builds complex
values on it.  Whether point-free data is evaluated at the first point only
has one rule, ``exterior._sample``, which the four pointwise functions that
sample such data call.  The list evaluators, the certificate's second action
of a section on monomials and the older point-free predicate are gone.
A coefficient is differentiated along the base by one kernel,
``bundle._partials``, which d and the frame bracket call (outside
``scalar.py`` and ``scenarios.py`` nothing else calls ``diff``); a form is
split along its fiber legs by one loop, ``bundle.split_fiber_legs``, the only
caller of ``strip_rightmost`` outside ``exterior.py``; and a table kept on
its owner has one body, ``Coframe.table``, which ``DualityPair.cache`` is.

Every function in the package has a caller in the package or in the
benchmark; a function that only tests call lives in the tests.  Every name a
module's ``__all__`` lists exists, and every public function or class a
module defines is listed there, except in ``cli`` and the ``scenario_*``
functions that ``scenarios.SCENARIOS`` holds.  The
benchmark's tracer (``perfbench/tracer.py``) wraps package functions by
name, and its workloads call three one-point forms; a test keeps those names
alive.  The traced counts must repeat from one pass to the next, or no count
can be compared between versions: the last test runs
``perfbench/check_counts.py`` on paper-suite and large-samples, so a table
cached across passes fails there.
"""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import tduality
from conftest import perfbench_modules

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
    assert cached == {("exterior", "frame_action"): ["m"],
                      ("exterior", "mukai_signs"): ["m"],
                      ("randomgen", "_spinor_tables"): ["m"],
                      ("structures", "_clifford_matrices"): ["m"]}


# functions that skip zero frame-vector components by reading ``coeffs``
SPARSE_READERS = {("exterior", "contract"),
                  ("exterior", "clifford"), ("exterior", "FrameVector.is_zero"),
                  ("exterior", "FrameVector.__add__"),
                  ("exterior", "FrameVector.__neg__"), ("exterior", "FrameVector.scale"),
                  ("courant", "Section._coordinates"), ("courant", "_pairing_sums"),
                  ("courant", "courant_brackets"), ("duality", "dualize_section"),
                  ("structures", "SymTensor.apply")}


def test_sparse_readers_do_not_scan_components():
    """The readers that skip structurally zero components of a frame vector
    read its ``coeffs`` dict and never ``.components``, so none of them goes
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


def _is_inline_keyed_sum(node):
    """``d[k] + c if k in d else c`` (or ``-``): a sum at a dict key written
    out instead of calling ``_accumulate``."""
    if not (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
            and [type(op) for op in node.test.ops] == [ast.In]
            and isinstance(node.body, ast.BinOp) and isinstance(node.body.op, (ast.Add, ast.Sub))):
        return False
    left = node.body.left
    return (isinstance(left, ast.Subscript)
            and ast.dump(left.value) == ast.dump(node.test.comparators[0])
            and ast.dump(left.slice) == ast.dump(node.test.left))


def _is_get_keyed_sum(node):
    """``d[k] = d.get(k, ZERO) + c`` (or ``-``, or ``sadd(d.get(k, ZERO), c)``):
    a sum stored back at the key it read, written out instead of calling
    ``_accumulate``.  A read that is not stored back at its key is not one."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)):
        return False
    target, value = node.targets[0], node.value
    if isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub)):
        operands = [value.left, value.right]
    elif isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("sadd", "ssub"):
        operands = value.args
    else:
        return False
    return any(isinstance(op, ast.Call) and isinstance(op.func, ast.Attribute)
               and op.func.attr == "get" and op.args
               and ast.unparse(op.func.value) == ast.unparse(target.value)
               and ast.unparse(op.args[0]) == ast.unparse(target.slice) for op in operands)


def test_one_keyed_accumulator():
    """No function in the package writes out a sum at a dict key
    (``d[k] + c if k in d else c``, ``d[k] = d.get(k, ZERO) + c`` or
    ``d[k] = sadd(d.get(k, ZERO), c)``), no ``_deduct`` or ``_minus`` is
    defined or named, and ``certify`` defines no ``_sum``: every keyed sum,
    of CScalars or of Scalars, the certificate's residuals included, goes
    through ``exterior._accumulate``."""
    inline, named = [], []
    for module, fn in _functions():
        if fn.name in ("_deduct", "_minus"):
            named.append((module, fn.name))
        for node in ast.walk(fn):
            if _is_inline_keyed_sum(node) or _is_get_keyed_sum(node):
                inline.append((module, fn.name, node.lineno))
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("_deduct", "_minus"):
                named.append((module, fn.name, node.lineno))
    assert inline == [] and named == []
    assert not hasattr(tduality.certify, "_sum")


def _compares_kind_with_add(node):
    """``x.kind == "add"``, ``!=``, ``in`` or ``not in`` with "add" among
    the constants, on either side."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    constants = {c.value for side in sides for c in ast.walk(side)
                 if isinstance(c, ast.Constant)}
    return "add" in constants and any(isinstance(side, ast.Attribute) and side.attr == "kind"
                                      for side in sides)


def test_the_sign_rule_for_sums_has_one_home():
    """Outside ``scalar.py`` no module compares a Scalar's ``kind`` with
    "add": ``signed_sum`` alone decides how a sum or a negated sum cancels,
    and no caller spreads a sum over its terms first."""
    found = []
    for path in sorted(Path(tduality.__file__).parent.glob("*.py")):
        if path.stem != "scalar":
            found += [(path.stem, node.lineno) for node in ast.walk(ast.parse(path.read_text()))
                      if _compares_kind_with_add(node)]
    assert found == []
    assert any(map(_compares_kind_with_add,
                   ast.walk(ast.parse(Path(tduality.scalar.__file__).read_text()))))


def _is_one_term_build(node):
    """A call of ``Form(...)``, ``Form.monomial(...)`` or ``SymTensor(...)``."""
    f = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        isinstance(f, ast.Name) and f.id in ("Form", "SymTensor")
        or isinstance(f, ast.Attribute) and f.attr == "monomial"
        and getattr(f.value, "id", None) == "Form")


def _rebinds_plus_one_term(node):
    """``x = x + T``, ``x = T + x``, ``x = x - T`` or ``x += T`` (``-=``) for
    a one-term build T: a sum that copies x's dict once per term."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, (ast.Add, ast.Sub)) and _is_one_term_build(node.value)
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, (ast.Add, ast.Sub))):
        return False
    target, (left, right) = ast.unparse(node.targets[0]), (node.value.left, node.value.right)
    return (ast.unparse(left) == target and _is_one_term_build(right)
            or isinstance(node.value.op, ast.Add)
            and ast.unparse(right) == target and _is_one_term_build(left))


def test_forms_are_built_in_one_pass():
    """No loop in the package rebinds a form or tensor to itself plus or
    minus a ``Form(...)``, ``Form.monomial(...)`` or ``SymTensor(...)``: a
    form or tensor built term by term is collected in one dict (with
    ``exterior._accumulate`` where keys can meet) and built once."""
    found = {(module, fn.name, node.lineno) for module, fn in _functions()
             for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.While))
             for node in ast.walk(loop) if _rebinds_plus_one_term(node)}
    assert found == set()


def test_buscher_rules_assemble_the_dual_blocks_once(monkeypatch, hopf_pair):
    """``duality.buscher_rules`` reads the blocks of its metric through one
    ``split_metric`` call, builds the five dual blocks and calls
    ``assemble_metric`` on the dual chart exactly once."""
    from test_certify import count_calls
    from tduality import duality, scenarios
    chart = hopf_pair.chart
    met = duality.assemble_metric(chart, *scenarios._hopf_metric_blocks(chart))
    calls = count_calls(monkeypatch, duality, "assemble_metric")
    splits = count_calls(monkeypatch, duality, "split_metric")
    duality.buscher_rules(met, hopf_pair)
    assert calls == [1]
    assert splits == [1]


def test_every_public_name_is_exported():
    """Every name in a module's ``__all__`` exists in the module, and every
    public function or class that a module defines is listed there.  The
    exceptions are the command-line module ``cli`` and the ``scenario_*``
    functions, which are reached through ``scenarios.SCENARIOS``."""
    from tduality import scenarios
    stale, unlisted = [], []
    for path in sorted(Path(tduality.__file__).parent.glob("*.py")):
        if path.stem == "cli":
            continue
        module = tduality if path.stem == "__init__" else importlib.import_module(
            f"tduality.{path.stem}")
        exported = getattr(module, "__all__", [])
        stale += [(path.stem, name) for name in exported if not hasattr(module, name)]
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in exported
                    and getattr(module, node.name) not in scenarios.SCENARIOS.values()):
                unlisted.append((path.stem, node.name))
    assert stale == []
    assert unlisted == []


def test_one_evaluator_and_one_sampling_rule():
    """No function called ``eval_complex``, ``eval_complex_points``,
    ``_act_sections`` or ``_point_free`` is defined, imported or named in the
    package; outside ``scalar.py`` only ``exterior._value_array`` calls
    ``evaluate_points``; and ``exterior._sample`` is called by the four
    functions that sample point-free data, and by no other."""
    gone = {"eval_complex", "eval_complex_points", "_act_sections", "_point_free"}
    named, evaluators, samplers = [], set(), set()
    for path in sorted(Path(tduality.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = (getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "name", None))
            if name in gone:
                named.append((path.stem, node.lineno))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if called == "evaluate_points" and path.stem != "scalar":
                        evaluators.add((path.stem, fn.name))
                    if called == "_sample":
                        samplers.add((path.stem, fn.name))
    assert named == []
    assert evaluators == {("exterior", "_value_array")}
    assert samplers == {("reduction", "double_quotient_report"),
                        ("reduction", "generalized_tangent_basis"),
                        ("reduction", "fourier_mukai_check"),
                        ("bundle", "_block_nondegeneracy")}


def test_one_derivative_rule_one_splitter_one_table():
    """Outside ``scalar.py`` and ``scenarios.py`` only ``bundle._partials``
    calls ``diff``; no ``_derivative`` is defined or named in the package;
    outside ``exterior.py`` only ``bundle.split_fiber_legs`` calls
    ``strip_rightmost``; and ``DualityPair.cache`` is ``Coframe.table``."""
    from tduality.bundle import DualityPair
    from tduality.exterior import Coframe
    named, differentiators, strippers = [], set(), set()
    for path in sorted(Path(tduality.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = (getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "name", None))
            if name == "_derivative":
                named.append((path.stem, node.lineno))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if called == "diff" and path.stem not in ("scalar", "scenarios"):
                        differentiators.add((path.stem, fn.name))
                    if called == "strip_rightmost" and path.stem != "exterior":
                        strippers.add((path.stem, fn.name))
    assert named == []
    assert differentiators == {("bundle", "_partials")}
    assert strippers == {("bundle", "split_fiber_legs")}
    assert DualityPair.cache is Coframe.table


def test_section_act_is_one_clifford_kernel_call(monkeypatch):
    """One ``Section.act`` call makes exactly one call of the Clifford kernel
    ``exterior.clifford`` and no call of ``contract`` or ``wedge``."""
    from test_certify import count_calls
    from tduality import exterior
    from conftest import section_of
    cof = exterior.Coframe(("dx", "dy", "th"), ("base", "base", "fiber"))
    counts = [count_calls(monkeypatch, exterior, name)
              for name in ("clifford", "contract", "wedge")]
    v = section_of(cof, {"dx": 2, "th": 1}, {"dy": 3})
    rho = exterior.Form.monomial(cof, ("dx", "th")) + exterior.Form.scalar(cof, 5)
    assert v.act(rho) == (exterior.Form.monomial(cof, ("dy", "dx", "th"), 3)
                          + exterior.Form.monomial(cof, ("th",), 2)
                          + exterior.Form.monomial(cof, ("dx",), -1)
                          + exterior.Form.monomial(cof, ("dy",), 15))
    assert counts == [[1], [0], [0]]


def test_one_interior_product(monkeypatch, hopf_pair):
    """``contraction_rows``, ``contract_live`` and ``Coframe.action`` are
    neither defined nor named in the package, ``courant`` defines no
    ``_pair`` (a vector on a 1-form is ``clifford``'s scalar entry),
    ``act_row`` takes only a row and a form's coefficients, and
    ``contract``, ``courant_brackets`` and ``dualize_section`` each reach
    the interior product through ``exterior.clifford``."""
    import inspect
    from test_certify import count_calls
    from tduality import courant, exterior
    from tduality.courant import courant_brackets, section_basis
    from tduality.duality import dualize_section
    gone = re.compile(r"\b(contraction_rows|contract_live)\b|Coframe\.action|\.action\(")
    named = [(path.stem, n) for path in sorted(Path(tduality.__file__).parent.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1) if gone.search(line)]
    assert named == []
    assert not hasattr(exterior.Coframe, "action") and not hasattr(courant, "_pair")
    assert list(inspect.signature(exterior.act_row).parameters) == ["row", "coeffs"]
    calls = count_calls(monkeypatch, exterior, "clifford")
    chart, basis = hopf_pair.chart, section_basis(hopf_pair.chart.coframe)
    hits = []
    for run in (lambda: exterior.contract(basis[0].x, chart.curvature_of(chart.fiber_names[0])),
                lambda: courant_brackets(basis, basis, chart),
                lambda: dualize_section(basis[0], hopf_pair)):
        calls[0] = 0
        run()
        hits.append(calls[0] > 0)
    assert hits == [True, True, True]


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
    tracer, workloads = perfbench_modules("tracer", "workloads")
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
