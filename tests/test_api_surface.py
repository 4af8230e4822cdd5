"""Every public function, class, method and constant of the package is used
somewhere.

A public name (no leading underscore) defined at module level in
`src/stemopt`, or as a method of such a class, must be referenced by at
least one `Name` or `Attribute` node in the package or the tests.  A name
that only its own definition mentions is dead API and should be deleted.

Public module-level constants are resolved per module, because two modules
may bind the same name: a constant counts as used only where a load of it
refers to that module's binding (a bare name inside the module, an import
from the module, or an attribute of the module object).

The names the package itself lists in `__all__` resolve, on access, to the
objects their defining modules hold.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import stemopt
from stemopt import Op2Config

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stemopt"
TESTS = ROOT / "tests"
TRACER = ROOT / "perfbench" / "tracer.py"


def _trees(*dirs):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for d in dirs for path in sorted(d.glob("*.py"))}


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and _public(node.name):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name


def _references(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_no_unreferenced_public_names():
    trees = _trees(SRC, TESTS)
    used = _references(trees)
    dead = sorted(f"{path.stem}.{qualified}"
                  for path, tree in trees.items() if path.parent == SRC
                  for qualified, name in _definitions(tree)
                  if name not in used)
    assert dead == [], f"public names that nothing references: {dead}"


def _constants(tree):
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and _public(target.id):
                yield target.id


def _module_references(path, tree, modules):
    """(module, name) pairs that the loads in `tree` resolve to."""
    own = path.stem if path.parent == SRC else None
    module_alias, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                local = alias.asname or alias.name
                if source in ("", "stemopt") and alias.name in modules:
                    module_alias[local] = alias.name
                elif source in modules:
                    imported[local] = (source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                stem = alias.name.rsplit(".", 1)[-1]
                if alias.asname and alias.name.startswith("stemopt.") and stem in modules:
                    module_alias[alias.asname] = stem
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imported:
                refs.add(imported[node.id])
            elif own is not None:
                refs.add((own, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in module_alias):
            refs.add((module_alias[node.value.id], node.attr))
    return refs


def test_no_unreferenced_public_constants():
    trees = _trees(SRC, TESTS)
    modules = {path.stem for path in trees if path.parent == SRC}
    refs = set().union(*(_module_references(path, tree, modules)
                         for path, tree in trees.items()))
    dead = sorted(f"{path.stem}.{name}"
                  for path, tree in trees.items() if path.parent == SRC
                  for name in _constants(tree)
                  if (path.stem, name) not in refs)
    assert dead == [], f"public constants that nothing references: {dead}"


def _defaulted_parameters(tree):
    """(qualified name, bare name, positional index, parameter) for every
    defaulted parameter of a public function or method; the index counts
    the arguments a call writes, so it skips a method's `self`/`cls`."""
    def params(fn, qualified, skip):
        a = fn.args
        positional = a.posonlyargs + a.args
        for i, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                len(positional) - len(a.defaults)):
            yield qualified, fn.name, i - skip, arg.arg
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield qualified, fn.name, None, arg.arg

    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs) and _public(node.name):
            yield from params(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and _public(item.name):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield from params(item, f"{node.name}.{item.name}",
                                      0 if static else 1)


def _passed_arguments(trees):
    """(callee name, keyword or positional index) for every call; a call
    through `*` or `**` passes everything (marked '*')."""
    passed = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            for i, arg in enumerate(node.args):
                passed.add((name, "*" if isinstance(arg, ast.Starred) else i))
            for kw in node.keywords:
                passed.add((name, "*" if kw.arg is None else kw.arg))
    return passed


def test_no_unset_keyword_parameters():
    trees = _trees(SRC, TESTS)
    passed = _passed_arguments(trees)
    unset = sorted(
        f"{path.stem}.{qualified}({param})"
        for path, tree in trees.items() if path.parent == SRC
        for qualified, name, index, param in _defaulted_parameters(tree)
        if not {(name, param), (name, index), (name, "*")} & passed)
    assert unset == [], f"defaulted parameters that no call sets: {unset}"


def test_package_names_resolve_to_their_defining_modules():
    for name in stemopt.__all__:
        value = getattr(stemopt, name)
        if name != "__version__":
            assert value.__module__.startswith("stemopt."), name
            assert value is getattr(importlib.import_module(value.__module__), name)
    star = {}
    exec("from stemopt import *", star)
    assert set(stemopt.__all__) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(stemopt, "no_such_name")


def test_only_numerics_brackets_a_scan():
    # the height scans of op1, op2 and eq2 all go through
    # numerics.find_roots; a solver that brackets its own samples again
    # would be another scan loop
    callers = sorted(
        path.stem for path, tree in _trees(SRC).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "sign_change_brackets"
             or getattr(node.func, "attr", None) == "sign_change_brackets"))
    assert set(callers) == {"numerics"}, callers


def test_equilibrium1_has_no_height_search():
    # the fixed-length equilibrium height is the end of one forward
    # integration in stem length; a root finder there would be a height
    # search come back
    tree = ast.parse((SRC / "equilibrium1.py").read_text())
    refs = {ref for node in ast.walk(tree)
            for ref in ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                        else [node.id] if isinstance(node, ast.Name)
                        else [node.attr] if isinstance(node, ast.Attribute) else [])}
    found = refs & {"find_root", "find_roots", "bracket", "sign_change_brackets"}
    assert found == set(), sorted(found)


def _name(node):
    """The name a node defines, imports or refers to, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "name", None)


def test_costate_kernels_have_one_caller_each():
    # the free-length slopes have one kernel for one state and for a batch:
    # model2 defines each piece once, no module or test names the scalar and
    # vector twins it replaced or the error only the scalar twin raised, and
    # only model2 calls the right side
    kernels = ("_costate_rhs", "_one_minus_r", "_rhs_terms")
    gone = {"_rhs_terms_vec", "_one_minus_r_term", "_one_minus_r_scalar",
            "SingularityError"}
    defined, callers, named = [], set(), set()
    for path, tree in _trees(SRC, TESTS).items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in kernels:
                defined.append((path.stem, node.name))
            if isinstance(node, ast.Call) and _name(node.func) == "_rhs_terms":
                callers.add(path.stem)
            if _name(node) in gone:
                named.add((path.stem, _name(node)))
    assert sorted(defined) == [("model2", name) for name in kernels], defined
    assert callers == {"model2"}, callers
    assert named == set(), sorted(named)


def test_model2_reads_the_light_through_one_hook():
    # a given profile and the stems' own shade (profile=None) differ only
    # inside model2._light; a comparison of `profile` with None anywhere
    # else in model2 would be a second light path through the shot
    tree = ast.parse((SRC / "model2.py").read_text())
    where = sorted(
        top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.Compare)
        and "profile" in map(_name, [node.left, *node.comparators])
        and any(isinstance(side, ast.Constant) and side.value is None
                for side in [node.left, *node.comparators]))
    assert where == ["_light"], where


def test_model2_reads_a_profile_only_through_its_kernel():
    # a profile gives the shot I and I' from one kernel call: model2 calls
    # neither `eval` nor `derivative`, and `eval_and_slope` only in _light
    tree = ast.parse((SRC / "model2.py").read_text())
    calls = sorted(
        (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>",
         node.func.attr)
        for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("eval", "derivative", "eval_and_slope"))
    assert calls == [("_light", "eval_and_slope")], calls


def test_one_float_namespace():
    # the light and costate kernels run on one float through kernels.FLOATS;
    # a second namespace would be a second copy of the float arithmetic
    built = []
    for path, tree in _trees(SRC).items():
        named = {id(node.value): target.id for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
        built += [(path.stem, named.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _name(node.func) == "SimpleNamespace"]
    assert built == [("kernels", "FLOATS")], built


def test_model2_finalize_integrates_nothing():
    # a stem is reconstructed from the shot Brent took at its root, which
    # shoot_op2 hands over; _finalize shooting again would integrate the
    # same stem twice
    tree = ast.parse((SRC / "model2.py").read_text())
    finalize = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_finalize")
    named = {_name(node) for node in ast.walk(finalize)}
    assert named & {"_shoot_once", "shoot_residual", "integrate"} == set()


def test_a_free_length_stem_has_one_interpolant():
    # a stem is read between its nodes only through its own DP45 shot:
    # model2 interpolates no sampled column linearly, and StemState2 keeps no
    # stretched-height samples for such an interpolant
    tree = ast.parse((SRC / "model2.py").read_text())
    interp = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "interp"
              and _name(node.value) == "np"]
    assert interp == [], interp
    fields = {f.name for f in dataclasses.fields(stemopt.model2.StemState2)}
    assert fields & {"sigma", "beta"} == set(), fields


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_the_integrator_runs_on_floats():
    # DP45 keeps its state, stages and tableau in Python floats and tuples:
    # numpy appears in integrate only where it builds the returned
    # Trajectory, not in the helpers integrate calls, and the right sides of
    # its one caller, the free-length shot, build no numpy array
    from stemopt import numerics
    tree = ast.parse((SRC / "numerics.py").read_text())
    integrate = _function(tree, "integrate")
    built = [node for node in ast.walk(integrate)
             if isinstance(node, ast.Call) and _name(node.func) == "Trajectory"]
    inside = {id(node) for call in built for node in ast.walk(call)}
    np_uses = [node for node in ast.walk(integrate) if _name(node) == "np"]
    assert len(built) == 1 and np_uses, (built, np_uses)
    assert all(id(node) in inside for node in np_uses), [n.lineno for n in np_uses]
    helpers = {_name(node.func) for node in ast.walk(integrate)
               if isinstance(node, ast.Call)} & {f.name for f in tree.body
                                                 if isinstance(f, ast.FunctionDef)}
    assert helpers, "integrate calls no helper of numerics"
    for name in helpers:
        assert "np" not in {_name(node) for node in ast.walk(_function(tree, name))}, name

    tableau = [target.id for node in tree.body if isinstance(node, ast.Assign)
               for target in node.targets
               if isinstance(target, ast.Name) and target.id.startswith("_DP_")]
    assert sorted(tableau) == ["_DP_A", "_DP_B4", "_DP_B5", "_DP_C"], tableau
    for name in tableau:
        value = getattr(numerics, name)
        rows = value if name == "_DP_A" else (value,)
        assert type(value) is tuple and all(type(row) is tuple for row in rows), name
        assert all(type(w) is float for row in rows for w in row), name

    callers = {path.stem for path, module in _trees(SRC).items()
               if path.stem != "numerics"
               and {"integrate", "OdeProblem"} & {_name(node) for node in ast.walk(module)}}
    assert callers == {"model2"}, callers
    tree = ast.parse((SRC / "model2.py").read_text())
    for fn in (_function(tree, "_costate_rhs"),
               _function(_function(tree, "_sigma_problem"), "rhs")):
        assert "np" not in {_name(node) for node in ast.walk(fn)}, fn.name


def test_shooting_config_fields_set_by_callers():
    # a shooting option earns its field only where a solver sets it: every
    # Op2Config field is passed by keyword to Op2Config(...) or replace(...)
    # in a module other than the one that defines it and the one that reads it
    set_by = set()
    for path, tree in _trees(SRC).items():
        if path.stem in ("model2", "params"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            ) in ("Op2Config", "replace"):
                set_by.update(kw.arg for kw in node.keywords)
    unset = sorted({f.name for f in dataclasses.fields(Op2Config)} - set_by)
    assert unset == [], f"Op2Config fields that no solver sets: {unset}"


def _tracer_tables():
    """The literal name tables of the benchmark's tracer, read without
    importing it: {LAYERS, SPANS, _SPECIAL, _PROFILE_CALLS: names}."""
    tables = {}
    for node in ast.parse(TRACER.read_text(), filename=str(TRACER)).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("LAYERS", "SPANS", "_PROFILE_CALLS"):
                tables[name] = ast.literal_eval(node.value)
            elif name == "_SPECIAL":
                tables[name] = [ast.literal_eval(key) for key in node.value.keys]
    return tables


def test_tracer_targets_resolve():
    # the tracer patches public functions and methods of its layer modules
    # by name; a name that no longer resolves would stop a traced benchmark
    # run short of its result line
    tables = _tracer_tables()
    assert set(tables) == {"LAYERS", "SPANS", "_SPECIAL", "_PROFILE_CALLS"}
    layers = {layer: importlib.import_module(f"stemopt.{layer}")
              for layer in tables["LAYERS"]}
    unresolved = []
    for table in ("SPANS", "_SPECIAL", "_PROFILE_CALLS"):
        for target in tables[table]:
            layer, *path = target.split(".")
            obj = layers.get(layer)
            for attr in path:
                obj = None if attr.startswith("_") else getattr(obj, attr, None)
            if not inspect.isfunction(obj):
                unresolved.append(f"{table}: {target}")
    assert unresolved == [], unresolved


def test_every_class_has_a_docstring():
    # dataclasses builds a missing class docstring from inspect.signature
    # each time the class is created, on every set-up that defines it
    missing = sorted(f"{path.stem}.{node.name}"
                     for path, tree in _trees(SRC).items()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef) and not ast.get_docstring(node))
    assert missing == [], f"classes without a docstring: {missing}"


_SOLVER_PATH = {"solve_op1", "phi_inverse", "shoot_op2", "residual_batch",
                "feedback_TU", "integrate", "find_root", "find_roots"}


def test_oracles_reach_no_solver_path():
    # an oracle that ran the code it checks would agree with it by
    # construction: neither oracle, nor an oracles helper that one calls,
    # names a solver, a feedback law, the ODE integrator or a root finder
    path = SRC / "oracles.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    imported = {alias.asname or alias.name: alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}

    def names(fn):
        return {imported.get(ref, ref) for node in ast.walk(fn)
                for ref in ([node.id] if isinstance(node, ast.Name)
                            else [node.attr] if isinstance(node, ast.Attribute) else [])}

    reached, todo, offending = set(), ["oracle_op1", "oracle_op2"], {}
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        refs = names(functions[name])
        if refs & _SOLVER_PATH:
            offending[name] = sorted(refs & _SOLVER_PATH)
        todo += sorted(refs & set(functions))
    assert {"payoff_piecewise_constant", "oracle_payoff"} <= reached, reached
    assert offending == {}, f"oracle code that names the solver path: {offending}"


def test_verifiers_measure_only_the_refit():
    # the solve measures the map residual from the two constructions it
    # holds; a verifier that rebuilt the shade or re-solved the backward
    # Cauchy problem would measure again what the solve already measured
    forbidden = {("equilibrium2", "verify_equilibrium"): {"shade_map", "profile_gap"},
                 ("equilibrium1", "verify_fixed_point"): {"solve_bcp"}}
    offending = {}
    for (module, fn), names in forbidden.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        body = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == fn)
        refs = {ref for node in ast.walk(body)
                for ref in ([node.id] if isinstance(node, ast.Name)
                            else [node.attr] if isinstance(node, ast.Attribute) else [])}
        if refs & names:
            offending[fn] = sorted(refs & names)
    assert offending == {}, f"verifiers that rebuild the map half: {offending}"


def test_only_kernels_accumulates():
    """Every running sum of the solvers is `kernels.trapezoid_cumulative`.
    `oracles` keeps its own, so the validators stay independent of the code
    they check."""
    calls = sorted({path.stem for path, tree in _trees(SRC).items()
                    if path.stem not in ("kernels", "oracles")
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "cumsum"
                    or isinstance(node, ast.Name) and node.id == "cumsum"})
    assert calls == [], f"modules that accumulate outside kernels: {calls}"


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_every_result_field_is_read():
    # a field that no code reads is computed and carried for nothing:
    # every dataclass field of the solver modules is loaded as an attribute,
    # or fetched by getattr with a constant name, somewhere in the package
    # or the tests; `oracles` is exempt, as in test_only_kernels_accumulates
    trees = _trees(SRC, TESTS)
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    unread = sorted(
        f"{path.stem}.{node.name}.{item.target.id}"
        for path, tree in trees.items()
        if path.parent == SRC and path.stem != "oracles"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and "dataclass" in map(_decorator_name, node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in read)
    assert unread == [], f"dataclass fields that nothing reads: {unread}"
