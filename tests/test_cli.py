import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import stemopt
from stemopt import cli
from stemopt.errors import (NoArtifactsError, NotConvergedError, StepUnderflowError,
                            ValidationError, add_note)
from stemopt.params import ModelParams


OP1_SCENARIO = """\
[scenario]
schema_version = 1
kind = op1

[params]
theta0 = 0.7853981633974483
kappa = 1.0
ell = 1.0

[profile]
kind = constant
level = 1.0
"""


def _write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_op1(tmp_path):
    scn = cli.parse_scenario(_write(tmp_path, OP1_SCENARIO))
    assert scn.kind == "op1"
    assert scn.params.kappa == 1.0
    assert scn.profile.kind == "constant"


def test_parse_rejects_negative_kappa(tmp_path):
    bad = OP1_SCENARIO.replace("kappa = 1.0", "kappa = -1.0")
    with pytest.raises(ValidationError) as err:
        cli.parse_scenario(_write(tmp_path, bad))
    assert "kappa" in str(err.value)


def test_parse_eq2_requires_rho0(tmp_path):
    text = """\
[scenario]
schema_version = 1
kind = eq2

[params]
theta0 = 0.785398
alpha = 0.5
c = 1.0
"""
    with pytest.raises(ValidationError) as err:
        cli.parse_scenario(_write(tmp_path, text))
    assert "rho0" in str(err.value)


def test_parse_rejects_unknown_key(tmp_path):
    bad = OP1_SCENARIO + "\n[solver]\nwibble = 3\n"
    with pytest.raises(ValidationError) as err:
        cli.parse_scenario(_write(tmp_path, bad))
    assert "solver.wibble" in str(err.value)


def test_parse_rejects_solver_key_the_kind_ignores(tmp_path):
    bad = OP1_SCENARIO + "\n[solver]\nseed = 1\n"
    with pytest.raises(ValidationError) as err:
        cli.parse_scenario(_write(tmp_path, bad))
    assert "solver.seed" in str(err.value)
    code = cli.main(["--scenario", str(_write(tmp_path, bad)),
                     "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1


def test_tol_override_rejected_for_eq1(tmp_path, capsys):
    text = """\
[scenario]
schema_version = 1
kind = eq1

[params]
theta0 = 0.7853981633974483
kappa = 1.0
ell = 1.0
rho = 0.05
"""
    code = cli.main(["--scenario", str(_write(tmp_path, text)),
                     "--out", str(tmp_path / "out"), "--quiet", "--tol", "1e-9"])
    assert code == 1
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_override_sets_the_op1_shape_rows(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["--scenario", str(_write(tmp_path, OP1_SCENARIO)),
                     "--out", str(out), "--quiet", "--grid", "64"]) == 0
    rows = (out / "shape.csv").read_text().splitlines()
    assert rows[0] == "y,theta,x,I"
    assert len(rows) - 1 == 65


def test_grid_override_out_of_range_rejected(tmp_path, capsys):
    code = cli.main(["--scenario", str(_write(tmp_path, OP1_SCENARIO)),
                     "--out", str(tmp_path / "out"), "--quiet", "--grid", "0"])
    assert code == 1
    assert "--grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tol_override_reaches_the_op2_shot(tmp_path, monkeypatch):
    rtols, shoot = [], cli.model2.shoot_op2

    def spy(profile, params, cfg):
        rtols.append(cfg.rtol)
        return shoot(profile, params, cfg)
    monkeypatch.setattr(cli.model2, "shoot_op2", spy)
    text = _scenario("op2", {"solver": {"h_lo": "0.3", "h_hi": "0.4"}})
    assert cli.main(["--scenario", str(_write(tmp_path, text)),
                     "--out", str(tmp_path / "out"), "--quiet", "--tol", "1e-9"]) == 0
    assert rtols == [1e-9]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelParams)])
def test_model_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ModelParams(**{"theta0": math.pi / 4, name: value})


# a valid value for every [params] key, and for a key that has no default
_VALID_PARAMS = {"theta0": "0.7853981633974483", "kappa": "1.0", "ell": "1.0",
                 "rho": "0.05", "alpha": "0.5", "c": "1.0", "rho0": "0.001"}
_VALID_REQUIRED = {Path: "tab.csv"}     # any other required key takes 0.5


def _scenario(kind, sections):
    """Scenario text of `kind` with valid [params], a constant [profile] if
    the kind needs one, and `sections` ({section: {key: value}}) on top."""
    spec = cli._KINDS[kind]
    body = {"scenario": {"schema_version": "1", "kind": kind},
            "params": {k: _VALID_PARAMS[k] for k in spec.params}}
    if spec.profile:
        body["profile"] = {"kind": "constant"}
    for section, keys in sections.items():
        body[section] = {**body.get(section, {}), **keys}
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in body.items())


def _required(keys):
    return {k: _VALID_REQUIRED.get(spec, "0.5") for k, spec in keys.items()
            if callable(spec)}


def _malformed(spec):
    """Spellings that a key of this spec must reject; paths take any text."""
    if isinstance(spec, cli._Range):
        return _malformed(spec.default) + _out_of_range(spec.interval)
    if spec in (Path, str):
        return []
    numeric = spec is float or spec is None or type(spec) is float
    return ["abc", "nan"] if numeric else ["abc"]


def _out_of_range(interval):
    """The values just outside each finite end of an interval "]lo, hi]"."""
    lo, hi = interval[1:-1].split(", ")
    bad = [lo if interval[0] == "]" else f"{float(lo) - 1:g}"]
    if hi != "inf":
        bad.append(hi if interval[-1] == "[" else f"{float(hi) + 1:g}")
    return bad


def _rejected_cases():
    """Scenario texts, each with the `section.key` its error must name, built
    from the schema so that every key and section it lists is covered."""
    cases = []
    # every key that some kind or profile kind reads, per section
    known = {"profile": {k for _, keys in cli._PROFILES.values() for k in keys}}
    for spec in cli._KINDS.values():
        for section, keys in spec.options.items():
            known.setdefault(section, set()).update(keys)
    for kind, spec in cli._KINDS.items():
        schema = {**spec.options, "params": dict.fromkeys(spec.params, float)}
        if spec.profile:
            schema.update({"profile": {"kind": tuple(cli._PROFILES)}})
        for section, keys in schema.items():
            for key, key_spec in keys.items():
                for bad in _malformed(key_spec):
                    text = _scenario(kind, {section: {**_required(keys), key: bad}})
                    cases.append((kind, text, f"{section}.{key}", bad))
        for field in dataclasses.fields(ModelParams):
            if field.name not in spec.params:
                text = _scenario(kind, {"params": {field.name: "0.5"}})
                cases.append((kind, text, f"params.{field.name}", "unread"))
        for section, keys in known.items():
            if section == "profile" and spec.profile:
                continue   # profile keys depend on the profile kind: below
            for key in sorted(keys - set(schema.get(section, {}))):
                cases.append((kind, _scenario(kind, {section: {key: "1"}}),
                              f"{section}.{key}", "unread"))
        if spec.profile:
            for name, (_, keys) in cli._PROFILES.items():
                for key in sorted(known["profile"] - set(keys)):
                    values = {"kind": name, **_required(keys), key: "0.5"}
                    cases.append((kind, _scenario(kind, {"profile": values}),
                                  f"profile.{key}", f"{name}-unread"))
                for key, key_spec in keys.items():
                    for bad in _malformed(key_spec):
                        values = {"kind": name, **_required(keys), key: bad}
                        cases.append((kind, _scenario(kind, {"profile": values}),
                                      f"profile.{key}", f"{name}-{bad}"))
    eq2 = _scenario("eq2", {})
    cases += [
        ("eq2", _scenario("eq2", {"solver": {"method": "bogus"}}), "solver.method", "bogus"),
        ("sweep", _scenario("sweep", {"sweep": {"values": "-1"}}), "sweep.values", "-1"),
        ("sweep", _scenario("sweep", {"sweep": {"values": "0.001 inf"}}), "sweep.values",
         "inf"),
        ("op2", _scenario("op2", {"solver": {"h_lo": "0.3"}}), "solver.h_lo", "alone"),
        ("op2", _scenario("op2", {"solver": {"h_hi": "0.4"}}), "solver.h_hi", "alone"),
        ("op2", _scenario("op2", {"solver": {"h_lo": "0.5", "h_hi": "0.2"}}),
         "solver.h_hi", "reversed"),
        ("op2", _scenario("op2", {"solver": {"h_lo": "0.3", "h_hi": "0.3"}}),
         "solver.h_hi", "equal"),
        ("eq2", _scenario("eq2", {"solver": {"method": "fixed_point", "damping": "2"}}),
         "solver.damping", "fixed_point-2"),
        ("halfline", _scenario("halfline", {"halfline": {"n_stems": "0"}}),
         "halfline.n_stems", "0"),
        ("eq2", eq2.replace("schema_version = 1", "schema_version = one"),
         "scenario.schema_version", "one"),
    ]
    return [pytest.param(text, name, id=f"{kind}-{name}-{label}")
            for kind, text, name, label in cases]


@pytest.mark.parametrize("text,name", _rejected_cases())
def test_rejects_what_the_kind_does_not_read_or_cannot_type(tmp_path, capsys, text, name):
    (tmp_path / "tab.csv").write_text("y,I\n0.0,0.5\n1.0,1.0\n")
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(_write(tmp_path, text)), "--out", str(out),
                     "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {name}:" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("theta0", "0.5%"), ("kappa", "%(theta0)s")])
def test_percent_is_read_as_text(tmp_path, capsys, key, value):
    # a scenario value is its own text: '%' neither escapes nor refers to
    # another key, so both spellings are malformed numbers
    text = _scenario("op1", {"params": {key: value}})
    code = cli.main(["--scenario", str(_write(tmp_path, text)), "--out",
                     str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: params.{key}: malformed value {value!r}" in err
    assert "Traceback" not in err


def test_one_row_csv_profile_rejected(tmp_path, capsys):
    (tmp_path / "one.csv").write_text("y,I\n0.5,0.9\n")
    text = _scenario("op2", {"profile": {"kind": "tabulated", "csv": "one.csv"}})
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(_write(tmp_path, text)), "--out", str(out),
                     "--quiet"])
    assert code == 1
    assert "profile" in capsys.readouterr().err
    assert not out.exists()


def test_step_light_rejected_for_op2(tmp_path, capsys):
    # the free-length shot reads only the light's slope, which is zero on
    # both sides of a jump, so op2 would return the stem under the dim
    # light below it; op1 splits its scan at the jump and keeps the step
    step = {"kind": "step", "epsilon": "0.5", "y_jump": "0.2"}
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(_write(tmp_path, _scenario("op2", {"profile": step}))),
                     "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: profile.kind: op2 cannot solve a step light" in err
    assert not out.exists()
    op1 = cli.parse_scenario(_write(tmp_path, _scenario("op1", {"profile": step}), "op1.ini"))
    assert op1.profile.kind == "step"


def test_parse_rejects_wrong_schema(tmp_path):
    bad = OP1_SCENARIO.replace("schema_version = 1", "schema_version = 99")
    with pytest.raises(ValidationError):
        cli.parse_scenario(_write(tmp_path, bad))


# the modules that loading the CLI executes, and those a parse adds: the
# kind's solver stack
_CLI_MODULES = {"cli", "runners", "errors", "params"}
_FIXED_LENGTH = {"kernels", "lightfield", "numerics", "model1"}
_FREE_LENGTH = {"kernels", "lightfield", "numerics", "model2"}
_SOLVER_STACKS = {"op1": _FIXED_LENGTH, "eq1": _FIXED_LENGTH | {"equilibrium1"},
                  "op2": _FREE_LENGTH, "eq2": _FREE_LENGTH | {"equilibrium2"},
                  "sweep": _FREE_LENGTH | {"equilibrium2"},
                  "op3": {"kernels", "spatial", "lightfield"},
                  "halfline": {"kernels", "spatial"}}
_PROBE = """\
import json, sys, types
import stemopt
registered = sorted(n for n in sys.modules if n.startswith("stemopt."))


def executed():
    return sorted(n for n, m in sys.modules.items()
                  if n.startswith("stemopt.") and type(m) is types.ModuleType)


from stemopt import cli
parse = cli.parse_scenario   # the first attribute access executes cli
imported = executed()
scenario = parse(sys.argv[1])
parsed = executed()
code = cli.run(scenario, sys.argv[2], quiet=True) if len(sys.argv) > 2 else None
print(json.dumps({"registered": registered, "import": imported, "parse": parsed,
                  "run": executed(), "code": code,
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""


def _probe(tmp_path, kind, options, *out):
    """What a fresh interpreter executes when it imports the CLI, parses a
    `kind` scenario and, given an output directory, runs it."""
    package = Path(stemopt.__file__).parent
    path = _write(tmp_path, _scenario(kind, options))
    done = subprocess.run([sys.executable, "-c", _PROBE, str(path), *map(str, out)],
                          check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(package.parent)})
    return json.loads(done.stdout)


def _modules(names):
    return sorted(f"stemopt.{m}" for m in names)


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
def test_parse_executes_only_the_kinds_modules(tmp_path, kind):
    """In a fresh interpreter, `import stemopt` registers every submodule (the
    benchmark tracer looks each one up), loading the CLI executes only the
    CLI's own modules and a parse adds exactly the modules its kind runs."""
    options = {s: _required(keys) for s, keys in cli._KINDS[kind].options.items()}
    probe = _probe(tmp_path, kind, options)
    package = Path(stemopt.__file__).parent
    submodules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert probe["registered"] == _modules(submodules)
    assert probe["import"] == _modules(_CLI_MODULES)
    assert probe["parse"] == _modules(_CLI_MODULES | _SOLVER_STACKS[kind])


@pytest.mark.parametrize("kind, options", [
    ("eq1", {}),
    ("op3", {"op3": {"nx": "8", "ny": "64"}}),
    ("halfline", {"halfline": {"n_stems": "3", "iterations": "1", "grid": "16"}}),
])
def test_run_executes_no_module_the_parse_did_not(tmp_path, kind, options):
    """A run executes no stemopt module beyond those its parse executed, so
    the parse pays for every import, and it never imports numpy.ma."""
    probe = _probe(tmp_path, kind, options, tmp_path / "out")
    assert probe["code"] == 0
    assert probe["run"] == probe["parse"] == _modules(_CLI_MODULES | _SOLVER_STACKS[kind])
    assert not probe["numpy.ma"]


_SET_UP_PROBE = """\
import importlib, sys, tracemalloc
for name in sys.argv[2:]:
    importlib.import_module(name)
tracemalloc.start()
import stemopt
stemopt.cli.parse_scenario(sys.argv[1])
print(tracemalloc.get_traced_memory()[1])
"""


def _absolute_imports(package):
    """The modules outside the package that its modules import: numpy and
    the standard library."""
    names = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return sorted(names)


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
def test_set_up_bounded_memory(tmp_path, kind):
    """A fresh interpreter that compiles stemopt from source, as on a host
    that writes no bytecode, imports it and parses a `kind` scenario within
    1.5 MiB traced.  The peak is the largest single module compile on top of
    what is live: 1.78 MiB when the runners were compiled as part of cli.
    numpy and the standard library are imported before tracing starts."""
    package = Path(stemopt.__file__).parent
    options = {s: _required(keys) for s, keys in cli._KINDS[kind].options.items()}
    path = _write(tmp_path, _scenario(kind, options))
    cache = tmp_path / "pycache"   # empty: no module is read from bytecode
    cache.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", _SET_UP_PROBE, str(path), *_absolute_imports(package)],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(package.parent),
             "PYTHONPYCACHEPREFIX": str(cache), "PYTHONDONTWRITEBYTECODE": "1"})
    assert int(done.stdout) <= 1.5 * 2 ** 20


def _entry(tmp_path, text, out):
    """`python -m stemopt` on scenario `text`; returns its exit code."""
    package = Path(stemopt.__file__).parent
    return subprocess.run(
        [sys.executable, "-m", "stemopt", "--scenario", str(_write(tmp_path, text)),
         "--out", str(out), "--quiet", "--plotdata"],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(package.parent)},
    ).returncode


def test_module_entry_writes_the_run_and_its_plot_data(tmp_path):
    out = tmp_path / "out"
    assert _entry(tmp_path, _scenario("eq1", {}), out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"equilibrium.csv", "summary.json"}
    assert (out / "plotdata.csv").read_text().startswith("series,x,y\n")


def test_module_entry_rejects_a_key_the_kind_does_not_read(tmp_path):
    out = tmp_path / "out"
    assert _entry(tmp_path, _scenario("eq1", {"solver": {"grid": "64"}}), out) == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_run_op1_flat_light(tmp_path):
    code = cli.main(["--scenario", str(_write(tmp_path, OP1_SCENARIO)),
                     "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(summary["h"] - math.sin(math.pi / 4)) < 1e-9
    shape = (tmp_path / "out" / "shape.csv").read_text().splitlines()
    assert shape[0] == "y,theta,x,I"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"shape.csv", "summary.json"}


def test_run_determinism(tmp_path):
    scn_path = _write(tmp_path, OP1_SCENARIO)
    for sub in ("a", "b"):
        assert cli.main(["--scenario", str(scn_path),
                         "--out", str(tmp_path / sub), "--quiet"]) == 0
    for name in ("shape.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_run_usage_error_exit_code(tmp_path):
    bad = OP1_SCENARIO.replace("kappa = 1.0", "kappa = -2.0")
    code = cli.main(["--scenario", str(_write(tmp_path, bad)),
                     "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1


def test_run_op1_example34(tmp_path):
    text = OP1_SCENARIO.replace("ell = 1.0", "ell = 1.2") \
        + "\n[solver]\nexample34 = true\n"
    code = cli.main(["--scenario", str(_write(tmp_path, text)),
                     "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    nu = json.loads((tmp_path / "out" / "nonuniqueness.json").read_text())
    assert 0.0 < nu["eps_hat"] < nu["eps_one"] < 1.0
    assert abs(nu["payoff_low"] - nu["payoff_high"]) < 1e-10


def test_run_eq1_artifacts(tmp_path):
    text = """\
[scenario]
schema_version = 1
kind = eq1

[params]
theta0 = 0.7853981633974483
kappa = 1.0
ell = 1.0
rho = 0.05
"""
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(_write(tmp_path, text)),
                     "--out", str(out), "--quiet"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["residual_refit"] <= 1e-6
    assert summary["residual_map"] <= 1e-6
    header = (out / "equilibrium.csv").read_text().splitlines()[0]
    assert header == "y,theta_star,I_star,x"


def _fail_not_converged(*args, **kwargs):
    raise NotConvergedError("fixed point stalled")


def _fail_step_underflow(*args, **kwargs):
    exc = StepUnderflowError("step below floor")
    add_note(exc, "while refining the bracket [1.0, 2.0]")
    raise exc


@pytest.mark.parametrize("existed", [False, True])
@pytest.mark.parametrize("failure, code", [("solver-error", 1), ("not-converged", 2)])
def test_failed_run_removes_only_the_directory_it_made(
        tmp_path, monkeypatch, capsys, failure, code, existed):
    text = OP1_SCENARIO
    if failure == "solver-error":
        # op1's example34 search finds no crossing at ell = 1
        text = OP1_SCENARIO + "\n[solver]\nexample34 = true\n"
    else:
        monkeypatch.setitem(cli._KINDS, "op1", cli._KINDS["op1"]._replace(
            runner=_fail_not_converged))
    out = tmp_path / "runs" / "out"
    if existed:
        out.mkdir(parents=True)
        (out / "keep.txt").write_text("earlier run\n")
    assert cli.main(["--scenario", str(_write(tmp_path, text)),
                     "--out", str(out), "--quiet"]) == code
    if failure == "solver-error":
        assert "error: need ell*sin(theta0) < y_jump < ell" in capsys.readouterr().err
    if existed:
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
    else:
        assert not (tmp_path / "runs").exists()


def test_solver_error_prints_its_notes(tmp_path, monkeypatch, capsys):
    # a note says where a solver error happened, e.g. the bracket Brent was
    # refining; the CLI prints each note below the error line
    monkeypatch.setitem(cli._KINDS, "op1", cli._KINDS["op1"]._replace(
        runner=_fail_step_underflow))
    assert cli.main(["--scenario", str(_write(tmp_path, OP1_SCENARIO)),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: step below floor\nwhile refining the bracket [1.0, 2.0]\n")


_STEP_UNDERFLOW = "error: step below floor\nwhile refining the bracket [1.0, 2.0]\n"
_NOT_CONVERGED = "solver did not converge: fixed point stalled\n"


@pytest.mark.parametrize("direct, fixed_point, code, message", [
    (_fail_step_underflow, None, 1, _STEP_UNDERFLOW),
    (None, _fail_not_converged, 2, _NOT_CONVERGED),
    (_fail_step_underflow, _fail_not_converged, 1, _STEP_UNDERFLOW),
    (_fail_not_converged, _fail_step_underflow, 2, _NOT_CONVERGED),
], ids=["direct", "fixed-point", "both", "both-direct-not-converged"])
def test_eq2_both_reports_the_direct_failure_first(tmp_path, monkeypatch, capsys,
                                                    direct, fixed_point, code, message):
    # `both` solves the fixed point first, but reports what solving the direct
    # method first reported: the direct method's error when it fails, else
    # the fixed point's
    solved = lambda *args, **kwargs: types.SimpleNamespace(I_star=None, h=0.5)  # noqa: E731
    monkeypatch.setattr(cli.equilibrium2, "solve_equilibrium_direct", direct or solved)
    monkeypatch.setattr(cli.equilibrium2, "solve_equilibrium_fixed_point",
                        fixed_point or solved)
    out = tmp_path / "out"
    scenario = _write(tmp_path, _scenario("eq2", {"solver": {"method": "both"}}))
    assert cli.main(["--scenario", str(scenario), "--out", str(out)]) == code
    assert capsys.readouterr() == ("", message)
    assert not out.exists()


OP3_SCENARIO = _scenario("op3", {"profile": {"kind": "exponential-canopy", "rate": "0.1",
                                             "height": "1.0"}})


def _snapshot(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("failure, code", [("solver-error", 1), ("not-converged", 2)])
def test_failed_run_leaves_an_earlier_run_as_it_was(tmp_path, monkeypatch, failure, code):
    """A run that fails after its solver has produced some outputs (op1's
    example34 search finds no crossing at ell = 1; op3 reports a sweep
    that did not converge) writes none of them."""
    import hashlib
    if failure == "solver-error":
        earlier = OP1_SCENARIO.replace("level = 1.0", "level = 0.5")
        failing = OP1_SCENARIO + "\n[solver]\nexample34 = true\n"
    else:
        earlier = failing = OP3_SCENARIO
    out = tmp_path / "out"
    assert cli.main(["--scenario", str(_write(tmp_path, earlier, "earlier.ini")),
                     "--out", str(out), "--quiet"]) == 0
    before = _snapshot(out)
    if failure == "not-converged":
        solve = cli.spatial.solve_op3_single
        monkeypatch.setattr(cli.spatial, "solve_op3_single", lambda *args:
                            dataclasses.replace(solve(*args), converged=False))
    assert cli.main(["--scenario", str(_write(tmp_path, failing, "failing.ini")),
                     "--out", str(out), "--quiet"]) == code
    assert _snapshot(out) == before
    manifest = json.loads(before["manifest.json"])
    assert manifest["scenario"]["path"].endswith("earlier.ini")
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256(before[name]).hexdigest() == digest


def test_interrupted_run_leaves_no_directory(tmp_path, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._KINDS, "op1", cli._KINDS["op1"]._replace(runner=interrupt))
    scenario = cli.parse_scenario(_write(tmp_path, OP1_SCENARIO))
    with pytest.raises(KeyboardInterrupt):
        cli.run(scenario, tmp_path / "runs" / "out", quiet=True)
    assert not (tmp_path / "runs").exists()


def test_run_removes_only_what_an_earlier_run_left(tmp_path, capsys):
    """A successful run removes the outputs the previous manifest listed and
    it did not rewrite, and earlier plot data; a file the user put in the
    directory survives."""
    out = tmp_path / "out"
    op3 = _write(tmp_path, _scenario("op3", {"op3": {"nx": "8", "ny": "64"}}), "op3.ini")
    assert cli.main(["--scenario", str(op3), "--out", str(out), "--quiet",
                     "--plotdata"]) == 0
    (out / "notes.txt").write_text("mine\n")
    assert {p.name for p in out.iterdir()} == {"stem.csv", "summary.json", "manifest.json",
                                               "plotdata.csv", "notes.txt"}
    eq1 = _write(tmp_path, _scenario("eq1", {}), "eq1.ini")
    assert cli.main(["--scenario", str(eq1), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"equilibrium.csv", "summary.json"}
    assert {p.name for p in out.iterdir()} == {*manifest["outputs"], "manifest.json",
                                               "notes.txt"}
    assert (out / "notes.txt").read_text() == "mine\n"
    removed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("removed")]
    assert removed == [f"removed {out / 'plotdata.csv'}", f"removed {out / 'stem.csv'}"]


def test_run_op2_artifacts(tmp_path):
    text = """\
[scenario]
schema_version = 1
kind = op2

[params]
theta0 = 0.7853981633974483
alpha = 0.5
c = 1.0

[profile]
kind = constant

[solver]
h_lo = 0.3
h_hi = 0.4
"""
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(_write(tmp_path, text)),
                     "--out", str(out), "--quiet"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["h"] - math.sqrt(2.0) / 4.0) < 1e-6
    assert summary["hamiltonian_max_abs"] <= 1e-6
    header = (out / "stem.csv").read_text().splitlines()[0]
    assert header == "y,theta,u,I,p,q,z,x"


def test_manifest_hashes_complete(tmp_path):
    import hashlib
    out = tmp_path / "out"
    cli.main(["--scenario", str(_write(tmp_path, OP1_SCENARIO)),
              "--out", str(out), "--quiet"])
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest


def test_manifest_version_is_the_package_version(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(stemopt.__file__).parents[2] / "pyproject.toml"
    out = tmp_path / "out"
    assert cli.main(["--scenario", str(_write(tmp_path, OP1_SCENARIO)),
                     "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool_version"] == stemopt.__version__ \
        == tomllib.loads(pyproject.read_text())["project"]["version"]


def test_scenario_needs_its_source_path():
    # without it a run would solve, then fail hashing the source
    with pytest.raises(TypeError, match="source_path"):
        cli.Scenario(kind="eq1", params=ModelParams(theta0=0.5, rho=0.05),
                     profile=None, options={})


def test_run_eq2_direct(tmp_path):
    text = """\
[scenario]
schema_version = 1
kind = eq2

[params]
theta0 = 0.7853981633974483
alpha = 0.5
c = 1.0
rho0 = 0.001

[solver]
method = direct
"""
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(_write(tmp_path, text)),
                     "--out", str(out), "--quiet"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "direct_shooting"
    assert abs(summary["h"] - math.sqrt(2.0) / 4.0) / (math.sqrt(2.0) / 4.0) < 0.05
    assert summary["residual_map"] <= 1e-5
    header = (out / "equilibrium.csv").read_text().splitlines()[0]
    assert header == "y,theta,u,I_star,p,q,z"


def test_run_op3_stratified(tmp_path):
    text = """\
[scenario]
schema_version = 1
kind = op3

[params]
theta0 = 0.7853981633974483
kappa = 1.0
ell = 1.0

[profile]
kind = exponential-canopy
rate = 0.1
height = 1.0

[op3]
root = 0.0
"""
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(_write(tmp_path, text)),
                     "--out", str(out), "--quiet"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
    assert summary["stationarity_residual"] <= 1e-5
    header = (out / "stem.csv").read_text().splitlines()[0]
    assert header == "s,x,y,theta"


def test_run_halfline_reports(tmp_path):
    text = """\
[scenario]
schema_version = 1
kind = halfline

[params]
theta0 = 0.7853981633974483
kappa = 1.0
ell = 1.0

[halfline]
rho_scale = 0.005
n_stems = 5
iterations = 2
grid = 64
"""
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(_write(tmp_path, text)),
                     "--out", str(out), "--quiet"])
    # non-convergence of the conjectured configuration is not a failure
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["changes"]) >= 1
    assert (out / "family.csv").exists()
    assert (out / "field.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "family.csv" in manifest["outputs"]


def test_run_sweep(tmp_path):
    text = """\
[scenario]
schema_version = 1
kind = sweep

[params]
theta0 = 0.7853981633974483
alpha = 0.5
c = 1.0

[sweep]
parameter = rho0
values = 0.001 0.01
"""
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(_write(tmp_path, text)),
                     "--out", str(out), "--quiet"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "rho0,h,residual_map"
    assert len(lines) == 3
    h_vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(abs(h - math.sqrt(2.0) / 4.0) < 0.05 for h in h_vals)


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def test_plotdata_series_present(tmp_path):
    out = tmp_path / "out"
    cli.main(["--scenario", str(_write(tmp_path, OP1_SCENARIO)),
              "--out", str(out), "--quiet"])
    path = cli.emit_plotdata(out)
    series = {line.split(",")[0] for line in path.read_text().splitlines()[1:]}
    assert {"theta", "I", "stem"} <= series


def test_plotdata_eq1_monotone_theta(tmp_path):
    text = """\
[scenario]
schema_version = 1
kind = eq1

[params]
theta0 = 0.7853981633974483
kappa = 1.0
ell = 1.0
rho = 0.05
"""
    out = tmp_path / "out"
    cli.main(["--scenario", str(_write(tmp_path, text)),
              "--out", str(out), "--quiet"])
    path = cli.emit_plotdata(out)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    theta = np.array([float(r[2]) for r in rows if r[0] == "theta"])
    assert len(theta) > 100
    assert np.all(np.diff(theta) <= 1e-12)  # angle decreases with height


def test_plotdata_empty_dir_raises(tmp_path):
    with pytest.raises(NoArtifactsError):
        cli.emit_plotdata(tmp_path)


def test_plotdata_on_a_run_without_curves_is_an_error(tmp_path, capsys):
    text = _scenario("halfline", {"halfline": {"rho_scale": "0.005", "n_stems": "5",
                                               "iterations": "2", "grid": "64"}})
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(_write(tmp_path, text)), "--out", str(out),
                     "--quiet", "--plotdata"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: no curve artifacts" in err
    assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"family.csv", "field.csv", "summary.json"}
    assert not (out / "plotdata.csv").exists()


def test_plotdata_reads_only_the_outputs_the_manifest_lists(tmp_path):
    eq1 = _scenario("eq1", {})
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert cli.main(["--scenario", str(_write(tmp_path, OP3_SCENARIO, "op3.ini")),
                     "--out", str(reused), "--quiet"]) == 0
    for out in (fresh, reused):
        assert cli.main(["--scenario", str(_write(tmp_path, eq1, "eq1.ini")),
                         "--out", str(out), "--quiet", "--plotdata"]) == 0
    assert not (reused / "stem.csv").exists()   # the op3 run's, removed by eq1's
    assert (reused / "plotdata.csv").read_bytes() == (fresh / "plotdata.csv").read_bytes()
