"""The public API surface stays importable and coherent."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import repro

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.geometry",
        "repro.rf",
        "repro.network",
        "repro.mobility",
        "repro.baselines",
        "repro.analysis",
        "repro.sim",
        "repro.testbed",
        "repro.faultlab",
    ],
)
def test_subpackage_all_exports(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.__all__ lists missing attribute {name}"


def test_quickstart_surface():
    """The objects the README quickstart uses exist and compose."""
    from repro import SimulationConfig, make_scenario, run_all_trackers

    cfg = SimulationConfig(n_sensors=5, duration_s=3.0)
    scenario = make_scenario(cfg, seed=0)
    results = run_all_trackers(scenario, ["fttt"], 1, n_rounds=2)
    assert "fttt" in results


def test_import_leaves_heavy_dependencies_unloaded():
    """``import repro`` loads scipy.stats, scipy.optimize and networkx only
    when a function that needs them runs: together they are over a second
    of start-up on a 2-vCPU host."""
    heavy = ("scipy.stats", "scipy.optimize", "networkx")
    code = f"import sys, repro; print([m for m in {heavy!r} if m in sys.modules])"
    src = os.path.join(_ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# -- every public name has a caller ----------------------------------------

# where a use counts: the program and what ships with it, not the unit tests
_CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench", "tools")

# whole modules whose names may go uncalled
_EXEMPT_MODULES = {
    "repro.oracle": "the reference tier: tests and the fuzz harness check the fast paths against it",
    "repro.geometry.exact": "the certified boundary error that the raster pricing work will read",
    "repro.geometry.shm": "the shared-memory transport stays until the benchmark drops it",
}
# single names that tests use as references or fixtures
_EXEMPT_NAMES = {
    "pair_index": "the closed-form pair numbering the pair-enumeration tests check against",
    "pair_win_counts": "the per-pair win counts the Algorithm 1 vector tests are stated in",
    "uncertain_band_halfwidth": "the Eq. 4 band width the Apollonius tests check",
    "uncertain_boundary_circles": "the Eq. 4 boundary circles the Apollonius tests check",
    "NoFaults": "the identity fault model the fault-model tests compare with",
    "NoNoise": "the noiseless channel the channel and sensing tests run on",
    "Schedule": "the outage schedule the faulty golden trace is built with",
    "effective_pairwise_sigma": "the common-mode pairwise sigma the shadowing tests compare with",
    "point_in_circle": "the disk-membership test the Apollonius circle tests are stated in",
}
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


def _is_exempt(module, leaf):
    return leaf in _EXEMPT_NAMES or any(
        module == m or module.startswith(m + ".") for m in _EXEMPT_MODULES
    )


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if not d.startswith(".")]
        yield from (os.path.join(dirpath, f) for f in filenames if f.endswith(".py"))


def _used_names(tree, is_init):
    """Every ``ast.Name``, ``ast.Attribute`` and import alias in a module,
    except a name used inside its own top-level definition and a package
    ``__init__``'s own imports (re-exports, not uses)."""
    used = set()
    for top in tree.body:
        if is_init and isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
        if isinstance(top, _DEFS):
            names.discard(top.name)
        used |= names
    return used


def test_every_public_name_has_a_caller():
    """A public top-level function or class of ``src/repro``, or a public
    method or property of one of its classes, that only its own unit tests
    use is dead weight: delete it, or give it a caller."""
    src = os.path.join(_ROOT, "src")
    defined = []  # (module, name), name "Class.member" for class members
    used = set()
    for top in _CALLER_DIRS:
        for path in _python_files(os.path.join(_ROOT, top)):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            is_init = os.path.basename(path) == "__init__.py"
            used |= _used_names(tree, is_init)
            if top == "src":
                module = os.path.relpath(path, src)[: -len(".py")].replace(os.sep, ".")
                module = module.removesuffix(".__init__")
                for n in tree.body:
                    if isinstance(n, _DEFS):
                        defined.append((module, n.name))
                    if isinstance(n, ast.ClassDef):
                        defined += [
                            (module, f"{n.name}.{m.name}") for m in n.body if isinstance(m, _FUNCS)
                        ]

    def orphan(module, name):
        leaf = name.rsplit(".", 1)[-1]
        return not leaf.startswith("_") and leaf not in used and not _is_exempt(module, leaf)

    orphans = sorted(f"{module}.{name}" for module, name in defined if orphan(module, name))
    assert not orphans, "public names with no caller outside tests/:\n  " + "\n  ".join(orphans)
    stale = sorted(name for name in _EXEMPT_NAMES if name in used)
    assert not stale, f"exempt names that now have a caller; drop their exemption: {stale}"


# -- every option has a caller ---------------------------------------------

# options that only a test sets, each with the test that needs the second
# value and why no input reaches its case
_EXEMPT_OPTIONS: dict[str, str] = {}


def _options(fn, bound):
    """``(positional, named, defaulted, kwargs)`` of a ``def``: the
    positional parameter names (the bound ``self``/``cls`` dropped), every
    named parameter, the names that have a default, and whether it takes
    ``**kwargs``."""
    a = fn.args
    positional = [p.arg for p in (*a.posonlyargs, *a.args)]
    defaulted = positional[len(positional) - len(a.defaults) :] if a.defaults else []
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    named = set(positional) | {p.arg for p in a.kwonlyargs}
    return positional[1:] if bound else positional, named, defaulted, a.kwarg is not None


def _decorators(fn):
    return {d.id if isinstance(d, ast.Name) else getattr(d, "attr", "") for d in fn.decorator_list}


def _option_defs(tree, module):
    """``(qualname, leaf, options)`` for every public top-level function,
    public method and ``__init__`` of a public class in *tree*; *leaf* is
    the name a call uses (the class name for ``__init__``)."""
    for n in tree.body:
        if isinstance(n, _FUNCS) and not n.name.startswith("_"):
            if not _is_exempt(module, n.name):
                yield f"{module}.{n.name}", n.name, _options(n, bound=False)
        if not isinstance(n, ast.ClassDef) or n.name.startswith("_"):
            continue
        for m in n.body:
            if not isinstance(m, _FUNCS) or "property" in _decorators(m):
                continue
            leaf = n.name if m.name == "__init__" else m.name
            if leaf.startswith("_") or _is_exempt(module, leaf):
                continue
            bound = "staticmethod" not in _decorators(m)
            yield f"{module}.{n.name}.{m.name}", leaf, _options(m, bound)


def _leaf(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _partial_target(call):
    """The function a ``functools.partial(f, ...)`` call binds, else None."""
    if _leaf(call.func) == "partial" and call.args:
        return _leaf(call.args[0])
    return None


def _option_calls(tree):
    """``{leaf: [(n_positional, keywords, splat)]}`` for every call in
    *tree*.  ``splat`` marks a call that passes ``*args`` or ``**mapping``
    (it may set anything); a ``partial(f, ...)`` counts as a call of ``f``;
    ``cls(...)`` in a classmethod and ``super().__init__(...)`` count as
    calls of the class and of its bases."""
    calls = {}

    def visit(node, cls_name, bases, in_classmethod):
        if isinstance(node, ast.ClassDef):
            cls_name, bases = node.name, [_leaf(b) for b in node.bases]
        elif isinstance(node, _FUNCS):
            in_classmethod = "classmethod" in _decorators(node)
        elif isinstance(node, ast.Call):
            args, leaves = node.args, [_leaf(node.func)]
            target = _partial_target(node)
            if target is not None:
                args, leaves = node.args[1:], [target]
            elif leaves == ["cls"] and in_classmethod:
                leaves = [cls_name]
            elif (
                leaves == ["__init__"]
                and isinstance(node.func.value, ast.Call)
                and _leaf(node.func.value.func) == "super"
            ):
                leaves = bases
            splat = any(isinstance(a, ast.Starred) for a in args) or any(
                k.arg is None for k in node.keywords
            )
            entry = (len(args), {k.arg for k in node.keywords if k.arg}, splat)
            for leaf in leaves:
                if leaf:
                    calls.setdefault(leaf, []).append(entry)
        for child in ast.iter_child_nodes(node):
            visit(child, cls_name, bases, in_classmethod)

    visit(tree, None, [], False)
    return calls


def _unset_options(defs, calls):
    """The defaulted parameters and ``**kwargs`` of *defs* that no call in
    *calls* sets, as ``qualname(param=)`` / ``qualname(**param)``."""
    unset = []
    for qualname, leaf, (positional, named, defaulted, kwargs) in defs:
        sites = calls.get(leaf, [])
        for p in defaulted:
            pos = positional.index(p) if p in positional else None
            if not any(
                splat or p in kws or (pos is not None and n_pos > pos)
                for n_pos, kws, splat in sites
            ):
                unset.append(f"{qualname}({p}=)")
        if kwargs and not any(splat or kws - named for _, kws, splat in sites):
            unset.append(f"{qualname}(**kwargs)")
    return unset


def test_every_option_has_a_caller():
    """A defaulted parameter or ``**kwargs`` of a public function, method or
    constructor of ``src/repro`` that no caller outside ``tests/`` sets has
    one value in use: fold it into the body as a constant.  A call sets a
    parameter when it passes it by keyword, fills its position, or binds it
    with ``functools.partial``; a call through ``*args``/``**mapping`` may
    set anything."""
    src = os.path.join(_ROOT, "src")
    defs, calls = [], {}
    for top in _CALLER_DIRS:
        for path in _python_files(os.path.join(_ROOT, top)):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for leaf, sites in _option_calls(tree).items():
                calls.setdefault(leaf, []).extend(sites)
            if top == "src":
                module = os.path.relpath(path, src)[: -len(".py")].replace(os.sep, ".")
                defs += _option_defs(tree, module.removesuffix(".__init__"))
    unset = _unset_options(defs, calls)
    missing = sorted(u for u in unset if u not in _EXEMPT_OPTIONS)
    assert not missing, "options no caller outside tests/ sets:\n  " + "\n  ".join(missing)
    stale = sorted(u for u in _EXEMPT_OPTIONS if u not in unset)
    assert not stale, f"exempt options that now have a caller; drop their exemption: {stale}"


_SYNTHETIC_DEFS = """
def make_scenario(config, *, deployment="random", c_mode="calibrated", seed=None):
    pass

def run(points, n_reps=3, chunk=None, **extra):
    pass

def emit(name, **fields):
    pass

class Sweep:
    def __init__(self, points, *, share=False, workers=1):
        pass

    def go(self, fast=False, **kw):
        pass

    @staticmethod
    def plan(points, depth=2):
        pass
"""

_SYNTHETIC_CALLS = """
from functools import partial

make_scenario(cfg, deployment="grid")
make = partial(make_scenario, c_mode="paper")
run(points, 5)
run(points, **options)
emit("x", value=1)
sweep = Sweep(points, share=True)
sweep.go(True)
Sweep.plan(points, 3)
"""


def _synthetic_unset():
    defs = list(_option_defs(ast.parse(textwrap.dedent(_SYNTHETIC_DEFS)), "synthetic"))
    return _unset_options(defs, _option_calls(ast.parse(textwrap.dedent(_SYNTHETIC_CALLS))))


def test_option_collector_on_a_synthetic_module():
    """Keyword, positional and ``partial`` calls set what they pass; a
    ``**mapping`` sets everything; ``**kwargs`` needs an unnamed keyword."""
    assert sorted(_synthetic_unset()) == [
        "synthetic.Sweep.__init__(workers=)",
        "synthetic.Sweep.go(**kwargs)",
        "synthetic.make_scenario(seed=)",
    ]


def test_option_collector_without_partial_flags_c_mode(monkeypatch):
    """The mutant that ignores ``functools.partial`` wrongly reports the
    option that ``sim.ablations`` sets only through a partial."""
    monkeypatch.setattr(sys.modules[__name__], "_partial_target", lambda call: None)
    assert "synthetic.make_scenario(c_mode=)" in _synthetic_unset()


# -- every environment variable has a setter --------------------------------

# variables the package reads that nothing in the repo sets, each with why
_EXEMPT_ENV = {
    "REPRO_FACE_CACHE_DIR": "a deployment path: where a site keeps its on-disk face-map store",
}


def _repro_literal(node):
    """The ``REPRO_*`` name a string literal holds, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.startswith("REPRO_"):
            return node.value
    return None


def _env_reads(tree):
    """``REPRO_*`` names read by ``os.environ.get``, ``os.environ[...]`` or
    ``os.getenv`` with a literal name."""

    def is_environ(node):
        return isinstance(node, ast.Attribute) and node.attr == "environ"

    reads = set()
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and (
                (func.attr == "get" and is_environ(func.value)) or func.attr == "getenv"
            ):
                name = _repro_literal(node.args[0])
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if is_environ(node.value):
                name = _repro_literal(node.slice)
        if name:
            reads.add(name)
    return reads


def _env_sets(tree):
    """``REPRO_*`` names a module sets: ``x["NAME"] = ...``,
    ``setenv``/``putenv``/``setdefault("NAME", ...)``, a ``NAME=...`` keyword
    (``dict(os.environ, NAME=...)``, ``os.environ.update(NAME=...)``) or a
    dict-literal key.  A deletion is not a set."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.slice for t in targets if isinstance(t, ast.Subscript)]
        elif isinstance(node, ast.Call):
            if _leaf(node.func) in ("setenv", "putenv", "setdefault") and node.args:
                found.append(node.args[0])
            found += [ast.Constant(k.arg) for k in node.keywords if k.arg]
        elif isinstance(node, ast.Dict):
            found += node.keys
    return {name for name in map(_repro_literal, found) if name}


def _workflow_sets():
    """``REPRO_*`` names a CI workflow sets, as ``NAME=value`` on a command
    line or ``NAME: value`` in an ``env:`` block."""
    import glob
    import re

    sets = set()
    for path in glob.glob(os.path.join(_ROOT, ".github", "workflows", "*.yml")):
        with open(path, encoding="utf-8") as fh:
            sets.update(re.findall(r"\b(REPRO_[A-Z0-9_]+)\s*[=:]", fh.read()))
    return sets


def test_every_environment_variable_has_a_setter():
    """A ``REPRO_*`` variable the package reads but that neither CI nor the
    shipped code (benchmarks, examples, perfbench, tools) ever sets is a
    knob only tests turn: give it an in-process setter instead."""
    reads, sets = set(), _workflow_sets()
    for top in _CALLER_DIRS:
        for path in _python_files(os.path.join(_ROOT, top)):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            if top == "src":
                reads |= _env_reads(tree)
            else:
                sets |= _env_sets(tree)
    unset = sorted(reads - sets - set(_EXEMPT_ENV))
    assert not unset, "environment variables nothing outside tests/ sets:\n  " + "\n  ".join(unset)
    stale = sorted(name for name in _EXEMPT_ENV if name in sets or name not in reads)
    assert not stale, f"exempt variables that are now set or no longer read: {stale}"


_SYNTHETIC_ENV = """
import os
os.environ["REPRO_A"] = "1"
env = dict(os.environ, REPRO_B="2")
monkeypatch.setenv("REPRO_C", "3")
run(env={"REPRO_D": "4"})
del os.environ["REPRO_E"]
os.environ.pop("REPRO_F", None)
monkeypatch.delenv("REPRO_G")
value = os.environ.get("REPRO_H") or os.getenv("REPRO_I") or os.environ["REPRO_J"]
"""


def test_env_collectors_on_a_synthetic_module():
    """Assignments, keywords, ``setenv`` and dict keys set a variable; a
    deletion does not; the three read forms read one."""
    tree = ast.parse(_SYNTHETIC_ENV)
    assert _env_sets(tree) == {"REPRO_A", "REPRO_B", "REPRO_C", "REPRO_D"}
    assert _env_reads(tree) == {"REPRO_H", "REPRO_I", "REPRO_J"}
