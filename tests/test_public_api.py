"""The public API surface stays importable and coherent."""

import ast
import importlib
import os
import subprocess
import sys

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
    "set_tracer": "how tests install a tracer and flush it",
    "Schedule": "the outage schedule the faulty golden trace is built with",
    "effective_pairwise_sigma": "the common-mode pairwise sigma the shadowing tests compare with",
    "point_in_circle": "the disk-membership test the Apollonius circle tests are stated in",
}
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


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

    def exempt(module, name):
        return name in _EXEMPT_NAMES or any(
            module == m or module.startswith(m + ".") for m in _EXEMPT_MODULES
        )

    def orphan(module, name):
        leaf = name.rsplit(".", 1)[-1]
        return not leaf.startswith("_") and leaf not in used and not exempt(module, leaf)

    orphans = sorted(f"{module}.{name}" for module, name in defined if orphan(module, name))
    assert not orphans, "public names with no caller outside tests/:\n  " + "\n  ".join(orphans)
    stale = sorted(name for name in _EXEMPT_NAMES if name in used)
    assert not stale, f"exempt names that now have a caller; drop their exemption: {stale}"
