"""The one statement of who may import whom — and of which public names
may exist at all.

The repository is two products.  **Production** (``backend``, ``optics``,
``layout``, ``engine``, ``sweep``, ``service``, ``utils``, ``api.py`` and the
CLI's production verbs) images layouts from golden kernel banks; **paper**
(``nn``, ``core``, ``experiments``, ``baselines``, ``analysis``, ``metrics``,
``masks``) trains and evaluates the Nitho model.  Paper imports production;
production never imports paper — with one blessed exception, the deferred
import inside ``layout/sources.py::synthesize_layout_mask`` (a synthetic
layout is pasted from the benchmark mask generators).

Every runtime case runs in a fresh subprocess, so the suite's own imports
cannot mask a leak.

The name census beside the static import walk holds ``src/repro`` to the
other half of that statement: every public module-level function, class or
constant and every public method or property has a caller outside
``tests/``, or a line in :data:`UNCALLED_ALLOWED` saying why not.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "repro")
PRODUCTION = ("backend", "optics", "layout", "engine", "sweep", "service",
              "utils", "api.py")
PAPER = ("nn", "core", "experiments", "baselines", "analysis", "metrics",
         "masks")
#: (file relative to src/repro, enclosing function, paper package)
BLESSED_EDGES = {("layout/sources.py", "synthesize_layout_mask", "masks")}
AREF_GRID = os.path.join(REPO, "tests", "data", "aref_grid.gds")


def loaded_repro_modules(code: str, cwd=None) -> list:
    """Run ``code`` in a fresh interpreter; its ``repro.*`` modules."""
    script = code + (
        "\nimport json, sys\n"
        "print('MODULES ' + json.dumps(sorted("
        "m for m in sys.modules if m.startswith('repro.'))))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    line = [line for line in done.stdout.splitlines()
            if line.startswith("MODULES ")][-1]
    return json.loads(line[len("MODULES "):])


def paper_packages(modules) -> set:
    return {name.split(".")[1] for name in modules} & set(PAPER)


def test_import_repro_loads_no_subpackage():
    assert loaded_repro_modules("import repro") == []


def test_production_entry_points_load_no_paper_package():
    modules = loaded_repro_modules(
        "import repro.api, repro.service, repro.sweep.report, repro.cli\n"
        "repro.cli.build_parser()")
    assert paper_packages(modules) == set()
    assert "repro.engine" in modules  # the probe did import something


def test_production_verbs_on_a_layout_file_load_no_paper_package(tmp_path):
    modules = loaded_repro_modules(f"""
from repro.cli import main
common = ["--input", {AREF_GRID!r}, "--tile-size", "32",
          "--pixel-size-nm", "8", "--guard", "8"]
assert main(["image-layout", *common, "--output", "layout.npz"]) == 0
assert main(["sweep-window", *common, "--focus=-40,0", "--dose", "1.0",
             "--target-cd", "64", "--store", "store",
             "--store-aerials"]) == 0
assert main(["campaign-report", "--store", "store", "--thumbnail-width",
             "16", "--thumbnails", "thumbs"]) == 0
""", cwd=str(tmp_path))
    assert paper_packages(modules) == set()
    assert os.path.exists(tmp_path / "layout.npz")
    assert os.listdir(tmp_path / "thumbs")


def test_a_synthetic_layout_loads_masks_and_nothing_else_of_the_paper(tmp_path):
    modules = loaded_repro_modules("""
from repro.cli import main
assert main(["image-layout", "--width", "64", "--height", "32",
             "--tile-size", "32", "--pixel-size-nm", "8", "--guard", "8",
             "--output", "layout.npz"]) == 0
""", cwd=str(tmp_path))
    assert paper_packages(modules) == {"masks"}


def test_imaging_through_the_api_never_imports_scipy():
    """numpy is the one FFT library: a fresh interpreter that images a
    layout through ``repro.api.image_layout`` — a raster and a ``.gds``,
    on one thread and on shares — never loads scipy, whose import used to
    cost every process start ~0.4 s."""
    script = f"""
import sys
import numpy as np
from repro import api
from repro.backend import ComputeConfig
from repro.optics import OpticsConfig
optics = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
raster = (np.random.default_rng(0).random((70, 90)) > 0.7) * 1.0
for layout in (raster, {AREF_GRID!r}):
    for workers in (1, 2):
        image = api.image_layout(layout, optics, guard_px=8,
                                 compute=ComputeConfig(fft_workers=workers))
        assert image.aerial.any()
print("SCIPY", sorted(name for name in sys.modules
                      if name == "scipy" or name.startswith("scipy.")))
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "SCIPY []"


def production_files():
    for entry in PRODUCTION:
        path = os.path.join(PACKAGE, entry)
        if os.path.isfile(path):
            yield path
            continue
        for root, _, names in os.walk(path):
            for name in names:
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def paper_imports(path: str, package: str = PACKAGE):
    """Every import of a paper package in ``path`` — at any depth, deferred
    or not — as ``(file relative to ``package``, enclosing function, paper
    package, line)``."""
    relative = os.path.relpath(path, package).replace(os.sep, "/")
    # the package a relative import of this file's ``level`` lands in
    parts = ["repro"] + relative.split("/")[:-1]
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            targets = []
            if isinstance(child, ast.Import):
                targets = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                base = parts[:len(parts) - child.level + 1] if child.level \
                    else []
                module = ".".join(base + ([child.module] if child.module else []))
                targets = [module] + [f"{module}.{alias.name}"
                                      for alias in child.names]
            for target in targets:
                pieces = target.split(".")
                if pieces[0] == "repro" and len(pieces) > 1 \
                        and pieces[1] in PAPER:
                    yield relative, function, pieces[1], child.lineno
            yield from visit(child, function)

    yield from visit(tree, "<module>")


def test_no_production_file_imports_a_paper_package():
    files = list(production_files())
    assert len(files) > 40  # the walk found the packages
    edges = {edge for path in files for edge in paper_imports(path)}
    unblessed = {edge for edge in edges if edge[:3] not in BLESSED_EDGES}
    assert not unblessed, sorted(unblessed)
    assert {edge[:3] for edge in edges} == BLESSED_EDGES  # and it is still there


def test_the_convenience_names_resolve_lazily():
    modules = loaded_repro_modules("""
import repro
import repro.core, repro.optics
assert repro.NithoModel is repro.core.NithoModel
assert repro.NithoConfig is repro.core.NithoConfig
assert repro.LithographySimulator is repro.optics.LithographySimulator
assert repro.OpticsConfig is repro.optics.OpticsConfig
from repro import NithoModel
try:
    repro.nonexistent
except AttributeError as exc:
    assert "nonexistent" in str(exc)
else:
    raise AssertionError("repro.nonexistent resolved")
""")
    assert "repro.core.nitho" in modules


@pytest.mark.parametrize("source, expected", [
    ("from ..masks import Rect", "masks"),
    ("from .. import core", "core"),
    ("import repro.nn.layers", "nn"),
    ("def f():\n    from repro.analysis.visualize import write_pgm", "analysis"),
    ("from ..optics import OpticsConfig", None),
    ("from .masks import x", None),  # a sibling module, not the package
])
def test_the_static_walk_sees_every_spelling(tmp_path, source, expected):
    package = tmp_path / "repro"
    (package / "engine").mkdir(parents=True)
    probe = package / "engine" / "probe.py"
    probe.write_text(source + "\n")
    found = {edge[2] for edge in paper_imports(str(probe), str(package))}
    assert found == ({expected} if expected else set())


#: Where a call counts: the product and everything that drives it.
CALLER_DIRS = ("src/repro", "bench", "benchmarks", "examples", "tools")
#: Public names under ``src/repro`` that nothing outside ``tests/`` calls,
#: each with the reason it stays.
UNCALLED_ALLOWED = {
    "stitch_tiles": "the stitch oracle tests/reference.py images against",
    "open_layout_dir": "reads the --out directory image_layout writes",
    "save_layout": "writes the repro-layout JSON load_layout_file reads",
    "load_layout_file": "an unshared reader of a layout file; "
                        "load_layout_source hands every caller one object",
    "PixelatedSource": "a freeform illuminator for source=",
    "truncation_error_bound": "the SOCS truncation budget ROADMAP items 2 "
                              "and 9 gate on",
    "do_GET": "http.server dispatches each request method by name",
    "do_POST": "http.server dispatches each request method by name",
    "do_DELETE": "http.server dispatches each request method by name",
    "flatten": "the dense-flatten oracle the conformance tests pin "
               "HierarchicalLayoutReader windows against",
}


def python_files(directory: str):
    for root, _, names in os.walk(directory):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def defined_names(tree: ast.Module):
    """Every name a module defines: module-level ``def`` / ``class`` /
    assignment targets, and each ``def`` in a class body (methods and
    properties)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from (target.id for target in targets
                        if isinstance(target, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from (member.name for member in node.body
                        if isinstance(member, (ast.FunctionDef,
                                               ast.AsyncFunctionDef)))


def uncalled_public_names(repo: str = REPO) -> set:
    """Public names under ``src/repro`` — module-level functions, classes
    and constants, methods and properties — that no ``ast.Name`` /
    ``ast.Attribute`` under :data:`CALLER_DIRS` mentions.  Imports
    (re-exports), ``__all__`` strings, assignment targets and ``tests/`` do
    not count.  A method whose name collides with another attribute (numpy's
    ``.shape``) counts as called: a collision can hide an orphan, never
    invent one."""
    defined = set()
    for path in python_files(os.path.join(repo, "src", "repro")):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        defined.update(name for name in defined_names(tree)
                       if not name.startswith("_"))
    mentioned = set()
    for directory in CALLER_DIRS:
        for path in python_files(os.path.join(repo, directory)):
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(getattr(node, "ctx", None), ast.Store):
                    continue
                if isinstance(node, ast.Name):
                    mentioned.add(node.id)
                elif isinstance(node, ast.Attribute):
                    mentioned.add(node.attr)
    return defined - mentioned


def check_census(repo: str = REPO, allowed=UNCALLED_ALLOWED) -> None:
    """Fail on a new orphan and on a stale allow-list entry alike."""
    found = uncalled_public_names(repo)
    orphans, stale = sorted(found - set(allowed)), sorted(set(allowed) - found)
    assert not orphans and not stale, (
        f"uncalled (delete, or allow with a reason): {orphans}; "
        f"stale allow-list entries (they have a caller now): {stale}")


def test_every_public_name_has_a_caller_outside_the_tests():
    check_census()


def test_the_name_census_sees_every_spelling(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import reexported\n__all__ = ['in_all']\n")
    (package / "mod.py").write_text(
        "def called():\n    pass\n\n"
        "def attribute_called():\n    pass\n\n"
        "def reexported():\n    pass\n\n"
        "def in_all():\n    pass\n\n"
        "def test_only():\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "LIMIT = 3\nUNREAD: int = 4\n\n"
        "class Orphan:\n    def method(self):\n        pass\n\n"
        "class Used:\n"
        "    def __init__(self):\n        pass\n\n"
        "    def called_method(self):\n        pass\n\n"
        "    @property\n    def read_property(self):\n        pass\n\n"
        "    def test_only_method(self):\n        pass\n\n"
        "    @property\n    def test_only_property(self):\n        pass\n\n"
        "    def _helper(self):\n        pass\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "drive.py").write_text(
        "import repro.mod\nfrom repro.mod import called\n"
        "called()\nrepro.mod.attribute_called()\n"
        "obj = repro.mod.Used()\nobj.called_method()\n"
        "print(obj.read_property, repro.mod.LIMIT)\n"
        "UNREAD = None  # an assignment defines, it does not mention\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import Used, test_only\ntest_only()\n"
        "Used().test_only_method()\nUsed().test_only_property\n")
    found = {"reexported", "in_all", "test_only", "Orphan", "method",
             "UNREAD", "test_only_method", "test_only_property"}
    assert uncalled_public_names(str(tmp_path)) == found
    allowed = dict.fromkeys(found, "a reason")
    check_census(str(tmp_path), allowed)
    with pytest.raises(AssertionError, match=r"stale .*\['called_method'\]"):
        check_census(str(tmp_path), {**allowed, "called_method": "stale"})
    with pytest.raises(AssertionError, match=r"uncalled .*\['method'\]"):
        check_census(str(tmp_path), {name: "a reason" for name in found
                                     if name != "method"})
