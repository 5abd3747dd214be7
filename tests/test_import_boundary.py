"""The one statement of who may import whom.

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
