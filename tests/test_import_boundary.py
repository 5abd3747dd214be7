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
``tests/``, or a line in :data:`UNCALLED_ALLOWED` saying why not.  The
parameter census does the same for settings: every defaulted parameter and
dataclass field of production has a caller outside ``tests/`` that sets it,
or a line in :data:`UNSET_ALLOWED` (rules: :func:`unset_settings`).  The
environment census does it for ``REPRO_*`` variables: every one the program
reads is set by a caller outside ``tests/`` and has a line in
:data:`ENV_ALLOWED` (rules: :func:`environment_variables`).
"""

import ast
import json
import os
import re
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


#: Settings that are outside input, so the parameter census does not hold
#: them: a module (every parameter in it) or one ``function(parameter)``.
SETTINGS_EXEMPT = {
    "api.py": "the library spelling of the CLI flags, which are outside "
              "input",
    "main(argv)": "the command line, which is outside input",
}
#: Where a defaulted parameter is a setting: production and the CLI.
SETTING_MODULES = tuple(entry for entry in PRODUCTION + ("cli.py",)
                        if entry not in SETTINGS_EXEMPT)
#: Defaulted parameters and dataclass fields that nothing outside
#: ``tests/`` sets, each with the reason it stays a parameter.
UNSET_ALLOWED = {
    "ServiceClient(timeout)": "a deployment setting: how long a client "
                              "waits on a slow server",
    "TileResultCache(max_bytes)": "a deployment setting: the tile cache's "
                                  "memory budget",
    "configure_default_tile_cache(cache_dir)": "a deployment setting: where "
                                               "the process's tile cache "
                                               "persists",
    "configure_default_tile_cache(max_bytes)": "a deployment setting: the "
                                               "process's tile cache budget",
    "CampaignServer(manager)": "the seam a test hands its own "
                               "CampaignManager through",
    "Pupil(apodization)": "a physical parameter of the paper's pupil",
    "DipoleSource(centre)": "a physical parameter of the paper's source",
    "DipoleSource(pole_radius)": "a physical parameter of the paper's "
                                 "source",
    "DipoleSource(vertical)": "a physical parameter of the paper's source",
    "QuadrupoleSource(centre)": "a physical parameter of the paper's "
                                "source",
    "QuadrupoleSource(pole_radius)": "a physical parameter of the paper's "
                                     "source",
    "LithographySimulator(pupil)": "a physical parameter: the pupil the "
                                   "golden simulator images through",
}


class Signature:
    """The parameters one call name can reach: ``key`` names its settings
    (``function``, ``Class.method``, or ``Class`` for ``__init__`` and for
    a dataclass's fields), ``params`` are the positional ones in order."""

    def __init__(self, key: str, params: list, defaulted: set):
        self.key, self.params, self.defaulted = key, params, defaulted


def _called_name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_called_name(getattr(decorator, "func", decorator))
               == "dataclass" for decorator in node.decorator_list)


def _function_signature(key: str, function, is_method: bool) -> Signature:
    args = function.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    defaulted = set(positional[len(positional) - len(args.defaults):]) \
        if args.defaults else set()
    defaulted |= {arg.arg for arg, default in
                  zip(args.kwonlyargs, args.kw_defaults) if default is not None}
    static = any(_called_name(decorator) == "staticmethod"
                 for decorator in function.decorator_list)
    if is_method and not static:
        positional = positional[1:]  # self / cls
    return Signature(key, positional, defaulted)


def setting_files(repo: str = REPO):
    for entry in SETTING_MODULES:
        path = os.path.join(repo, "src", "repro", entry)
        if os.path.isfile(path):
            yield path
        yield from python_files(path)


def setting_signatures(repo: str = REPO):
    """``(call name -> [Signature], dataclass signatures)`` of every
    module-level function, method and class in :data:`SETTING_MODULES`.
    A class call reaches its ``__init__`` or its dataclass fields (a base
    dataclass's first), inherited when it defines neither; dunder methods
    other than ``__init__`` are called by the language, not by name."""
    classes, index = {}, {}
    for path in setting_files(repo):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index.setdefault(node.name, []).append(
                    _function_signature(node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = node

    def fields(node):
        for base in node.bases:
            if _called_name(base) in classes:
                yield from fields(classes[_called_name(base)])
        for member in node.body:
            if not (isinstance(member, ast.AnnAssign)
                    and isinstance(member.target, ast.Name)) \
                    or "ClassVar" in ast.unparse(member.annotation):
                continue
            value = member.value
            if isinstance(value, ast.Call) and _called_name(value.func) \
                    == "field" and any(keyword.arg == "init"
                                       for keyword in value.keywords):
                continue  # init=False: not a constructor parameter
            yield member.target.id, value is not None

    constructors = {}

    def constructor(name):
        if name not in constructors:
            node, found = classes[name], None
            if _is_dataclass(node):
                pairs = list(fields(node))
                found = Signature(name, [field for field, _ in pairs],
                                  {field for field, default in pairs if default})
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and member.name == "__init__":
                    found = _function_signature(name, member, True)
            for base in node.bases:
                if found is None and _called_name(base) in classes:
                    found = constructor(_called_name(base))
            constructors[name] = found
        return constructors[name]

    for name, node in classes.items():
        if constructor(name) is not None:
            index.setdefault(name, []).append(constructor(name))
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not member.name.startswith("__"):
                index.setdefault(member.name, []).append(_function_signature(
                    f"{name}.{member.name}", member, True))
    dataclasses_ = [constructor(name) for name, node in classes.items()
                    if _is_dataclass(node)]
    return index, dataclasses_


def unset_settings(repo: str = REPO):
    """``(settings, unset)``: every defaulted parameter and dataclass field
    under :data:`SETTING_MODULES` as ``"key(name)"``, and those no call
    under :data:`CALLER_DIRS` sets.

    - A call sets a parameter when it passes it by keyword or by position.
    - ``functools.partial(f, ...)`` counts as a call to ``f``.
    - Inside a class, ``cls(...)`` and ``type(self)(...)`` call that class.
    - ``dataclasses.replace(x, k=...)`` sets field ``k`` of every
      dataclass that has one.
    - A call with ``*args`` or ``**kwargs`` sets every parameter of its
      callee.
    - A bare name that is the calling function's own defaulted parameter
      only forwards it: the setting counts once that parameter is set,
      iterated to a fixpoint.
    - A dataclass field the program assigns after construction (an
      attribute store of its name) is state, not a setting; so is a field
      with ``init=False``.
    - Calls resolve by name, so a collision counts as set: it can hide an
      orphan, never invent one.
    - :data:`SETTINGS_EXEMPT` is outside input: set by definition.
    """
    index, dataclasses_ = setting_signatures(repo)
    owners = {signature.key: signature
              for signatures in index.values() for signature in signatures}
    tracked = {os.path.realpath(path) for path in setting_files(repo)}
    done = {key for key in SETTINGS_EXEMPT if "(" in key}
    forwards, state = [], set()

    def settle(setting, value, scopes):
        if isinstance(value, ast.Name):
            for key, params in reversed(scopes):
                if value.id in params:
                    if key in owners and value.id in owners[key].defaulted:
                        forwards.append((f"{key}({value.id})", setting))
                        return
                    break
        done.add(setting)

    def call(node, klass, scopes):
        func, args = node.func, list(node.args)
        if _called_name(func) == "partial" and args:
            func, args = args[0], args[1:]
        if _called_name(func) == "replace":
            for keyword in node.keywords:
                for signature in dataclasses_:
                    if keyword.arg in signature.params:
                        settle(f"{signature.key}({keyword.arg})",
                               keyword.value, scopes)
            return
        name = _called_name(func)
        if klass and (name == "cls" or isinstance(func, ast.Call)
                      and _called_name(func.func) == "type"):
            name = klass
        spread = any(isinstance(arg, ast.Starred) for arg in args) \
            or any(keyword.arg is None for keyword in node.keywords)
        for signature in index.get(name, ()):
            if spread:
                done.update(f"{signature.key}({param})"
                            for param in signature.defaulted)
                continue
            for param, value in zip(signature.params, args):
                settle(f"{signature.key}({param})", value, scopes)
            for keyword in node.keywords:
                settle(f"{signature.key}({keyword.arg})", keyword.value,
                       scopes)

    def visit(node, klass, scopes, in_setting_module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, scopes, in_setting_module)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                key = None
                if in_setting_module and not scopes \
                        and not isinstance(child, ast.Lambda):
                    key = child.name if klass is None else klass \
                        if child.name == "__init__" else f"{klass}.{child.name}"
                args = child.args
                params = {arg.arg for arg in args.posonlyargs + args.args
                          + args.kwonlyargs}
                visit(child, klass, scopes + [(key, params)],
                      in_setting_module)
                continue
            if isinstance(child, ast.Attribute) \
                    and isinstance(child.ctx, ast.Store):
                state.add(child.attr)
            if isinstance(child, ast.Call):
                call(child, klass, scopes)
            visit(child, klass, scopes, in_setting_module)

    for directory in CALLER_DIRS:
        for path in python_files(os.path.join(repo, directory)):
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            visit(tree, None, [], os.path.realpath(path) in tracked)
    grew = True
    while grew:
        grew = False
        for source, setting in forwards:
            if source in done and setting not in done:
                done.add(setting)
                grew = True
    fields = {signature.key for signature in dataclasses_}
    settings = {f"{signature.key}({param})" for signature in owners.values()
                for param in signature.defaulted
                if not (signature.key in fields and param in state)}
    return settings, settings - done


def check_parameter_census(repo: str = REPO, allowed=UNSET_ALLOWED) -> None:
    """Fail on a new unset setting and on a stale allow-list entry alike."""
    _, found = unset_settings(repo)
    orphans, stale = sorted(found - set(allowed)), sorted(set(allowed) - found)
    assert not orphans and not stale, (
        f"never set outside the tests (make it a constant, or allow it with "
        f"a reason): {orphans}; stale allow-list entries (set now, or "
        f"gone): {stale}")


def test_every_defaulted_parameter_is_set_outside_the_tests():
    check_parameter_census()


def test_the_parameter_census_sees_every_spelling(tmp_path):
    package = tmp_path / "src" / "repro" / "engine"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "def by_keyword(a, b=1):\n    pass\n\n"
        "def by_position(a, b=1):\n    pass\n\n"
        "def by_partial(a, b=1):\n    pass\n\n"
        "def by_spread(a, *, b=1):\n    pass\n\n"
        "def forwarded(a, b=1):\n    pass\n\n"
        "def relay_inner(b=1):\n    forwarded(0, b=b)\n\n"
        "def relay(b=1):\n    relay_inner(b)\n\n"
        "def dead_end(a, b=1):\n    pass\n\n"
        "def dead_relay(b=1):\n    dead_end(0, b)\n\n"
        "def test_only(a, b=1):\n    pass\n\n"
        "class Built:\n"
        "    def __init__(self, size=1):\n        pass\n\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls(size=2)\n\n"
        "class Copied:\n"
        "    def __init__(self, size=1):\n        pass\n\n"
        "    def again(self):\n        return type(self)(2)\n\n"
        "@dataclass\nclass Options:\n"
        "    depth: int = 1\n    width: int = 2\n    hits: int = 0\n"
        "    stamp: float = field(init=False, default=0.0)\n"
        "    unset: int = 3\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "drive.py").write_text(
        "import dataclasses\nimport functools\n"
        "from repro.engine import mod\n"
        "mod.by_keyword(0, b=2)\nmod.by_position(0, 2)\n"
        "functools.partial(mod.by_partial, b=2)(0)\n"
        "mod.by_spread(0, **{'b': 2})\nmod.relay(b=5)\nmod.dead_relay()\n"
        "mod.Built.make()\nmod.Copied().again()\n"
        "options = dataclasses.replace(mod.Options(depth=5), width=3)\n"
        "options.hits += 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.engine import mod\n"
        "mod.test_only(0, b=3)\nmod.dead_relay(b=4)\n"
        "mod.Options(unset=4)\n")
    settings, found = unset_settings(str(tmp_path))
    assert "Options(hits)" not in settings  # state
    assert "Options(stamp)" not in settings  # init=False
    assert found == {"dead_end(b)", "dead_relay(b)", "test_only(b)",
                     "Options(unset)"}
    allowed = dict.fromkeys(found, "a reason")
    check_parameter_census(str(tmp_path), allowed)
    with pytest.raises(AssertionError, match=r"stale .*\['forwarded\(b\)'\]"):
        check_parameter_census(str(tmp_path),
                               {**allowed, "forwarded(b)": "stale"})
    with pytest.raises(AssertionError, match=r"tests.*\['dead_end\(b\)'\]"):
        check_parameter_census(str(tmp_path), {
            name: "a reason" for name in found if name != "dead_end(b)"})


#: Where a variable counts as set: CI and everything that drives the product.
SETTER_DIRS = (".github/workflows", "tools", "bench", "benchmarks",
               "examples")
SETTER_SUFFIXES = (".py", ".yml", ".yaml", ".sh")
#: The ``REPRO_*`` variables the program reads, each with the reason it is
#: the environment's to name.  Compute policy is not: it has one spelling,
#: ``ComputeConfig``.
ENV_ALLOWED = {
    "REPRO_FFT_WORKERS": "a deployment setting: the CPU budget a process "
                         "may use",
    "REPRO_KERNEL_CACHE_DIR": "a deployment setting: where the kernel-bank "
                              "disk tier lives",
    "REPRO_TILE_CACHE_DIR": "a deployment setting: where the tile-cache "
                            "disk tier lives",
    "REPRO_PRESET": "the scale of the paper experiments",
}
ENV_NAME = re.compile(r"REPRO_[A-Z_]+")
ENV_ASSIGNMENT = re.compile(r"\b(REPRO_[A-Z_]+)=(?!=)")


def environment_variables(repo: str = REPO):
    """``(read, set)``: the ``REPRO_*`` names the program reads and those
    something outside ``tests/`` sets.

    A name is read when a string constant under ``src/repro`` is exactly
    that name (a docstring or help text that mentions it is not).  A name is
    set when a file under :data:`SETTER_DIRS` assigns it as ``NAME=`` (a
    shell assignment or a keyword argument)."""
    read = set()
    for path in python_files(os.path.join(repo, "src", "repro")):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        read.update(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and ENV_NAME.fullmatch(node.value))
    assigned = set()
    for directory in SETTER_DIRS:
        for root, _, names in os.walk(os.path.join(repo, directory)):
            for name in names:
                if name.endswith(SETTER_SUFFIXES):
                    with open(os.path.join(root, name),
                              encoding="utf-8") as handle:
                        assigned.update(ENV_ASSIGNMENT.findall(handle.read()))
    return read, assigned


def check_env_census(repo: str = REPO, allowed=ENV_ALLOWED) -> None:
    """Fail on a variable read but never set, on one set but never read, on
    one without a reason, and on a stale allow-list entry."""
    read, assigned = environment_variables(repo)
    unset, unreasoned = sorted(read - assigned), sorted(read - set(allowed))
    unread, stale = sorted(assigned - read), sorted(set(allowed) - read)
    assert not unset and not unread and not unreasoned and not stale, (
        f"read but never set outside the tests (make it a ComputeConfig "
        f"field or a constant): {unset}; set but never read (delete the "
        f"setter): {unread}; read without a reason (add one to "
        f"ENV_ALLOWED): {unreasoned}; stale ENV_ALLOWED entries (no longer "
        f"read): {stale}")


def test_every_environment_variable_is_a_deployment_setting():
    """Rules: :func:`environment_variables`.  Every ``REPRO_*`` variable
    the program reads must be set by a caller outside ``tests/`` and have a
    reason in :data:`ENV_ALLOWED`; an entry nothing reads is stale, and so
    is a setter of a variable nothing reads."""
    check_env_census()
    assert environment_variables()[0] == set(ENV_ALLOWED)


def test_the_env_census_sees_every_spelling(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""Mentions REPRO_DOCUMENTED, which is not a read."""\n'
        "import os\n\n"
        "NAME = 'REPRO_BY_CONSTANT'\n"
        "os.environ.get('REPRO_BY_CI')\n"
        "os.environ.get('REPRO_TEST_ONLY')\n"
        "message = f'REPRO_IN_FSTRING={NAME}'\n"
        "help_text = 'default: REPRO_IN_HELP or off'\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "drive.py").write_text(
        "import os\nenv = dict(os.environ, REPRO_BY_CONSTANT='1')\n"
        "assert env.get('REPRO_BY_CI') == 'x'\n")
    workflows = tmp_path / ".github" / "workflows"
    workflows.mkdir(parents=True)
    (workflows / "ci.yml").write_text(
        "run: |\n  export REPRO_BY_CI=/tmp/x\n  PYTHONPATH=src REPRO_UNREAD=1 "
        "python -m pytest\n  test \"$REPRO_DOCUMENTED\" == \"\"\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "import os\nos.environ['REPRO_TEST_ONLY'] = '1'\n"
        "env = dict(REPRO_TEST_ONLY='1')\n")
    read, assigned = environment_variables(str(tmp_path))
    assert read == {"REPRO_BY_CONSTANT", "REPRO_BY_CI", "REPRO_TEST_ONLY"}
    assert assigned == {"REPRO_BY_CONSTANT", "REPRO_BY_CI", "REPRO_UNREAD"}
    allowed = {"REPRO_BY_CONSTANT": "a reason", "REPRO_BY_CI": "a reason",
               "REPRO_TEST_ONLY": "a reason"}
    with pytest.raises(AssertionError,
                       match=r"never set .*\['REPRO_TEST_ONLY'\]"):
        check_env_census(str(tmp_path), allowed)
    (tmp_path / "tools" / "drive.py").write_text(
        "import os\nenv = dict(os.environ, REPRO_BY_CONSTANT='1', "
        "REPRO_TEST_ONLY='2')\n")
    with pytest.raises(AssertionError,
                       match=r"never read \(.*\): \['REPRO_UNREAD'\]"):
        check_env_census(str(tmp_path), allowed)
    (workflows / "ci.yml").write_text(
        "run: |\n  export REPRO_BY_CI=/tmp/x\n  PYTHONPATH=src "
        "python -m pytest\n")
    check_env_census(str(tmp_path), allowed)
    with pytest.raises(AssertionError,
                       match=r"without a reason .*\['REPRO_BY_CI'\]"):
        check_env_census(str(tmp_path), {
            name: reason for name, reason in allowed.items()
            if name != "REPRO_BY_CI"})
    with pytest.raises(AssertionError, match=r"stale .*\['REPRO_UNREAD'\]"):
        check_env_census(str(tmp_path), {**allowed,
                                         "REPRO_UNREAD": "stale"})
