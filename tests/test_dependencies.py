import ast
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _imported_names(source: str) -> list[str]:
    """Top-level package of every absolute import in ``source``, imports
    inside functions included."""
    names: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def _imported_packages() -> dict[str, str]:
    """Every package the package source imports, with the first file importing it."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "d4kit").glob("*.py")):
        for name in _imported_names(path.read_text(encoding="utf-8")):
            found.setdefault(name, path.name)
    return found


# sha256's bundled module is _sha256 before Python 3.12 and _sha2 from it, so
# each is standard library on its own versions and missing from the other's
# ``sys.stdlib_module_names``.
STDLIB_SHA256 = {"_sha2", "_sha256"}


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in project["dependencies"]}
    imported = _imported_packages()
    assert "numpy" in imported
    third_party = {
        name: file
        for name, file in imported.items()
        if name not in sys.stdlib_module_names | STDLIB_SHA256 and name != "d4kit"
    }
    undeclared = {name: file for name, file in third_party.items() if name.lower() not in declared}
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"


def _write_calls(source: str) -> list[int]:
    """Line of every call in ``source`` that can write a file, other than those
    inside a function named ``open_output``: an ``open`` whose mode is not a
    constant free of ``w``, ``a``, ``x`` and ``+``, and any ``write_text`` or
    ``write_bytes``."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "open_output"
        for node in ast.walk(fn)
    }
    found: list[int] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            found.append(node.lineno)
        elif name == "open":
            # open(file, mode) and Path.open(mode); a missing mode reads.
            position = 1 if isinstance(func, ast.Name) else 0
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is None and len(node.args) > position:
                mode = node.args[position]
            if mode is not None and not (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")
            ):
                found.append(node.lineno)
    return sorted(found)


def test_write_scan_finds_every_write_form():
    source = """
open(p)
open(p, "rb")
open(p, "w")
open(p, mode="ab")
open(p, "r+")
open(p, m)
path.open()
path.open("x")
path.write_text(s)
path.write_bytes(b)
def open_output(p, m):
    open(p, m)
"""
    assert _write_calls(source) == [4, 5, 6, 7, 9, 10, 11]


def test_every_file_is_written_through_open_output():
    """Every artifact goes through one atomic write path, ``corpus.open_output``."""
    found = {
        path.name: lines
        for path in sorted((ROOT / "src" / "d4kit").glob("*.py"))
        if (lines := _write_calls(path.read_text(encoding="utf-8")))
    }
    assert not found, f"file writes outside open_output: {found}"


def _keyed_blake2b_calls(source: str) -> list[int]:
    """Line of every ``blake2b`` call in ``source`` that passes a ``key``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "blake2b" and any(kw.arg == "key" for kw in node.keywords):
                found.append(node.lineno)
    return found


def test_keyed_hash_scan_finds_every_form():
    source = """
hashlib.blake2b(b"x", digest_size=8)
hashlib.blake2b(digest_size=8, key=k)
blake2b(s, key=k)
hashlib.sha256(key=k)
"""
    assert _keyed_blake2b_calls(source) == [3, 4]


def test_one_keyed_hash_site():
    """MinHash and the hash embedder share one seed-keyed hash, ``hashing.keyed_digests``."""
    found = [
        (path.name, line)
        for path in sorted((ROOT / "src" / "d4kit").glob("*.py"))
        for line in _keyed_blake2b_calls(path.read_text(encoding="utf-8"))
    ]
    assert len(found) == 1, f"keyed blake2b built at {found}"


HASH_MODULES = {"hashlib", "_blake2", "_sha2", "_sha256"}


def test_only_hashing_imports_a_hash():
    """Every hash comes from ``hashing``, which takes blake2b and sha256 from
    CPython's bundled modules, so no command loads OpenSSL to reach them."""
    found = {
        (path.name, name)
        for path in sorted((ROOT / "src" / "d4kit").glob("*.py"))
        for name in _imported_names(path.read_text(encoding="utf-8"))
        if name in HASH_MODULES
    }
    assert {file for file, _ in found} == {"hashing.py"}, found


def test_only_errors_imports_numbers():
    """Every real-number parameter is checked by ``errors._real``, the one user of ``numbers.Real``."""
    found = {
        path.name
        for path in sorted((ROOT / "src" / "d4kit").glob("*.py"))
        if "numbers" in _imported_names(path.read_text(encoding="utf-8"))
    }
    assert found == {"errors.py"}, found


def test_sha256_falls_back_to_hashlib_without_a_bundled_module():
    # A fresh interpreter, with both bundled sha256 modules made unimportable.
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from d4kit import hashing\n"
        "print(hashing.sha256 is hashlib.sha256, hashing.sha256(b'abc').hexdigest())\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", hashlib.sha256(b"abc").hexdigest()]


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """Every node inside an annotation, which a module with postponed
    annotations never evaluates."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def _uses_numpy_random(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[:2] == ["numpy", "random"] for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return node.module.split(".")[:2] == ["numpy", "random"] or (
            node.module == "numpy" and any(alias.name == "random" for alias in node.names)
        )
    return False


def _numpy_random_sites(source: str) -> list[str]:
    """The function around every use of ``numpy.random`` in ``source`` (an
    ``np.random`` or ``numpy.random`` attribute, or an import of it),
    annotations aside; ``<module>`` outside any function."""
    tree = ast.parse(source)
    skip = _annotation_nodes(tree)
    sites: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if id(node) not in skip and _uses_numpy_random(node):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return sites


def test_numpy_random_scan_finds_every_form():
    source = """
import numpy.random
from numpy.random import default_rng
from numpy import random
from numpy import linalg
def f(rng: np.random.Generator) -> np.random.Generator:
    x: np.random.Generator = rng
    return numpy.random.default_rng(0)
class C:
    def g(self):
        import numpy.random as npr
        return np.random
"""
    assert _numpy_random_sites(source) == ["<module>", "<module>", "<module>", "f", "g", "g"]


def test_numpy_random_only_at_known_sites():
    """k-means seeds from ``d4kit.hashing``'s keyed hash, so ``cluster`` and
    ``select --method d4`` never load ``numpy.random`` (or, through its
    ``secrets`` import, OpenSSL).
    These three sites still draw from it: each draws O(n) values, where a
    pure-Python generator is measurably slower, or makes the synthetic inputs."""
    found = {
        (path.stem, site)
        for path in sorted((ROOT / "src" / "d4kit").glob("*.py"))
        for site in _numpy_random_sites(path.read_text(encoding="utf-8"))
    }
    assert found == {
        ("corpus", "synthesize_corpus"),
        ("select", "select_random"),
        ("schedule_cost", "_plan"),
    }, found


ROW_NORM_PATHS = {("sqrt",), ("einsum",), ("linalg", "norm")}


def _numpy_path(node: ast.AST) -> tuple[str, ...] | None:
    """The attribute path of ``node`` below numpy: ``("linalg", "norm")`` for
    ``np.linalg.norm`` or ``linalg.norm``; None if it is not below numpy."""
    path: list[str] = []
    while isinstance(node, ast.Attribute):
        path.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in ("np", "numpy"):
        return tuple(path)
    if isinstance(node, ast.Name) and node.id == "linalg":
        return ("linalg", *path)
    return None


def _row_norm_sites(source: str) -> list[str]:
    """The function around every use of ``np.sqrt``, ``np.einsum`` or
    ``np.linalg.norm`` in ``source``; see :func:`_numpy_sites`."""
    return _numpy_sites(source, ROW_NORM_PATHS)


def _numpy_sites(source: str, paths: set[tuple[str, ...]]) -> list[str]:
    """The function around every use of a numpy attribute path of ``paths`` in
    ``source`` (as ``np``, ``numpy`` or ``linalg`` attributes, or imported by
    name from numpy); ``<module>`` outside any function."""
    sites: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and _numpy_path(node) in paths:
            sites.append(where)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy":
            below = tuple(node.module.split(".")[1:])
            sites.extend(where for alias in node.names if (*below, alias.name) in paths)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_row_norm_scan_finds_every_form():
    source = """
import math
from numpy import sqrt
from numpy.linalg import norm, inv
from numpy import linalg
def f(x):
    return np.sqrt(x) + math.sqrt(2) + numpy.einsum("ij,ij->i", x, x) + np.dot(x, x)
class C:
    def g(self, x):
        return np.linalg.norm(x, axis=1), np.linalg.inv(x), linalg.norm(x)
    def h(self, x):
        return np.apply_along_axis(numpy.linalg.norm, 1, x)
"""
    assert _row_norm_sites(source) == ["<module>", "<module>", "f", "f", "g", "g", "h"]


def test_rows_are_normalized_in_one_place():
    """Every row norm in the package is ``embed._row_norms``, which
    ``embed._normalize_rows`` and the unit-norm check call, except
    ``cluster._update_centroids``', where a zero sum keeps the old centroid
    instead of becoming e_0."""
    found = sorted(
        (path.stem, site)
        for path in sorted((ROOT / "src" / "d4kit").glob("*.py"))
        for site in _row_norm_sites(path.read_text(encoding="utf-8"))
    )
    assert found == [("cluster", "_update_centroids"), ("embed", "_row_norms")], found


def _package_sites(scan) -> list[tuple[str, str]]:
    """``(module, function)`` of every site ``scan`` finds in the package source."""
    return sorted(
        (path.stem, site)
        for path in sorted((ROOT / "src" / "d4kit").glob("*.py"))
        for site in scan(path.read_text(encoding="utf-8"))
    )


def test_arrays_are_cast_in_one_place():
    """Every array a caller passes is cast by ``embed._float_array``, which
    refuses a complex, ragged or non-numeric one; no other site calls
    ``np.asarray``, whose plain cast would let such an array through."""
    found = _package_sites(lambda source: _numpy_sites(source, {("asarray",)}))
    assert found == [("embed", "_float_array")], found


def _comparison_sites(source: str, name: str) -> list[str]:
    """The function around every comparison in ``source`` that has ``name``
    (a bare name or an attribute) in an operand; ``<module>`` outside any function."""
    sites: list[str] = []

    def named(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        )

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Compare) and any(
            named(sub) for operand in (node.left, *node.comparators) for sub in ast.walk(operand)
        ):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_comparison_scan_finds_every_form():
    source = """
TOL = 1e-5
assert 0 < TOL
def f(x):
    y = TOL * 2
    return x <= TOL, abs(x - 1) > 2 * embed.TOL, x < y
class C:
    def g(self, x):
        return not x <= TOL
"""
    assert _comparison_sites(source, "TOL") == ["<module>", "f", "f", "g"]


def test_unit_norm_is_checked_in_one_place():
    """``embed._row_fault`` is the one row check, for embedding rows and
    centroids alike, so it alone compares a norm deviation with ``NORM_TOL``."""
    found = _package_sites(lambda source: _comparison_sites(source, "NORM_TOL"))
    assert found == [("embed", "_row_fault")], found


def _attribute_sites(source: str, name: str) -> list[str]:
    """The function around every read of an attribute ``name`` in ``source``;
    ``<module>`` outside any function."""
    sites: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_attribute_scan_finds_every_form():
    source = """
x = m.vectors
class C:
    def f(self, m):
        return m.vectors[0], self.vectors.shape, getattr(m, "vectors"), vectors
    def g(self, v):
        self.vectors = v
        return m.ids.vectors
"""
    assert _attribute_sites(source, "vectors") == ["<module>", "f", "f", "g"]


def test_rows_reach_arithmetic_as_float64():
    """A matrix may hold float32 rows, so no module but ``embed`` reads
    ``.vectors``: rows reach arithmetic through ``EmbeddingMatrix._blocks()``
    or the one float64 gather, ``_rows()``, so none is multiplied in float32.
    In ``embed`` only the matrix's own methods and ``write_embeddings``,
    which casts each block to the file's float32, read them."""
    found = set(_package_sites(lambda source: _attribute_sites(source, "vectors")))
    methods = ("__post_init__", "_rows", "d", "n", "subset", "write_embeddings")
    assert found == {("embed", method) for method in methods}, sorted(found)


def test_normalized_flag_read_in_one_check():
    """A cosine distance is ``1 - dot`` only between unit rows, so the flag that says a
    matrix has them is read in ``embed`` alone: by the matrix itself, by
    ``write_embeddings``, and by ``_cosine_matrix``, the one check that every routine
    reading such a distance takes its matrix through."""
    found = set(_package_sites(lambda source: _attribute_sites(source, "normalized")))
    methods = ("__post_init__", "subset", "write_embeddings", "_cosine_matrix")
    assert found == {("embed", method) for method in methods}, sorted(found)


def _assert_lines(source: str) -> list[int]:
    """Line of every ``assert`` statement in ``source``, inside functions and classes included."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_scan_finds_every_form():
    source = """
assert ok
x = "assert not a statement"
def f(x):
    assert x > 0, "positive"
    return x
class C:
    def g(self):
        if self:
            assert (self, 1)
"""
    assert sorted(_assert_lines(source)) == [2, 5, 10]


def test_no_assert_in_the_package():
    """A bare ``assert`` vanishes under ``python -O``, so no runtime check is one."""
    found = _package_sites(_assert_lines)
    assert not found, f"assert statements at {found}"
