"""Rules that have one home in the package stay in it.

Numerical rank is decided by ``_hulls._singular_rank`` alone, and exact line
search is the closed form in ``stepsize.line_search``.  A second rank rule
(numpy's ``matrix_rank``, with its own threshold) or an approximate line
search brought back anywhere in ``src/fwpoly`` fails here.

Each absolute tolerance that is to scale with the polytope is read only in
the functions listed for it in ``HOMES``, so rescaling it changes those and
no others.  Which rows bind at a point, for one, is decided in
``binding_rows`` (an L1Ball's ``_face_coords``) and at the vertices in
``vertex_slacks``; the radial certificate compares a boundary distance, not
a slack, against EPS_BIND.

A trace's steps become Python scalars in ``RunTrace.steps`` alone: no other
function in the package walks ``RunTrace.chunks``.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "fwpoly").glob("*.py"))
BANNED = {"matrix_rank", "golden_section"}
# tolerance -> the functions that may read it, as "file:qualified name"
HOMES = {
    "EPS_BIND": {"polytope.py:Polytope.binding_rows", "polytope.py:Polytope.vertex_slacks",
                 "polytope.py:L1Ball._face_coords", "geometry.py:derive_error_bound"},
    "FEAS_TOL": {"polytope.py:Polytope.contains", "polytope.py:Simplex.contains",
                 "polytope.py:Box.contains", "polytope.py:L1Ball.contains"},
    "TIE_TOL": {"polytope.py:tie_argmin"},
    "RANK_TOL": {"_hulls.py:_singular_rank", "_hulls.py:hull_hform"},
    "SUPPORT_MARGIN": {"geometry.py:minimal_supports"},
    "POINT_TOL": {"solvers.py:_ActiveSetState.update"},
}


def _identifiers(tree):
    """Every name a module binds, reads, imports or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def _reads(tree, names):
    """(name, enclosing function) for every read of one of names in a module.

    A read loads the bare name or looks it up as an attribute; a default
    argument belongs to its function, and code outside any function is
    "<module>".  Importing a name under another one counts as a read there.
    """
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        where = ".".join(scope) or "<module>"
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((node.id, where))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, where))
        elif isinstance(node, ast.alias) and node.asname not in (None, node.name):
            found.add((node.name.rsplit(".", 1)[-1], where))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return {(name, where) for name, where in found if name in names}


def test_sources_found():
    assert len(SRC) > 5


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_second_rank_rule_or_approximate_line_search(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = [f"{path.name}:{line} {name}" for name, line in _identifiers(tree)
            if name in BANNED]
    assert not hits


def test_guard_catches_both():
    tree = ast.parse("import numpy as np\nr = np.linalg.matrix_rank(M)\n"
                     "def golden_section(phi, lo, hi):\n    pass\n")
    assert {n for n, _ in _identifiers(tree)} >= BANNED


@pytest.mark.parametrize("name", sorted(HOMES))
def test_tolerance_read_only_in_its_homes(name):
    reads = {f"{path.name}:{where}" for path in SRC
             for _, where in _reads(ast.parse(path.read_text(), filename=str(path)), {name})}
    assert reads == HOMES[name]


def test_chunks_read_only_by_the_step_reader():
    reads = {f"{path.name}:{where}" for path in SRC
             for _, where in _reads(ast.parse(path.read_text(), filename=str(path)), {"chunks"})}
    assert reads == {"solvers.py:RunTrace.steps"}


def test_guard_catches_a_stray_read():
    tree = ast.parse("from .polytope import EPS_BIND, TIE_TOL as tie\n"
                     "class Box:\n"
                     "    def face_dim_at(self, x, tol=FEAS_TOL):\n"
                     "        return int((x > EPS_BIND).sum())\n"
                     "def f(p):\n"
                     "    return polytope.POINT_TOL\n")
    assert _reads(tree, set(HOMES)) == {
        ("EPS_BIND", "Box.face_dim_at"), ("FEAS_TOL", "Box.face_dim_at"),
        ("TIE_TOL", "<module>"), ("POINT_TOL", "f")}
