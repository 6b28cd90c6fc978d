"""Every public function, class and method of hdx has a caller inside hdx.

A name counts as called when a module of the package refers to it outside its
own definition: a top-level function or class by name, a method by attribute.
Re-exports in the package ``__init__`` do not count.  Matching is by name, so
a method shares its callers with every other method of the same name.  The few
names that only tests call are listed in ``KEPT`` with the reason they stay.
"""

import ast
from collections import defaultdict
from pathlib import Path

import hdx

SRC = Path(hdx.__file__).parent

_PENDING_PROFILE = "a corollary of the paper, to be run on the witnesses of an exact small-set profile"

KEPT = {
    "oracle.exact_distance": "reference that tests check the correction and the support search against",
    "correction.is_locally_minimal": "reference that tests check the correction loop against",
    "groups.FiniteGroup.inv": "scalar inverse beside op, which the group tests and reference coboundaries use",
    "expansion.check_vanishing_corollary_abelian": _PENDING_PROFILE,
    "expansion.check_vanishing_corollary_nonabelian": _PENDING_PROFILE,
    "spectral.cheeger_quantities": "exact reference the integer Cheeger sweep is checked against",
    "spectral.underlying_graph": "exact single-graph reference the face-table root link is checked against",
    "spectral.second_eigenvalue": "exact single-graph reference the face-table root link is checked against",
    "expansion.check_delta1_theorem_nonabelian": (
        "the paper's non-abelian theorem; a test shows its premises cannot be met at desk scale"
    ),
}


def _public_definitions(trees):
    """(qualified name, node, reference kind) for each public function, class and method."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node, ast.Name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{module}.{node.name}.{sub.name}", sub, ast.Attribute


def _uncalled(trees):
    refs = defaultdict(list)  # (kind, name) -> ids of the nodes that refer to it
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                refs[ast.Name, n.id].append(id(n))
            elif isinstance(n, ast.Attribute):
                refs[ast.Attribute, n.attr].append(id(n))
    out = []
    for qualified, node, kind in _public_definitions(trees):
        own = {id(n) for n in ast.walk(node)}
        if all(ref in own for ref in refs[kind, node.name]):
            out.append(qualified)
    return sorted(out)


def test_every_public_name_has_a_caller_in_the_package():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    uncalled = _uncalled(trees)
    assert [name for name in uncalled if name not in KEPT] == []
    # A kept name that gains a caller leaves the list.
    assert sorted(set(KEPT) - set(uncalled)) == []
