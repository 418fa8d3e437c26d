"""Weights, orbits, index sets, the connectivity rule, and the package's public surface."""

from __future__ import annotations

import ast
import io
import tokenize
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitcayley.core import CAPS, OrbitIndexSet, enforce_cap, pascal_row
from orbitcayley.explicit import _row0
from orbitcayley.spectrum import _HALF_WEIGHTS
from orbitcayley.srg import FAMILIES
import orbitcayley

from oracles import (
    GRAPH6_HEADER_BOUND,
    HALF_POPCOUNT_BOUND,
    INT32_TRANSFORM_BOUND,
    INT64_TABLE_BOUND,
    INT64_WALSH_BOUND,
    INT_STR_DIGITS_BOUND,
    ExplicitGraph,
    binom,
    is_connected,
    is_connected_adjacency,
    pair_count_oracle,
)

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orbitcayley"

PUBLIC_NAMES = (
    "ConsistencyError",
    "DistinctSpectrum",
    "FAMILIES",
    "IDENTITY_IDS",
    "IdentityCheck",
    "OrbitIndexSet",
    "Spectrum",
    "SrgParams",
    "SrgVerdict",
    "VerdictStatus",
    "certify",
    "character_sum_row",
    "distinct",
    "emit_table1",
    "export_graph6",
    "full_spectrum",
    "match_families",
    "mod4_binomial_sum",
    "verify_all",
    "wht_spectrum",
)


def test_caps_keep_their_orderings():
    # each derived bound is computed in tests/oracles.py from the formula
    # its docstring states
    assert (INT64_TABLE_BOUND, INT64_WALSH_BOUND, INT32_TRANSFORM_BOUND) == (20, 31, 30)
    assert (HALF_POPCOUNT_BOUND, GRAPH6_HEADER_BOUND) == (24, 17)
    cap = {name: row.limit for name, row in CAPS.items()}
    # every families row prints at every int-to-str digit limit Python allows
    assert cap["families"] <= INT_STR_DIGITS_BOUND == 531
    # the check cap reaches no further than the last families row, 4 m_max + 2
    assert cap["families check"] <= 4 * cap["families"] + 2
    assert cap["census dense"] <= cap["census"] <= INT64_TABLE_BOUND
    # _row0_block reads _weight_rows, so the dense route runs within the transform cap
    assert cap["census dense"] <= cap["dense"] <= cap["transform"]
    assert cap["export"] <= min(cap["transform"], GRAPH6_HEADER_BOUND)
    assert cap["dense"] <= INT64_WALSH_BOUND
    assert cap["transform"] <= min(INT32_TRANSFORM_BOUND, HALF_POPCOUNT_BOUND)
    # cli._cmd_spectrum runs the transform oracle first, since its cap is the lower one
    assert cap["transform"] <= cap["closed-form"]


def test_enforce_cap_has_one_wording():
    for name, (limit, quantity) in CAPS.items():
        enforce_cap(name, limit)
        with pytest.raises(ValueError) as exc:
            enforce_cap(name, limit + 1)
        assert str(exc.value) == f"{quantity}={limit + 1} exceeds the {name} cap {limit}"
    with pytest.raises(ValueError, match=r"^explicit cap=21 exceeds the dense cap 20$"):
        enforce_cap("dense", 21, "explicit cap")


def test_weight_examples():
    # the popcount table behind every weight the dense and transform routes read
    assert _HALF_WEIGHTS[0b0000] == 0
    assert _HALF_WEIGHTS[0b1011] == 3
    assert _HALF_WEIGHTS[0b11111111] == 8
    assert all(_HALF_WEIGHTS[x] == x.bit_count() for x in range(_HALF_WEIGHTS.size))


def test_pascal_row_is_the_binomial_row():
    for n in range(61):
        assert pascal_row(n) == tuple(comb(n, t) for t in range(n + 1))
    row = pascal_row(200)
    assert len(row) == 201
    assert all(row[t] == comb(200, t) for t in range(201))
    with pytest.raises(ValueError):
        pascal_row(-1)


def test_pascal_row_cache_is_bounded():
    assert pascal_row.cache_info().maxsize is not None


def test_binom_zero_convention():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(5, 7) == 0
    assert binom(-3, 0) == 0
    assert binom(0, 0) == 1


def test_contains_examples():
    # membership in S is the adjacency row of vertex 0
    row0 = _row0(OrbitIndexSet.of(4, {1, 4}))
    assert row0[0b1111]
    assert not row0[0b0110]
    assert not row0[0b0000]


def test_index_set_validation():
    with pytest.raises(ValueError):
        OrbitIndexSet.of(4, {0, 1})
    with pytest.raises(ValueError):
        OrbitIndexSet.of(4, {5})
    with pytest.raises(ValueError):
        OrbitIndexSet.of(0, set())


def test_family_table_states_the_residues():
    # residue r is S_r, the weights = r mod 4; None is S-, every weight but n
    for key, spec in FAMILIES.items():
        if key == "s_minus":
            assert spec.residues is None
        else:
            assert spec.residues == tuple(sorted(spec.residues)), key
            assert set(spec.residues) <= {0, 1, 2, 3}, key
    assert FAMILIES["s0s1@4m"].index_set(1).indices == {1, 4}
    assert FAMILIES["s0s1@4m+2"].index_set(2).indices == {1, 4, 5, 8, 9}
    assert FAMILIES["s2s3@4m+2"].index_set(1).indices == {2, 3, 6}
    assert FAMILIES["s_odd"].index_set(5).indices == {1, 3, 5}
    assert FAMILIES["s_minus"].index_set(3).indices == {1, 2}
    assert FAMILIES["s_minus"].index_set(1).indices == set()
    labels = {key: spec.label(1) for key, spec in FAMILIES.items() if not spec.trivial}
    assert labels == {
        "s0s1@4m": "Cay(Z2^4,S0+S1)",
        "s2s3@4m": "Cay(Z2^4,S2+S3)",
        "s0s1@4m+2": "Cay(Z2^6,S0+S1)",
        "s2s3@4m+2": "Cay(Z2^6,S2+S3)",
        "s1s2@4m+2": "Cay(Z2^6,S1+S2)",
        "s0s3@4m+2": "Cay(Z2^6,S0+S3)",
    }


def test_complement_examples():
    assert OrbitIndexSet.of(4, {1, 4}).complement().indices == {2, 3}
    assert OrbitIndexSet.of(5, set()).complement().indices == {1, 2, 3, 4, 5}
    assert OrbitIndexSet.of(6, set(range(1, 7))).complement().indices == set()


def test_text_form_round_trip():
    s = OrbitIndexSet.parse("n=4;I=1,4")
    assert s.n == 4 and s.indices == {1, 4}
    assert s.format() == "n=4;I=1,4"
    empty = OrbitIndexSet.parse("n=5;I=")
    assert empty.indices == set()
    assert OrbitIndexSet.parse(empty.format()) == empty
    # no whitespace around the text either
    for bad in ("n=4", "I=1,2", "n=x;I=1", "n=4;I=1;2", "4;1,2", " n=4;I=1,4", "n=4;I=1,4\n"):
        with pytest.raises(ValueError):
            OrbitIndexSet.parse(bad)
    # the list must be ascending, duplicate-free and unpadded
    for bad in ("n=4;I=4,1", "n=4;I=1,1", "n=4;I= 1, 4 "):
        with pytest.raises(ValueError, match="not canonical"):
            OrbitIndexSet.parse(bad)


def test_bitmask_round_trip():
    for n in (1, 3, 6):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            assert s.bitmask == mask


def test_vectors_enumeration():
    # x XOR 0 = x, so the pair-count oracle at v = 0 counts every member of S once
    assert pair_count_oracle(OrbitIndexSet.of(5, {2, 5}), 0) == comb(5, 2) + 1
    for n in (1, 4, 7):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            assert pair_count_oracle(s, 0) == s.size(), s.format()


def test_is_connected_examples():
    assert not is_connected(OrbitIndexSet.of(4, {2}))
    assert is_connected(OrbitIndexSet.of(5, {3}))
    assert not is_connected(OrbitIndexSet.of(6, {2, 4}))
    # top orbit alone is a perfect matching: connected only in dimension 1
    assert is_connected(OrbitIndexSet.of(1, {1}))
    assert not is_connected(OrbitIndexSet.of(3, {3}))
    assert not is_connected(OrbitIndexSet.of(5, {5}))
    # all-ones plus an even orbit reaches everything when n is odd
    assert is_connected(OrbitIndexSet.of(5, {2, 5}))
    assert is_connected(OrbitIndexSet.of(3, {2, 3}))
    assert not is_connected(OrbitIndexSet.of(4, set()))


def test_is_connected_matches_breadth_first_search():
    for n in range(1, 9):
        for mask in range(1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            graph = ExplicitGraph.build(s)
            assert is_connected(s) == is_connected_adjacency(graph.adjacency), s.format()


@given(st.integers(1, 10), st.data())
def test_contains_is_permutation_invariant(n, data):
    indices = data.draw(st.sets(st.integers(1, n)))
    bits = data.draw(st.integers(0, (1 << n) - 1))
    perm = data.draw(st.permutations(range(n)))
    s = OrbitIndexSet.of(n, indices)
    permuted = 0
    for p in range(n):
        if bits >> p & 1:
            permuted |= 1 << perm[p]
    assert permuted.bit_count() == bits.bit_count()
    row0 = _row0(s)
    assert row0[bits] == row0[permuted] == (bits.bit_count() in s.indices)


@given(st.integers(1, 16), st.data())
def test_complement_partitions_nonzero_vectors(n, data):
    indices = data.draw(st.sets(st.integers(1, n)))
    s = OrbitIndexSet.of(n, indices)
    assert s.complement().size() + s.size() + 1 == 1 << n
    assert s.complement().complement() == s


def test_public_surface_is_pinned():
    assert tuple(sorted(orbitcayley.__all__)) == PUBLIC_NAMES
    assert len(set(orbitcayley.__all__)) == len(orbitcayley.__all__)
    for name in PUBLIC_NAMES:
        assert hasattr(orbitcayley, name), name


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, skipping ``__future__`` imports."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_unused_import_check_finds_a_stale_name():
    source = "from __future__ import annotations\nimport numpy as np\nfrom math import comb, gcd\n"
    assert _unused_imports(source + "gcd(np.int8(4), 6)\n") == ["comb"]


def test_package_modules_read_every_name_they_import():
    # __init__.py imports to re-export, so it is not checked
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    assert modules, PACKAGE
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def _leading_literal(comment):
    """(True, value) when the comment text starts with a Python literal, else (False, None).

    The shortest prefix that parses as an expression, ending at a word
    boundary, decides: a literal counts, prose does not.
    """
    text = comment.lstrip("#").strip()
    for end in range(1, len(text) + 1):
        if end < len(text) and (text[end].isalnum() or text[end] in "_.'\""):
            continue
        try:
            node = ast.parse(text[:end], mode="eval").body
        except SyntaxError:
            continue
        try:
            return True, ast.literal_eval(node)
        except ValueError:
            return False, None
    return False, None


def test_readme_quick_start_runs_and_its_commented_values_hold():
    block = README.read_text().split("## Library quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        is_literal, expected = _leading_literal(comments.get(stmt.end_lineno, ""))
        if is_literal:
            assert value == expected, ast.unparse(stmt)
            checked += 1
    assert checked >= 6
