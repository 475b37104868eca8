import random
from fractions import Fraction
from itertools import combinations

import pytest

from partfun import corpus
from partfun.connection import (
    ConnectionMatrix,
    GraphBasis,
    _gram,
    connection_matrix,
    connection_matrix_for,
    connection_report,
    enumerate_klabeled,
    is_psd,
    non_psd_witness,
    rank_bound_check,
)
from partfun.errors import LabelMismatch, NotSymmetric, RingUnsupported, TooLarge
from partfun.evaluator import WeightMatrix, perfect_matching_model, z_brute, z_edge_model
from partfun.graph import LabeledGraph, Multigraph
from partfun.rings import INT, POLY, RAT, X, exact_rank

I = WeightMatrix(INT, [[1, 1], [1, 0]])


def test_enumerate_klabeled_sizes():
    # n = 1: 0, 1 or 2 loops on one vertex
    basis = enumerate_klabeled(1, 1, 2)
    assert len(basis) == 3
    # n up to 2 adds the 1+3+6 multisets over the three slots
    assert len(enumerate_klabeled(1, 2, 2)) == 13
    assert all(lg.k == 1 for lg in basis)
    # the empty graph is the sole 0-labeled basis element on 0 vertices
    assert len(enumerate_klabeled(0, 0, 3)) == 1


def test_enumerate_klabeled_guards():
    with pytest.raises(TooLarge):
        enumerate_klabeled(3, 2, 2)
    with pytest.raises(TooLarge):
        enumerate_klabeled(1, 7, 2)
    with pytest.raises(TooLarge):
        enumerate_klabeled(1, 3, 9)
    with pytest.raises(TooLarge):
        enumerate_klabeled(-1, 3, 3)


def test_basis_arity_is_checked():
    one = LabeledGraph(Multigraph(1), (0,))
    with pytest.raises(LabelMismatch):
        GraphBasis(2, [one])


def test_connection_entries_are_glued_values():
    k1 = LabeledGraph(Multigraph(1), (0,))
    k2 = LabeledGraph(Multigraph(2, [(0, 1)]), (0,))
    m = connection_matrix(I, GraphBasis(1, [k1, k2]))
    # glue(k1,k1) is a point, glue(k1,k2) an edge, glue(k2,k2) a 2-path
    assert m.entries == ((2, 3), (3, 5))
    assert m.size == 2


def test_connection_matrix_rejects_polynomials():
    c = WeightMatrix(POLY, [[POLY.one, X], [X, POLY.one]])
    with pytest.raises(RingUnsupported):
        connection_matrix(c, enumerate_klabeled(0, 1, 1))


def test_connection_matrix_requires_symmetry():
    asym = WeightMatrix(INT, [[0, 1], [2, 0]])
    with pytest.raises(NotSymmetric):
        connection_matrix(asym, enumerate_klabeled(0, 1, 1))


def test_is_psd():
    assert is_psd([[2, 1], [1, 2]])
    assert is_psd([[0, 0], [0, 0]])
    assert is_psd([[1, 1], [1, 1]])
    assert not is_psd([[0, 1], [1, 0]])
    assert not is_psd([[-1]])
    # singular-but-psd needs the zero-row escape
    assert is_psd([[1, 2], [2, 4]])
    assert not is_psd([[1, 2], [2, 3]])
    assert is_psd([[Fraction(1, 2), 0], [0, Fraction(3)]])
    with pytest.raises(NotSymmetric):
        is_psd([[0, 1], [2, 0]])


def test_partition_connection_matrices_are_psd_with_rank_bound():
    for k in (0, 1):
        basis = enumerate_klabeled(k, 2, 2)
        m = connection_matrix(I, basis)
        assert is_psd(m.entries)
        assert rank_bound_check(m, I.n, k)


def test_matching_matrix_has_non_psd_witness():
    basis = enumerate_klabeled(1, 2, 1)
    model = perfect_matching_model(6)
    m = connection_matrix_for(lambda g: z_edge_model(model, g), basis)
    found = non_psd_witness(m)
    assert found is not None
    idx, sub = found
    assert not is_psd(sub)
    assert len(idx) == len(sub)
    # a PSD matrix yields no witness
    assert non_psd_witness(connection_matrix(I, basis)) is None


def test_connection_report_shape():
    report = connection_report(I, enumerate_klabeled(1, 2, 1))
    assert report["arity"] == 1
    assert report["psd"] is True
    assert report["rank"] <= report["bound"] == 2
    assert report["rank-bound-holds"] is True
    assert len(report["basis"]) == len(report["entries"])
    assert all(isinstance(v, str) for row in report["entries"] for v in row)


def _int_and_rat_matrices():
    """INT corpus matrices and RAT matrices with non-trivial denominators."""
    mats = [a for _, a in corpus.int_matrix_corpus()]
    mats += [WeightMatrix(RAT, [[Fraction(v, i + j + 2) for j, v in enumerate(row)]
                                for i, row in enumerate(a.rows)]) for a in mats[3:6]]
    return mats


def test_gram_entries_equal_glued_entries():
    # bases with loops and multi-edges, on and between labeled vertices
    for k in (0, 1, 2):
        basis = enumerate_klabeled(k, k + 1, 2)
        assert any(u == v for lg in basis for u, v, _ in lg.graph.edges)
        assert any(mult > 1 for lg in basis for _, _, mult in lg.graph.edges)
        for a in _int_and_rat_matrices():
            glued = connection_matrix_for(lambda g: z_brute(a, g), basis)
            assert connection_matrix(a, basis).entries == glued.entries, (k, a)


def test_rank_of_pinned_values_is_rank_of_connection_matrix():
    for k in (0, 1, 2):
        basis = enumerate_klabeled(k, 2, 2)
        for a in _int_and_rat_matrices():
            values = _gram(a, basis, None)[1]
            assert len(values[0]) == a.n**k
            m = connection_matrix(a, basis)
            assert exact_rank(values) == exact_rank(m.entries), (k, a)
            assert connection_report(a, basis)["rank"] == exact_rank(m.entries)


def _schur_is_psd(rows):
    """Reference: pivoted Schur elimination over Fraction."""
    size = len(rows)
    work = [[Fraction(rows[i][j]) for j in range(size)] for i in range(size)]
    live = list(range(size))
    while live:
        if any(work[i][i] < 0 for i in live):
            return False
        pivot = next((i for i in live if work[i][i] > 0), None)
        if pivot is None:
            return all(work[i][j] == 0 for i in live for j in live)
        p = work[pivot][pivot]
        live.remove(pivot)
        for i in live:
            for j in live:
                work[i][j] -= work[i][pivot] * work[pivot][j] / p
    return True


def _random_symmetric(rng):
    """Seeded symmetric matrices of the shapes that steer the elimination:
    singular PSD Gram products, rational entries, negative diagonals and
    zero diagonals that leave a zero or non-zero residue."""
    size = rng.randint(1, 6)
    kind = rng.randrange(5)
    if kind < 2:
        # B B^T with rank below size: singular PSD, sometimes rational
        width = rng.randint(0, size)
        den = rng.randint(1, 4) if kind == 1 else 1
        b = [[Fraction(rng.randint(-3, 3), den) for _ in range(width)] for _ in range(size)]
        rows = [[sum(x * y for x, y in zip(u, v)) for v in b] for u in b]
        if kind == 0:
            rows = [[int(v) for v in row] for row in rows]
    else:
        lo = -1 if kind == 2 else 0
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                if kind == 3:
                    v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                else:
                    v = rng.choice((0, 0, 0, 1, -1)) if i != j else rng.randint(lo, 2)
                rows[i][j] = rows[j][i] = v
        if kind == 4 and rng.random() < 0.5:
            # a zero diagonal with a non-zero off-diagonal entry in its row
            i = rng.randrange(size)
            rows[i][i] = 0
    return rows


def test_is_psd_matches_fraction_schur_elimination():
    rng = random.Random(9001)
    verdicts = set()
    for _ in range(1500):
        rows = _random_symmetric(rng)
        want = _schur_is_psd(rows)
        assert is_psd(rows) == want, rows
        verdicts.add(want)
    assert verdicts == {True, False}
    # hand-picked residue cases
    assert is_psd([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert not is_psd([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
    assert not is_psd([[0, 0], [0, -1]])
    assert is_psd([[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 12)]])


def _exhaustive_witness(m):
    """Reference: smallest-first search over every principal submatrix."""
    for r in range(1, m.size + 1):
        for idx in combinations(range(m.size), r):
            sub = [[m.entries[i][j] for j in idx] for i in idx]
            if not _schur_is_psd(sub):
                return (idx, sub)
    return None


def test_non_psd_witness_matches_exhaustive_search():
    rng = random.Random(9002)
    found = set()
    for _ in range(300):
        m = ConnectionMatrix(None, _random_symmetric(rng))
        want = _exhaustive_witness(m)
        assert non_psd_witness(m) == want, m.entries
        found.add(want is None)
    assert found == {True, False}
    assert non_psd_witness(ConnectionMatrix(None, [])) is None
