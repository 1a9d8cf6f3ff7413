import random
import re
from fractions import Fraction

import pytest

from evoalg import (
    GF2,
    QQ,
    EvolutionAlgebra,
    InputError,
    PrimeField,
    Residue,
    algebra_from_document,
    algebra_to_document,
    maximal_ideals_report,
    run_theorem_suite,
)

from helpers import (
    six_dim_branching,
    three_dim_perfect,
    mirror_pair,
    zero_algebra,
)


def _det(rows):
    # cofactor expansion; independent of the rank-based route
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [
            [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        sign = Fraction(-1) ** j
        total += sign * rows[0][j] * _det(minor)
    return total


def _structure_matrix(A):
    # column i holds the coordinates of the square of e_i
    return [[A.squares[i][j] for i in range(A.n)] for j in range(A.n)]


def test_product_of_distinct_basis_vectors_vanishes():
    A = six_dim_branching()
    assert A.product(A.unit(0), A.unit(1)) == A.zero_vector()


def test_product_square_of_branch_vertex():
    A = six_dim_branching()
    assert A.product(A.unit(2), A.unit(2)) == A.squares[2]


def test_product_expansion_by_hand():
    # x = e1+e2, y = e1: the only overlapping coordinate is e1, giving e1^2.
    A = mirror_pair()
    out = A.product([1, 1], [1, 0])
    assert out == (Fraction(1), Fraction(1))


def test_product_commutative_and_bilinear():
    rng = random.Random(41)
    for field in (QQ, GF2):
        for _ in range(60):
            n = rng.randint(1, 5)
            A = EvolutionAlgebra(
                field,
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)],
            )
            x = [rng.randint(-2, 2) for _ in range(n)]
            y = [rng.randint(-2, 2) for _ in range(n)]
            z = [rng.randint(-2, 2) for _ in range(n)]
            assert A.product(x, y) == A.product(y, x)
            xz = [a + b for a, b in zip(x, z)]
            lhs = A.product(xz, y)
            rhs = tuple(
                a + b for a, b in zip(A.product(x, y), A.product(z, y))
            )
            assert lhs == rhs


def test_unit_products_match_squares():
    A = three_dim_perfect()
    for i in range(A.n):
        for j in range(A.n):
            expected = A.squares[i] if i == j else A.zero_vector()
            assert A.product(A.unit(i), A.unit(j)) == expected


def test_square_span_of_branching_example():
    A = six_dim_branching()
    span = A.square_span
    assert span.dim == 3
    assert span.contains(A.unit(1))
    assert span.contains([0, 0, 0, 1, 1, 0])
    assert span.contains(A.unit(5))
    assert not span.contains(A.unit(3))


def test_square_span_of_zero_algebra():
    assert zero_algebra().square_span.dim == 0


def test_square_span_of_perfect_example_is_everything():
    assert three_dim_perfect().square_span.is_full


def test_perfect_degenerate_flags():
    assert three_dim_perfect().is_perfect()
    A = six_dim_branching()
    assert not A.is_perfect()
    assert A.is_degenerate()
    assert A.annihilator_vertices() == frozenset({3, 5})
    assert A.annihilator_vertices() == A.graph.sinks()
    single = EvolutionAlgebra(QQ, [[1]])
    assert single.is_perfect() and not single.is_degenerate()


def test_perfect_iff_nonzero_determinant_over_rationals():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 4)
        A = EvolutionAlgebra(
            QQ,
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)],
        )
        det = _det(_structure_matrix(A))
        assert A.is_perfect() == (det != 0)
        assert A.is_perfect() == A.square_span.is_full


def test_quotient_of_perfect_example():
    A = three_dim_perfect()
    Q = A.quotient_by_hereditary({1, 2})
    assert Q.n == 1
    assert Q.squares == ((Fraction(1),),)
    assert Q.labels == ("e1",)


def test_quotient_by_empty_set_is_identity():
    A = six_dim_branching()
    assert A.quotient_by_hereditary(frozenset()) == A


def test_quotient_of_branching_example_by_loop_vertex():
    A = six_dim_branching()
    Q = A.quotient_by_hereditary({1})
    assert Q.labels == ("e1", "e3", "e4", "e5", "e6")
    z = (Fraction(0),) * 5
    assert Q.squares[0] == z
    assert Q.squares[1] == (0, 0, Fraction(1), Fraction(1), 0)
    assert Q.squares[2] == z
    assert Q.squares[3] == (0, 0, 0, 0, Fraction(1))
    assert Q.squares[4] == z


def test_quotient_requires_hereditary_set():
    with pytest.raises(ValueError):
        six_dim_branching().quotient_by_hereditary({0})
    with pytest.raises(ValueError):
        three_dim_perfect().quotient_by_hereditary({0, 1, 2})


def test_quotient_graph_commutes_with_graph_quotient():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(2, 6)
        A = EvolutionAlgebra(
            QQ,
            [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)],
        )
        for h in A.graph.hereditary_sets():
            if len(h) == n:
                continue
            assert A.quotient_by_hereditary(h).graph == A.graph.quotient(h)


def test_dimension_cap_and_label_validation():
    with pytest.raises(ValueError):
        EvolutionAlgebra(QQ, [[0] * 65 for _ in range(65)])
    with pytest.raises(ValueError):
        EvolutionAlgebra(QQ, [[0, 0], [0, 0]], labels=("a", "a"))
    with pytest.raises(ValueError, match="label count differs from dimension"):
        EvolutionAlgebra(QQ, [[0, 0], [0, 0]], labels=("a",))
    with pytest.raises(ValueError):
        EvolutionAlgebra(QQ, [])


@pytest.mark.parametrize(
    "labels, bad",
    [(["a b", "é"], None), (["a,b", "c"], "a,b"), ([" c", "d"], " c"), (["c", "d\t"], "d\t"),
     (["", "x"], ""), (["x", 1], 1)],
)
def test_constructor_and_documents_accept_the_same_labels(labels, bad):
    # One label rule for both, so every algebra that can be built can be
    # written as a document and read back.
    if bad is None:
        A = EvolutionAlgebra(QQ, [[0, 1], [0, 0]], labels)
        assert algebra_from_document(algebra_to_document(A)) == A
        return
    with pytest.raises(ValueError, match=f"basis label {re.escape(repr(bad))}"):
        EvolutionAlgebra(QQ, [[0, 1], [0, 0]], labels)
    with pytest.raises(InputError):
        algebra_from_document({"field": "Q", "dim": 2, "basis": labels, "squares": {}})


def test_index_of_label():
    A = three_dim_perfect()
    assert A.index_of("e2") == 1
    with pytest.raises(ValueError):
        A.index_of("x9")


def test_algebras_hash_by_value_and_show_their_size_and_field():
    A, B = six_dim_branching(), six_dim_branching()
    assert A is not B and hash(A) == hash(B) and {A: "six"}[B] == "six"
    assert repr(A) == "EvolutionAlgebra(n=6, field=Q)"
    assert repr(zero_algebra(2, GF2)) == "EvolutionAlgebra(n=2, field=F2)"


@pytest.mark.parametrize("label", ["\ud800", "a\udfffb", "\udce9", "é", "\U0001f600", "?", "\ufffd"])
def test_every_constructed_algebra_round_trips_through_its_document(label):
    # A label is accepted exactly when it encodes as UTF-8, which a document
    # needs; the document keeps its own message for the others.
    try:
        label.encode()
    except UnicodeEncodeError:
        with pytest.raises(ValueError, match=f"basis label {re.escape(repr(label))}"):
            EvolutionAlgebra(QQ, [[0, 1], [0, 0]], [label, "b"])
        doc = {"field": "Q", "dim": 2, "basis": [label, "b"], "squares": {}}
        with pytest.raises(InputError, match="basis labels must encode as UTF-8"):
            algebra_from_document(doc)
        return
    A = EvolutionAlgebra(QQ, [[0, 1], [0, 0]], [label, "b"])
    assert algebra_from_document(algebra_to_document(A)) == A


def test_prime_field_algebras_keep_int_squares_and_build_residues_on_read():
    F5 = PrimeField(5)
    # Two zero squares leave the square span of codimension at least two, so
    # the maximal-ideal report lists a family of hyperplanes.
    raw = [[0, 6, -1, 0, 0], [0, 0, 2, 0, 13], [0, 0, 0, 0, 0], [3, 0, 0, 7, -5], [0, 0, 0, 0, 0]]
    labels = ["a", "b", "c", "d", "e"]
    built = [
        EvolutionAlgebra(F5, raw, labels),
        EvolutionAlgebra(F5, [[Residue(x, 5) for x in row] for row in raw], labels),
        EvolutionAlgebra(F5, [[str(x) for x in row] for row in raw], labels),
    ]
    expected = tuple(tuple(x % 5 for x in row) for row in raw)
    for A in built:
        assert A == built[0] and hash(A) == hash(built[0])
        assert A._int_squares == expected
        assert all(type(x) is int for row in A._int_squares for x in row)
        A.graph, A.square_span
        report = maximal_ideals_report(A)
        assert report["hyperplane_family"]["count"] == 6
        run_theorem_suite(A)
        assert "squares" not in vars(A)
        assert A.squares == tuple(tuple(Residue(x, 5) for x in row) for row in expected)
        assert A.squares is A.squares
    A = built[0]
    for h in A.graph.hereditary_sets():
        keep = [j for j in range(A.n) if j not in h]
        if keep:
            sliced = [[A.squares[j][k] for k in keep] for j in keep]
            Q = A.quotient_by_hereditary(h)
            assert Q == EvolutionAlgebra(F5, sliced, [labels[j] for j in keep])
            assert "squares" not in vars(Q)
