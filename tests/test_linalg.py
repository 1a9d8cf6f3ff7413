import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import GF2, QQ, rref, unit_vector
from evoalg.linalg import nullspace, support, zero_subspace

from helpers import six_dim_branching


def test_rref_collapses_dependent_rows():
    s = rref(QQ, 2, [(1, 1), (2, 2)])
    assert s.dim == 1
    assert s.basis == ((Fraction(1), Fraction(1)),)


def test_rref_of_nothing_is_zero_subspace():
    s = rref(QQ, 3, [])
    assert s.dim == 0
    assert s.is_zero


def test_rref_rank_two_hand_elimination():
    # (1,0,-1) = (1,1,0) - (0,1,1), so the rank is two and the reduced basis
    # pivots on the first two coordinates.
    s = rref(QQ, 3, [(1, 1, 0), (0, 1, 1), (1, 0, -1)])
    assert s.dim == 2
    assert s.basis == (
        (Fraction(1), Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(1), Fraction(1)),
    )


def test_rref_rejects_ragged_vectors():
    with pytest.raises(ValueError):
        rref(QQ, 3, [(1, 0, 0), (1, 0)])


def test_contains_simple_cases():
    s = rref(QQ, 2, [(1, 1)])
    assert s.contains((2, 2))
    assert not s.contains((1, 0))
    assert zero_subspace(QQ, 2).contains((0, 0))


def test_contains_square_span_excludes_lone_vertex():
    # In the 6-dim branching algebra the squares span {e2, e4+e5, e6}; e4
    # alone does not lie in that span.
    A = six_dim_branching()
    assert not A.square_span.contains(A.unit(3))
    assert A.square_span.contains([0, 0, 0, 1, 1, 0])


def test_sum_and_intersection_of_unit_spans():
    e = lambda i: unit_vector(QQ, 3, i)
    s = rref(QQ, 3, [e(0), e(1)])
    t = rref(QQ, 3, [e(1), e(2)])
    meet = s.intersect(t)
    assert meet == rref(QQ, 3, [e(1)])
    assert s.sum(zero_subspace(QQ, 3)) == s


def test_sum_matches_five_dim_union():
    e = lambda i: unit_vector(QQ, 6, i)
    big = rref(QQ, 6, [e(1), e(2), e(3), e(4), e(5)])
    squares = rref(QQ, 6, [e(1), [0, 0, 0, 1, 1, 0], e(5)])
    assert big.sum(squares) == big
    assert big.sum(squares).dim == 5


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError):
        rref(QQ, 2, [(1, 0)]).sum(rref(QQ, 3, [(1, 0, 0)]))
    with pytest.raises(ValueError):
        rref(QQ, 2, [(1, 0)]).contains((1, 0, 0))


def _random_subspace(rng, field, n):
    k = rng.randint(0, n)
    if field is QQ:
        vecs = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)
        ]
    else:
        vecs = [
            [field.from_int(rng.randrange(field.order)) for _ in range(n)]
            for _ in range(k)
        ]
    return rref(field, n, vecs)


@pytest.mark.parametrize("field", [QQ, GF2])
def test_dimension_formula(field):
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 6)
        s = _random_subspace(rng, field, n)
        t = _random_subspace(rng, field, n)
        assert s.dim + t.dim == s.sum(t).dim + s.intersect(t).dim


@pytest.mark.parametrize("field", [QQ, GF2])
def test_rref_idempotent_on_random_subspaces(field):
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 6)
        s = _random_subspace(rng, field, n)
        again = rref(field, n, s.basis)
        assert again.basis == s.basis and again.pivots == s.pivots


@given(
    st.integers(1, 5),
    st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_hypothesis(n, rows):
    s = rref(QQ, 5, rows)
    assert rref(QQ, 5, s.basis) == s


def test_contains_agrees_with_exhaustive_membership_over_gf2():
    rng = random.Random(99)
    for n in range(1, 7):
        for _ in range(8):
            s = _random_subspace(rng, GF2, n)
            elems = {tuple([GF2.zero] * n)}
            for row in s.basis:
                elems |= {
                    tuple(a + b for a, b in zip(x, row)) for x in elems
                }
            for bits in itertools.product((0, 1), repeat=n):
                v = tuple(GF2.from_int(b) for b in bits)
                assert s.contains(v) == (v in elems)


def test_nullspace_produces_solutions():
    eqs = [(1, 2, 0, -1), (0, 1, 1, 1)]
    basis = nullspace(QQ, 4, [tuple(Fraction(x) for x in row) for row in eqs])
    assert len(basis) == 2
    for vec in basis:
        for row in eqs:
            total = sum((Fraction(r) * x for r, x in zip(row, vec)), Fraction(0))
            assert total == 0


def test_full_subspace_and_support():
    assert rref(QQ, 4, [unit_vector(QQ, 4, i) for i in range(4)]).is_full
    assert support((Fraction(0), Fraction(2), Fraction(0))) == frozenset({1})
