import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import (
    GF2,
    QQ,
    EvolutionAlgebra,
    InputError,
    PrimeField,
    Residue,
    Subspace,
    ideal_closure,
    rref,
    unit_vector,
)
from evoalg import linalg
from evoalg.linalg import coerce_vector, nullspace, support, zero_subspace

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
    with pytest.raises(ValueError, match="vector of length 2, expected 3"):
        coerce_vector(QQ, (1, 0), 3)


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


# -- the mod-p kernel against the Residue elimination loop --------------------


def _reference_rref(field, n, vectors):
    """Gauss-Jordan on ``Residue`` entries, one object per scalar operation:
    the elimination loop ``linalg`` ran before it moved to ints mod p."""
    rows = [list(coerce_vector(field, v, n)) for v in vectors]
    pivots = []
    r = 0
    for c in range(n):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = field.one / rows[r][c]
        if inv != field.one:
            rows[r] = [inv * x for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def _reference_reduce(field, n, basis, pivots, vec):
    w = list(coerce_vector(field, vec, n))
    for row, c in zip(basis, pivots):
        f = w[c]
        if f:
            w = [a - f * b for a, b in zip(w, row)]
    return tuple(w)


def _reference_nullspace(field, n, equations):
    basis, pivots = _reference_rref(field, n, equations)
    out = []
    for f in (c for c in range(n) if c not in pivots):
        x = [field.zero] * n
        x[f] = field.one
        for row, c in zip(basis, pivots):
            if row[f]:
                x[c] = -row[f]
        out.append(tuple(x))
    return out


def _reference_intersect(field, n, u, w):
    """U ∩ W = (U⊥ + W⊥)⊥ for the standard form, which is non-degenerate
    over every field; a route that shares no step with ``intersect``."""
    perp = _reference_nullspace(field, n, u) + _reference_nullspace(field, n, w)
    return _reference_rref(field, n, _reference_nullspace(field, n, perp))


@st.composite
def _fp_rows(draw, p, n):
    """Rows of raw ints (negative, or past p), scalar strings, residues and
    bools, half the time mostly zero as in ``_q_rows``; half the time drawn
    as combinations of fewer generators, so the rank falls short."""
    entry = st.one_of(st.integers(-2 * p, 2 * p), st.integers(-(2**70), 2**70))
    mostly_zero = draw(st.booleans())

    def row(width):
        if not mostly_zero:
            return draw(st.lists(entry, min_size=width, max_size=width))
        cols = draw(st.sets(st.integers(0, width - 1), max_size=2))
        return [draw(entry) if j in cols else 0 for j in range(width)]

    k = draw(st.integers(0, 6))
    if draw(st.booleans()):
        gens = [row(n) for _ in range(draw(st.integers(1, 3)))]
        rows = []
        for _ in range(k):
            coefs = row(len(gens))
            rows.append([sum(c * g[j] for c, g in zip(coefs, gens)) for j in range(n)])
    else:
        rows = [row(n) for _ in range(k)]
    kinds = draw(st.lists(st.sampled_from(("int", "str", "residue", "bool")), min_size=n, max_size=n))
    cast = {"int": lambda x: x, "str": str, "residue": lambda x: Residue(x, p), "bool": lambda x: x % 2 == 1}
    return [[cast[kind](x) for kind, x in zip(kinds, row)] for row in rows]


@st.composite
def _q_rows(draw, n):
    """Mostly zero rows of small ``Fraction``s, each entry handed over as the
    ``Fraction``, its scalar string or, when whole, an int; half the time
    drawn as combinations of fewer generators, so the rank falls short."""
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def sparse(width):
        cols = draw(st.sets(st.integers(0, width - 1), max_size=2))
        return [draw(frac) if j in cols else Fraction(0) for j in range(width)]

    k = draw(st.integers(0, 6))
    if draw(st.booleans()):
        gens = [sparse(n) for _ in range(draw(st.integers(1, 3)))]
        rows = []
        for _ in range(k):
            coefs = sparse(len(gens))
            rows.append([sum(c * g[j] for c, g in zip(coefs, gens)) for j in range(n)])
    else:
        rows = [sparse(n) for _ in range(k)]
    kinds = draw(st.lists(st.sampled_from(("fraction", "str", "int")), min_size=n, max_size=n))
    cast = {
        "fraction": lambda x: x,
        "str": str,
        "int": lambda x: int(x) if x.denominator == 1 else x,
    }
    return [[cast[kind](Fraction(x)) for kind, x in zip(kinds, row)] for row in rows]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mod_p_kernel_matches_residue_loop(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7, 2**31 - 1)))
    n = data.draw(st.integers(1, 6))
    _kernel_matches_reference_loops(PrimeField(p), n, lambda: data.draw(_fp_rows(p, n)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rational_kernel_matches_fraction_loop(data):
    n = data.draw(st.integers(1, 6))
    _kernel_matches_reference_loops(QQ, n, lambda: data.draw(_q_rows(n)))


def _kernel_matches_reference_loops(F, n, draw_rows):
    """``rref``, ``reduce``, ``contains``, ``nullspace``, ``intersect``,
    ``sum`` and ``contains_subspace`` on drawn rows agree with the reference
    loops, which run one field operation per entry."""
    p = F.order
    rows = draw_rows()
    s = rref(F, n, rows)
    basis, pivots = _reference_rref(F, n, rows)
    assert s.basis == basis and s.pivots == pivots
    assert all(
        type(x) is Residue and x.p == p if p else type(x) is Fraction
        for row in s.basis
        for x in row
    )
    # A subspace built directly from its basis derives its kernel rows itself.
    direct = Subspace(F, n, s.basis, s.pivots)
    for vec in draw_rows():
        residual = _reference_reduce(F, n, basis, pivots, vec)
        for sub in (s, direct):
            assert sub.reduce(vec) == residual
            assert sub.contains(vec) == (not any(residual))
    assert nullspace(F, n, rows) == _reference_nullspace(F, n, rows)
    other_rows = draw_rows()
    other_basis, other_pivots = _reference_rref(F, n, other_rows)
    # Each subspace is checked before its basis is first read, so a hash or
    # an equality that looks at the Residue rows only once built shows.
    other = rref(F, n, other_rows)
    _same_across_origins(other, other_basis, other_pivots)
    meet = s.intersect(other)
    meet_ref = _reference_intersect(F, n, basis, other_basis)
    _same_across_origins(meet, *meet_ref)
    total = s.sum(other)
    total_ref = _reference_rref(F, n, basis + other_basis)
    _same_across_origins(total, *total_ref)
    _same_when_decided(s, basis, [
        (s, basis, total, total_ref[0]),
        (s, basis, s, basis),
        (meet, meet_ref[0], s, basis),
        (meet, meet_ref[0], other, other_basis),
    ])
    _same_across_origins(rref(F, n, rows), basis, pivots)
    _same_across_origins(direct, basis, pivots)
    for big, small in ((s, other), (other, s), (s, meet), (other, meet), (total, s), (meet, total)):
        expected = all(
            not any(_reference_reduce(F, n, big.basis, big.pivots, row)) for row in small.basis
        )
        assert big.contains_subspace(small) == expected
    assert s.contains_subspace(meet) and total.contains_subspace(other)


def _same_across_origins(built, basis, pivots):
    """``built`` equals, hashes like and finds as a dict key the subspace
    built directly from the reference basis, whose ``Residue`` rows it then
    hands out, as one object on every read."""
    F, n = built.field, built.ambient_dim
    direct = Subspace(F, n, basis, pivots)
    assert built == direct and direct == built and not built != direct
    assert hash(built) == hash(direct)
    assert {direct: pivots}[built] == pivots and {built: pivots}[direct] == pivots
    assert built.pivots == pivots and built.dim == len(pivots)
    assert built.basis == basis and built.basis is built.basis
    p = F.order
    assert all(
        type(x) is Residue and x.p == p if p else type(x) is Fraction
        for row in built.basis
        for x in row
    )
    # A different subspace of the same space is not equal.
    if pivots:
        assert built != Subspace(F, n, basis[1:], pivots[1:])


def _same_when_decided(s, basis, nested):
    """Meets of nested operands, given as (U, its basis, W, its basis) with U
    inside W, and the meet and join of ``s`` with the zero subspace, in both
    argument orders: each returns an operand as is (the smaller one, or the
    first when they are equal) and agrees with the reference."""
    F, n = s.field, s.ambient_dim
    zero = rref(F, n, [])
    for u, ub, w, wb in nested + [(zero, (), s, basis)]:
        for x, xb, y, yb in ((u, ub, w, wb), (w, wb, u, ub)):
            meet = x.intersect(y)
            assert meet is (u if u.dim < w.dim else x)
            _same_across_origins(meet, *_reference_intersect(F, n, xb, yb))
    for x, xb, y, yb in ((zero, (), s, basis), (s, basis, zero, ())):
        total = x.sum(y)
        assert total is (x if s.is_zero else s)
        _same_across_origins(total, *_reference_rref(F, n, xb + yb))


def test_rational_subspaces_agree_across_origins():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 5)
        u, w = ([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))] for _ in range(2))
        ub, _ = _reference_rref(QQ, n, u)
        wb, _ = _reference_rref(QQ, n, w)
        s, t = rref(QQ, n, u), rref(QQ, n, w)
        _same_across_origins(s, *_reference_rref(QQ, n, u))
        total, meet = s.sum(t), s.intersect(t)
        total_ref, meet_ref = _reference_rref(QQ, n, ub + wb), _reference_intersect(QQ, n, ub, wb)
        _same_across_origins(total, *total_ref)
        _same_across_origins(meet, *meet_ref)
        _same_when_decided(s, ub, [
            (s, ub, total, total_ref[0]),
            (s, ub, s, ub),
            (meet, meet_ref[0], s, ub),
            (meet, meet_ref[0], t, wb),
        ])


@pytest.mark.parametrize("field", [QQ, GF2])
def test_subspace_built_from_list_rows_is_the_rref_subspace(field):
    one, zero = field.one, field.zero
    rows = [[one, zero, one], [zero, one, zero]]
    s, r = Subspace(field, 3, rows, (0, 1)), rref(field, 3, rows)
    assert s == r and r == s and hash(s) == hash(r) and {r: 1}[s] == 1
    assert s.basis == r.basis
    e3 = rref(field, 3, [[zero, zero, one]])
    for x, y in ((s, e3), (e3, s)):
        assert x.sum(y).is_full and x.intersect(y).is_zero
    assert s.sum(r) == r and s.intersect(r) == r


def test_mod_p_kernel_rejects_a_foreign_modulus():
    F5 = PrimeField(5)
    with pytest.raises(InputError):
        rref(F5, 2, [(1, 0), (Residue(1, 7), 2)])
    s = rref(F5, 2, [(1, 2)])
    for call in (s.reduce, s.contains):
        with pytest.raises(InputError):
            call((Residue(1, 3), 0))
    with pytest.raises(ValueError):
        rref(F5, 2, [(1, 0), (1,)])


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_eliminations_leave_row_stores_and_input_rows_unchanged(field):
    # Elimination over F_p updates rows in place, so it must write only into
    # rows that the call itself made: never into an algebra's squares, a
    # kept square span or the caller's rows.
    rng = random.Random(28)
    for _ in range(40):
        n = rng.randint(2, 7)
        squares = [[rng.choice((0, 0, 0, 1, 2, -1)) for _ in range(n)] for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(0, 2)):
            squares[i] = [0] * n
        A = EvolutionAlgebra(field, squares)
        rows = [[rng.choice((0, 0, 1, 3)) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        int_squares, span = A._int_squares, A.square_span
        kept = (list(int_squares), list(span._rows), [list(r) for r in rows])
        other = rref(field, n, rows)
        other_rows = other._rows
        ideal_closure(A, rows)
        ideal_closure(A, [[1] * n])
        span.sum(other)
        other.sum(span)
        rref(field, n, rows)
        rref(field, n, span._rows + tuple(rows))
        assert A._int_squares is int_squares and A.square_span is span and other._rows is other_rows
        assert (list(int_squares), list(span._rows), rows) == kept
        assert other == rref(field, n, kept[2])


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_intersect_hands_no_row_store_row_to_coercion(field, monkeypatch):
    # Operand rows are already in row-store form, so a meet coerces none of
    # them again; only the public entry points coerce.
    rng = random.Random(30)
    pairs = []
    for _ in range(40):
        n = rng.randint(2, 7)
        u, w = (
            rref(field, n, [[rng.choice((0, 0, 1, 2, -1)) for _ in range(n)] for _ in range(k)])
            for k in (rng.randint(1, n), rng.randint(1, n))
        )
        pairs.append((u, w, u.intersect(w), w.intersect(u)))
    coerce = linalg._coerce_row

    def guarded(field, vec, n):
        assert not any(vec is row for row in store), "a row-store row was coerced"
        return coerce(field, vec, n)

    monkeypatch.setattr(linalg, "_coerce_row", guarded)
    for u, w, uw, wu in pairs:
        store = u._rows + w._rows
        assert u.intersect(w) == uw and w.intersect(u) == wu


@pytest.mark.parametrize(
    "field", [QQ, GF2, PrimeField(5), PrimeField(1000003)], ids=["Q", "F2", "F5", "F1000003"]
)
def test_row_store_rows_leave_as_field_elements_or_as_their_text(field):
    # ``_elements`` and ``_row_strings`` are the one way out of the row store:
    # the text is ``field.format`` of the elements entry by entry, and over Q
    # the elements are the row store itself.
    rng = random.Random(31)
    p = field.order
    scalars = (0, 0, 1, -1, Fraction(2, 3), Fraction(-7, 5), 10**12) if p is None else (
        0, 0, 1, -1, 2, p - 1, p + 3, 10**12
    )
    for _ in range(30):
        n = rng.randint(1, 6)
        A = EvolutionAlgebra(field, [[rng.choice(scalars) for _ in range(n)] for _ in range(n)])
        s = rref(field, n, A._int_squares[: rng.randint(0, n)])
        for rows, elements in ((A._int_squares, A.squares), (s._rows, s.basis)):
            assert elements == linalg._elements(field, rows)
            assert all(
                type(x) is Fraction if p is None else type(x) is Residue and x.p == p
                for row in elements
                for x in row
            )
            assert [[x.value if p else x for x in row] for row in elements] == list(map(list, rows))
            assert linalg._row_strings(field, rows) == [list(map(field.format, r)) for r in elements]
        assert A.squares is A.squares and s.basis is s.basis
        if p is None:
            assert A.squares is A._int_squares and s.basis is s._rows
    if p is None:
        rows = ((Fraction(1), Fraction(10**5000, 3)),)
        for to_text in (
            lambda: linalg._row_strings(field, rows),
            lambda: [field.format(x) for x in linalg._elements(field, rows)[0]],
        ):
            with pytest.raises(InputError, match="int-str digit limit"):
                to_text()
