import itertools
import random
import tracemalloc

import pytest

from evoalg import GF2, QQ, Digraph, EvolutionAlgebra, PrimeField, linalg, nullspace, rref
from evoalg.ideals import (
    CRITERION_HYPERPLANE,
    CRITERION_MAX_HEREDITARY,
    Ideal,
    hereditary_from_ideal,
    ideal_closure,
    ideal_from_hereditary,
    is_ideal,
    maximal_ideal_cover_check,
    maximal_ideals_report,
)
from evoalg.oracle import (
    RandomSpec,
    brute_force_ideals,
    certify_fast_vs_brute,
    random_algebra,
    random_perfect_algebra,
    random_with_sinks,
)

from helpers import (
    double_loop_pair,
    double_loop_plus_fixed,
    four_dim_all_to_third,
    four_dim_degenerate_funnel,
    four_dim_non_maximal_span,
    mirror_pair,
    six_dim_branching,
    three_dim_collapsing,
    three_dim_perfect,
    two_cycle,
    zero_algebra,
)


# -- closure -------------------------------------------------------------------


def test_closure_of_mirror_diagonal_is_one_dimensional():
    A = mirror_pair()
    ideal = ideal_closure(A, [[1, 1]])
    assert ideal.dim == 1
    assert ideal.subspace == rref(QQ, 2, [(1, 1)])


def test_closure_of_nothing_is_zero_ideal():
    ideal = ideal_closure(six_dim_branching(), [])
    assert ideal.is_zero


def test_closure_of_branch_vertex():
    # e3 forces e3^2 = e4+e5, whose support forces e5^2 = e6; e4 and e5 alone
    # are never forced.
    A = six_dim_branching()
    ideal = ideal_closure(A, [A.unit(2)])
    expected = rref(QQ, 6, [A.unit(2), [0, 0, 0, 1, 1, 0], A.unit(5)])
    assert ideal.subspace == expected
    assert not ideal.contains(A.unit(3))
    assert not ideal.contains(A.unit(4))
    # e1^2=e2, e2^2=e3, e3^2=e4: e1 forces squares three steps down the chain.
    chain = EvolutionAlgebra(QQ, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0] * 4])
    assert ideal_closure(chain, [chain.unit(0)]).subspace.is_full


# -- is_ideal ------------------------------------------------------------------


def test_is_ideal_examples():
    A = four_dim_non_maximal_span()
    J = rref(QQ, 4, [A.unit(0), A.unit(1), [0, 0, 1, 1]])
    assert is_ideal(A, J)

    B = six_dim_branching()
    assert is_ideal(B, rref(QQ, 6, [B.unit(i) for i in range(6)]))
    assert not is_ideal(B, rref(QQ, 6, [B.unit(2)]))


def test_ideal_constructor_validates():
    B = six_dim_branching()
    with pytest.raises(ValueError):
        Ideal(B, rref(QQ, 6, [B.unit(2)]))


# -- the two maps ----------------------------------------------------------------


def test_vertex_span_of_hereditary_sets():
    A = three_dim_perfect()
    ideal = ideal_from_hereditary(A, {1, 2})
    span = rref(QQ, 3, [A.unit(1), A.unit(2)])
    assert ideal.subspace == span
    assert ideal.subspace.pivots == span.pivots == (1, 2)

    assert ideal_from_hereditary(A, frozenset()).is_zero

    B = six_dim_branching()
    assert ideal_from_hereditary(B, {1, 2, 3, 4, 5}).dim == 5


@pytest.mark.parametrize("field", [QQ, GF2, PrimeField(5)], ids=["Q", "F2", "F5"])
def test_vertex_spans_and_closures_deduplicate_as_dict_keys(field):
    # The property suite keys dicts by Subspace and mixes vertex spans, built
    # directly from unit rows, with closures, built by elimination: an equal
    # pair must hash alike whichever way each was built.
    algebras = [
        six_dim_branching(field),
        three_dim_perfect(field),
        four_dim_degenerate_funnel(field),
        zero_algebra(3, field),
    ]
    for A in algebras:
        for h in A.graph.hereditary_sets():
            span = ideal_from_hereditary(A, h).subspace
            closure = ideal_closure(A, [A.unit(i) for i in h]).subspace
            assert span == closure and closure == span, (A, h)
            assert hash(span) == hash(closure), (A, h)
            assert {span: h}[closure] == h and {closure: h}[span] == h
            assert len({span, closure}) == 1


def test_vertex_span_requires_hereditary():
    with pytest.raises(ValueError):
        ideal_from_hereditary(six_dim_branching(), {0})


def test_hereditary_vertices_of_mirror_ideal_is_whole_basis():
    A = mirror_pair()
    ideal = ideal_closure(A, [[1, 1]])
    assert ideal.hereditary_vertices == frozenset({0, 1})
    # strict expansion: span of the hereditary vertices is everything
    closure = ideal_from_hereditary(A, ideal.hereditary_vertices)
    assert closure.subspace.is_full
    assert closure.subspace != ideal.subspace


def test_hereditary_vertices_of_zero_ideal():
    A = two_cycle()
    assert ideal_closure(A, []).hereditary_vertices == frozenset()


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_vertex_spans_share_the_unit_rows(field):
    A = zero_algebra(10, field)
    assert all(A.unit(i) is A.unit(i) for i in range(A.n))
    span = ideal_from_hereditary(A, {1, 4}).subspace
    # Over F_p the row store holds the algebra's int unit rows; over Q those
    # are the unit rows themselves, and so is the basis.
    assert span._rows[0] is A._int_units[1] and span._rows[1] is A._int_units[4]
    if field is QQ:
        assert span.basis[0] is A.unit(1) and span.basis[1] is A.unit(4)
    else:
        assert span._rows == ((0, 1) + (0,) * 8, (0,) * 4 + (1,) + (0,) * 5)
    # The spans of all 1,024 hereditary sets build no rows of their own:
    # 0.3 MiB here, 0.9 MiB with a fresh row per vertex of each span.
    hereditary = A.graph.hereditary_sets()
    tracemalloc.start()
    try:
        spans = [ideal_from_hereditary(A, h) for h in hereditary]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spans) == 1024
    assert held < 0.5 * 2**20


def _literal_hereditary_vertices(ideal):
    """H(I) by one membership test per vertex."""
    return frozenset(i for i, sq in enumerate(ideal.algebra.squares) if ideal.contains(sq))


def _literal_maximality_criterion(ideal):
    """``maximality_criterion`` testing A^2 inside I and span(B) + A^2 = A
    on the subspaces themselves."""
    A, sq = ideal.algebra, ideal.algebra.square_span
    if ideal.subspace.contains_subspace(sq):
        return CRITERION_HYPERPLANE if ideal.codim == 1 else None
    if not ideal.has_absorption():
        return None
    if ideal.basis_vertices() not in A.graph.maximal_hereditary_sets():
        return None
    return CRITERION_MAX_HEREDITARY if ideal.subspace.sum(sq).is_full else None


def _graph_reading_algebra(rng, field, kind):
    """A seeded random algebra of dimension 2 to 6: as drawn, with 1 to n - 1
    squares forced to zero, or strongly connected through the cycle
    0 -> 1 -> ... -> 0."""
    n = rng.randint(2, 6)
    squares = [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.4 else 0 for _ in range(n)]
               for _ in range(n)]
    if kind == "sinks":
        for i in rng.sample(range(n), rng.randint(1, n - 1)):
            squares[i] = [0] * n
    elif kind == "strongly connected":
        for i in range(n):
            squares[i][(i + 1) % n] = squares[i][(i + 1) % n] or 1
    return EvolutionAlgebra(field, squares)


@pytest.mark.parametrize("field", [QQ, GF2, PrimeField(3), PrimeField(5)])
def test_graph_reading_matches_the_membership_scan(field):
    # H(I) read off the column support and the graph, and maximality read off
    # H(I) and the rank of the quotient's squares, agree with the literal
    # tests on vertex spans, closures, A^2, meets and, at the oracle's sizes,
    # every brute-force ideal.
    rng = random.Random(29)
    oracle_dim = {2: 4, 3: 3, 5: 2}.get(field.order, 0)
    for k in range(30):
        A = _graph_reading_algebra(rng, field, ("drawn", "sinks", "strongly connected")[k % 3])
        found = [ideal_from_hereditary(A, h) for h in A.graph.hereditary_sets()]
        found += [_random_ideal(rng, A) for _ in range(4)]
        found.append(Ideal(A, A.square_span, _validated=True))
        found += [
            Ideal(A, rng.choice(found).subspace.intersect(rng.choice(found).subspace), _validated=True)
            for _ in range(6)
        ]
        if A.n <= oracle_dim:
            found += [Ideal(A, s, _validated=True) for s in brute_force_ideals(A)]
        for ideal in found:
            assert ideal.hereditary_vertices == _literal_hereditary_vertices(ideal), (A, ideal)
            if ideal.is_proper:
                assert ideal.maximality_criterion() == _literal_maximality_criterion(ideal), (A, ideal)


def test_hereditary_vertices_with_empty_basis_trace():
    A = double_loop_plus_fixed()
    ideal = ideal_closure(A, [[1, 1, 0]])
    assert ideal.hereditary_vertices == frozenset({0, 1})
    assert ideal.basis_vertices() == frozenset()
    assert A.graph.is_saturated(ideal.hereditary_vertices)


def test_subspace_of_another_shape_is_rejected():
    A = three_dim_perfect()
    for other in (rref(QQ, 2, []), rref(GF2, 3, [])):
        with pytest.raises(ValueError, match="subspace does not match the algebra"):
            is_ideal(A, other)
        with pytest.raises(ValueError, match="subspace does not match the algebra"):
            Ideal(A, other)


def test_hereditary_from_ideal_rejects_non_ideals():
    B = six_dim_branching()
    with pytest.raises(ValueError):
        hereditary_from_ideal(B, rref(QQ, 6, [B.unit(2)]))
    assert hereditary_from_ideal(B, rref(QQ, 6, [])) == frozenset({3, 5})


# -- absorption ------------------------------------------------------------------


def test_degenerate_funnel_breaks_absorption():
    A = four_dim_degenerate_funnel()
    h = frozenset({0, 1, 2})
    assert A.graph.is_hereditary(h) and A.graph.is_saturated(h)
    ideal = ideal_from_hereditary(A, h)
    assert not ideal.has_absorption()
    # witness: e1 + e4 multiplies everything into the ideal but stays outside
    witness = [1, 0, 0, 1]
    for i in range(4):
        assert ideal.contains(A.product(witness, A.unit(i)))
    assert not ideal.contains(witness)


def test_full_ideal_absorbs():
    A = six_dim_branching()
    full = ideal_closure(A, [A.unit(i) for i in range(6)])
    assert full.has_absorption()


def test_all_to_third_hyperplane_lacks_absorption():
    A = four_dim_all_to_third()
    ideal = ideal_closure(A, [A.unit(0), A.unit(1), A.unit(2)])
    assert ideal.dim == 3
    assert not ideal.has_absorption()
    assert ideal.hereditary_vertices == frozenset(range(4))
    assert ideal.basis_vertices() == frozenset({0, 1, 2})


def test_absorption_iff_saturated_on_non_degenerate():
    rng = random.Random(61)
    count = 0
    while count < 40:
        n = rng.randint(2, 5)
        A = EvolutionAlgebra(
            QQ,
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)],
        )
        if A.is_degenerate():
            continue
        count += 1
        for h in A.graph.hereditary_sets():
            assert ideal_from_hereditary(A, h).has_absorption() == (
                A.graph.is_saturated(h)
            )


def test_saturation_fixed_point_needs_annihilator_vertices():
    A = six_dim_branching()
    # the empty set is saturated, yet the sinks always satisfy e^2 = 0
    assert ideal_from_hereditary(A, frozenset()).hereditary_vertices == frozenset(
        {3, 5}
    )
    B = three_dim_perfect()
    for h in B.graph.hereditary_sets():
        back = ideal_from_hereditary(B, h).hereditary_vertices
        assert (back == h) == B.graph.is_saturated(h)


# -- basis vertices ---------------------------------------------------------------


def test_basis_vertices_examples():
    A = six_dim_branching()
    ideal = ideal_closure(A, [A.unit(2)])
    assert ideal.basis_vertices() == frozenset({2, 5})

    for h in A.graph.hereditary_sets():
        assert ideal_from_hereditary(A, h).basis_vertices() == h


def test_spanned_by_basis_vertices():
    A = mirror_pair()
    ideal = ideal_closure(A, [[1, 1]])
    assert not ideal.is_spanned_by_basis_vertices()
    B = six_dim_branching()
    for h in B.graph.maximal_hereditary_sets():
        assert ideal_from_hereditary(B, h).is_spanned_by_basis_vertices()


# -- maximality ---------------------------------------------------------------------


def test_codim_one_spans_over_squares_are_maximal():
    A = six_dim_branching()
    ideal = ideal_from_hereditary(A, frozenset({1, 2, 3, 4, 5}))
    assert ideal.is_maximal()
    assert ideal.maximality_criterion() == CRITERION_HYPERPLANE


def test_perfect_unique_maximal_ideal():
    A = three_dim_perfect()
    ideal = ideal_from_hereditary(A, frozenset({1, 2}))
    assert ideal.is_maximal()
    assert ideal.maximality_criterion() == CRITERION_MAX_HEREDITARY


def test_non_maximal_vertex_span_with_witness_between():
    A = four_dim_non_maximal_span()
    h = frozenset({0, 1})
    assert A.graph.maximal_hereditary_sets() == [h]
    ideal = ideal_from_hereditary(A, h)
    assert not ideal.is_maximal()
    # witness: an ideal strictly between the span and the algebra
    J = Ideal(A, rref(QQ, 4, [A.unit(0), A.unit(1), [0, 0, 1, 1]]))
    assert J.is_proper
    assert J.subspace.contains_subspace(ideal.subspace)
    assert J.subspace != ideal.subspace
    # and the span satisfies I = span(H(I)) with the squares not inside
    assert ideal.subspace == ideal_from_hereditary(
        A, ideal.hereditary_vertices
    ).subspace
    assert not ideal.subspace.contains_subspace(A.square_span)


def test_mirror_diagonal_is_maximal_hyperplane():
    A = mirror_pair()
    ideal = ideal_closure(A, [[1, 1]])
    assert ideal.is_maximal()
    assert ideal.maximality_criterion() == CRITERION_HYPERPLANE
    assert not ideal.has_absorption()


def test_maximality_requires_proper():
    A = mirror_pair()
    full = ideal_closure(A, [A.unit(0), A.unit(1)])
    with pytest.raises(ValueError):
        full.is_maximal()


def test_double_loop_has_maximal_ideal_without_maximal_vertex_sets():
    A = double_loop_pair()
    assert A.graph.maximal_hereditary_sets() == [frozenset()]
    ideal = ideal_closure(A, [[1, 1]])
    assert ideal.is_maximal()
    assert ideal.maximality_criterion() == CRITERION_HYPERPLANE


# -- reports -------------------------------------------------------------------------


def test_report_for_perfect_example():
    rep = maximal_ideals_report(three_dim_perfect())
    assert rep["perfect"] is True
    assert rep["square_span_codim"] == 0
    assert rep["hyperplane_family"]["kind"] == "none"
    assert rep["from_maximal_hereditary"] == [
        {
            "vertices": ["e2", "e3"],
            "dim": 2,
            "maximal": True,
            "criterion": CRITERION_MAX_HEREDITARY,
        }
    ]
    assert rep["complete"] is True


def test_report_for_branching_example():
    rep = maximal_ideals_report(six_dim_branching())
    assert rep["square_span_codim"] == 3
    assert rep["hyperplane_family"]["kind"] == "infinite"
    assert [e["vertices"] for e in rep["from_maximal_hereditary"]] == [
        ["e1", "e2", "e4", "e5", "e6"],
        ["e2", "e3", "e4", "e5", "e6"],
    ]
    assert all(
        e["maximal"] and e["criterion"] == CRITERION_HYPERPLANE
        for e in rep["from_maximal_hereditary"]
    )
    assert rep["complete"] is False


def test_report_for_two_cycle():
    rep = maximal_ideals_report(two_cycle())
    assert rep["perfect"] is True
    assert rep["hyperplane_family"]["kind"] == "none"
    assert rep["from_maximal_hereditary"] == [
        {
            "vertices": [],
            "dim": 0,
            "maximal": True,
            "criterion": CRITERION_MAX_HEREDITARY,
        }
    ]


def test_report_enumerates_hyperplanes_over_prime_field():
    A = six_dim_branching(GF2)
    rep = maximal_ideals_report(A)
    fam = rep["hyperplane_family"]
    assert fam["kind"] == "family"
    assert fam["count"] == 7  # (2^3 - 1) / (2 - 1)
    assert len(fam["ideals"]) == 7
    for rows in fam["ideals"]:
        sub = rref(GF2, 6, [[GF2.parse(x) for x in row] for row in rows])
        assert sub.dim == 5
        assert sub.contains_subspace(A.square_span)
        assert is_ideal(A, sub)
    assert rep["complete"] is True

    # Codimension two over F3: four hyperplanes, their functionals taken in
    # lexicographic order of coefficients with leading coefficient one.
    F3 = PrimeField(3)
    B = EvolutionAlgebra(F3, [[0, 1, 1, 0], [0, 2, 2, 0], [1, 0, 0, 1], [2, 0, 0, 2]])
    fam = maximal_ideals_report(B)["hyperplane_family"]
    assert fam == {
        "kind": "family",
        "count": 4,
        "ideals": [
            [["1", "0", "0", "1"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]],
            [["1", "0", "0", "0"], ["0", "1", "1", "0"], ["0", "0", "0", "1"]],
            [["1", "0", "0", "1"], ["0", "1", "0", "1"], ["0", "0", "1", "2"]],
            [["1", "0", "0", "1"], ["0", "1", "0", "2"], ["0", "0", "1", "1"]],
        ],
    }


def test_report_generates_only_one_functional_per_hyperplane(monkeypatch):
    def first_nonzero_is_one(coeffs):
        return next((x for x in coeffs if x), 0) == 1

    # e1^2 = e1 + ... + en and the other squares zero: codimension n - 1.
    for p in (2, 3, 5, 7):
        for c in (2, 3):
            F = PrimeField(p)
            A = EvolutionAlgebra(F, [[int(i == 0)] * (c + 1) for i in range(c + 1)])
            functionals = nullspace(F, A.n, A.square_span.basis)
            combos = filter(first_nonzero_is_one, itertools.product(range(p), repeat=c))
            fam = maximal_ideals_report(A)["hyperplane_family"]
            assert fam["count"] == len(fam["ideals"]) == (p**c - 1) // (p - 1)
            # The i-th hyperplane is the kernel of the i-th functional in the
            # lexicographic order of the coefficients, filtered.
            for coeffs, rows in zip(combos, fam["ideals"], strict=True):
                phi = [sum(k * f.value for k, f in zip(coeffs, col)) for col in zip(*functionals)]
                assert all(sum(int(x) * y for x, y in zip(row, phi)) % p == 0 for row in rows)

    # Over F_101 with codimension two, only the 102 wanted coefficient
    # vectors are made, not all 101^2.
    made = 0
    product = itertools.product

    def counted(*args, **kwargs):
        nonlocal made
        for v in product(*args, **kwargs):
            made += 1
            yield v

    monkeypatch.setattr(itertools, "product", counted)
    fam = maximal_ideals_report(zero_algebra(2, PrimeField(101)))["hyperplane_family"]
    assert fam["count"] == len(fam["ideals"]) == made == 102


def test_report_unique_hyperplane_when_codim_one():
    A = mirror_pair()
    rep = maximal_ideals_report(A)
    assert rep["hyperplane_family"]["kind"] == "unique"
    assert rep["complete"] is True


# -- cover check ------------------------------------------------------------------------


def test_cover_check_on_perfect_example():
    A = three_dim_perfect()
    ideal = ideal_from_hereditary(A, frozenset({1, 2}))
    assert A.graph.tree({0}) == frozenset({0, 1, 2})
    assert maximal_ideal_cover_check(A, ideal)


def test_cover_check_on_branching_example():
    A = six_dim_branching()
    ideal = ideal_from_hereditary(A, frozenset({1, 2, 3, 4, 5}))
    assert maximal_ideal_cover_check(A, ideal)


def test_cover_check_rejects_non_maximal():
    A = four_dim_non_maximal_span()
    ideal = ideal_from_hereditary(A, frozenset({0, 1}))
    with pytest.raises(ValueError):
        maximal_ideal_cover_check(A, ideal)


# -- collapsing map ------------------------------------------------------------------------


def test_two_ideals_with_equal_hereditary_vertices():
    A = three_dim_collapsing()
    I = ideal_closure(A, [[1, 1, 0]])
    J = ideal_closure(A, [A.unit(0), A.unit(1)])
    assert I.subspace != J.subspace
    assert I.hereditary_vertices == J.hereditary_vertices == frozenset({0, 1})


# -- closures from the square span -------------------------------------------


def test_closures_of_a_perfect_strongly_connected_algebra_eliminate_the_squares_once(
    monkeypatch,
):
    # Every tree is all of V, so every closure is A^2 = A: the squares are
    # eliminated for ``square_span`` and no closure eliminates anything.
    A = EvolutionAlgebra(QQ, [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    rows_in = []
    eliminate = linalg._eliminate

    def counting(rows, ncols, p):
        rows_in.append(len(rows))
        return eliminate(rows, ncols, p)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    assert A.square_span.is_full
    closures = [ideal_closure(A, [A.unit(i)]) for i in range(A.n)]
    for gens in ([[1, 2, 3, 4]], [[1, -1, 0, 2], [0, 1, 1, 1]], [["1/2", 0, "-3", 1]]):
        closures.append(ideal_closure(A, gens))
    assert rows_in == [A.n]
    assert all(ideal.subspace.is_full for ideal in closures)
    assert A.graph.is_simple() and A.is_perfect()


def _tree(A, gens):
    """The tree of the generators' support, searched on the squares (j is
    reached from i when coordinate j of e_i^2 is nonzero), not on the graph."""
    tree = {j for v in gens for j, x in enumerate(v) if A.field.coerce(x)}
    todo = list(tree)
    while todo:
        for j, x in enumerate(A.squares[todo.pop()]):
            if x and j not in tree:
                tree.add(j)
                todo.append(j)
    return tree


def _closure_mismatches(seed=41):
    """Closures on seeded random algebras over Q, F2, F3 and F5, requested in
    shuffled order, against the ``rref`` of the generators and the squares of
    the tree of their support; returns the mismatches and how often each kind
    of request came up."""
    rng = random.Random(seed)
    mismatches = []
    kinds = dict.fromkeys(
        ("all_vertices", "full_squares", "proper_tree", "no_generators", "zero",
         "outside_squares"),
        0,
    )
    for k in range(48):
        field = (QQ, GF2, PrimeField(3), PrimeField(5))[k % 4]
        spec = RandomSpec(field=field, min_dim=1, max_dim=8, density=rng.choice([0.2, 0.5]), seed=k)
        A = random_with_sinks(spec, min_sinks=1) if k % 3 == 2 else random_algebra(spec)
        n, pool = A.n, (0, 0, 1, 2, -1)
        requests = [[A.unit(i)] for i in range(n)] + [[], [[0] * n]]
        requests += [[[rng.choice(pool) for _ in range(n)] for _ in range(rng.randint(1, 2))]
                     for _ in range(4)]
        requests *= 2
        rng.shuffle(requests)
        for gens in requests:
            tree = _tree(A, gens)
            squares = [A.squares[j] for j in sorted(tree)]
            expected = rref(field, n, list(gens) + squares)
            if ideal_closure(A, gens).subspace != expected:
                mismatches.append((k, gens))
            if len(tree) == n:
                kinds["all_vertices"] += 1
                kinds["full_squares"] += rref(field, n, squares).is_full
            else:
                kinds["proper_tree"] += 1
            kinds["no_generators"] += not gens
            kinds["zero"] += bool(gens) and not rref(field, n, gens).dim
            kinds["outside_squares"] += not rref(field, n, squares).contains_subspace(
                rref(field, n, gens)
            )
    return mismatches, kinds


def test_closures_in_any_order_equal_the_span_of_generators_and_tree_squares():
    mismatches, kinds = _closure_mismatches()
    assert mismatches == []
    assert min(kinds.values()) > 0, kinds


def test_every_unit_subset_closure_of_the_zero_algebra_is_its_span():
    # On the zero algebra every vertex set is a tree and A^2 = 0, so each
    # closure is the span of its generators, all vertices included.
    A = zero_algebra(8)
    for mask in random.Random(5).sample(range(256), 256):
        units = [A.unit(i) for i in range(8) if mask >> i & 1]
        assert ideal_closure(A, units).subspace == rref(QQ, 8, units)


def _every_vertex(self, vertices):
    """A tree lookup that ignores its argument, so that every closure starts
    from the square span whatever the tree of its generators."""
    return frozenset(range(self.n))


def test_a_closure_that_ignores_the_tree_is_caught(monkeypatch):
    monkeypatch.setattr(Digraph, "tree", _every_vertex)
    for A in (four_dim_all_to_third(GF2), three_dim_perfect(PrimeField(3))):
        mismatches = certify_fast_vs_brute(A)["mismatches"]
        assert "ideal_closure mismatch at subspace 0" in mismatches
    assert _closure_mismatches()[0] != []


# -- random identities -----------------------------------------------------------------------


def _random_algebra(rng, field, n):
    return EvolutionAlgebra(
        field,
        [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)],
    )


def _random_ideal(rng, A):
    gens = [
        [rng.randint(-2, 2) for _ in range(A.n)]
        for _ in range(rng.randint(1, 2))
    ]
    return ideal_closure(A, gens)


@pytest.mark.parametrize("field", [QQ, GF2])
def test_correspondence_identities_on_random_algebras(field):
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(2, 5)
        A = _random_algebra(rng, field, n)
        hered = A.graph.hereditary_sets()
        ideals = [_random_ideal(rng, A) for _ in range(3)]
        full = frozenset(range(n))
        for h1 in hered:
            s1 = ideal_from_hereditary(A, h1)
            assert s1.basis_vertices() == h1
            assert s1.subspace.is_full == (h1 == full)
            assert h1 <= s1.hereditary_vertices
            for h2 in hered:
                s2 = ideal_from_hereditary(A, h2)
                meet = ideal_from_hereditary(A, h1 & h2)
                join = ideal_from_hereditary(A, h1 | h2)
                assert s1.subspace.intersect(s2.subspace) == meet.subspace
                assert s1.subspace.sum(s2.subspace) == join.subspace
                if not h1 & h2:
                    assert join.dim == s1.dim + s2.dim
                if h1 < h2:
                    assert s1.dim < s2.dim
                if h1 != h2:
                    assert s1.subspace != s2.subspace
        for ideal in ideals:
            h = ideal.hereditary_vertices
            assert A.graph.is_hereditary(h)
            assert A.annihilator_vertices() <= h
            closure = ideal_from_hereditary(A, h)
            assert closure.subspace.contains_subspace(ideal.subspace)
            assert closure.subspace.is_full == ideal.subspace.contains_subspace(
                A.square_span
            )
            a = ideal.has_absorption()
            b = h == ideal.basis_vertices()
            c = ideal.subspace == closure.subspace
            assert a == b == c


def test_perfect_algebras_have_vertex_span_ideals():
    for seed in range(40):
        spec = RandomSpec(field=QQ, min_dim=2, max_dim=5, density=0.7, seed=seed)
        A = random_perfect_algebra(spec)
        rng = random.Random(seed + 1)
        for _ in range(4):
            ideal = _random_ideal(rng, A)
            assert ideal.subspace == ideal_from_hereditary(
                A, ideal.hereditary_vertices
            ).subspace
            assert ideal.has_absorption()
            assert ideal.is_spanned_by_basis_vertices()


def test_maximal_ideals_without_hyperplane_over_squares_absorb():
    rng = random.Random(303)
    for _ in range(30):
        n = rng.randint(2, 5)
        A = _random_algebra(rng, QQ, n)
        for h in A.graph.maximal_hereditary_sets():
            ideal = ideal_from_hereditary(A, h)
            if not ideal.is_proper or not ideal.is_maximal():
                continue
            over_squares = ideal.codim == 1 and ideal.subspace.contains_subspace(
                A.square_span
            )
            if not over_squares:
                assert ideal.has_absorption()
            assert maximal_ideal_cover_check(A, ideal)


def test_ideals_compare_hash_and_show_by_algebra_and_subspace():
    A = six_dim_branching()
    span_e2 = ideal_from_hereditary(A, {1})
    closure = ideal_closure(A, [A.unit(1)])
    assert span_e2 is not closure and span_e2 == closure and hash(span_e2) == hash(closure)
    assert {span_e2: "e2"}[closure] == "e2"
    assert span_e2 != ideal_from_hereditary(A, {1, 3})
    # The same vertex span of an algebra over another field is another ideal.
    assert span_e2 != ideal_from_hereditary(six_dim_branching(GF2), {1})
    assert span_e2.__eq__(span_e2.subspace) is NotImplemented and span_e2 != span_e2.subspace
    assert repr(span_e2) == "Ideal(dim=1, ambient=6)"
