import ast
import random

import pytest

from evoalg import GF2, QQ, EnumerationLimitError, EvolutionAlgebra, PrimeField
from evoalg import graph, ideals, oracle
from evoalg.graph import Digraph
from evoalg.ideals import Ideal, is_ideal
from evoalg.linalg import Subspace, rref
from evoalg.oracle import (
    RandomSpec,
    brute_force_absorption,
    brute_force_hereditary,
    brute_force_ideals,
    brute_force_is_ideal,
    brute_force_maximal_ideals,
    certify_fast_vs_brute,
    enumerate_subspaces,
    gaussian_binomial,
    iter_random_algebras,
    random_algebra,
    random_perfect_algebra,
    random_perfect_strongly_connected,
    random_with_sinks,
)

from helpers import (
    PAST_THE_IDEAL_SEARCH_GUARD,
    four_dim_all_to_third,
    no_subspace_enumeration,
    six_dim_branching,
    three_dim_perfect,
    zero_algebra,
)


# -- subspace enumeration ------------------------------------------------------


def test_subspace_counts_over_gf2():
    assert sum(1 for _ in enumerate_subspaces(GF2, 3)) == 16
    assert sum(1 for _ in enumerate_subspaces(GF2, 0)) == 1
    assert sum(1 for _ in enumerate_subspaces(GF2, 6)) == 2825


def test_subspace_count_matches_gaussian_binomials():
    for n in range(0, 5):
        expected = sum(gaussian_binomial(n, k, 2) for k in range(n + 1))
        assert sum(1 for _ in enumerate_subspaces(GF2, n)) == expected
    F3 = PrimeField(3)
    assert sum(1 for _ in enumerate_subspaces(F3, 2)) == 6  # 1 + 4 + 1


def test_gaussian_binomial_values():
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(6, 1, 2) == 63
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(4, 5, 2) == 0


def test_enumerated_subspaces_are_distinct_and_canonical():
    from evoalg import rref

    for field, n in [(GF2, 4), (PrimeField(3), 2)]:
        seen = set()
        for s in enumerate_subspaces(field, n):
            assert rref(field, n, s.basis) == s
            assert s not in seen
            seen.add(s)


def test_enumeration_guard():
    with pytest.raises(EnumerationLimitError):
        list(enumerate_subspaces(GF2, 17))
    with pytest.raises(ValueError):
        list(enumerate_subspaces(QQ, 2))
    with pytest.raises(ValueError, match="requires a prime field"):
        brute_force_ideals(zero_algebra(2))
    with pytest.raises(ValueError, match="brute force runs over prime fields only"):
        certify_fast_vs_brute(three_dim_perfect())


# -- brute-force hereditary -----------------------------------------------------


def test_brute_hereditary_on_branching_example():
    g = six_dim_branching().graph
    brute = brute_force_hereditary(g)
    assert len(brute) == 21
    full = frozenset(range(6))
    proper = [h for h in brute if h != full]
    maxima = {h for h in proper if not any(h < h2 for h2 in proper)}
    assert maxima == {
        frozenset({1, 2, 3, 4, 5}),
        frozenset({0, 1, 3, 4, 5}),
    }


def test_brute_hereditary_trivial_graphs():
    assert len(brute_force_hereditary(zero_algebra(3).graph)) == 8
    from evoalg import Digraph

    cycle = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert brute_force_hereditary(cycle) == [frozenset(), frozenset({0, 1, 2})]


def test_brute_hereditary_guard():
    from evoalg import Digraph

    with pytest.raises(EnumerationLimitError):
        brute_force_hereditary(Digraph(21, [[] for _ in range(21)]))


# -- brute-force ideals -----------------------------------------------------------


def test_brute_maximal_ideals_of_branching_example_mod_two():
    A = six_dim_branching(GF2)
    ideals = brute_force_ideals(A)
    maximal = brute_force_maximal_ideals(A, ideals)
    # codim of the square span is 3, so exactly (2^3-1)/(2-1) = 7 hyperplanes
    # contain it, and every maximal ideal is one of them
    assert len(maximal) == 7
    for s in maximal:
        assert s.dim == 5
        assert s.contains_subspace(A.square_span)
    spans = {s.basis for s in maximal}
    i1 = [A.unit(i) for i in (1, 2, 3, 4, 5)]
    i2 = [A.unit(i) for i in (0, 1, 3, 4, 5)]
    from evoalg import rref

    assert rref(GF2, 6, i1).basis in spans
    assert rref(GF2, 6, i2).basis in spans


@pytest.mark.parametrize("p, n", PAST_THE_IDEAL_SEARCH_GUARD)
def test_ideal_search_guard_refuses_before_enumerating(monkeypatch, p, n):
    monkeypatch.setattr(oracle, "enumerate_subspaces", no_subspace_enumeration)
    A = zero_algebra(n, PrimeField(p))
    with pytest.raises(EnumerationLimitError, match="ideal search guard"):
        brute_force_ideals(A)
    with pytest.raises(EnumerationLimitError, match="ideal search guard"):
        brute_force_maximal_ideals(A)


def test_brute_absorption_examples():
    A = four_dim_all_to_third(GF2)
    from evoalg import rref

    full = rref(GF2, 4, [A.unit(i) for i in range(4)])
    assert brute_force_absorption(A, full)
    hyper = rref(GF2, 4, [A.unit(0), A.unit(1), A.unit(2)])
    assert brute_force_is_ideal(A, hyper)
    assert not brute_force_absorption(A, hyper)


def test_brute_force_over_f3_agrees_with_fast_path():
    F3 = PrimeField(3)
    rng = random.Random(8)
    for _ in range(6):
        A = random_algebra(
            RandomSpec(field=F3, min_dim=2, max_dim=3, density=0.7, seed=rng.randint(0, 999))
        )
        for s in enumerate_subspaces(F3, A.n):
            brute = brute_force_is_ideal(A, s)
            assert is_ideal(A, s) == brute
            if brute:
                fast = Ideal(A, s, _validated=True).has_absorption()
                assert fast == brute_force_absorption(A, s)


def test_brute_maximality_over_f3_agrees_with_fast_path():
    F3 = PrimeField(3)
    for k in range(6):
        A = random_algebra(
            RandomSpec(
                field=F3,
                min_dim=3,
                max_dim=3,
                density=(0.2, 0.6, 1.0)[k % 3],
                seed=900 + k,
            )
        )
        ideals = brute_force_ideals(A)
        maximal = {s.basis for s in brute_force_maximal_ideals(A, ideals)}
        for s in ideals:
            if s.dim < A.n:
                fast = Ideal(A, s, _validated=True).is_maximal()
                assert fast == (s.basis in maximal)


# -- random generators --------------------------------------------------------------


def test_random_algebra_is_deterministic():
    spec = RandomSpec(field=QQ, min_dim=2, max_dim=5, density=0.5, seed=1)
    assert random_algebra(spec) == random_algebra(spec)
    stream = iter_random_algebras(spec)
    a, b = next(stream), next(stream)
    assert a != b or a.squares == b.squares  # stream advances deterministically

    # The squares each generator draws, pinned for two seeds over F3.
    pinned = {
        3: (
            [[0, 2, 0], [1, 0, 1], [2, 0, 0]],
            [[0, 2, 0], [1, 0, 1], [2, 0, 0]],
            [[0, 2, 0], [0, 0, 0], [2, 0, 0]],
        ),
        11: (
            [[0, 0, 0, 1], [2, 0, 0, 2], [1, 0, 2, 0], [0, 1, 0, 1]],
            [[0, 1, 1], [0, 0, 1], [1, 2, 0]],
            [[0, 0, 0, 1], [0, 0, 0, 0], [1, 0, 2, 0], [0, 1, 0, 1]],
        ),
    }
    for seed, expected in pinned.items():
        spec = RandomSpec(field=PrimeField(3), min_dim=3, max_dim=4, density=0.5, seed=seed)
        drawn = (
            random_algebra(spec),
            random_perfect_strongly_connected(spec),
            random_with_sinks(spec, min_sinks=1),
        )
        assert [[[x.value for x in row] for row in A.squares] for A in drawn] == list(
            expected
        )


def test_zero_density_gives_zero_algebra_and_no_perfect_sample():
    spec = RandomSpec(field=QQ, min_dim=3, max_dim=3, density=0.0, seed=5)
    A = random_algebra(spec)
    assert A.square_span.dim == 0
    with pytest.raises(RuntimeError):
        random_perfect_algebra(spec, attempts=50)


def test_full_density_rational_sample_is_perfect():
    spec = RandomSpec(field=QQ, min_dim=4, max_dim=4, density=1.0, seed=7)
    A = random_perfect_algebra(spec)
    assert A.is_perfect()
    from evoalg.galois import run_theorem_suite

    assert run_theorem_suite(A, trials=5, seed=7).ok


def test_forced_shapes():
    spec = RandomSpec(field=GF2, min_dim=3, max_dim=5, density=0.4, seed=3)
    sc = random_perfect_strongly_connected(spec)
    assert sc.is_perfect()
    assert sc.graph.is_simple()
    sink = random_with_sinks(spec, min_sinks=2)
    assert len(sink.annihilator_vertices()) >= 2
    assert not sink.is_perfect()


def test_every_brute_ideal_of_perfect_f2_algebra_is_its_vertex_span():
    # exhaustive desk-scale certification of the perfect-case conclusions:
    # every ideal found by the oracle equals the span of its hereditary set
    from evoalg.ideals import ideal_from_hereditary

    found = 0
    for k in range(12):
        spec = RandomSpec(field=GF2, min_dim=2, max_dim=5, density=0.8, seed=500 + k)
        try:
            A = random_perfect_algebra(spec, attempts=200)
        except RuntimeError:
            continue
        found += 1
        for s in brute_force_ideals(A):
            ideal = Ideal(A, s, _validated=True)
            span = ideal_from_hereditary(A, ideal.hereditary_vertices)
            assert s == span.subspace
            assert brute_force_absorption(A, s)
    assert found >= 8


# -- certification -------------------------------------------------------------------


def test_certification_on_small_random_algebras():
    rng = random.Random(2718)
    for k in range(25):
        spec = RandomSpec(
            field=GF2,
            min_dim=2,
            max_dim=4,
            density=rng.choice([0.3, 0.5, 0.8]),
            seed=1000 + k,
        )
        A = random_algebra(spec)
        result = certify_fast_vs_brute(A)
        assert result["mismatches"] == []


@pytest.mark.parametrize("p, dims, count", [(3, (3, 3), 40), (5, (2, 3), 16)])
def test_certification_over_odd_prime_fields(p, dims, count):
    # Over F2, -x = x, so the sign in the hyperplane rows e_j - (phi_j/phi_d) e_d
    # shows only over odd p, where the oracle's tuple unit vectors and
    # literal products are used too.  Half the algebras have two forced
    # sinks, so the square span has codimension at least two and the report
    # enumerates a hyperplane family.
    rng = random.Random(31 * p)
    families = 0
    for k in range(count):
        spec = RandomSpec(
            field=PrimeField(p),
            min_dim=dims[0],
            max_dim=dims[1],
            density=rng.choice([0.3, 0.5, 0.8]),
            seed=4000 + k,
        )
        A = random_with_sinks(spec, min_sinks=2) if k % 2 else random_algebra(spec)
        families += A.n - A.square_span.dim >= 2
        result = certify_fast_vs_brute(A)
        assert result["mismatches"] == [], (p, k)
    assert families >= count // 2

def test_certification_does_not_compare_through_subspace_equality(monkeypatch):
    # Subspace equality is linalg code that the oracle certifies, so an honest
    # algebra must certify cleanly even when that equality is broken.
    A = random_algebra(RandomSpec(PrimeField(2), 3, 3, 0.6, seed=1))
    monkeypatch.setattr(Subspace, "__eq__", lambda self, other: False)
    assert certify_fast_vs_brute(A)["mismatches"] == []


def test_certification_sees_every_subspace_at_small_dims():
    A = three_dim_perfect(GF2)
    result = certify_fast_vs_brute(A)
    assert result["subspaces"] == 16
    assert result["compared"] == 16
    assert result["mismatches"] == []


def _no_maximal_ideals(f):
    """A report that claims to be complete and lists no maximal ideal."""

    def report(algebra, *args, **kwargs):
        out = f(algebra, *args, **kwargs)
        out["hyperplane_family"] = {"kind": "none", "count": 0, "ideals": []}
        out["from_maximal_hereditary"] = []
        out["complete"] = True
        return out

    return report


def _edited_graph(edit):
    """An ``associated_graph`` whose out-list of each vertex i is
    ``edit(i, targets)``."""

    def breaker(f):
        def associated_graph(algebra):
            g = f(algebra)
            return Digraph(g.n, [edit(i, t) for i, t in enumerate(g.out)], g.labels)

        return associated_graph

    return breaker


def _transposed(algebra):
    return EvolutionAlgebra(algebra.field, list(zip(*algebra.squares)), algebra.labels)


_DROP_LAST_OUT_EDGE = _edited_graph(lambda i, targets: targets[:-1])

# Each lie, by test id: the owner and name of a fast function the harness
# compares, how to break it, and the mismatch the harness must then report.
_LIES = {
    "hereditary_sets": (
        Digraph, "hereditary_sets", lambda f: lambda self, *a: f(self, *a)[:-1],
        "hereditary enumeration differs from brute force"),
    "hereditary_saturated_sets": (
        Digraph, "hereditary_saturated_sets", lambda f: lambda self, *a: f(self, *a)[:-1],
        "hereditary saturated sets differ from brute force"),
    "maximal_hereditary_sets": (
        Digraph, "maximal_hereditary_sets", lambda f: lambda self: list(f(self))[:-1],
        "maximal hereditary sets differ from brute maxima"),
    "tree": (
        Digraph, "tree", lambda f: lambda self, vertices: frozenset(vertices),
        "trees differ from per-vertex searches"),
    "is_simple": (
        Digraph, "is_simple", lambda f: lambda self: not f(self),
        "graph simplicity differs from per-vertex searches"),
    "source_components": (
        Digraph, "source_components", lambda f: lambda self: list(f(self))[:-1],
        "source components differ from per-vertex searches"),
    "min_generating_vertex_set": (
        Digraph, "min_generating_vertex_set", lambda f: lambda self: (0, frozenset()),
        "min generating vertex set differs from the subset sweep"),
    "saturated_closure": (
        Digraph, "saturated_closure", lambda f: lambda self, vertices: frozenset(range(self.n)),
        "saturated_closure differs from the least saturated superset"),
    "associated_graph-trees": (
        graph, "associated_graph", _DROP_LAST_OUT_EDGE,
        "trees differ from per-vertex searches"),
    "associated_graph-edges": (
        graph, "associated_graph", _DROP_LAST_OUT_EDGE,
        "graph edges differ from the nonzero coordinates of the squares"),
    "associated_graph-loops": (
        graph, "associated_graph",
        _edited_graph(lambda i, targets: [j for j in targets if j != i]),
        "graph edges differ from the nonzero coordinates of the squares"),
    "associated_graph-edges-to-e1": (
        graph, "associated_graph", _edited_graph(lambda i, targets: [0, *targets]),
        "a hereditary set is refused by the maps built on it"),
    "is_ideal": (
        ideals, "is_ideal", lambda f: lambda algebra, s: not f(algebra, s),
        "is_ideal mismatch at subspace 0"),
    "ideal_closure": (
        ideals, "ideal_closure",
        lambda f: lambda algebra, gens: f(algebra, list(gens) + [algebra.unit(0)]),
        "ideal_closure mismatch at subspace 0"),
    "ideal_from_hereditary": (
        ideals, "ideal_from_hereditary",
        lambda f: lambda algebra, h: f(algebra, range(algebra.n) if len(h) == 1 else h),
        "ideal_from_hereditary differs from the unit-vector span"),
    "find_proper_nonzero_ideal": (
        ideals, "find_proper_nonzero_ideal", lambda f: lambda algebra: None,
        "find_proper_nonzero_ideal disagrees with brute force"),
    "maximal_ideals_report": (
        ideals, "maximal_ideals_report", _no_maximal_ideals,
        "maximal_ideals_report is complete but lists other ideals"),
    "has_absorption": (
        Ideal, "has_absorption", lambda f: lambda self: not f(self),
        "has_absorption mismatch"),
    "basis_vertices": (
        Ideal, "basis_vertices", lambda f: lambda self: frozenset(),
        "basis_vertices mismatch"),
    "is_spanned_by_basis_vertices": (
        Ideal, "is_spanned_by_basis_vertices", lambda f: lambda self: not f(self),
        "is_spanned_by_basis_vertices mismatch"),
    "is_maximal": (
        Ideal, "is_maximal", lambda f: lambda self: not f(self),
        "is_maximal mismatch"),
    "hereditary_vertices": (
        Ideal, "hereditary_vertices", lambda f: property(lambda self: frozenset()),
        "hereditary_vertices mismatch"),
    "square_span": (
        EvolutionAlgebra, "square_span",
        lambda f: property(lambda self: rref(self.field, self.n, [])),
        "square span differs from the span of the literal products"),
    "is_perfect": (
        EvolutionAlgebra, "is_perfect", lambda f: lambda self: not f(self),
        "is_perfect differs from the span of the literal products"),
    "quotient_by_hereditary": (
        EvolutionAlgebra, "quotient_by_hereditary",
        lambda f: lambda self, h: _transposed(f(self, h)),
        "quotient_by_hereditary differs from the literal squares"),
}


# Both certify clean, have a proper nonzero ideal and a vertex outside a tree,
# and enumerate the zero subspace first; each test builds its own algebra, so
# no lie is left cached in one.
_HONEST = {
    "F2-dim4": lambda: four_dim_all_to_third(GF2),
    "F3-dim3": lambda: three_dim_perfect(PrimeField(3)),
}


def test_certification_examples_are_clean():
    for example in _HONEST.values():
        assert certify_fast_vs_brute(example())["mismatches"] == []


@pytest.mark.parametrize("owner, name, breaker, message", _LIES.values(), ids=_LIES.keys())
@pytest.mark.parametrize("example", _HONEST.values(), ids=_HONEST.keys())
def test_certification_catches_each_lie(
    monkeypatch, example, owner, name, breaker, message
):
    A = example()
    monkeypatch.setattr(owner, name, breaker(getattr(owner, name)))
    assert message in certify_fast_vs_brute(A)["mismatches"]


def test_oracle_imports_no_fast_graph_code():
    # The reference side reads its graph off the squares: code imported
    # from ``evoalg.graph`` would stand on both sides of its comparisons.
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:  # relative to the evoalg package
                module = "evoalg" + (f".{module}" if module else "")
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    assert [n for n in names if n == "evoalg.graph" or n.startswith("evoalg.graph.")] == []
