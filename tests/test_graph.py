import random
import tracemalloc

import pytest

from evoalg import Digraph, EnumerationLimitError, QQ, associated_graph
from evoalg.graph import vertex_set_mask
from evoalg.oracle import _saturated_by_squares, brute_force_hereditary

from helpers import (
    disjoint_pairs,
    loop_feeding_pair,
    six_dim_branching,
    three_dim_perfect,
    two_cycle,
    zero_algebra,
)


def cycle_graph(n):
    return Digraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def edgeless(n):
    return Digraph(n, [[] for _ in range(n)])


def _random_digraph(rng, n, density=0.3):
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if rng.random() < density
    ]
    return Digraph.from_edges(n, edges)


def _random_dag(rng, n, density=0.3):
    order = rng.sample(range(n), n)
    edges = [
        (order[a], order[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    ]
    return Digraph.from_edges(n, edges)


# -- associated graph --------------------------------------------------------


def test_associated_graph_of_branching_example():
    g = six_dim_branching().graph
    assert g.edges == ((0, 1), (1, 1), (2, 3), (2, 4), (4, 5))


def test_associated_graph_of_zero_algebra_is_edgeless():
    assert zero_algebra().graph.edge_count == 0


def test_associated_graph_of_perfect_example():
    g = three_dim_perfect().graph
    assert set(g.edges) == {(0, 0), (0, 1), (0, 2), (1, 1), (2, 1), (2, 2)}


# -- trees -------------------------------------------------------------------


def test_tree_of_branch_vertex():
    g = six_dim_branching().graph
    assert g.tree({2}) == frozenset({2, 3, 4, 5})
    assert g.tree(set()) == frozenset()
    assert g.tree(range(6)) == frozenset(range(6))


def test_tree_rejects_out_of_range():
    with pytest.raises(ValueError):
        six_dim_branching().graph.tree({9})


def test_tree_is_a_closure_operator():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = _random_digraph(rng, n)
        s = frozenset(rng.sample(range(n), rng.randint(0, n)))
        bigger = s | frozenset(rng.sample(range(n), rng.randint(0, n)))
        t = g.tree(s)
        assert s <= t
        assert g.tree(t) == t
        assert g.is_hereditary(t)
        assert t <= g.tree(bigger)


# -- hereditary / saturated ---------------------------------------------------


def test_hereditary_examples():
    g = six_dim_branching().graph
    assert g.is_hereditary({1, 2, 3, 4, 5})
    assert not g.is_hereditary({0})


def test_hereditary_and_saturated_pair():
    from evoalg import EvolutionAlgebra

    A = EvolutionAlgebra(QQ, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    g = A.graph
    assert g.is_hereditary({0, 1})
    assert g.is_saturated({0, 1})


def test_empty_set_is_saturated_when_no_vertex_feeds_into_it():
    assert two_cycle().graph.is_saturated(frozenset())


def test_saturated_closure_adds_feeder():
    g = loop_feeding_pair().graph
    assert g.saturated_closure({0}) == frozenset({0, 1})


def test_saturated_closure_idempotent_and_full():
    g = six_dim_branching().graph
    full = frozenset(range(6))
    assert g.saturated_closure(full) == full
    h = g.saturated_closure({1})
    assert g.saturated_closure(h) == h


def test_saturated_closure_requires_hereditary():
    with pytest.raises(ValueError):
        six_dim_branching().graph.saturated_closure({0})


# -- condensation and maximal sets -------------------------------------------


def test_condensation_of_branching_example():
    g = six_dim_branching().graph
    components, dag = g.condensation()
    assert all(len(c) == 1 for c in components)
    assert len(components) == 6
    # topological: every edge goes forward
    pos = {min(c): i for i, c in enumerate(components)}
    for i, j in g.edges:
        if i != j:
            assert pos[i] < pos[j]


def test_maximal_hereditary_sets_of_branching_example():
    g = six_dim_branching().graph
    assert g.maximal_hereditary_sets() == [
        frozenset({0, 1, 3, 4, 5}),
        frozenset({1, 2, 3, 4, 5}),
    ]


def test_maximal_hereditary_sets_of_cycle_is_empty_set():
    assert cycle_graph(3).maximal_hereditary_sets() == [frozenset()]


def test_maximal_hereditary_set_of_perfect_example():
    assert three_dim_perfect().graph.maximal_hereditary_sets() == [
        frozenset({1, 2})
    ]


def test_min_generating_vertex_set():
    g = six_dim_branching().graph
    size, witness = g.min_generating_vertex_set()
    assert (size, witness) == (2, frozenset({0, 2}))
    assert g.tree(witness) == frozenset(range(6))
    assert cycle_graph(3).min_generating_vertex_set()[0] == 1
    assert edgeless(3).min_generating_vertex_set() == (3, frozenset({0, 1, 2}))


# -- enumeration ---------------------------------------------------------------


def test_enumerate_hereditary_small_cases():
    assert cycle_graph(3).hereditary_sets() == [frozenset(), frozenset({0, 1, 2})]
    g = three_dim_perfect().graph
    assert g.hereditary_sets() == [
        frozenset(),
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    ]
    assert len(edgeless(2).hereditary_sets()) == 4
    assert len(six_dim_branching().graph.hereditary_sets()) == 21


def test_enumerate_saturated_members():
    g = three_dim_perfect().graph
    assert g.hereditary_saturated_sets() == g.hereditary_sets()
    gb = six_dim_branching().graph
    sat = gb.hereditary_saturated_sets()
    assert frozenset({1, 2, 3, 4, 5}) not in sat  # vertex 0 only feeds into it


def test_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        edgeless(12).hereditary_sets(limit=100)
    assert len(edgeless(3).hereditary_sets(limit=8)) == 8
    with pytest.raises(EnumerationLimitError, match="^more than 7 hereditary sets$"):
        edgeless(3).hereditary_sets(limit=7)
    with pytest.raises(EnumerationLimitError, match="^more than 7 hereditary saturated sets$"):
        edgeless(3).hereditary_saturated_sets(limit=7)


def test_saturated_limit_counts_saturated_sets():
    # 3^13 = 1,594,323 hereditary sets, 2^13 = 8,192 of them saturated; the
    # limit counts saturated sets, so the default one is not reached.
    g = disjoint_pairs(13).graph
    sat = g.hereditary_saturated_sets()
    assert len(sat) == 2**13
    assert sat == sorted(sat, key=vertex_set_mask)
    assert all(h == g.saturated_closure(h) for h in sat[::97])
    assert g.hereditary_saturated_sets(limit=2**13) == sat
    with pytest.raises(EnumerationLimitError, match="^more than 8191 hereditary saturated sets$"):
        g.hereditary_saturated_sets(limit=2**13 - 1)


def test_hereditary_limit_is_checked_before_the_sets_are_built():
    # Past the limit only 20,001 masks and their walk links are held, not
    # 20,001 frozensets (about 14 MiB).
    g = zero_algebra(24).graph
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationLimitError, match="^more than 20000 hereditary sets$"):
            g.hereditary_sets(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_hereditary_family_memory():
    # 65,536 sets, each its walk parent's set | one tree: 47.3 MiB when
    # every set was built from its mask, about 38 MiB by unions.
    g = zero_algebra(16).graph
    tracemalloc.start()
    try:
        family = g.hereditary_sets()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(family) == 2**16
    assert peak < 42 * 2**20


def test_saturated_limit_is_checked_before_the_sets_are_built():
    # All 2^24 vertex sets of zero_algebra(24) are saturated.  Past the limit
    # only 20,001 masks are held, not 20,001 frozensets (13 MiB).
    g = zero_algebra(24).graph
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationLimitError, match="^more than 20000 hereditary saturated sets$"):
            g.hereditary_saturated_sets(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def _saturated_cut_graph(k):
    """u -> x -> y and s_i -> w_i -> y for i < k, ordered x, w, s, y, u.

    Only the empty set and everything are saturated.  With u excluded and y
    chosen, the closure needs two steps (x, then u) to meet the exclusion, so
    a cut that only tests excluded vertices feeding into the chosen set keeps
    all 2^k choices of the s_i: each s_i is excluded before w_i is decided.
    """
    x, y, u = 0, 2 * k + 1, 2 * k + 2
    edges = [(u, x), (x, y)]
    for i in range(k):
        w, s = 1 + i, 1 + k + i
        edges += [(s, w), (w, y)]
    return Digraph.from_edges(2 * k + 3, edges)


def _walk_graphs(seed):
    rng = random.Random(seed)
    graphs = [edgeless(0), edgeless(1), edgeless(9), cycle_graph(12), _saturated_cut_graph(8)]
    graphs.append(Digraph(5, [[v] for v in range(5)]))  # self-loops only
    for _ in range(40):
        n = rng.randint(0, 12)
        density = rng.choice([0.1, 0.2, 0.3])
        graphs.append(_random_digraph(rng, n, density))
        graphs.append(_random_dag(rng, n, 2 * density))
    return graphs


def test_saturated_walk_matches_filter_and_brute_force():
    for g in _walk_graphs(53):
        sat = g.hereditary_saturated_sets()
        assert sat == [h for h in g.hereditary_sets() if g.is_saturated(h)]
        squares = [[int(j in g.out[i]) for j in range(g.n)] for i in range(g.n)]
        brute = sorted(brute_force_hereditary(g), key=vertex_set_mask)
        assert sat == [h for h in brute if _saturated_by_squares(squares, h)]


def test_saturated_walk_tests_at_most_n_plus_one_sets_per_output():
    for g in _walk_graphs(59):
        outputs = len(g.hereditary_saturated_sets())
        candidates = sum(1 for _ in g._hereditary_masks(saturated=True))
        assert candidates <= (g.n + 1) * outputs
    g = _saturated_cut_graph(8)
    assert g.hereditary_saturated_sets() == [frozenset(), frozenset(range(g.n))]


def _scan_walk(g, saturated=False, links=None):
    """Reference walk: every node scans each vertex below the last added and
    tests its reach against the excluded vertices."""
    reach = g._reach_masks
    stack = [(g.n, 0, 0, 0)]
    k = 0
    while stack:
        added, inc, exc, parent = stack.pop()
        if links:
            links[0].append(parent)
            links[1].append(added)
        yield inc
        for v in range(added - 1, -1, -1):
            bit = 1 << v
            if not inc & bit:
                if not reach[v] & exc:
                    child = inc | reach[v]
                    if not (saturated and g._saturate(child) & exc):
                        stack.append((v, child, exc, k))
                exc |= bit
        k += 1


@pytest.mark.parametrize("seed", [53, 59])
@pytest.mark.parametrize("saturated", [False, True])
def test_walk_matches_the_per_vertex_scan(seed, saturated):
    for g in _walk_graphs(seed):
        links, expected_links = [[], []], [[], []]
        masks = list(g._hereditary_masks(saturated, links))
        assert masks == list(_scan_walk(g, saturated, expected_links))
        assert links == expected_links


class _CountedReads(tuple):
    """A tuple that counts the items read from it."""

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("seed", [53, 59])
def test_walk_reads_one_reach_mask_per_set(seed):
    # Each set but the empty one is its walk parent's | reach[v] for one free
    # vertex v; a vertex that reaches an excluded one is never read.
    for g in _walk_graphs(seed):
        g._reached_by  # built from the table before counting starts
        table = g.__dict__["_reach_masks"] = _CountedReads(g._reach_masks)
        table.reads = 0
        family = list(g._hereditary_masks())
        assert table.reads == len(family) - 1


def test_enumeration_matches_brute_force_on_random_graphs():
    rng = random.Random(31)
    graphs = [edgeless(0), edgeless(1), edgeless(9), cycle_graph(12)]
    for _ in range(40):
        n = rng.randint(1, 12)
        density = rng.choice([0.1, 0.2, 0.3])
        graphs.append(_random_digraph(rng, n, density))
        graphs.append(_random_dag(rng, n, 2 * density))
    for g in graphs:
        fast = g.hereditary_sets()
        brute = sorted(brute_force_hereditary(g), key=vertex_set_mask)
        assert fast == brute
        # closure under union and intersection
        for h1 in fast[:12]:
            for h2 in fast[:12]:
                assert (h1 | h2) in set(fast)
                assert (h1 & h2) in set(fast)


def test_is_saturated_agrees_with_definition():
    rng = random.Random(41)
    graphs = [edgeless(0), edgeless(3), cycle_graph(4)]
    graphs += [_random_dag(rng, rng.randint(1, 9), 0.3) for _ in range(20)]
    graphs += [_random_digraph(rng, rng.randint(1, 9), 0.15) for _ in range(20)]
    for g in graphs:
        for h in g.hereditary_sets():
            feeders = [
                u
                for u in range(g.n)
                if u not in h and g.out[u] and all(v in h for v in g.out[u])
            ]
            assert g.is_saturated(h) == (not feeders)
    g = six_dim_branching().graph
    for bad in ({9}, {0, 6}, {-1, 2}):
        vertex = next(v for v in bad if not 0 <= v < 6)
        with pytest.raises(ValueError, match=f"^vertex {vertex} out of range 0..5$"):
            g.is_saturated(bad)


def test_maximal_sets_agree_with_enumerated_maxima():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = _random_digraph(rng, n)
        full = frozenset(range(n))
        proper = [h for h in g.hereditary_sets() if h != full]
        maxima = sorted(
            (h for h in proper if not any(h < h2 for h2 in proper)),
            key=vertex_set_mask,
        )
        assert maxima == g.maximal_hereditary_sets()


def test_saturated_closure_is_minimal_saturated_superset():
    rng = random.Random(123)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = _random_digraph(rng, n)
        sat = g.hereditary_saturated_sets()
        for h in g.hereditary_sets():
            c = g.saturated_closure(h)
            assert g.is_hereditary(c) and g.is_saturated(c) and h <= c
            assert not any(h <= s < c for s in sat)


# -- simplicity ----------------------------------------------------------------


def test_single_vertex_no_loop_is_simple_without_spanning_path():
    g = edgeless(1)
    assert g.is_simple()


def test_single_loop_is_simple_with_spanning_path():
    g = Digraph.from_edges(1, [(0, 0)])
    assert g.is_simple()


def test_branching_example_not_simple():
    g = six_dim_branching().graph
    assert not g.is_simple()
    assert g.tree({5}) == frozenset({5})


def test_simple_iff_trivial_hereditary_family_and_spanning_path():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = _random_digraph(rng, n)
        trivial = [frozenset(), frozenset(range(n))]
        assert g.is_simple() == (g.hereditary_sets() == trivial)
        if g.is_simple():
            assert not g.sources() and not g.sinks()
            assert all(g.tree({v}) == frozenset(range(n)) for v in range(n))


# -- quotients -----------------------------------------------------------------


def test_quotient_of_perfect_example_is_single_loop():
    g = three_dim_perfect().graph
    q = g.quotient({1, 2})
    assert q.n == 1 and q.edges == ((0, 0),) and q.labels == ("e1",)


def test_quotient_by_empty_set_is_identity():
    g = six_dim_branching().graph
    assert g.quotient(frozenset()) == g


def test_quotient_of_branching_example():
    g = six_dim_branching().graph
    q = g.quotient({1})
    assert q.labels == ("e1", "e3", "e4", "e5", "e6")
    assert q.edges == ((1, 2), (1, 3), (3, 4))


def test_quotient_requires_hereditary():
    with pytest.raises(ValueError):
        six_dim_branching().graph.quotient({0})


def test_quotient_preserves_hereditary_differences():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = _random_digraph(rng, n)
        hs = g.hereditary_sets()
        for h in hs[:8]:
            q = g.quotient(h)
            keep = [v for v in range(n) if v not in h]
            renum = {v: i for i, v in enumerate(keep)}
            for h2 in hs[:8]:
                if h <= h2:
                    assert q.is_hereditary(frozenset(renum[v] for v in h2 - h))


def test_maximal_iff_quotient_simple():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = _random_digraph(rng, n)
        maximal = set(g.maximal_hereditary_sets())
        for h in g.hereditary_sets():
            if h == frozenset(range(n)):
                continue
            assert (h in maximal) == g.quotient(h).is_simple()


# -- output --------------------------------------------------------------------


def test_dot_output_is_deterministic_and_ordered():
    g = three_dim_perfect().graph
    expected = (
        "digraph {\n"
        "  e1;\n"
        "  e2;\n"
        "  e3;\n"
        "  e1 -> e1;\n"
        "  e1 -> e2;\n"
        "  e1 -> e3;\n"
        "  e2 -> e2;\n"
        "  e3 -> e2;\n"
        "  e3 -> e3;\n"
        "}\n"
    )
    assert g.to_dot() == expected
    assert g.to_dot() == g.to_dot()


def test_dot_output_quotes_keywords_and_escapes_backslashes():
    # DOT keywords are case-insensitive, and a bare backslash before the
    # closing quote would escape it.
    g = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], ["node", "a\\", "Strict"])
    assert g.to_dot() == (
        "digraph {\n"
        '  "node";\n'
        '  "a\\\\";\n'
        '  "Strict";\n'
        '  "node" -> "a\\\\";\n'
        '  "a\\\\" -> "Strict";\n'
        '  "Strict" -> "node";\n'
        "}\n"
    )


def test_digraph_validation():
    with pytest.raises(ValueError):
        Digraph(2, [[0], [2]])
    with pytest.raises(ValueError):
        Digraph(2, [[0]])
    assert associated_graph(six_dim_branching()).n == 6


# -- reachability, against definition loops ------------------------------------


def _dfs_reach(g, v):
    seen = {v}
    stack = [v]
    while stack:
        for w in g.out[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def _pinned_graphs(max_n=64):
    """Edgeless graphs, the 12-cycle, and sparse random digraphs and DAGs."""
    rng = random.Random(2024)
    graphs = [edgeless(0), edgeless(1), edgeless(7), cycle_graph(12)]
    for _ in range(24):
        n = rng.randint(0, max_n)
        density = rng.choice([0.5, 1.0, 2.0, 3.0]) / max(n, 1)
        graphs.append(_random_digraph(rng, n, density))
        graphs.append(_random_dag(rng, n, 2 * density))
    return graphs


def test_tree_is_the_union_of_vertex_searches():
    rng = random.Random(3)
    for g in _pinned_graphs():
        reach = [_dfs_reach(g, v) for v in range(g.n)]
        assert [g.tree({v}) for v in range(g.n)] == reach
        for _ in range(4):
            s = rng.sample(range(g.n), rng.randint(0, g.n))
            assert g.tree(s) == frozenset().union(*(reach[v] for v in s))


def test_condensation_is_mutual_reachability_in_documented_order():
    for g in _pinned_graphs():
        reach = [_dfs_reach(g, v) for v in range(g.n)]
        classes = {frozenset(u for u in reach[v] if v in reach[u]) for v in range(g.n)}
        components, dag_out = g.condensation()
        assert len(components) == len(classes) and set(components) == classes
        pos = {v: ci for ci, c in enumerate(components) for v in c}
        edges = [set() for _ in components]
        for i, j in g.edges:
            if pos[i] != pos[j]:
                edges[pos[i]].add(pos[j])
        assert [set(t) for t in dag_out] == edges
        assert all(ci < cj for ci, t in enumerate(dag_out) for cj in t)
        preds = [{ci for ci, t in enumerate(edges) if cj in t} for cj in range(len(edges))]
        for k, comp in enumerate(components):
            ready = [
                c for c in components[k:]
                if all(p < k for p in preds[components.index(c)])
            ]
            assert min(comp) == min(min(c) for c in ready)


def test_sources_and_simplicity_match_definitions():
    for g in _pinned_graphs():
        reach = [_dfs_reach(g, v) for v in range(g.n)]
        everything = frozenset(range(g.n))
        components, _ = g.condensation()
        sources = tuple(
            c for c in components
            if not any(u not in c and reach[u] & c for u in range(g.n))
        )
        assert g.source_components() == sources
        assert [min(c) for c in sources] == sorted(min(c) for c in sources)
        assert g.is_simple() == (g.n > 0 and all(r == everything for r in reach))


def test_saturated_closure_adds_feeders_until_none_is_left():
    for g in _pinned_graphs(max_n=9):
        for h in g.hereditary_sets():
            cur = set(h)
            while True:
                feeders = [
                    u for u in range(g.n)
                    if u not in cur and g.out[u] and all(v in cur for v in g.out[u])
                ]
                if not feeders:
                    break
                cur.update(feeders)
            assert g.saturated_closure(h) == frozenset(cur)


def test_digraph_rejects_shape_mismatches():
    with pytest.raises(ValueError, match="^negative vertex count$"):
        Digraph(-1, [])
    with pytest.raises(ValueError, match="^1 adjacency lists for 2 vertices$"):
        Digraph(2, [[]])
    with pytest.raises(ValueError, match="label count differs from vertex count"):
        Digraph(2, [[], []], labels=("a",))


def test_digraph_rejects_non_integer_vertices():
    for targets in ([1.0], ["1"], [None], [1, "a"]):
        with pytest.raises(ValueError, match=r"^edge 0->.+ does not end at an integer vertex$"):
            Digraph(2, [targets, []])
    g = Digraph(2, [[True], [False]])
    assert g.edges == ((0, 1), (1, 0)) and g.is_simple()


def test_vertex_sets_reject_non_integers():
    # 1.0 == 1 and hashes alike, so a float used to pass the range test.
    g = Digraph(2, [[1], []])
    for method in (g.tree, g.is_hereditary, g.is_saturated, g.saturated_closure, g.quotient):
        for bad in ({1.0}, {0, 1.0}, {"a"}, {None}):
            with pytest.raises(ValueError, match=r"^vertex .+ is not an integer$"):
                method(bad)
    assert g.tree({True}) == {1}
    assert g.is_saturated({False, True})
    with pytest.raises(ValueError, match=r"^vertex 2 out of range 0\.\.1$"):
        g.tree({0, 2})


def test_digraphs_hash_by_value_and_show_their_size():
    g, h = six_dim_branching().graph, associated_graph(six_dim_branching())
    assert g is not h and hash(g) == hash(h) and {g: "six"}[h] == "six"
    # e1 -> e2, e2 -> e2, e3 -> e4, e3 -> e5, e5 -> e6.
    assert repr(g) == "Digraph(n=6, edges=5)"
    assert repr(Digraph(0, [])) == "Digraph(n=0, edges=0)"
