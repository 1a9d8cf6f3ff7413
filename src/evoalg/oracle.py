"""Definitional brute force over small prime fields, plus random generators.

Everything here is ground truth for certifying the fast algorithms, so none of
it reuses their code paths: products are recomputed from the structure
constants on raw integer vectors (bitmasks over F_2), membership is a lookup
in an explicitly materialised element set, the graph is read off the squares
(i -> j when coordinate j of e_i^2 is nonzero) and nothing from ``graph`` is
imported, hereditary sets are swept over all 2^n subsets with per-vertex
reachability (which also gives trees, simplicity and source components),
saturation is read off the squares, idealness and absorption quantify
literally over all p^n vectors with early exit on the first violation, and
maximality is pairwise inclusion over the proper ideals of the complete list.

Three guards bound the work, each checked before any of it is done and each
raising ``EnumerationLimitError``: ``SUBSPACE_GUARD`` caps the p^n vectors of
a subspace enumeration, ``IDEAL_SEARCH_GUARD`` caps the products that
``brute_force_ideals`` can evaluate, and ``HEREDITARY_GUARD`` caps the n of the
2^n subsets that ``brute_force_hereditary`` and ``certify_fast_vs_brute`` sweep.
"""

from __future__ import annotations

import itertools
import random

from . import ideals as ideals_mod
from .algebra import EvolutionAlgebra
from .errors import EnumerationLimitError
from .fields import FrozenRecord, PrimeField
from .linalg import Subspace

__all__ = [
    "RandomSpec",
    "brute_force_absorption",
    "brute_force_hereditary",
    "brute_force_ideals",
    "brute_force_is_ideal",
    "brute_force_maximal_ideals",
    "certify_fast_vs_brute",
    "enumerate_subspaces",
    "gaussian_binomial",
    "iter_random_algebras",
    "random_algebra",
    "random_perfect_algebra",
    "random_perfect_strongly_connected",
    "random_with_sinks",
]

SUBSPACE_GUARD = 2**16
IDEAL_SEARCH_GUARD = 2 * 10**6
HEREDITARY_GUARD = 20


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _check_guard(field, n):
    if not isinstance(field, PrimeField):
        raise ValueError("subspace enumeration requires a prime field")
    if field.p**n > SUBSPACE_GUARD:
        raise EnumerationLimitError(
            f"{field.p}^{n} vectors exceed the enumeration guard {SUBSPACE_GUARD}"
        )


def _iter_rref_int_rows(p, n):
    """All reduced-row-echelon bases over F_p as integer rows, each span once.

    Rows are yielded grouped by dimension, pivot combinations in lexicographic
    order, free entries in lexicographic order.
    """
    yield (), ()
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            pivot_set = set(pivots)
            free_cells = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivot_set
            ]
            for values in itertools.product(range(p), repeat=len(free_cells)):
                rows = [[0] * n for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = 1
                for (r, c), v in zip(free_cells, values):
                    rows[r][c] = v
                yield tuple(tuple(row) for row in rows), pivots


def enumerate_subspaces(field, n):
    """Every subspace of F_p^n exactly once, as canonical Subspace values."""
    _check_guard(field, n)
    for rows, pivots in _iter_rref_int_rows(field.p, n):
        basis = tuple(
            tuple(field.from_int(x) for x in row) for row in rows
        )
        yield Subspace(field, n, basis, tuple(pivots))


# ---------------------------------------------------------------------------
# raw integer views
# ---------------------------------------------------------------------------


def _squares_int(algebra):
    if not isinstance(algebra.field, PrimeField):
        raise ValueError("brute force runs over prime fields only")
    return [tuple(x.value for x in row) for row in algebra.squares]


def _subspace_int_rows(subspace):
    """Basis rows as int tuples, to compare without ``Subspace.__eq__``."""
    return tuple(tuple(x.value for x in row) for row in subspace.basis)


def _mask(row_bits):
    m = 0
    for j, b in enumerate(row_bits):
        if b:
            m |= 1 << j
    return m


def _saturated_by_squares(squares_int, vertices):
    """No e_i with i outside the set has a nonzero square supported inside it."""
    return not any(
        i not in vertices and any(row) and all(j in vertices for j, x in enumerate(row) if x)
        for i, row in enumerate(squares_int)
    )


def _span_masks(mask_rows):
    elems = {0}
    for row in mask_rows:
        elems |= {x ^ row for x in elems}
    return elems


def _span_tuples(int_rows, p, n):
    elems = {tuple([0] * n)}
    for row in int_rows:
        new = set()
        for x in elems:
            for c in range(p):
                new.add(tuple((a + c * b) % p for a, b in zip(x, row)))
        elems = new
    return elems


def _span(p, n, rows):
    """The element set of the span of raw rows: bitmasks over F_2, else tuples."""
    return _span_masks(rows) if p == 2 else _span_tuples(rows, p, n)


def _raw_rows(p, subspace):
    """Basis rows as integer tuples, or as bitmasks over F_2."""
    rows = _subspace_int_rows(subspace)
    return [_mask(row) for row in rows] if p == 2 else rows


def _elements(algebra, subspace):
    """The materialised element set, in the raw form of ``_raw_rows``."""
    p = algebra.field.p
    return _span(p, algebra.n, _raw_rows(p, subspace))


def _sq_xor_table(square_masks, n):
    """table[m] = xor of the square masks over the bits of m, so that the
    product of bitmask vectors x, y over F_2 is table[x & y]."""
    table = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        table[m] = table[m ^ low] ^ square_masks[low.bit_length() - 1]
    return table


def _prod_tuple(squares_int, x, y, p, n):
    acc = [0] * n
    for i in range(n):
        f = (x[i] * y[i]) % p
        if f:
            sq = squares_int[i]
            for j in range(n):
                acc[j] = (acc[j] + f * sq[j]) % p
    return tuple(acc)


class _F2View:
    """Bitmask tables for one F_2 algebra, shared across brute-force calls."""

    def __init__(self, algebra):
        self.n = algebra.n
        self.square_masks = [_mask(row) for row in _squares_int(algebra)]
        self.table = _sq_xor_table(self.square_masks, self.n)

    def is_ideal(self, elems):
        table = self.table
        for a in range(1 << self.n):
            for v in elems:
                if table[a & v] not in elems:
                    return False
        return True

    def absorbs(self, elems):
        table = self.table
        for x in range(1 << self.n):
            if x in elems:
                continue
            if all(table[x & a] in elems for a in range(1 << self.n)):
                return False
        return True


def _f2_view(algebra):
    view = getattr(algebra, "_brute_f2_view", None)
    if view is None:
        view = algebra._brute_f2_view = _F2View(algebra)
    return view


def brute_force_is_ideal(algebra, subspace):
    """Literal closure test: every product of any vector with any subspace
    element stays inside, checked against the materialised element set."""
    _check_guard(algebra.field, algebra.n)
    p, n = algebra.field.p, algebra.n
    elems = _elements(algebra, subspace)
    if p == 2:
        return _f2_view(algebra).is_ideal(elems)
    squares = _squares_int(algebra)
    for a in itertools.product(range(p), repeat=n):
        for v in elems:
            if _prod_tuple(squares, a, v, p, n) not in elems:
                return False
    return True


def brute_force_absorption(algebra, subspace):
    """Literal absorption test over all p^n vectors x: whenever every product
    of x lands inside, x itself must already be inside."""
    _check_guard(algebra.field, algebra.n)
    p, n = algebra.field.p, algebra.n
    elems = _elements(algebra, subspace)
    if p == 2:
        return _f2_view(algebra).absorbs(elems)
    squares = _squares_int(algebra)
    for x in itertools.product(range(p), repeat=n):
        if x in elems:
            continue
        if all(
            _prod_tuple(squares, x, a, p, n) in elems
            for a in itertools.product(range(p), repeat=n)
        ):
            return False
    return True


def brute_force_ideals(algebra):
    """All ideals by filtering every subspace; refused if the closure test could
    take over ``IDEAL_SEARCH_GUARD`` products, p^n per subspace element."""
    _check_guard(algebra.field, algebra.n)
    p, n = algebra.field.p, algebra.n
    products = sum(gaussian_binomial(n, k, p) * p ** (n + k) for k in range(n + 1))
    if products > IDEAL_SEARCH_GUARD:
        raise EnumerationLimitError(f"{products} products exceed the ideal search guard")
    return [
        s
        for s in enumerate_subspaces(algebra.field, algebra.n)
        if brute_force_is_ideal(algebra, s)
    ]


def brute_force_maximal_ideals(algebra, ideals=None):
    """Maximal proper ideals by pairwise inclusion over the complete list."""
    if ideals is None:
        ideals = brute_force_ideals(algebra)
    p = algebra.field.p
    proper = [(s, _elements(algebra, s)) for s in ideals if s.dim < algebra.n]
    out = []
    for s, _ in proper:
        rows = _raw_rows(p, s)
        if not any(t.dim > s.dim and all(r in elems for r in rows) for t, elems in proper):
            out.append(s)
    return out


def _members(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _reach_and_cover(out):
    """Per vertex of the adjacency lists ``out``, the set a depth-first search
    from it visits, and ``cover[mask]``, the vertex mask that the subset
    ``mask`` reaches, over all 2^n subsets; refused past ``HEREDITARY_GUARD``
    vertices before any of it is done."""
    n = len(out)
    if n > HEREDITARY_GUARD:
        raise EnumerationLimitError(
            f"2^{n} subsets exceed the brute-force hereditary guard"
        )
    reach = []
    for v in range(n):
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in out[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(frozenset(seen))
    reach_bits = [sum(1 << u for u in r) for r in reach]
    cover = [0]
    for mask in range(1, 1 << n):
        low = mask & -mask
        cover.append(cover[mask ^ low] | reach_bits[low.bit_length() - 1])
    return reach, cover


def brute_force_hereditary(digraph):
    """Hereditary sets by testing the tree condition on all 2^n subsets."""
    _, cover = _reach_and_cover(digraph.out)
    return [_members(m) for m, c in enumerate(cover) if c == m]


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


class RandomSpec(FrozenRecord):
    """Reproducible recipe for a stream of random evolution algebras."""

    def __init__(self, field, min_dim=2, max_dim=6, density=0.6, seed=0):
        self.__dict__.update(
            field=field, min_dim=min_dim, max_dim=max_dim, density=density, seed=seed
        )

    def coefficient_pool(self):
        if self.field.order is None:
            return (-2, -1, 1, 2)
        return range(1, self.field.order)


def _random_squares(rng, spec, min_dim, max_dim):
    """Draw n in [min_dim, max_dim], then an n x n square matrix row by row,
    each entry a pool coefficient with probability ``spec.density``."""
    pool = spec.coefficient_pool()
    n = rng.randint(min_dim, max_dim)
    return [
        [rng.choice(pool) if rng.random() < spec.density else 0 for _ in range(n)]
        for _ in range(n)
    ]


def iter_random_algebras(spec: RandomSpec):
    rng = random.Random(spec.seed)
    while True:
        squares = _random_squares(rng, spec, spec.min_dim, spec.max_dim)
        yield EvolutionAlgebra(spec.field, squares)


def random_algebra(spec: RandomSpec) -> EvolutionAlgebra:
    return next(iter_random_algebras(spec))


def random_perfect_algebra(spec: RandomSpec, attempts=1000) -> EvolutionAlgebra:
    stream = iter_random_algebras(spec)
    for _ in range(attempts):
        algebra = next(stream)
        if algebra.is_perfect():
            return algebra
    raise RuntimeError(
        f"no perfect algebra in {attempts} attempts; density {spec.density} too low"
    )


def random_perfect_strongly_connected(spec: RandomSpec, attempts=1000):
    """Perfect algebra whose graph contains the full cycle 0 -> 1 -> ... -> 0,
    hence is strongly connected."""
    rng = random.Random(spec.seed)
    pool = spec.coefficient_pool()
    for _ in range(attempts):
        squares = _random_squares(rng, spec, spec.min_dim, spec.max_dim)
        n = len(squares)
        for i in range(n):
            if not squares[i][(i + 1) % n]:
                squares[i][(i + 1) % n] = rng.choice(pool)
        algebra = EvolutionAlgebra(spec.field, squares)
        if algebra.is_perfect():
            return algebra
    raise RuntimeError(
        f"no strongly connected perfect algebra in {attempts} attempts"
    )


def random_with_sinks(spec: RandomSpec, min_sinks=1) -> EvolutionAlgebra:
    """Random algebra with at least ``min_sinks`` basis squares forced to
    zero; always degenerate."""
    rng = random.Random(spec.seed)
    squares = _random_squares(
        rng, spec, max(spec.min_dim, min_sinks + 1), max(spec.max_dim, min_sinks + 1)
    )
    n = len(squares)
    for i in rng.sample(range(n), min_sinks):
        squares[i] = [0] * n
    return EvolutionAlgebra(spec.field, squares)


# ---------------------------------------------------------------------------
# certification harness
# ---------------------------------------------------------------------------


def _listed_maximal_ideals(algebra, report):
    """The maximal ideals a report lists, as integer echelon rows: its
    hyperplane family and its vertex spans marked maximal."""
    n = algebra.n
    listed = {
        tuple(tuple(int(x) for x in row) for row in basis)
        for basis in report["hyperplane_family"]["ideals"] or []
    }
    for entry in report["from_maximal_hereditary"]:
        if entry["maximal"]:
            h = sorted(algebra.index_of(label) for label in entry["vertices"])
            listed.add(tuple(tuple(int(j == i) for j in range(n)) for i in h))
    return listed


def certify_fast_vs_brute(algebra, subspaces=None, max_compare=None, seed=0):
    """Compare the fast predicates with brute force on one prime-field algebra.

    Returns a dict with counts and a list of mismatch descriptions (empty on
    full agreement).  ``subspaces`` may carry a cached enumeration for the
    algebra's (field, dim); ``max_compare`` caps how many non-ideal subspaces
    get the point-wise is_ideal comparison, while idealness is still decided
    brute-force on every subspace so that maximality stays ground truth.
    The reference graph is read off the squares, i -> j when coordinate j of
    e_i^2 is nonzero, and the edge list of ``A.graph`` must equal it; one
    reachability table and one sweep of the 2^n subsets serve every
    graph-side check.  The hereditary sets, their saturated members and the
    maximal ones are each compared with a brute-force family, and the tree
    of every vertex, the simplicity of the graph and its source components
    (the classes of mutual reachability that no outside vertex reaches, by
    smallest vertex) with per-vertex searches.  The min generating vertex
    set must have the least size of the 2^n subsets whose searches reach
    every vertex, and its witness must be that large and reach every
    vertex.  For each hereditary H, ``ideal_from_hereditary`` must have the
    element set of the span of the unit vectors of H, ``saturated_closure``
    must be the least saturated hereditary superset of H, and, for proper H,
    ``quotient_by_hereditary`` must have as squares and labels the literal
    e_j e_j and labels outside H, with the coordinates in H deleted.
    The span of the n^2 literal products e_i e_j must have the element set of
    ``square_span``, and ``is_perfect`` must hold exactly when it has p^n
    elements; every brute-force ideal I must have as ``hereditary_vertices``
    the i whose literal square e_i e_i lies in I's element set.
    Every compared subspace also has its ``ideal_closure`` checked against
    the least brute-force ideal holding it, and a ``maximal_ideals_report``
    that claims to be complete must list exactly the brute-force maximal
    ideals.  ``find_proper_nonzero_ideal`` must return None exactly when no
    brute-force ideal is proper and nonzero, and one of them otherwise.
    """
    A = algebra
    squares = _squares_int(A)
    mismatches = []
    g = A.graph
    # The graph read off the squares: i -> j when coordinate j of e_i^2 is nonzero.
    out = [[j for j, x in enumerate(row) if x] for row in squares]
    if list(g.edges) != [(i, j) for i, targets in enumerate(out) for j in targets]:
        mismatches.append("graph edges differ from the nonzero coordinates of the squares")
    reach, cover = _reach_and_cover(out)

    brute_hered = [_members(m) for m, c in enumerate(cover) if c == m]
    if g.hereditary_sets() != brute_hered:
        mismatches.append("hereditary enumeration differs from brute force")
    brute_sat = [h for h in brute_hered if _saturated_by_squares(squares, h)]
    if g.hereditary_saturated_sets() != brute_sat:
        mismatches.append("hereditary saturated sets differ from brute force")

    full = frozenset(range(A.n))
    proper = [h for h in brute_hered if h != full]
    maxima = [h for h in proper if not any(h < h2 for h2 in proper)]
    if maxima != list(g.maximal_hereditary_sets()):
        mismatches.append("maximal hereditary sets differ from brute maxima")

    if [g.tree({v}) for v in range(A.n)] != reach:
        mismatches.append("trees differ from per-vertex searches")
    if g.is_simple() != all(r == full for r in reach):
        mismatches.append("graph simplicity differs from per-vertex searches")
    sources = []
    for v in range(A.n):
        comp = frozenset(u for u in reach[v] if v in reach[u])
        if min(comp) == v and not any(u not in comp and v in reach[u] for u in range(A.n)):
            sources.append(comp)
    if list(g.source_components()) != sources:
        mismatches.append("source components differ from per-vertex searches")
    everything = (1 << A.n) - 1
    least = min(bin(m).count("1") for m, c in enumerate(cover) if c == everything)
    size, witness = g.min_generating_vertex_set()
    reached = frozenset().union(*(reach[v] for v in witness))
    if not size == least == len(witness) or reached != full:
        mismatches.append("min generating vertex set differs from the subset sweep")

    # The n^2 literal products e_i e_j, of which e_i e_i is the square of e_i.
    p = A.field.p
    if p == 2:
        units = [1 << i for i in range(A.n)]
        table = _f2_view(A).table
        products = [table[x & y] for x in units for y in units]
    else:
        units = [tuple(int(j == i) for j in range(A.n)) for i in range(A.n)]
        products = [_prod_tuple(squares, x, y, p, A.n) for x in units for y in units]
    literal_span = _span(p, A.n, products)
    literal_squares = products[:: A.n + 1]
    if literal_span != _elements(A, A.square_span):
        mismatches.append("square span differs from the span of the literal products")
    if A.is_perfect() != (len(literal_span) == p**A.n):
        mismatches.append("is_perfect differs from the span of the literal products")

    # The three maps the CLI prints for each hereditary set H: its vertex span,
    # its saturated closure, and the quotient by it, whose squares are the
    # literal e_j e_j outside H with the coordinates in H deleted.  Saturated
    # hereditary sets are closed under intersection, so the least one holding
    # H is the smallest.
    square_rows = literal_squares
    if p == 2:
        square_rows = [[sq >> k & 1 for k in range(A.n)] for sq in literal_squares]
    for h in brute_hered:
        try:
            span = ideals_mod.ideal_from_hereditary(A, h).subspace
            closure = g.saturated_closure(h)
            quotient = A.quotient_by_hereditary(h) if h != full else None
        except ValueError:  # the fast graph holds an edge that leaves h
            mismatches.append("a hereditary set is refused by the maps built on it")
            continue
        if _elements(A, span) != _span(p, A.n, [units[i] for i in h]):
            mismatches.append("ideal_from_hereditary differs from the unit-vector span")
        if closure != min((t for t in brute_sat if h <= t), key=len):
            mismatches.append("saturated_closure differs from the least saturated superset")
        if quotient is not None:
            keep = [j for j in range(A.n) if j not in h]
            literal = [tuple(square_rows[j][k] for k in keep) for j in keep]
            labels = tuple(A.labels[j] for j in keep)
            if (_squares_int(quotient), quotient.labels) != (literal, labels):
                mismatches.append("quotient_by_hereditary differs from the literal squares")

    if subspaces is None:
        subspaces = list(enumerate_subspaces(A.field, A.n))
    brute_flags = [brute_force_is_ideal(A, s) for s in subspaces]
    brute_ideal_list = [s for s, f in zip(subspaces, brute_flags) if f]

    # The least ideal holding a set has the smallest dimension of those that
    # hold it, because ideals are closed under intersection.
    by_dim = sorted(
        ((t, _elements(A, t)) for t in brute_ideal_list), key=lambda te: te[0].dim
    )

    rng = random.Random(seed)
    indices = range(len(subspaces))
    if max_compare is not None and len(subspaces) > max_compare:
        chosen = set(rng.sample(range(len(subspaces)), max_compare))
        chosen.update(i for i, f in enumerate(brute_flags) if f)
        indices = sorted(chosen)
    compared = 0
    for i in indices:
        s = subspaces[i]
        if ideals_mod.is_ideal(A, s) != brute_flags[i]:
            mismatches.append(f"is_ideal mismatch at subspace {i}")
        rows = _raw_rows(p, s)
        least = next(t for t, elems in by_dim if all(r in elems for r in rows))
        closure = ideals_mod.ideal_closure(A, s.basis).subspace
        if _subspace_int_rows(closure) != _subspace_int_rows(least):
            mismatches.append(f"ideal_closure mismatch at subspace {i}")
        compared += 1

    brute_max = brute_force_maximal_ideals(A, brute_ideal_list)
    brute_max_keys = {_subspace_int_rows(s) for s in brute_max}
    for s in brute_ideal_list:
        ideal = ideals_mod.Ideal(A, s, _validated=True)
        if ideal.has_absorption() != brute_force_absorption(A, s):
            mismatches.append("has_absorption mismatch")
        elems = _elements(A, s)
        if ideal.hereditary_vertices != frozenset(
            i for i, sq in enumerate(literal_squares) if sq in elems
        ):
            mismatches.append("hereditary_vertices mismatch")
        # The unit vectors in I span it exactly when I has p^|B| elements.
        b = frozenset(i for i, u in enumerate(units) if u in elems)
        if ideal.basis_vertices() != b:
            mismatches.append("basis_vertices mismatch")
        if ideal.is_spanned_by_basis_vertices() != (len(elems) == p ** len(b)):
            mismatches.append("is_spanned_by_basis_vertices mismatch")
        if s.dim < A.n:
            if ideal.is_maximal() != (_subspace_int_rows(s) in brute_max_keys):
                mismatches.append("is_maximal mismatch")

    found = ideals_mod.find_proper_nonzero_ideal(A)
    brute_proper = {_subspace_int_rows(s) for s in brute_ideal_list if 0 < s.dim < A.n}
    if not (_subspace_int_rows(found.subspace) in brute_proper if found else not brute_proper):
        mismatches.append("find_proper_nonzero_ideal disagrees with brute force")

    report = ideals_mod.maximal_ideals_report(A)
    if report["complete"] and _listed_maximal_ideals(A, report) != brute_max_keys:
        mismatches.append("maximal_ideals_report is complete but lists other ideals")
    return {
        "dim": A.n,
        "subspaces": len(subspaces),
        "compared": compared,
        "ideals": len(brute_ideal_list),
        "maximal_ideals": len(brute_max),
        "mismatches": mismatches,
    }
