"""Order-theoretic checks between hereditary sets and ideals.

The two maps H -> span of H's unit vectors and I -> vertices whose square lies
in I are monotone; restricted to hereditary-and-saturated sets on one side and
absorption ideals on the other they form a monotone Galois connection, and on
perfect finite-dimensional algebras the unrestricted pair already is one.

`run_theorem_suite` evaluates a registry of such statements on one algebra.
Every law is a list of parts, each a predicate over one family of instances:
the enumerated hereditary sets, a seeded sample of generated ideals, the
maximal ideals found among them, pairs of hereditary sets or of sampled
ideals, saturated sets by absorbing ideals, seeded draws of a few saturated
sets or absorbing ideals, or the one instance of a verdict on the whole
algebra.  A law may name one hypothesis on the algebra, non-degenerate or
perfect, in its registry row; it is tested once per law, and where it fails
every instance is tallied not-applicable and no predicate runs.  A predicate
returns True or False for an instance it checks, or None when the instance
fails the law's own hypotheses; None is tallied as not-applicable, not as a
pass.  A ValueError raised inside a predicate, such as the span of a vertex
set that is not hereditary, which only a faulty trace H(I) gives, counts the
instance as a counterexample.  Each family lists its instances in a fixed
deterministic order and names the witness key of each argument, and the first
counterexample is kept as the witness, built only when a check fails.  The
runner shows an argument by its type: a vertex set as its labels, an ideal
as its basis rows, a list item by item, and None as None.  Past MAX_PAIRS
hereditary pairs, the pairs are drawn by position and decoded, so no list of
all pairs is built.  One run walks the hereditary family once and
reads the saturated sets off it, sharing the sets, and builds each derived
value once: the vertex span of a hereditary set, the absorbing ideals and the
maximal ideals.  A meet of ideals that lies in one of them is that ideal's
own subspace, so its vertex set is read from that ideal, not recomputed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import cache, cached_property, partial
from itertools import chain, islice, product

from . import linalg, oracle
from .errors import EnumerationLimitError
from .fields import Record
from .graph import DEFAULT_ENUM_LIMIT, vertex_set_mask
from .ideals import (
    Ideal,
    _labels,
    ideal_closure,
    ideal_from_hereditary,
    maximal_ideal_cover_check,
)

__all__ = [
    "PropertyReport",
    "PropertyResult",
    "check_adjunction",
    "check_lattice_identities",
    "run_fuzz",
    "run_theorem_suite",
]

MAX_PAIRS = 400  # pairs per pair law: a seeded sample of hereditary pairs past it


def check_adjunction(algebra, hereditary, ideal: Ideal, restricted=False):
    """One instance of the adjunction law: span(H) inside I iff H inside H_I.

    In restricted mode the hereditary set must be saturated and the ideal must
    absorb; there the law must always hold on non-degenerate algebras.  The
    ideal must be one of ``algebra``.
    """
    _own(algebra, ideal)
    g = algebra.graph
    h = frozenset(hereditary)
    if not g.is_hereditary(h):
        raise ValueError("adjunction requires a hereditary set")
    if restricted:
        if not g.is_saturated(h):
            raise ValueError("restricted adjunction requires a saturated set")
        if not ideal.has_absorption():
            raise ValueError("restricted adjunction requires an absorption ideal")
    return _adjoint(ideal_from_hereditary(algebra, h), h, ideal)


def _adjoint(span, hereditary, ideal):
    """span(H) inside I iff H inside H(I), for ``span`` the vertex span of H."""
    left = ideal.subspace.contains_subspace(span.subspace)
    return left == (hereditary <= ideal.hereditary_vertices)


def _own(algebra, ideal):
    """``ideal``, refused with ``ValueError`` unless it is an ideal of ``algebra``."""
    if ideal.algebra is not algebra and ideal.algebra != algebra:
        raise ValueError("the ideal belongs to another algebra")
    return ideal


def check_lattice_identities(algebra, hereditary_families=(), ideal_families=()):
    """Verify the two family identities.

    For each family of hereditary sets whose union is hereditary: the span of
    the union equals the sum of the spans.  For each family of ideals: the
    hereditary set of the intersection equals the intersection of the
    hereditary sets.  Raises ``ValueError`` for an ideal of another algebra.
    """
    for family in hereditary_families:
        family = [frozenset(h) for h in family]
        union = frozenset().union(*family) if family else frozenset()
        if not algebra.graph.is_hereditary(union):
            raise ValueError("union of the family is not hereditary")
        if not _union_identity(partial(ideal_from_hereditary, algebra), family):
            return False
    for family in ideal_families:
        family = [_own(algebra, ideal) for ideal in family]
        if not family:
            continue
        meet = family[0].subspace
        expected = frozenset(family[0].hereditary_vertices)
        for ideal in family[1:]:
            meet = meet.intersect(ideal.subspace)
            expected &= ideal.hereditary_vertices
        # A meet its operands decide is one of them, with its vertex set cached.
        meet_ideal = next((i for i in family if i.subspace is meet), None)
        if meet_ideal is None:
            meet_ideal = Ideal(algebra, meet, _validated=True)
        if meet_ideal.hereditary_vertices != expected:
            return False
    return True


def _union_identity(span, family):
    """span(union of the family) = sum of the spans, for ``span(H)`` the
    vertex span of H."""
    acc = span(frozenset()).subspace
    for h in family:
        acc = acc.sum(span(h).subspace)
    return acc == span(frozenset().union(*family)).subspace


# ---------------------------------------------------------------------------
# property registry
# ---------------------------------------------------------------------------


class PropertyResult(Record):
    def __init__(self, name, law, checked=0, failed=0, not_applicable=0, witness=None):
        self.name, self.law, self.checked = name, law, checked
        self.failed, self.not_applicable, self.witness = failed, not_applicable, witness

    @property
    def status(self):
        if self.failed:
            return "fail"
        if self.checked:
            return "pass"
        return "not-applicable"

    def _tally(self, ok, witness):
        """Count one instance: None is not applicable, and ``witness()``
        runs only for the first failure."""
        if ok is None:
            self.not_applicable += 1
            return
        self.checked += 1
        if not ok:
            self.failed += 1
            if self.witness is None:
                self.witness = witness()

    def to_json(self):
        return {
            "name": self.name,
            "law": self.law,
            "status": self.status,
            "checked": self.checked,
            "failed": self.failed,
            "not_applicable": self.not_applicable,
            "witness": self.witness,
        }


class PropertyReport(Record):
    def __init__(self, algebra, seed, trials, properties=None, notices=None):
        self.algebra, self.seed, self.trials = algebra, seed, trials
        self.properties = [] if properties is None else properties
        self.notices = [] if notices is None else notices

    @property
    def ok(self):
        return all(p.failed == 0 for p in self.properties)

    def failed_properties(self):
        return [p for p in self.properties if p.failed]

    def to_json(self):
        return {
            "algebra": self.algebra,
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "notices": list(self.notices),
            "properties": [p.to_json() for p in self.properties],
        }


class _Ctx:
    """Shared data for one suite run; each derived value is built once."""

    def __init__(self, algebra, trials, seed, enum_limit):
        self.A = algebra
        self.G = algebra.graph
        self.rng = random.Random(seed)
        self.full_set = frozenset(range(algebra.n))
        self.notices = []
        # The vertex span of a hereditary frozenset, as an ideal, built once.
        self.span = cache(partial(ideal_from_hereditary, algebra))
        self.hered = self._enumerate(
            self.G.hereditary_sets, enum_limit,
            "hereditary enumeration exceeded the limit; "
            "enumeration-backed laws were skipped",
        )
        # Read off the one walk; past its limit the cut walk lists them alone.
        if self.hered:
            self.her_sat = list(filter(self.G.is_saturated, self.hered))
        else:
            self.her_sat = self._enumerate(
                self.G.hereditary_saturated_sets, enum_limit,
                "hereditary saturated enumeration exceeded the limit; "
                "laws over saturated sets were skipped",
            )
        self.maxher = self.G.maximal_hereditary_sets()
        self.ideals = self._sample_ideals(trials)

    def _enumerate(self, sets, limit, notice):
        """``sets(limit)``, or [] with the notice on overflow; every
        enumeration holds the empty set, so [] marks an overflow."""
        try:
            return sets(limit)
        except EnumerationLimitError:
            self.notices.append(notice)
            return []

    def _sample_ideals(self, trials):
        A = self.A
        seen = {}

        def add(ideal):
            seen.setdefault(ideal.subspace, ideal)

        add(self.span(frozenset()))
        if not self.hered:
            hs = self.maxher
        elif len(self.hered) <= 12:
            hs = self.hered
        else:
            hs = list(self.maxher) + self.hered[:8] + [self.full_set]
        for h in hs:
            add(self.span(h))
        for i in range(min(A.n, 6)):
            add(ideal_closure(A, [A.unit(i)]))
        # A range, not a list: a prime field may have up to 2^31 elements.
        pool = range(-2, 3) if A.field.order is None else range(A.field.order)
        for _ in range(trials):
            gens = [[self.rng.choice(pool) for _ in range(A.n)] for _ in range(self.rng.randint(1, 3))]
            add(ideal_closure(A, gens))
        return list(seen.values())

    @cached_property
    def absorbing(self):
        return [i for i in self.ideals if i.has_absorption()]

    @cached_property
    def maximal_ideals(self):
        """Maximal ideals among the vertex spans of maximal hereditary sets,
        the square span when it is a hyperplane, and the sampled ideals; each
        subspace once, in that order."""
        A = self.A
        seen = {}
        for ideal in map(self.span, self.maxher):
            if ideal.is_proper and ideal.is_maximal():
                seen.setdefault(ideal.subspace, ideal)
        if A.n - A.square_span.dim == 1:
            seen.setdefault(A.square_span, Ideal(A, A.square_span, _validated=True))
        for ideal in self.ideals:
            if ideal.subspace not in seen and ideal.is_proper and ideal.is_maximal():
                seen[ideal.subspace] = ideal
        return list(seen.values())


# -- families: the instances of a law as argument tuples, then the witness key
# of each argument -------------------------------------------------------------


def _hereditary_pairs(ctx):
    """Every pair (H, H') of enumerated sets, H not after H', in list order;
    past MAX_PAIRS a seeded sample of them in that order.  Positions number
    the pairs row by row and the sets are sorted by mask, so a sorted sample
    of positions is the sample sorted by masks; no pair list is built."""
    hs, m = ctx.hered, len(ctx.hered)
    positions = range(m * (m + 1) // 2)
    if len(positions) > MAX_PAIRS:
        positions = sorted(ctx.rng.sample(positions, MAX_PAIRS))
    i = start = 0  # row i holds the positions start .. start + m - i - 1
    for p in positions:
        while p >= start + m - i:
            start += m - i
            i += 1
        yield hs[i], hs[i + p - start]


def _ideal_pairs(ctx):
    """The first MAX_PAIRS pairs (I, J) of sampled ideals, I not after J."""
    ids = ctx.ideals
    return islice(((i, j) for k, i in enumerate(ids) for j in ids[k:]), MAX_PAIRS)


def _draws(pool, ctx):
    """Eight seeded draws of one to three members of ``ctx.<pool>``, or none."""
    items = getattr(ctx, pool)
    for _ in range(8 if items else 0):
        k = ctx.rng.randint(1, min(3, len(items)))
        yield [ctx.rng.choice(items) for _ in range(k)],


def _proper_nonzero_ideal(ctx):
    """One instance: the first proper nonzero ideal among the sampled ideals
    and the spans of the hereditary sets (of the maximal ones when the
    enumeration overflowed), or None."""
    candidates = chain(ctx.ideals, map(ctx.span, ctx.hered or ctx.maxher))
    yield next((i for i in candidates if i.is_proper and not i.is_zero), None),


def _enumerated_maxima(ctx):
    """One instance: the maxima of the enumerated proper hereditary sets, or
    None when the enumeration overflowed or lists more than 512 sets."""
    hs = ctx.hered
    if not hs or len(hs) > 512:
        return [(None,)]
    proper = [h for h in hs if h != ctx.full_set]
    return [([h for h in proper if not any(h < h2 for h2 in proper)],)]


def _random_subsets(ctx):
    """Eight vertex sets, each with a random superset: the empty set, all
    vertices and six drawn sets."""
    n, rng = ctx.A.n, ctx.rng
    sets = [frozenset(), ctx.full_set]
    for _ in range(6):
        sets.append(frozenset(rng.sample(range(n), rng.randint(0, n))))
    for s in sets:
        yield s, s | frozenset(rng.sample(range(n), rng.randint(0, n)))


_HEREDITARY = (lambda ctx: zip(ctx.hered), ("H",))
_IDEALS = (lambda ctx: zip(ctx.ideals), ("I",))
_MAXIMAL_IDEALS = (lambda ctx: zip(ctx.maximal_ideals), ("I",))
_HEREDITARY_PAIRS = (_hereditary_pairs, ("H", "H'"))
_IDEAL_PAIRS = (_ideal_pairs, ("I", "J"))
# Ideal pairs, lower dimension first: a nested pair shows the smaller ideal as I.
_IDEAL_PAIRS_BY_DIM = (
    lambda ctx: ((j, i) if i.dim > j.dim else (i, j) for i, j in _ideal_pairs(ctx)),
    ("I", "J"),
)
_SATURATED_BY_ABSORBING = (lambda ctx: product(ctx.her_sat, ctx.absorbing), ("H", "I"))
# Perfection fails for all pairs at once, so a non-perfect algebra gives each H once.
_HEREDITARY_BY_IDEALS = (
    lambda ctx: product(ctx.hered, ctx.ideals if ctx.A.is_perfect() else [None]),
    ("H", "I"),
)
_SATURATED_DRAWS = (partial(_draws, "her_sat"), ("family",))
_ABSORBING_DRAWS = (partial(_draws, "absorbing"), ("family",))
_PROPER_NONZERO_IDEAL = (_proper_nonzero_ideal, ("proper_nonzero_ideal",))
_ENUMERATED_MAXIMA = (_enumerated_maxima, ("expected",))
_ONCE = (lambda ctx: [()], ())
_RANDOM_SUBSETS = (_random_subsets, ("S",))  # the superset unshown


# -- predicates, one per law and family -----------------------------------------


def _hereditary_lattice(ctx, h1, h2):
    return ctx.G.is_hereditary(h1 & h2) and ctx.G.is_hereditary(h1 | h2)


def _span_of_intersection(ctx, h1, h2):
    meet = ctx.span(h1).subspace.intersect(ctx.span(h2).subspace)
    return ctx.span(h1 & h2).subspace == meet


def _span_of_union(ctx, h1, h2):
    s1, s2 = ctx.span(h1).subspace, ctx.span(h2).subspace
    union = ctx.span(h1 | h2).subspace
    if s1.sum(s2) != union:
        return False
    return bool(h1 & h2) or union.dim == s1.dim + s2.dim


def _vertices_of_ideal_intersection(ctx, i1, i2):
    return check_lattice_identities(ctx.A, ideal_families=[(i1, i2)])


def _galois_expansion_of_ideal(ctx, ideal):
    return ctx.span(ideal.hereditary_vertices).subspace.contains_subspace(ideal.subspace)


def _galois_expansion_of_set(ctx, h):
    return h <= ctx.span(h).hereditary_vertices


def _span_full_iff_all_vertices(ctx, h):
    return ctx.span(h).subspace.is_full == (h == ctx.full_set)


def _closure_full_iff_squares_inside(ctx, ideal):
    closure = ctx.span(ideal.hereditary_vertices)
    return closure.subspace.is_full == ideal.subspace.contains_subspace(ctx.A.square_span)


def _saturation_fixed_point(ctx, h):
    # Sinks land in H(span(H)) unconditionally, so on degenerate algebras the
    # fixed-point characterisation needs H to carry the annihilator vertices.
    fixed = ctx.span(h).hereditary_vertices == h
    return fixed == (ctx.G.is_saturated(h) and ctx.A.annihilator_vertices() <= h)


def _vertex_trace_saturated(ctx, ideal):
    h = ideal.hereditary_vertices
    if h != ideal.basis_vertices():
        return None
    return ctx.G.is_saturated(h)


def _vertices_of_vertex_span(ctx, h):
    return ctx.span(h).basis_vertices() == h


def _absorption_iff_saturated(ctx, h):
    return ctx.span(h).has_absorption() == ctx.G.is_saturated(h)


def _absorption_equivalences(ctx, ideal):
    h = ideal.hereditary_vertices
    closure = ctx.span(h)
    a = ideal.has_absorption()
    b = h == ideal.basis_vertices()
    c = ideal.subspace == closure.subspace
    return a == b == c


def _perfect_ideal_conclusions(ctx, ideal):
    return (
        ideal.subspace == ctx.span(ideal.hereditary_vertices).subspace
        and ideal.has_absorption()
        and ideal.is_spanned_by_basis_vertices()
    )


def _maximal_absorption(ctx, ideal):
    if ideal.codim == 1 and ideal.subspace.contains_subspace(ctx.A.square_span):
        return None
    return ideal.has_absorption()


def _maximal_cover_check(ctx, ideal):
    return maximal_ideal_cover_check(ctx.A, ideal)


def _vertex_span_strictly_monotone(ctx, h1, h2):
    if h1 == h2:
        return None
    small, large = (h1, h2) if h1 < h2 else (h2, h1)
    s1, s2 = ctx.span(small).subspace, ctx.span(large).subspace
    if small < large:
        return s2.contains_subspace(s1) and s1.dim < s2.dim
    return s1 != s2  # incomparable: injectivity only


def _quotient_preserves_hereditary(ctx, h1, h2):
    if not h1 <= h2:
        return None
    keep = [v for v in range(ctx.A.n) if v not in h1]
    renum = {v: i for i, v in enumerate(keep)}
    return ctx.G.quotient(h1).is_hereditary(frozenset(renum[v] for v in h2 - h1))


def _maximal_iff_quotient_simple(ctx, h):
    if h == ctx.full_set:
        return None
    return (h in ctx.maxher) == ctx.G.quotient(h).is_simple()


def _quotient_algebra_graph(ctx, h):
    if h == ctx.full_set:
        return None
    return ctx.A.quotient_by_hereditary(h).graph == ctx.G.quotient(h)


def _tree_closure_of_set(ctx, s, bigger):
    G = ctx.G
    t = G.tree(s)
    return s <= t and G.tree(t) == t and G.is_hereditary(t) and t <= G.tree(bigger)


def _tree_fixes_hereditary(ctx, h):
    return ctx.G.tree(h) == h


def _saturated_closure_minimal(ctx, h):
    G = ctx.G
    c = G.saturated_closure(h)
    # A set s with h <= s < c has a mask in [mask(h), mask(c)).
    lo = bisect_left(ctx.her_sat, vertex_set_mask(h), key=vertex_set_mask)
    hi = bisect_left(ctx.her_sat, vertex_set_mask(c), key=vertex_set_mask)
    return (
        G.is_hereditary(c)
        and G.is_saturated(c)
        and h <= c
        and G.saturated_closure(c) == c
        and not any(h <= s < c for s in ctx.her_sat[lo:hi])
    )


def _vertex_map_monotone(ctx, i1, i2):
    if not i2.subspace.contains_subspace(i1.subspace):
        return None
    return i1.hereditary_vertices <= i2.hereditary_vertices


def _adjunction(ctx, h, ideal):
    return _adjoint(ctx.span(h), h, ideal)


def _union_of_saturated(ctx, family):
    if not ctx.G.is_saturated(frozenset().union(*family)):
        return None
    return _union_identity(ctx.span, family)


def _meet_of_absorbing(ctx, family):
    return check_lattice_identities(ctx.A, ideal_families=[family])


def _simple_iff_no_proper_ideal(ctx, ideal):
    return ctx.G.is_simple() == (ideal is None)


def _maximal_agrees_with_enum(ctx, maxima):
    return None if maxima is None else maxima == list(ctx.maxher)


def _simple_iff_trivial_hereditary(ctx):
    if not ctx.hered:
        return None
    return ctx.G.is_simple() == (ctx.hered == [frozenset(), ctx.full_set])


# Each row: name, law, (family, predicate) parts, and the algebra hypothesis or None.
_REGISTRY = [
    ("hereditary_lattice", "H and H' hereditary => H&H', H|H' hereditary", [(_HEREDITARY_PAIRS, _hereditary_lattice)], None),
    ("span_of_intersection", "span(H & H') = span(H) & span(H')", [(_HEREDITARY_PAIRS, _span_of_intersection)], None),
    ("span_of_union", "span(H | H') = span(H) + span(H'), direct when disjoint", [(_HEREDITARY_PAIRS, _span_of_union)], None),
    ("vertices_of_ideal_intersection", "H(I & J) = H(I) & H(J)", [(_IDEAL_PAIRS, _vertices_of_ideal_intersection)], None),
    ("vertex_map_monotone", "I <= J implies H(I) <= H(J)", [(_IDEAL_PAIRS_BY_DIM, _vertex_map_monotone)], None),
    ("galois_expansions", "I <= span(H(I)) and H <= H(span(H))", [(_IDEALS, _galois_expansion_of_ideal), (_HEREDITARY, _galois_expansion_of_set)], None),
    ("span_full_iff_all_vertices", "span(H) = A iff H = all vertices", [(_HEREDITARY, _span_full_iff_all_vertices)], None),
    ("closure_full_iff_squares_inside", "span(H(I)) = A iff square span <= I", [(_IDEALS, _closure_full_iff_squares_inside)], None),
    ("saturation_fixed_point", "H(span(H)) = H iff H saturated and H carries all annihilator vertices", [(_HEREDITARY, _saturation_fixed_point)], None),
    ("vertex_trace_saturated", "H(I) = I&B implies H(I) saturated", [(_IDEALS, _vertex_trace_saturated)], None),
    ("vertices_of_vertex_span", "H = span(H) & B", [(_HEREDITARY, _vertices_of_vertex_span)], None),
    ("absorption_iff_saturated", "non-degenerate: span(H) absorbs iff H saturated", [(_HEREDITARY, _absorption_iff_saturated)], "non-degenerate"),
    ("absorption_equivalences", "I absorbs iff H(I) = I&B iff I = span(H(I))", [(_IDEALS, _absorption_equivalences)], None),
    ("perfect_ideal_conclusions", "perfect: I = span(H(I)), absorbs, basis-vertex span", [(_IDEALS, _perfect_ideal_conclusions)], "perfect"),
    ("maximal_absorption", "maximal I, not a hyperplane over the square span, absorbs", [(_MAXIMAL_IDEALS, _maximal_absorption)], None),
    ("maximal_cover_check", "maximal I: tree(e) | H(I) covers B for e outside I", [(_MAXIMAL_IDEALS, _maximal_cover_check)], None),
    ("vertex_span_strictly_monotone", "H < H' implies span(H) < span(H'); distinct H give distinct spans", [(_HEREDITARY_PAIRS, _vertex_span_strictly_monotone)], None),
    ("adjunction_restricted", "saturated H, absorbing I: span(H) <= I iff H <= H(I)", [(_SATURATED_BY_ABSORBING, _adjunction)], "non-degenerate"),
    ("adjunction_full_perfect", "perfect: span(H) <= I iff H <= H(I), unrestricted", [(_HEREDITARY_BY_IDEALS, _adjunction)], "perfect"),
    ("union_family_identity", "span(union H_i) = sum span(H_i)", [(_SATURATED_DRAWS, _union_of_saturated)], None),
    ("intersection_family_identity", "H(meet I_i) = meet H(I_i)", [(_ABSORBING_DRAWS, _meet_of_absorbing)], None),
    ("quotient_preserves_hereditary", "H <= H' hereditary: H'-H hereditary in E/H", [(_HEREDITARY_PAIRS, _quotient_preserves_hereditary)], None),
    ("maximal_iff_quotient_simple", "H maximal iff E/H simple", [(_HEREDITARY, _maximal_iff_quotient_simple)], None),
    ("quotient_algebra_graph", "graph of A/span(H) equals E/H", [(_HEREDITARY, _quotient_algebra_graph)], None),
    ("simplicity_equivalence", "perfect: graph simple iff no proper nonzero ideal", [(_PROPER_NONZERO_IDEAL, _simple_iff_no_proper_ideal)], "perfect"),
    ("tree_closure_operator", "tree is extensive, idempotent, monotone, hereditary-valued", [(_RANDOM_SUBSETS, _tree_closure_of_set), (_HEREDITARY, _tree_fixes_hereditary)], None),
    ("maximal_agrees_with_enumeration", "maximal sets = maxima of the enumerated family", [(_ENUMERATED_MAXIMA, _maximal_agrees_with_enum)], None),
    ("saturated_closure_minimal", "saturated closure is the least saturated hereditary superset", [(_HEREDITARY, _saturated_closure_minimal)], None),
    ("simple_iff_trivial_hereditary", "graph simple iff hereditary family is {empty, all}", [(_ONCE, _simple_iff_trivial_hereditary)], None),
]


def _algebra_summary(algebra):
    return {
        "dim": algebra.n,
        "field": algebra.field.json_descriptor(),
        "perfect": algebra.is_perfect(),
        "degenerate": algebra.is_degenerate(),
        "squares": linalg._row_strings(algebra.field, algebra._int_squares),
    }


def run_theorem_suite(
    algebra,
    trials=5,
    seed=0,
    enum_limit=DEFAULT_ENUM_LIMIT,
) -> PropertyReport:
    """Evaluate the full property registry on one algebra.

    Deterministic for a fixed (algebra, trials, seed): the sampled ideals, the
    sampled pairs and the witness selection all derive from one seeded stream.
    """
    ctx = _Ctx(algebra, trials, seed, enum_limit)
    summary = _algebra_summary(algebra)
    holds = {None: True, "non-degenerate": not summary["degenerate"],
             "perfect": summary["perfect"]}
    report = PropertyReport(
        algebra=summary,
        seed=seed,
        trials=trials,
        notices=list(ctx.notices),
    )
    for name, law, parts, hypothesis in _REGISTRY:
        res = PropertyResult(name=name, law=law)
        # Families are drawn even where the hypothesis fails: one seeded stream.
        for (instances, keys), predicate in parts:
            for args in instances(ctx):
                try:
                    ok = predicate(ctx, *args) if holds[hypothesis] else None
                except ValueError:  # a counterexample, such as a non-hereditary H(I)
                    ok = False
                res._tally(
                    ok, lambda: {key: _shown(algebra, x) for key, x in zip(keys, args)}
                )
        report.properties.append(res)
    return report


def _shown(algebra, x):
    """A witness argument as the report shows it."""
    if isinstance(x, frozenset):
        return _labels(algebra, x)
    if isinstance(x, Ideal):
        return linalg._row_strings(algebra.field, x.subspace._rows)
    if isinstance(x, list):
        return [_shown(algebra, item) for item in x]
    return x


class FuzzReport(Record):
    def __init__(self, count, seed, trials, properties=None, failures=None, notices=None):
        self.count, self.seed, self.trials = count, seed, trials
        self.properties = [] if properties is None else properties
        self.failures = [] if failures is None else failures
        self.notices = [] if notices is None else notices

    @property
    def ok(self):
        return all(p.failed == 0 for p in self.properties)

    def to_json(self):
        return {
            "count": self.count,
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "notices": list(self.notices),
            "failures": list(self.failures),
            "properties": [p.to_json() for p in self.properties],
        }


def run_fuzz(
    count=100,
    min_dim=2,
    max_dim=6,
    trials=3,
    seed=0,
    fields=("Q", 2, 3, 5),
    densities=(0.35, 0.55, 0.75, 0.95),
    enum_limit=DEFAULT_ENUM_LIMIT,
) -> FuzzReport:
    """Run the suite over a seeded random corpus and merge the results;
    ``enum_limit`` bounds each algebra's hereditary enumeration."""
    from .fields import QQ, PrimeField

    merged = {
        name: PropertyResult(name=name, law=law) for name, law, _, _ in _REGISTRY
    }
    fuzz = FuzzReport(count=count, seed=seed, trials=trials)
    for k in range(count):
        token = fields[k % len(fields)]
        field = QQ if token == "Q" else PrimeField(token)
        spec = oracle.RandomSpec(
            field=field,
            min_dim=min_dim,
            max_dim=max_dim,
            density=densities[(k // len(fields)) % len(densities)],
            seed=seed * 1_000_003 + k,
        )
        algebra = oracle.random_algebra(spec)
        report = run_theorem_suite(
            algebra, trials=trials, seed=seed * 7_919 + k, enum_limit=enum_limit
        )
        for res in report.properties:
            agg = merged[res.name]
            agg.checked += res.checked
            agg.failed += res.failed
            agg.not_applicable += res.not_applicable
            if res.failed:
                fuzz.failures.append(
                    {"algebra_index": k, "property": res.name, "witness": res.witness}
                )
                if agg.witness is None:
                    agg.witness = {"algebra_index": k, **res.witness}
        for note in report.notices:
            fuzz.notices.append(f"algebra {k}: {note}")
    fuzz.properties = [merged[name] for name, *_ in _REGISTRY]
    return fuzz
