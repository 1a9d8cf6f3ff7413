"""Order-theoretic checks between hereditary sets and ideals.

The two maps H -> span of H's unit vectors and I -> vertices whose square lies
in I are monotone; restricted to hereditary-and-saturated sets on one side and
absorption ideals on the other they form a monotone Galois connection, and on
perfect finite-dimensional algebras the unrestricted pair already is one.

`run_theorem_suite` evaluates a registry of such statements on one algebra:
every law is checked on enumerated hereditary sets and on a seeded sample of
generated ideals, instances whose hypotheses fail are tallied as
not-applicable rather than passes, and the first counterexample (in a fixed
deterministic order) is kept as a witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from . import oracle
from .errors import EnumerationLimitError
from .graph import DEFAULT_ENUM_LIMIT, vertex_set_mask
from .ideals import (
    Ideal,
    _labels,
    _row_strings,
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


def check_adjunction(algebra, hereditary, ideal: Ideal, restricted=False):
    """One instance of the adjunction law: span(H) inside I iff H inside H_I.

    In restricted mode the hereditary set must be saturated and the ideal must
    absorb; there the law must always hold on non-degenerate algebras.
    """
    g = algebra.graph
    h = frozenset(hereditary)
    if not g.is_hereditary(h):
        raise ValueError("adjunction requires a hereditary set")
    if restricted:
        if not g.is_saturated(h):
            raise ValueError("restricted adjunction requires a saturated set")
        if not ideal.has_absorption():
            raise ValueError("restricted adjunction requires an absorption ideal")
    left = ideal.subspace.contains_subspace(
        ideal_from_hereditary(algebra, h).subspace
    )
    right = h <= ideal.hereditary_vertices
    return left == right


def check_lattice_identities(algebra, hereditary_families=(), ideal_families=()):
    """Verify the two family identities.

    For each family of hereditary sets whose union is hereditary: the span of
    the union equals the sum of the spans.  For each family of ideals: the
    hereditary set of the intersection equals the intersection of the
    hereditary sets.
    """
    for family in hereditary_families:
        family = [frozenset(h) for h in family]
        union = frozenset().union(*family) if family else frozenset()
        if not algebra.graph.is_hereditary(union):
            raise ValueError("union of the family is not hereditary")
        total = ideal_from_hereditary(algebra, union).subspace
        acc = ideal_from_hereditary(algebra, frozenset()).subspace
        for h in family:
            acc = acc.sum(ideal_from_hereditary(algebra, h).subspace)
        if acc != total:
            return False
    for family in ideal_families:
        family = list(family)
        if not family:
            continue
        meet = family[0].subspace
        expected = frozenset(family[0].hereditary_vertices)
        for ideal in family[1:]:
            meet = meet.intersect(ideal.subspace)
            expected &= ideal.hereditary_vertices
        meet_ideal = Ideal(algebra, meet, _validated=True)
        if meet_ideal.hereditary_vertices != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# property registry
# ---------------------------------------------------------------------------


@dataclass
class PropertyResult:
    name: str
    law: str
    checked: int = 0
    failed: int = 0
    not_applicable: int = 0
    witness: dict | None = None

    @property
    def status(self):
        if self.failed:
            return "fail"
        if self.checked:
            return "pass"
        return "not-applicable"

    def record(self, ok, witness=None):
        self.checked += 1
        if not ok:
            self.failed += 1
            if self.witness is None:
                self.witness = witness or {}

    def skip(self):
        self.not_applicable += 1

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


@dataclass
class PropertyReport:
    algebra: dict
    seed: int
    trials: int
    properties: list = dc_field(default_factory=list)
    notices: list = dc_field(default_factory=list)

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


def _coefficient_pool(field):
    if field.order is None:
        return [field.from_int(k) for k in (-2, -1, 0, 1, 2)]
    return [field.from_int(k) for k in range(field.order)]


class _Ctx:
    """Shared data for one suite run."""

    def __init__(self, algebra, trials, seed, enum_limit, max_pairs):
        self.A = algebra
        self.G = algebra.graph
        self.rng = random.Random(seed)
        self.max_pairs = max_pairs
        self.full_set = frozenset(range(algebra.n))
        self.notices = []
        try:
            self.hered = self.G.hereditary_sets(enum_limit)
        except EnumerationLimitError:
            self.hered = None
            self.notices.append(
                "hereditary enumeration exceeded the limit; "
                "enumeration-backed laws were skipped"
            )
        self.her_sat = [h for h in self.hered or [] if self.G.is_saturated(h)]
        self.maxher = self.G.maximal_hereditary_sets()
        self.ideals = self._sample_ideals(trials)

    def _sample_ideals(self, trials):
        A = self.A
        seen = {}

        def add(ideal):
            key = ideal.subspace
            if key not in seen:
                seen[key] = ideal

        add(ideal_from_hereditary(A, frozenset()))
        if self.hered is not None:
            hs = self.hered if len(self.hered) <= 12 else (
                list(self.maxher) + self.hered[:8] + [self.full_set]
            )
            for h in hs:
                add(ideal_from_hereditary(A, h))
        else:
            for h in self.maxher:
                add(ideal_from_hereditary(A, h))
        for i in range(min(A.n, 6)):
            add(ideal_closure(A, [A.unit(i)]))
        pool = _coefficient_pool(A.field)
        for _ in range(trials):
            gens = [
                [self.rng.choice(pool) for _ in range(A.n)]
                for _ in range(self.rng.randint(1, 3))
            ]
            add(ideal_closure(A, gens))
        return list(seen.values())

    def hered_pairs(self):
        hs = self.hered
        if hs is None:
            return []
        pairs = [(h1, h2) for i, h1 in enumerate(hs) for h2 in hs[i:]]
        if len(pairs) > self.max_pairs:
            pairs = self.rng.sample(pairs, self.max_pairs)
            pairs.sort(key=lambda p: (vertex_set_mask(p[0]), vertex_set_mask(p[1])))
        return pairs

    def ideal_pairs(self):
        ids = self.ideals
        pairs = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i, len(ids))]
        return pairs[: self.max_pairs]


# Each checker fills one PropertyResult from the shared context.

def _p_hereditary_lattice(ctx, res):
    for h1, h2 in ctx.hered_pairs():
        ok = ctx.G.is_hereditary(h1 & h2) and ctx.G.is_hereditary(h1 | h2)
        res.record(ok, {"H": _labels(ctx.A, h1), "H'": _labels(ctx.A, h2)})


def _p_span_of_intersection(ctx, res):
    A = ctx.A
    for h1, h2 in ctx.hered_pairs():
        lhs = ideal_from_hereditary(A, h1 & h2).subspace
        rhs = ideal_from_hereditary(A, h1).subspace.intersect(
            ideal_from_hereditary(A, h2).subspace
        )
        res.record(lhs == rhs, {"H": _labels(A, h1), "H'": _labels(A, h2)})


def _p_span_of_union(ctx, res):
    A = ctx.A
    for h1, h2 in ctx.hered_pairs():
        s1 = ideal_from_hereditary(A, h1).subspace
        s2 = ideal_from_hereditary(A, h2).subspace
        union = ideal_from_hereditary(A, h1 | h2).subspace
        ok = s1.sum(s2) == union
        if ok and not (h1 & h2):
            ok = union.dim == s1.dim + s2.dim
        res.record(ok, {"H": _labels(A, h1), "H'": _labels(A, h2)})


def _p_vertices_of_ideal_intersection(ctx, res):
    A = ctx.A
    for i1, i2 in ctx.ideal_pairs():
        meet = Ideal(A, i1.subspace.intersect(i2.subspace), _validated=True)
        ok = (
            meet.hereditary_vertices
            == i1.hereditary_vertices & i2.hereditary_vertices
        )
        res.record(
            ok,
            {
                "I": _row_strings(A, i1.subspace.basis),
                "J": _row_strings(A, i2.subspace.basis),
            },
        )


def _p_vertex_map_monotone(ctx, res):
    for i1, i2 in ctx.ideal_pairs():
        if not i2.subspace.contains_subspace(i1.subspace):
            if i1.subspace.contains_subspace(i2.subspace):
                i1, i2 = i2, i1
            else:
                res.skip()
                continue
        ok = i1.hereditary_vertices <= i2.hereditary_vertices
        res.record(
            ok,
            {
                "I": _row_strings(ctx.A, i1.subspace.basis),
                "J": _row_strings(ctx.A, i2.subspace.basis),
            },
        )


def _p_expansions(ctx, res):
    A = ctx.A
    for ideal in ctx.ideals:
        closure = ideal_from_hereditary(A, ideal.hereditary_vertices)
        res.record(
            closure.subspace.contains_subspace(ideal.subspace),
            {"I": _row_strings(A, ideal.subspace.basis)},
        )
    for h in ctx.hered or []:
        res.record(
            h <= ideal_from_hereditary(A, h).hereditary_vertices,
            {"H": _labels(A, h)},
        )


def _p_span_full_iff_all(ctx, res):
    A = ctx.A
    for h in ctx.hered or []:
        span = ideal_from_hereditary(A, h)
        res.record(
            span.subspace.is_full == (h == ctx.full_set),
            {"H": _labels(A, h)},
        )


def _p_closure_full_iff_squares_inside(ctx, res):
    A = ctx.A
    for ideal in ctx.ideals:
        closure = ideal_from_hereditary(A, ideal.hereditary_vertices)
        lhs = closure.subspace.is_full
        rhs = ideal.subspace.contains_subspace(A.square_span)
        res.record(lhs == rhs, {"I": _row_strings(A, ideal.subspace.basis)})


def _p_saturation_fixed_point(ctx, res):
    # Sinks land in H(span(H)) unconditionally, so on degenerate algebras the
    # fixed-point characterisation needs H to carry the annihilator vertices.
    A = ctx.A
    sinks = A.annihilator_vertices()
    for h in ctx.hered or []:
        back = ideal_from_hereditary(A, h).hereditary_vertices
        ok = (back == h) == (ctx.G.is_saturated(h) and sinks <= h)
        res.record(ok, {"H": _labels(A, h)})


def _p_vertex_trace_saturated(ctx, res):
    for ideal in ctx.ideals:
        h = ideal.hereditary_vertices
        if h != ideal.basis_vertices():
            res.skip()
            continue
        res.record(
            ctx.G.is_saturated(h), {"I": _row_strings(ctx.A, ideal.subspace.basis)}
        )


def _p_vertices_of_vertex_span(ctx, res):
    A = ctx.A
    for h in ctx.hered or []:
        res.record(
            ideal_from_hereditary(A, h).basis_vertices() == h,
            {"H": _labels(A, h)},
        )


def _p_absorption_iff_saturated(ctx, res):
    A = ctx.A
    if A.is_degenerate():
        for _ in ctx.hered or []:
            res.skip()
        return
    for h in ctx.hered or []:
        ok = ideal_from_hereditary(A, h).has_absorption() == ctx.G.is_saturated(h)
        res.record(ok, {"H": _labels(A, h)})


def _p_absorption_equivalences(ctx, res):
    A = ctx.A
    for ideal in ctx.ideals:
        a = ideal.has_absorption()
        b = ideal.hereditary_vertices == ideal.basis_vertices()
        c = ideal.subspace == ideal_from_hereditary(
            A, ideal.hereditary_vertices
        ).subspace
        res.record(a == b == c, {"I": _row_strings(A, ideal.subspace.basis)})


def _p_perfect_ideal_conclusions(ctx, res):
    A = ctx.A
    if not A.is_perfect():
        for _ in ctx.ideals:
            res.skip()
        return
    for ideal in ctx.ideals:
        closure = ideal_from_hereditary(A, ideal.hereditary_vertices)
        ok = (
            ideal.subspace == closure.subspace
            and ideal.has_absorption()
            and ideal.is_spanned_by_basis_vertices()
        )
        res.record(ok, {"I": _row_strings(A, ideal.subspace.basis)})


def _maximal_ideals_found(ctx):
    found = []
    seen = set()
    for h in ctx.maxher:
        ideal = ideal_from_hereditary(ctx.A, h)
        if ideal.is_proper and ideal.is_maximal():
            if ideal.subspace not in seen:
                seen.add(ideal.subspace)
                found.append(ideal)
    sq = ctx.A.square_span
    if ctx.A.n - sq.dim == 1:
        hyper = Ideal(ctx.A, sq, _validated=True)
        if hyper.subspace not in seen:
            seen.add(hyper.subspace)
            found.append(hyper)
    for ideal in ctx.ideals:
        if ideal.is_proper and ideal.is_maximal() and ideal.subspace not in seen:
            seen.add(ideal.subspace)
            found.append(ideal)
    return found


def _p_maximal_absorption(ctx, res):
    A = ctx.A
    for ideal in _maximal_ideals_found(ctx):
        hyperplane_over_squares = ideal.codim == 1 and ideal.subspace.contains_subspace(
            A.square_span
        )
        if hyperplane_over_squares:
            res.skip()
            continue
        res.record(ideal.has_absorption(), {"I": _row_strings(A, ideal.subspace.basis)})


def _p_cover_check(ctx, res):
    for ideal in _maximal_ideals_found(ctx):
        res.record(
            maximal_ideal_cover_check(ctx.A, ideal),
            {"I": _row_strings(ctx.A, ideal.subspace.basis)},
        )


def _p_strict_monotony(ctx, res):
    A = ctx.A
    for h1, h2 in ctx.hered_pairs():
        if h1 == h2:
            res.skip()
            continue
        small, large = (h1, h2) if h1 < h2 else (h2, h1)
        s1 = ideal_from_hereditary(A, small).subspace
        s2 = ideal_from_hereditary(A, large).subspace
        if small < large:
            ok = s2.contains_subspace(s1) and s1.dim < s2.dim
        else:  # incomparable: injectivity only
            ok = s1 != s2
        res.record(ok, {"H": _labels(A, h1), "H'": _labels(A, h2)})


def _p_adjunction_restricted(ctx, res):
    A = ctx.A
    absorbing = [i for i in ctx.ideals if i.has_absorption()]
    if A.is_degenerate():
        for _ in ctx.her_sat:
            for _ in absorbing:
                res.skip()
        return
    for h in ctx.her_sat:
        for ideal in absorbing:
            ok = check_adjunction(A, h, ideal, restricted=True)
            res.record(
                ok, {"H": _labels(A, h), "I": _row_strings(A, ideal.subspace.basis)}
            )


def _p_adjunction_full_perfect(ctx, res):
    A = ctx.A
    if not A.is_perfect():
        for _ in ctx.hered or []:
            res.skip()
        return
    for h in ctx.hered or []:
        for ideal in ctx.ideals:
            ok = check_adjunction(A, h, ideal, restricted=False)
            res.record(
                ok, {"H": _labels(A, h), "I": _row_strings(A, ideal.subspace.basis)}
            )


def _p_union_families(ctx, res):
    if not ctx.her_sat:
        return
    for _ in range(8):
        k = ctx.rng.randint(1, min(3, len(ctx.her_sat)))
        family = [ctx.rng.choice(ctx.her_sat) for _ in range(k)]
        union = frozenset().union(*family)
        if not ctx.G.is_saturated(union):
            res.skip()
            continue
        ok = check_lattice_identities(ctx.A, hereditary_families=[family])
        res.record(ok, {"family": [_labels(ctx.A, h) for h in family]})


def _p_intersection_families(ctx, res):
    absorbing = [i for i in ctx.ideals if i.has_absorption()]
    if not absorbing:
        return
    for _ in range(8):
        k = ctx.rng.randint(1, min(3, len(absorbing)))
        family = [ctx.rng.choice(absorbing) for _ in range(k)]
        ok = check_lattice_identities(ctx.A, ideal_families=[family])
        res.record(
            ok, {"family": [_row_strings(ctx.A, i.subspace.basis) for i in family]}
        )


def _p_quotient_hereditary(ctx, res):
    for h1, h2 in ctx.hered_pairs():
        if not h1 <= h2:
            res.skip()
            continue
        quotient = ctx.G.quotient(h1)
        keep = [v for v in range(ctx.A.n) if v not in h1]
        renum = {v: i for i, v in enumerate(keep)}
        image = frozenset(renum[v] for v in h2 - h1)
        res.record(
            quotient.is_hereditary(image),
            {"H": _labels(ctx.A, h1), "H'": _labels(ctx.A, h2)},
        )


def _p_maximal_iff_quotient_simple(ctx, res):
    maxset = set(ctx.maxher)
    for h in ctx.hered or []:
        if h == ctx.full_set:
            res.skip()
            continue
        ok = (h in maxset) == ctx.G.quotient(h).is_simple()
        res.record(ok, {"H": _labels(ctx.A, h)})


def _p_quotient_algebra_graph(ctx, res):
    for h in ctx.hered or []:
        if h == ctx.full_set:
            res.skip()
            continue
        res.record(
            ctx.A.quotient_by_hereditary(h).graph == ctx.G.quotient(h),
            {"H": _labels(ctx.A, h)},
        )


def _p_simplicity(ctx, res):
    A = ctx.A
    if not A.is_perfect():
        res.skip()
        return
    candidates = list(ctx.ideals) + [
        ideal_from_hereditary(A, h) for h in (ctx.hered or ctx.maxher)
    ]
    witness = next(
        (i for i in candidates if i.is_proper and not i.is_zero), None
    )
    ok = ctx.G.is_simple() == (witness is None)
    res.record(
        ok,
        {
            "proper_nonzero_ideal": (
                _row_strings(A, witness.subspace.basis) if witness else None
            )
        },
    )


def _p_tree_closure(ctx, res):
    G = ctx.G
    sets = [frozenset(), ctx.full_set]
    for _ in range(6):
        k = ctx.rng.randint(0, ctx.A.n)
        sets.append(frozenset(ctx.rng.sample(range(ctx.A.n), k)))
    for s in sets:
        t = G.tree(s)
        extra = ctx.rng.randint(0, ctx.A.n)
        bigger = s | frozenset(ctx.rng.sample(range(ctx.A.n), extra))
        ok = (
            s <= t
            and G.tree(t) == t
            and G.is_hereditary(t)
            and t <= G.tree(bigger)
        )
        res.record(ok, {"S": _labels(ctx.A, s)})
    for h in ctx.hered or []:
        res.record(G.tree(h) == h, {"H": _labels(ctx.A, h)})


def _p_maximal_agrees_with_enum(ctx, res):
    hs = ctx.hered
    if hs is None or len(hs) > 512:
        res.skip()
        return
    proper = [h for h in hs if h != ctx.full_set]
    maxima = [
        h
        for h in proper
        if not any(h < h2 for h2 in proper if h2 != h)
    ]
    maxima.sort(key=vertex_set_mask)
    res.record(
        maxima == list(ctx.maxher),
        {"expected": [_labels(ctx.A, h) for h in maxima]},
    )


def _p_saturated_closure_minimal(ctx, res):
    G = ctx.G
    for h in ctx.hered or []:
        c = G.saturated_closure(h)
        ok = (
            G.is_hereditary(c)
            and G.is_saturated(c)
            and h <= c
            and G.saturated_closure(c) == c
            and not any(h <= s < c for s in ctx.her_sat)
        )
        res.record(ok, {"H": _labels(ctx.A, h)})


def _p_simple_iff_trivial_hereditary(ctx, res):
    hs = ctx.hered
    if hs is None:
        res.skip()
        return
    trivial = [frozenset(), ctx.full_set] if ctx.A.n else [frozenset()]
    expected = sorted(set(trivial), key=vertex_set_mask)
    res.record(ctx.G.is_simple() == (hs == expected), {})


def _p_spanning_path(ctx, res):
    if ctx.A.n < 2:
        res.skip()
        return
    res.record(ctx.G.is_simple() == ctx.G.has_spanning_closed_path(), {})


_REGISTRY = [
    ("hereditary_lattice", "H and H' hereditary => H&H', H|H' hereditary", _p_hereditary_lattice),
    ("span_of_intersection", "span(H & H') = span(H) & span(H')", _p_span_of_intersection),
    ("span_of_union", "span(H | H') = span(H) + span(H'), direct when disjoint", _p_span_of_union),
    ("vertices_of_ideal_intersection", "H(I & J) = H(I) & H(J)", _p_vertices_of_ideal_intersection),
    ("vertex_map_monotone", "I <= J implies H(I) <= H(J)", _p_vertex_map_monotone),
    ("galois_expansions", "I <= span(H(I)) and H <= H(span(H))", _p_expansions),
    ("span_full_iff_all_vertices", "span(H) = A iff H = all vertices", _p_span_full_iff_all),
    ("closure_full_iff_squares_inside", "span(H(I)) = A iff square span <= I", _p_closure_full_iff_squares_inside),
    ("saturation_fixed_point", "H(span(H)) = H iff H saturated and H carries all annihilator vertices", _p_saturation_fixed_point),
    ("vertex_trace_saturated", "H(I) = I&B implies H(I) saturated", _p_vertex_trace_saturated),
    ("vertices_of_vertex_span", "H = span(H) & B", _p_vertices_of_vertex_span),
    ("absorption_iff_saturated", "non-degenerate: span(H) absorbs iff H saturated", _p_absorption_iff_saturated),
    ("absorption_equivalences", "I absorbs iff H(I) = I&B iff I = span(H(I))", _p_absorption_equivalences),
    ("perfect_ideal_conclusions", "perfect: I = span(H(I)), absorbs, basis-vertex span", _p_perfect_ideal_conclusions),
    ("maximal_absorption", "maximal I, not a hyperplane over the square span, absorbs", _p_maximal_absorption),
    ("maximal_cover_check", "maximal I: tree(e) | H(I) covers B for e outside I", _p_cover_check),
    ("vertex_span_strictly_monotone", "H < H' implies span(H) < span(H'); distinct H give distinct spans", _p_strict_monotony),
    ("adjunction_restricted", "saturated H, absorbing I: span(H) <= I iff H <= H(I)", _p_adjunction_restricted),
    ("adjunction_full_perfect", "perfect: span(H) <= I iff H <= H(I), unrestricted", _p_adjunction_full_perfect),
    ("union_family_identity", "span(union H_i) = sum span(H_i)", _p_union_families),
    ("intersection_family_identity", "H(meet I_i) = meet H(I_i)", _p_intersection_families),
    ("quotient_preserves_hereditary", "H <= H' hereditary: H'-H hereditary in E/H", _p_quotient_hereditary),
    ("maximal_iff_quotient_simple", "H maximal iff E/H simple", _p_maximal_iff_quotient_simple),
    ("quotient_algebra_graph", "graph of A/span(H) equals E/H", _p_quotient_algebra_graph),
    ("simplicity_equivalence", "perfect: graph simple iff no proper nonzero ideal", _p_simplicity),
    ("tree_closure_operator", "tree is extensive, idempotent, monotone, hereditary-valued", _p_tree_closure),
    ("maximal_agrees_with_enumeration", "maximal sets = maxima of the enumerated family", _p_maximal_agrees_with_enum),
    ("saturated_closure_minimal", "saturated closure is the least saturated hereditary superset", _p_saturated_closure_minimal),
    ("simple_iff_trivial_hereditary", "graph simple iff hereditary family is {empty, all}", _p_simple_iff_trivial_hereditary),
    ("spanning_closed_path", "n >= 2: simple iff a closed path spans the graph", _p_spanning_path),
]


def _algebra_summary(algebra):
    return {
        "dim": algebra.n,
        "field": algebra.field.json_descriptor(),
        "perfect": algebra.is_perfect(),
        "degenerate": algebra.is_degenerate(),
        "squares": _row_strings(algebra, algebra.squares),
    }


def run_theorem_suite(
    algebra,
    trials=5,
    seed=0,
    enum_limit=DEFAULT_ENUM_LIMIT,
    max_pairs=400,
) -> PropertyReport:
    """Evaluate the full property registry on one algebra.

    Deterministic for a fixed (algebra, trials, seed): the sampled ideals, the
    sampled pairs and the witness selection all derive from one seeded stream.
    """
    ctx = _Ctx(algebra, trials, seed, enum_limit, max_pairs)
    report = PropertyReport(
        algebra=_algebra_summary(algebra),
        seed=seed,
        trials=trials,
        notices=list(ctx.notices),
    )
    for name, law, fn in _REGISTRY:
        res = PropertyResult(name=name, law=law)
        fn(ctx, res)
        report.properties.append(res)
    return report


@dataclass
class FuzzReport:
    count: int
    seed: int
    trials: int
    properties: list = dc_field(default_factory=list)
    failures: list = dc_field(default_factory=list)
    notices: list = dc_field(default_factory=list)

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
) -> FuzzReport:
    """Run the suite over a seeded random corpus and merge the results."""
    from .fields import QQ, PrimeField

    merged = {
        name: PropertyResult(name=name, law=law) for name, law, _ in _REGISTRY
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
            algebra, trials=trials, seed=seed * 7_919 + k
        )
        for res in report.properties:
            agg = merged[res.name]
            agg.checked += res.checked
            agg.failed += res.failed
            agg.not_applicable += res.not_applicable
            if res.witness is not None and agg.witness is None:
                agg.witness = {"algebra_index": k, **res.witness}
        for res in report.failed_properties():
            fuzz.failures.append(
                {"algebra_index": k, "property": res.name, "witness": res.witness}
            )
        for note in report.notices:
            fuzz.notices.append(f"algebra {k}: {note}")
    fuzz.properties = [merged[name] for name, _, _ in _REGISTRY]
    return fuzz
