import hashlib
import json
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from evoalg import GF2, QQ, EvolutionAlgebra, PrimeField, algebra_to_document
from evoalg import galois, ideals, linalg
from evoalg.cli import main
from evoalg.graph import DEFAULT_ENUM_LIMIT, vertex_set_mask
from evoalg.galois import (
    MAX_PAIRS,
    check_adjunction,
    check_lattice_identities,
    run_fuzz,
    run_theorem_suite,
)
from evoalg.ideals import ideal_closure, ideal_from_hereditary
from evoalg.oracle import certify_fast_vs_brute

from helpers import (
    LYING_PREDICATES,
    MUTANTS,
    disjoint_pairs,
    double_loop_pair,
    four_dim_degenerate_funnel,
    four_dim_non_maximal_span,
    six_dim_branching,
    three_dim_perfect,
    two_cycle,
    zero_algebra,
)


def test_adjunction_with_empty_set_holds():
    A = six_dim_branching()
    ideal = ideal_closure(A, [A.unit(2)])
    assert check_adjunction(A, frozenset(), ideal)


def test_adjunction_exhaustive_on_perfect_example():
    A = three_dim_perfect()
    hered = A.graph.hereditary_sets()
    ideals = [ideal_from_hereditary(A, h) for h in hered]
    ideals.append(ideal_closure(A, [[1, 1, 1]]))
    for h in hered:
        for ideal in ideals:
            assert check_adjunction(A, h, ideal)
            assert check_adjunction(A, h, ideal, restricted=True)


def test_adjunction_may_fail_without_absorption():
    # span(e1+e2) is an ideal whose hereditary set is everything, so the
    # right side holds for H = everything while the left side fails.
    A = double_loop_pair()
    ideal = ideal_closure(A, [[1, 1]])
    assert not ideal.has_absorption()
    assert not check_adjunction(A, frozenset({0, 1}), ideal)


def test_restricted_adjunction_validates_inputs():
    A = six_dim_branching()
    ideal = ideal_closure(A, [A.unit(2)])
    with pytest.raises(ValueError):
        check_adjunction(A, frozenset({0}), ideal)  # not hereditary
    with pytest.raises(ValueError):
        # hereditary but not saturated
        check_adjunction(A, frozenset({1, 2, 3, 4, 5}), ideal, restricted=True)
    with pytest.raises(ValueError):
        # saturated set, but the ideal does not absorb
        check_adjunction(A, frozenset(), ideal, restricted=True)


def test_lattice_identities_trivial_family():
    A = three_dim_perfect()
    assert check_lattice_identities(A, hereditary_families=[[frozenset()]])


def test_lattice_identities_disjoint_union():
    A = EvolutionAlgebra(QQ, [[1, 0], [0, 1]])  # two independent loops
    g = A.graph
    h1, h2 = frozenset({0}), frozenset({1})
    assert g.is_saturated(h1) and g.is_saturated(h2)
    assert check_lattice_identities(A, hereditary_families=[[h1, h2]])
    s = ideal_from_hereditary(A, h1 | h2)
    assert s.dim == 2


def test_lattice_identities_all_absorbing_ideals_of_perfect_example():
    A = three_dim_perfect()
    ideals = [
        ideal_from_hereditary(A, h) for h in A.graph.hereditary_sets()
    ]
    assert all(i.has_absorption() for i in ideals)
    assert check_lattice_identities(A, ideal_families=[ideals])


def test_lattice_identities_rejects_non_hereditary_union():
    A = six_dim_branching()
    with pytest.raises(ValueError):
        check_lattice_identities(A, hereditary_families=[[frozenset({0})]])


def test_laws_refuse_an_ideal_of_another_algebra():
    # e1^2 = e2, e2^2 = e3, e3^2 = 0 against the zero algebra of the same
    # size: span(e1) is an ideal of the second only, and answering about the
    # first gave a spurious law failure.
    A = EvolutionAlgebra(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    foreign = ideal_from_hereditary(zero_algebra(3), {0})
    with pytest.raises(ValueError, match="another algebra"):
        check_lattice_identities(A, ideal_families=[(foreign,)])
    with pytest.raises(ValueError, match="another algebra"):
        check_lattice_identities(A, ideal_families=[(ideal_from_hereditary(A, {2}), foreign)])
    with pytest.raises(ValueError, match="another algebra"):
        check_adjunction(A, frozenset(), foreign)
    # An equal algebra built separately is the same algebra.
    twin = EvolutionAlgebra(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    own = ideal_from_hereditary(twin, {1, 2})
    assert check_lattice_identities(A, ideal_families=[(own, ideal_from_hereditary(A, {2}))])
    assert check_adjunction(A, frozenset({2}), own)


def test_suite_meets_decided_by_their_operands_skip_the_elimination(monkeypatch):
    # Most suite meets have one operand inside the other, which is returned
    # with no nullspace solved; the report stays as it was.
    calls = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda *args: calls.append(args) or nullspace(*args))
    report = run_theorem_suite(six_dim_branching(), trials=5, seed=0).to_json()
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f39fbdd1559a0092ae30626ebc341fd6a88b7c20e0d86ba8758e28c9c8c2dbc3"
    )
    assert len(calls) <= 150  # 346 when every meet is eliminated


def test_suite_on_perfect_example():
    A = three_dim_perfect()
    report = run_theorem_suite(A, trials=100, seed=5)
    assert report.ok
    by_name = {p.name: p for p in report.properties}
    assert by_name["simplicity_equivalence"].checked == 1
    assert by_name["perfect_ideal_conclusions"].checked > 0
    assert by_name["adjunction_full_perfect"].checked > 0
    assert not A.graph.is_simple()


def test_suite_on_two_cycle_is_simple():
    A = two_cycle()
    report = run_theorem_suite(A, trials=30, seed=2)
    assert report.ok
    assert A.graph.is_simple()


def test_suite_on_branching_example_exercises_degenerate_paths():
    A = six_dim_branching()
    report = run_theorem_suite(A, trials=100, seed=9)
    assert report.ok
    by_name = {p.name: p for p in report.properties}
    # degenerate algebra: the non-degenerate-only laws must be skipped
    assert by_name["absorption_iff_saturated"].checked == 0
    assert by_name["absorption_iff_saturated"].not_applicable > 0
    assert by_name["adjunction_restricted"].checked == 0
    assert by_name["perfect_ideal_conclusions"].checked == 0
    assert by_name["absorption_equivalences"].checked > 0
    # Neither non-degenerate nor perfect: every instance of the five laws
    # with an algebra hypothesis is not applicable, and none is checked.
    ctx = galois._Ctx(A, 100, 9, DEFAULT_ENUM_LIMIT)
    sizes = {
        "absorption_iff_saturated": len(ctx.hered),
        "adjunction_restricted": len(ctx.her_sat) * len(ctx.absorbing),
        "adjunction_full_perfect": len(ctx.hered),
        "perfect_ideal_conclusions": len(ctx.ideals),
        "simplicity_equivalence": 1,
    }
    assert min(sizes.values()) > 0
    assert {name: (by_name[name].checked, by_name[name].not_applicable) for name in sizes} == {
        name: (0, size) for name, size in sizes.items()
    }


def test_suite_is_deterministic():
    A = six_dim_branching()
    r1 = run_theorem_suite(A, trials=7, seed=123)
    r2 = run_theorem_suite(A, trials=7, seed=123)
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
    r3 = run_theorem_suite(A, trials=7, seed=124)
    assert json.dumps(r1.to_json()) != json.dumps(r3.to_json())


@pytest.mark.parametrize(
    "field, quotient_split, digest",
    [
        (QQ, (158, 242), "ca362226127da5bd85b309e6f77e3745ae87cf5fe6acde4b48f7e7689e4d2a84"),
        (GF2, (154, 246), "ff2ab8cbf4d5ed481fbc6e46e01af538259193dc030458b244de4e4407086b73"),
    ],
)
def test_suite_samples_hereditary_pairs_past_the_cap(field, quotient_split, digest):
    # The zero algebra on 6 vertices has 64 hereditary sets and 2,080 pairs,
    # so each hereditary pair law checks a seeded sample of 400 of them.
    report = run_theorem_suite(zero_algebra(6, field)).to_json()
    counts = {p["name"]: (p["checked"], p["not_applicable"]) for p in report["properties"]}
    pair_laws = (
        "hereditary_lattice",
        "span_of_intersection",
        "span_of_union",
        "vertex_span_strictly_monotone",
        "quotient_preserves_hereditary",
    )
    assert [counts[name] for name in pair_laws] == [
        (400, 0),
        (400, 0),
        (400, 0),
        (385, 15),
        quotient_split,
    ]
    assert report["ok"]
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_suite_enumeration_overflow_is_reported_not_fatal():
    A = EvolutionAlgebra(QQ, [[0] * 12 for _ in range(12)])
    report = run_theorem_suite(A, trials=2, seed=0, enum_limit=100)
    assert report.notices
    assert report.ok


def test_saturated_laws_run_past_the_hereditary_limit():
    # 243 hereditary sets pass the limit; the 32 saturated ones do not.
    report = run_theorem_suite(disjoint_pairs(5), enum_limit=100)
    by_name = {p.name: p for p in report.properties}
    assert by_name["union_family_identity"].checked == 8
    assert report.notices == [
        "hereditary enumeration exceeded the limit; enumeration-backed laws were skipped"
    ]
    assert report.ok


def test_saturated_enumeration_overflow_is_noticed():
    report = run_theorem_suite(zero_algebra(12), trials=2, enum_limit=100)
    assert report.notices == [
        "hereditary enumeration exceeded the limit; enumeration-backed laws were skipped",
        "hereditary saturated enumeration exceeded the limit; "
        "laws over saturated sets were skipped",
    ]
    assert report.ok


def test_fuzz_merges_and_is_deterministic():
    r1 = run_fuzz(count=12, seed=42)
    r2 = run_fuzz(count=12, seed=42)
    assert r1.ok
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
    total_checked = sum(p.checked for p in r1.properties)
    assert total_checked > 100


def test_fuzz_mixed_fields_cover_degenerate_and_perfect():
    report = run_fuzz(count=24, seed=7)
    by_name = {p.name: p for p in report.properties}
    assert by_name["perfect_ideal_conclusions"].checked > 0
    assert by_name["absorption_iff_saturated"].not_applicable > 0


@pytest.fixture
def lying_predicates(monkeypatch):
    for cls, name, broken in LYING_PREDICATES.values():
        monkeypatch.setattr(cls, name, broken(getattr(cls, name)))


def test_failure_witnesses_are_pinned(lying_predicates):
    # Hereditary-set, hereditary-pair, ideal and ideal-pair laws fail here;
    # each keeps its first counterexample in suite order.  No maximal-ideal
    # law fails: H(I) takes the column support of I without a membership
    # test, so the lie about the zero square of the sink e4 never reaches
    # the cover check of a maximal ideal holding e4.
    report = run_theorem_suite(four_dim_degenerate_funnel(), trials=2, seed=0)
    failing = {
        p.name: (p.checked, p.failed, p.not_applicable, p.witness)
        for p in report.properties
        if p.failed
    }
    e1, e2, e3, e4 = (["1", "0", "0", "0"], ["0", "1", "0", "0"],
                      ["0", "0", "1", "0"], ["0", "0", "0", "1"])
    assert failing == {
        "vertices_of_ideal_intersection": (
            78, 4, 0, {"I": [e4], "J": [["1", "0", "0", "4/3"], ["0", "1", "0", "-1/3"], e3]}
        ),
        "galois_expansions": (22, 6, 0, {"I": [e3, e4]}),
        "closure_full_iff_squares_inside": (12, 5, 0, {"I": [e3]}),
        "saturation_fixed_point": (10, 7, 0, {"H": []}),
        "vertex_trace_saturated": (4, 4, 8, {"I": []}),
        "absorption_equivalences": (12, 2, 0, {"I": []}),
        "vertex_span_strictly_monotone": (45, 8, 10, {"H": ["e3"], "H'": ["e1", "e2", "e3", "e4"]}),
        "saturated_closure_minimal": (10, 10, 0, {"H": []}),
    }


def test_fuzz_failures_are_pinned(lying_predicates):
    # Dense squares have no zero vertex, so the lying membership test keeps
    # every hereditary vertex set hereditary and the corpus runs through.
    report = run_fuzz(count=3, seed=0, max_dim=3, densities=(0.95,))
    full3 = {"I": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    full2 = {"I": [["1", "0"], ["0", "1"]]}
    empty_h, empty_i = {"H": []}, {"I": []}
    expected = [
        (0, "galois_expansions", full3),
        (0, "closure_full_iff_squares_inside", full3),
        (0, "saturation_fixed_point", empty_h),
        (0, "vertex_trace_saturated", empty_i),
        (0, "absorption_iff_saturated", empty_h),
        (0, "adjunction_full_perfect", {"H": ["e1", "e2", "e3"], **full3}),
        (0, "saturated_closure_minimal", empty_h),
    ]
    for k in (1, 2):
        expected += [
            (k, "galois_expansions", full2),
            (k, "closure_full_iff_squares_inside", full2),
            (k, "saturation_fixed_point", empty_h),
            (k, "vertex_trace_saturated", empty_i),
            (k, "absorption_iff_saturated", empty_h),
            (k, "saturated_closure_minimal", empty_h),
        ]
    assert report.failures == [
        {"algebra_index": k, "property": name, "witness": witness}
        for k, name, witness in expected
    ]


_PASS = {
    "vertex_map_monotone": (3, 0, 0, None),
    "adjunction_restricted": (4, 0, 0, None),
    "adjunction_full_perfect": (4, 0, 0, None),
    "union_family_identity": (8, 0, 0, None),
    "intersection_family_identity": (8, 0, 0, None),
    "simplicity_equivalence": (1, 0, 0, None),
    "maximal_agrees_with_enumeration": (1, 0, 0, None),
    "simple_iff_trivial_hereditary": (1, 0, 0, None),
}
_FULL2 = [["1", "0"], ["0", "1"]]


@pytest.mark.parametrize(
    "mutant, failing",
    [
        ("negated_is_simple", {
            "simplicity_equivalence": (1, 1, 0, {"proper_nonzero_ideal": None}),
            "simple_iff_trivial_hereditary": (1, 1, 0, {}),
        }),
        ("maximal_sets_without_last", {
            "maximal_agrees_with_enumeration": (1, 1, 0, {"expected": [[]]}),
        }),
        ("sum_returns_self", {
            "union_family_identity": (8, 5, 0, {"family": [[], ["e1", "e2"]]}),
        }),
        ("intersect_returns_self", {
            "intersection_family_identity": (8, 1, 0, {"family": [_FULL2, []]}),
        }),
        ("vertices_outside_the_ideal", {
            "vertex_map_monotone": (3, 1, 0, {"I": [], "J": _FULL2}),
            "adjunction_restricted": (4, 2, 0, {"H": ["e1", "e2"], "I": []}),
            "adjunction_full_perfect": (4, 2, 0, {"H": ["e1", "e2"], "I": []}),
            "intersection_family_identity": (8, 3, 0, {"family": [[], _FULL2]}),
        }),
    ],
)
def test_cross_and_verdict_laws_catch_mutants(monkeypatch, mutant, failing):
    # The laws over cross products, drawn families and per-algebra verdicts
    # each fail under at least one of these broken building blocks; counts
    # and first witnesses are pinned.
    cls, name, broken = MUTANTS[mutant]
    monkeypatch.setattr(cls, name, broken(getattr(cls, name)))
    report = run_theorem_suite(two_cycle(), trials=2, seed=0)
    got = {
        p.name: (p.checked, p.failed, p.not_applicable, p.witness)
        for p in report.properties
        if p.name in _PASS
    }
    assert got == {**_PASS, **failing}


def test_a_flipped_quotient_rank_is_caught(monkeypatch):
    # Answering the opposite of "A/span(B) is perfect" calls the vertex span
    # of a maximal hereditary set B maximal exactly when it is not: span(e1,
    # e2) of the non-maximal span algebra joins the maximal ideals, and the
    # zero ideal of the simple two-cycle (B empty) leaves them.  The suite's
    # two maximal-ideal laws hold for the vertex span of every maximal
    # hereditary set, so only their counts move; the oracle's comparison
    # with the brute-force maximal ideals fails on both algebras over F2.
    def maximal_laws(A):
        report = run_theorem_suite(A, trials=2, seed=0)
        laws = ("maximal_absorption", "maximal_cover_check")
        return [(p.checked, p.failed) for p in report.properties if p.name in laws]

    algebras = (four_dim_non_maximal_span(), two_cycle())
    assert [maximal_laws(A) for A in algebras] == [[(0, 0), (1, 0)], [(1, 0), (1, 0)]]
    rank_test = ideals._quotient_is_perfect
    monkeypatch.setattr(ideals, "_quotient_is_perfect", lambda A, b: not rank_test(A, b))
    assert [maximal_laws(A) for A in algebras] == [[(1, 0), (2, 0)], [(0, 0), (0, 0)]]
    non_maximal_span = [[1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1], [1, 0, 1, 1]]
    for A in (EvolutionAlgebra(GF2, non_maximal_span), two_cycle(GF2)):
        assert certify_fast_vs_brute(A)["mismatches"] == [
            "is_maximal mismatch",
            "maximal_ideals_report is complete but lists other ideals",
        ]


def test_trace_that_is_not_hereditary_fails_its_law(monkeypatch, tmp_path, capsys):
    # Under this mutant H(I) need not be hereditary, so it has no vertex
    # span: the laws built on span(H(I)) fail with I as the witness, and the
    # suite and ``evoalg verify`` report that instead of aborting.
    cls, name, broken = MUTANTS["vertices_outside_the_ideal"]
    monkeypatch.setattr(cls, name, broken(getattr(cls, name)))
    A = three_dim_perfect()
    report = run_theorem_suite(A, trials=2, seed=0)
    failed = {p.name: (p.checked, p.failed, p.witness) for p in report.failed_properties()}
    for law in ("closure_full_iff_squares_inside", "absorption_equivalences", "perfect_ideal_conclusions"):
        assert failed[law] == (4, 4, {"I": []}), law
    assert failed["galois_expansions"] == (8, 6, {"I": [["0", "1", "0"]]})
    path = tmp_path / "perfect.json"
    path.write_text(json.dumps(algebra_to_document(A)))
    code = main(["verify", str(path), "--trials", "2", "--seed", "0"])
    out, err = capsys.readouterr()
    assert code == 1 and "result: FAILED" in out and err == ""


def test_value_error_in_a_predicate_is_a_counterexample(monkeypatch):
    # The hereditary sets of three_dim_perfect are {}, {e2}, {e2,e3} and all
    # three; the first that raises is kept as the witness.
    def refuse_nonempty(ctx, h):
        if h:
            raise ValueError("refused")
        return True

    law = ("refuse_nonempty", "law", [(galois._HEREDITARY, refuse_nonempty)], None)
    monkeypatch.setattr(galois, "_REGISTRY", [law])
    (res,) = run_theorem_suite(three_dim_perfect()).properties
    assert (res.checked, res.failed, res.witness) == (4, 3, {"H": ["e2"]})


def test_suite_span_memo_raises_off_hereditary_sets():
    ctx = galois._Ctx(three_dim_perfect(), 0, 0, DEFAULT_ENUM_LIMIT)
    assert ctx.span(frozenset({1})) is ctx.span(frozenset({1}))
    for _ in range(2):  # a refusal is not remembered
        with pytest.raises(ValueError):
            ctx.span(frozenset({0}))


def test_witness_arguments_are_shown_by_type():
    A = three_dim_perfect()
    ideal = ideal_from_hereditary(A, {1})
    assert galois._shown(A, frozenset({2, 1})) == ["e2", "e3"]
    assert galois._shown(A, ideal) == [["0", "1", "0"]]
    assert galois._shown(A, [frozenset(), ideal]) == [[], [["0", "1", "0"]]]
    assert galois._shown(A, None) is None


def _reference_hereditary_pairs(hs, rng):
    """Every pair (hs[i], hs[j]) with i <= j; past MAX_PAIRS a sample of the
    list, sorted by the masks of the pair."""
    pairs = [(h1, h2) for i, h1 in enumerate(hs) for h2 in hs[i:]]
    if len(pairs) > MAX_PAIRS:
        pairs = rng.sample(pairs, MAX_PAIRS)
        pairs.sort(key=lambda p: (vertex_set_mask(p[0]), vertex_set_mask(p[1])))
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_hereditary_pairs_match_the_sampled_pair_list(seed):
    instances = galois._HEREDITARY_PAIRS[0]
    masks = random.Random(seed)
    for size in range(41):
        hs = [
            frozenset(v for v in range(8) if m >> v & 1)
            for m in sorted(masks.sample(range(256), size))
        ]
        expected_rng, rng = random.Random(seed), random.Random(seed)
        expected = _reference_hereditary_pairs(hs, expected_rng)
        assert list(instances(SimpleNamespace(hered=hs, rng=rng))) == expected, size
        assert rng.getstate() == expected_rng.getstate(), size


def test_suite_memory_does_not_follow_the_pair_count():
    # 1,024 hereditary sets make 524,800 pairs, of which each pair law
    # checks 400.
    tracemalloc.start()
    try:
        run_theorem_suite(zero_algebra(10), trials=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_coefficients_are_drawn_without_listing_the_field():
    # The suite's sampled generators and the fuzz corpus both draw from
    # F_1000003; a list of its elements alone would take tens of MiB.
    runs = (
        lambda: run_theorem_suite(EvolutionAlgebra(PrimeField(1000003), [[1, 2], [0, 3]])),
        lambda: run_fuzz(count=1, min_dim=2, max_dim=2, fields=(1000003,)),
    )
    for run in runs:
        tracemalloc.start()
        try:
            assert run().ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_suite_context_walks_the_hereditary_family_once():
    # All 4,096 hereditary sets of zero_algebra(12) are saturated; the
    # saturated list shares the enumerated frozensets instead of copies.
    tracemalloc.start()
    try:
        ctx = galois._Ctx(zero_algebra(12), 0, 0, DEFAULT_ENUM_LIMIT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20
    assert len(ctx.her_sat) == 4096
    assert all(s is h for s, h in zip(ctx.her_sat, ctx.hered))


def test_lattice_identities_skip_an_empty_ideal_family_and_catch_a_broken_sum(monkeypatch):
    A = EvolutionAlgebra(QQ, [[1, 0], [0, 1]])  # two independent loops
    assert check_lattice_identities(A, ideal_families=[[]])
    owner, name, breaker = MUTANTS["sum_returns_self"]
    monkeypatch.setattr(owner, name, breaker(getattr(owner, name)))
    # span{e1} + span{e2} now reads as the zero subspace, not the whole span.
    assert not check_lattice_identities(A, hereditary_families=[[{0}, {1}]])
