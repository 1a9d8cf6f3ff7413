"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines and
timings on the terminal.
"""

import json
import random
import time

from evoalg import GF2, QQ, rref
from evoalg.cli import main, simplicity_verdicts
from evoalg.documents import algebra_to_document
from evoalg.galois import run_fuzz
from evoalg.ideals import (
    CRITERION_HYPERPLANE,
    CRITERION_MAX_HEREDITARY,
    Ideal,
    ideal_closure,
    ideal_from_hereditary,
    maximal_ideals_report,
)
from evoalg.oracle import (
    RandomSpec,
    certify_fast_vs_brute,
    enumerate_subspaces,
    random_algebra,
    random_perfect_algebra,
    random_perfect_strongly_connected,
    random_with_sinks,
)

from helpers import (
    double_loop_plus_fixed,
    four_dim_degenerate_funnel,
    four_dim_non_maximal_span,
    mirror_pair,
    six_dim_branching,
    three_dim_collapsing,
    three_dim_perfect,
)


def _verdict(number, label, start, violations, budget=None):
    elapsed = time.perf_counter() - start
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {status} ({elapsed:.2f}s)")
    assert not violations, violations[:5]
    if budget is not None:
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"


def test_acceptance_1_six_dim_branching_example():
    start = time.perf_counter()
    bad = []
    A = six_dim_branching()

    maximal = A.graph.maximal_hereditary_sets()
    if maximal != [frozenset({0, 1, 3, 4, 5}), frozenset({1, 2, 3, 4, 5})]:
        bad.append(f"maximal hereditary sets: {maximal}")

    expected_span = rref(QQ, 6, [A.unit(1), [0, 0, 0, 1, 1, 0], A.unit(5)])
    if A.square_span.dim != 3 or A.square_span != expected_span:
        bad.append("square span does not reduce to {e2, e4+e5, e6}")

    report = maximal_ideals_report(A)
    entries = report["from_maximal_hereditary"]
    if not (
        len(entries) == 2
        and all(
            e["maximal"] and e["criterion"] == CRITERION_HYPERPLANE
            for e in entries
        )
    ):
        bad.append(f"vertex-span maximality tags wrong: {entries}")
    if report["hyperplane_family"]["kind"] != "infinite":
        bad.append("hyperplane family not flagged infinite")

    _verdict(1, "six-dim branching example", start, bad, budget=1.0)


def test_acceptance_2_three_dim_perfect_example():
    start = time.perf_counter()
    bad = []
    A = three_dim_perfect()

    report = maximal_ideals_report(A)
    entries = report["from_maximal_hereditary"]
    if not (
        report["hyperplane_family"]["kind"] == "none"
        and report["complete"]
        and entries
        == [
            {
                "vertices": ["e2", "e3"],
                "dim": 2,
                "maximal": True,
                "criterion": CRITERION_MAX_HEREDITARY,
            }
        ]
    ):
        bad.append(f"maximal ideal report wrong: {report}")

    quotient = A.quotient_by_hereditary({1, 2})
    if quotient.n != 1 or quotient.graph.edges != ((0, 0),):
        bad.append("quotient is not one vertex with one loop")

    verdicts = simplicity_verdicts(A)
    if verdicts["graph_simple"] or verdicts["proper_nonzero_ideal_found"] is not True:
        bad.append(f"simplicity verdicts wrong: {verdicts}")

    rng = random.Random(20240802)
    for trial in range(200):
        gens = [
            [rng.randint(-2, 2) for _ in range(3)]
            for _ in range(rng.randint(1, 3))
        ]
        ideal = ideal_closure(A, gens)
        closure = ideal_from_hereditary(A, ideal.hereditary_vertices)
        if not (
            ideal.subspace == closure.subspace
            and ideal.has_absorption()
            and ideal.is_spanned_by_basis_vertices()
        ):
            bad.append(f"generated ideal {trial} violates the perfect-case laws")
            break

    _verdict(2, "three-dim perfect example", start, bad, budget=1.0)


def test_acceptance_3_small_counterexamples():
    start = time.perf_counter()
    bad = []

    # (a) diagonal ideal with full hereditary set but strict closure
    A = mirror_pair()
    ideal = ideal_closure(A, [[1, 1]])
    closure = ideal_from_hereditary(A, ideal.hereditary_vertices)
    if not (
        ideal.hereditary_vertices == frozenset({0, 1})
        and closure.subspace.is_full
        and ideal.dim == 1
    ):
        bad.append("(a) diagonal ideal expansion wrong")

    # (b) maximal hereditary set whose span is not a maximal ideal
    B = four_dim_non_maximal_span()
    h = frozenset({0, 1})
    span = ideal_from_hereditary(B, h)
    witness = Ideal(B, rref(QQ, 4, [B.unit(0), B.unit(1), [0, 0, 1, 1]]))
    if not (
        B.graph.maximal_hereditary_sets() == [h]
        and not span.is_maximal()
        and witness.is_proper
        and witness.subspace.contains_subspace(span.subspace)
        and witness.subspace != span.subspace
    ):
        bad.append("(b) non-maximal vertex span story wrong")

    # (c) degenerate funnel: saturated hereditary set without absorption
    C = four_dim_degenerate_funnel()
    h = frozenset({0, 1, 2})
    span = ideal_from_hereditary(C, h)
    x = [1, 0, 0, 1]
    absorbs_everything = all(
        span.contains(C.product(x, C.unit(i))) for i in range(4)
    )
    if not (
        C.graph.is_saturated(h)
        and not span.has_absorption()
        and absorbs_everything
        and not span.contains(x)
    ):
        bad.append("(c) absorption counterexample wrong")

    # (d) hereditary vertices without basis-vertex trace
    D = double_loop_plus_fixed()
    ideal = ideal_closure(D, [[1, 1, 0]])
    if not (
        ideal.hereditary_vertices == frozenset({0, 1})
        and ideal.basis_vertices() == frozenset()
    ):
        bad.append("(d) basis-vertex trace wrong")

    # (e) two ideals sharing the hereditary vertex set
    E = three_dim_collapsing()
    I = ideal_closure(E, [[1, 1, 0]])
    J = ideal_closure(E, [E.unit(0), E.unit(1)])
    if not (
        I.subspace != J.subspace
        and I.hereditary_vertices == J.hereditary_vertices == frozenset({0, 1})
    ):
        bad.append("(e) collapsing pair wrong")

    _verdict(3, "five small counterexamples", start, bad, budget=1.0)


def test_acceptance_4_oracle_certification():
    start = time.perf_counter()
    bad = []
    densities = (0.25, 0.45, 0.65, 0.9)
    subspace_cache = {
        n: list(enumerate_subspaces(GF2, n)) for n in range(2, 7)
    }

    for k in range(200):
        spec = RandomSpec(
            field=GF2,
            min_dim=2,
            max_dim=4,
            density=densities[k % 4],
            seed=40_000 + k,
        )
        A = random_algebra(spec)
        result = certify_fast_vs_brute(A, subspaces=subspace_cache[A.n])
        if result["mismatches"]:
            bad.append(f"dim<=4 algebra {k}: {result['mismatches']}")
            break

    for k in range(50):
        spec = RandomSpec(
            field=GF2,
            min_dim=5,
            max_dim=6,
            density=densities[k % 4],
            seed=50_000 + k,
        )
        A = random_algebra(spec)
        result = certify_fast_vs_brute(
            A, subspaces=subspace_cache[A.n], max_compare=300, seed=k
        )
        if result["mismatches"]:
            bad.append(f"dim 5-6 algebra {k}: {result['mismatches']}")
            break

    _verdict(4, "fast vs brute certification over F2", start, bad, budget=60.0)


def test_acceptance_5_perfect_case_at_scale():
    start = time.perf_counter()
    bad = []
    checked = 0
    for k in range(500):
        spec = RandomSpec(
            field=QQ,
            min_dim=2,
            max_dim=6,
            density=0.75,
            seed=60_000 + k,
        )
        A = random_perfect_algebra(spec)
        rng = random.Random(70_000 + k)
        for _ in range(5):
            gens = [
                [rng.randint(-2, 2) for _ in range(A.n)]
                for _ in range(rng.randint(1, 3))
            ]
            ideal = ideal_closure(A, gens)
            closure = ideal_from_hereditary(A, ideal.hereditary_vertices)
            ok = (
                ideal.subspace == closure.subspace
                and ideal.has_absorption()
                and ideal.is_spanned_by_basis_vertices()
            )
            checked += 1
            if not ok:
                bad.append(f"algebra {k} breaks the perfect-case conclusions")
        if bad:
            break
    if checked != 2500 and not bad:
        bad.append(f"expected 2500 checks, ran {checked}")
    _verdict(5, "perfect-case conclusions 2500/2500", start, bad, budget=60.0)


def test_acceptance_6_property_suite_on_fuzz_corpus():
    start = time.perf_counter()
    bad = []
    report = run_fuzz(count=1000, min_dim=2, max_dim=6, trials=3, seed=2024)
    if not report.ok:
        for failure in report.failures[:5]:
            bad.append(str(failure))
    _verdict(6, "property registry over 1000 mixed algebras", start, bad, budget=300.0)


def test_acceptance_7_simplicity_equivalence():
    start = time.perf_counter()
    bad = []

    for k in range(100):
        spec = RandomSpec(
            field=GF2, min_dim=2, max_dim=6, density=0.35, seed=80_000 + k
        )
        A = random_perfect_strongly_connected(spec)
        v = simplicity_verdicts(A)
        algebra_simple = not v["proper_nonzero_ideal_found"]
        if v["method"] != "exhaustive":
            bad.append(f"strongly connected algebra {k}: the oracle did not search ({v})")
            break
        if algebra_simple != v["graph_simple"]:
            bad.append(f"strongly connected algebra {k}: verdicts diverge ({v})")
            break

    for k in range(100):
        spec = RandomSpec(
            field=GF2, min_dim=2, max_dim=6, density=0.5, seed=90_000 + k
        )
        A = random_with_sinks(spec, min_sinks=1)
        v = simplicity_verdicts(A)
        algebra_simple = not v["proper_nonzero_ideal_found"]
        if v["method"] != "exhaustive":
            bad.append(f"sink algebra {k}: the oracle did not search ({v})")
            break
        if algebra_simple != v["graph_simple"]:
            bad.append(f"sink algebra {k}: verdicts diverge ({v})")
            break

    _verdict(7, "simplicity graph/ideal agreement", start, bad)


def test_acceptance_cli_round_trip(tmp_path, capsys):
    # The worked examples drive the real command line end to end.
    six = tmp_path / "six.json"
    six.write_text(json.dumps(algebra_to_document(six_dim_branching())))
    code = main(["analyze", str(six), "--json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["square_span_dim"] == 3 and obj["degenerate"] is True

    perfect = tmp_path / "perfect.json"
    perfect.write_text(json.dumps(algebra_to_document(three_dim_perfect())))
    code = main(["simple", str(perfect), "--json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["graph_simple"] is False and obj["algebra_simple"] is False
