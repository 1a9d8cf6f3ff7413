"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench -q``."""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run

run.locate_program()
run.import_program()

import evoalg  # noqa: E402
import reference as ref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# cli needs its whole command list for every wrapped name to be entered.
SMALL = {"suite": 24, "kernel": 3, "enum": 3, "cli": 20}


def _trace(name, seed, tmp_path):
    workload = workloads.make(name, run.SRC)
    workload.trace_ops = SMALL[name]
    work_dir = tempfile.mkdtemp(dir=tmp_path)
    corpus = workload.build(seed, work_dir)
    runner = run.Runner(workload, corpus)
    return run.trace_run(
        runner, run.clock_for(name), workload, name, work_dir, os.path.join(work_dir, "trace.csv.gz")
    )


def test_benchmark_json_lists_what_the_harness_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_digest_and_counts(name, tmp_path):
    first = _trace(name, 5, tmp_path)
    second = _trace(name, 5, tmp_path)
    for ops, metrics, record, problems in (first, second):
        assert all(op.ok for op in ops) and not problems, problems
        assert record["digest_ops"] == SMALL[name]
    assert first[2]["digest"] == second[2]["digest"]
    counts = [
        {k: v for k, v in result[1].items() if k.endswith(".calls") or k in COUNTS}
        for result in (first, second)
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


COUNTS = {
    "linalg.rref.rows_in", "graph.hereditary_sets.sets_out",
    "galois.checked", "galois.not_applicable", "cli.stdout_bytes",
}


@pytest.mark.parametrize("name", ["suite", "kernel", "enum"])
def test_inputs_depend_on_the_seed_only(name, tmp_path):
    workload = workloads.make(name, run.SRC)
    a, b, c = (workload.build(seed, str(tmp_path)) for seed in (1, 1, 2))
    assert [x.squares for x in a] == [x.squares for x in b]
    assert [x.squares for x in a] != [x.squares for x in c]


def test_kernel_check_rejects_a_wrong_closure():
    workload = workloads.Kernel()
    item = workload.build(3, None)[0]
    span, report, closures = workload.run(item)
    assert workload.check(item, (span, report, closures)) == []
    sub, hv, absorbs, maximal = closures[0]
    shrunk = evoalg.Subspace(sub.field, sub.ambient_dim, sub.basis[1:], sub.pivots[1:])
    bad = [(shrunk, hv, absorbs, maximal)] + closures[1:]
    assert workload.check(item, (span, report, bad))
    wrong_hv = [(sub, frozenset(hv) ^ {0}, absorbs, maximal)] + closures[1:]
    assert workload.check(item, (span, report, wrong_hv))


def test_enum_check_rejects_a_missing_or_extra_set():
    workload = workloads.Enum()
    item = workload.build(3, None)[0]
    hered, sat, maximal = workload.run(item)
    assert workload.check(item, (hered, sat, maximal)) == []
    assert workload.check(item, (hered[:-1], sat, maximal))
    assert workload.check(item, (hered[1:] + hered[:1], sat, maximal))
    assert workload.check(item, (hered, sat, maximal + [frozenset()]))


def test_cli_check_rejects_a_changed_output(tmp_path):
    workload = workloads.make("cli", run.SRC)
    items = workload.build(3, str(tmp_path))
    json_item = next(i for i in items if "--json" in i.argv)
    code, out, err = workload.run(json_item)
    assert workload.check(json_item, (code, out, err)) == []
    assert workload.check(json_item, (code, out.replace('"', "'", 2), err))
    assert workload.check(json_item, (1, out, "boom"))


def test_reference_down_set_count_matches_brute_force():
    succ = [0b0110, 0b1000, 0b1000, 0b0000]  # 0 -> 1, 2; 1 -> 3; 2 -> 3
    brute = [m for m in range(16) if ref.is_hereditary(m, succ)]
    assert len(brute) == 6
    assert ref.count_down_sets(succ) == (6, sum(m.bit_count() for m in brute))


def test_tracer_rebinds_every_binding_and_restores_them():
    import evoalg.galois
    import evoalg.ideals
    import evoalg.linalg

    original_rref = evoalg.linalg.rref
    original_closure = evoalg.ideals.ideal_closure
    trace = tracer.Tracer()
    trace.install()
    try:
        assert evoalg.linalg.rref is not original_rref
        assert evoalg.ideals.rref is evoalg.linalg.rref is evoalg.rref
        assert evoalg.galois.ideal_closure is evoalg.ideals.ideal_closure is not original_closure
        assert "evoalg.ideals.rref" in trace.bindings["linalg.rref"]
        assert "evoalg.galois.ideal_from_hereditary" in trace.bindings["ideals.ideal_from_hereditary"]
        A = evoalg.EvolutionAlgebra(evoalg.QQ, [[1, 1], [0, 1]])
        evoalg.ideal_closure(A, [[1, 0]])
        assert trace.counts["linalg.rref.calls"] >= 1
        assert trace.counts["ideals.ideal_closure.calls"] == 1
    finally:
        trace.uninstall()
    assert evoalg.linalg.rref is original_rref is evoalg.ideals.rref is evoalg.rref
    assert evoalg.galois.ideal_closure is original_closure


def test_required_names_are_wrapped():
    wrapped = {name for name, _kind, _targets, _extra in tracer.TARGETS}
    assert wrapped == set(tracer.REQUIRED)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "traces", "__pycache__")
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    trace = tracer.Tracer()
    outer = trace.open("outer")
    inner = trace.open("inner")
    trace.close(inner)
    trace.close(outer)
    trace.span_start[outer], trace.span_end[outer] = 0.0, 0.010
    trace.span_start[inner], trace.span_end[inner] = 0.002, 0.006
    got = trace.self_ms()
    assert got["outer"] == pytest.approx(6.0)
    assert got["inner"] == pytest.approx(4.0)
    child = tracer.Tracer()
    child.close(child.open("leaf"))
    child.span_start[0], child.span_end[0] = 0.003, 0.004
    trace.merge(child.dump(), parent=inner)
    assert trace.self_ms()["inner"] == pytest.approx(3.0)
    assert trace.self_ms()["leaf"] == pytest.approx(1.0)
