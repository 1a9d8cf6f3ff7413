"""evoalg benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

One client runs one op at a time, each op starting when the previous one has
finished and been checked.  ``--trace 0`` measures the end-to-end metrics for
``--seconds``; ``--trace 1`` runs a fixed prefix of the corpus untraced and
then traced, and reports the per-layer metrics and the tracing overhead.
Every metric is printed by name and unit; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
# Probe durations at reference speed (typical of the 2-CPU reference
# machine), and how often the probes run between ops.
PYTHON_PROBE_REF_S = 0.0011
ELIMINATION_PROBE_REF_S = 0.0015
PROBE_EVERY_S = 0.05
CLI_PROBE_REF_S = 0.080
CLI_PROBE_EVERY_S = 0.0
# A timed run goes on past --seconds until this many ops, so that p90 has
# ten samples beyond it.
MIN_OPS = 100

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("q_ops_per_s", "ops/s"),
    ("fp_ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

CLI_COMMANDS = (
    "analyze", "hereditary", "maximal-ideals", "ideal",
    "quotient", "graph", "simple", "verify",
)


def _per_layer():
    out = [("failed_ops", "ratio"), ("trace.overhead", "ratio")]
    for name in (
        "fields.coerce.calls", "fields.parse_scalar.calls",
        "linalg.rref.calls", "linalg.rref.rows_in", "linalg.reduce.calls",
        "linalg.intersect.calls", "linalg.nullspace.calls",
        "algebra.construct.calls", "algebra.product.calls",
        "graph.hereditary_sets.calls", "graph.hereditary_sets.sets_out",
        "graph.is_saturated.calls",
        "ideals.ideal_closure.calls", "ideals.ideal_from_hereditary.calls",
        "ideals.hereditary_vertices.calls", "ideals.has_absorption.calls",
        "ideals.is_maximal.calls", "ideals.is_ideal.calls",
        "galois.checked", "galois.not_applicable",
        "oracle.brute_force_ideals.calls",
    ):
        out.append((name, "count"))
    for name in (
        "linalg.rref", "linalg.reduce", "linalg.intersect", "linalg.nullspace",
        "algebra.construct", "algebra.quotient",
        "graph.associated_graph", "graph.condensation", "graph.hereditary_sets",
        "graph.is_saturated", "graph.saturated_closure",
        "ideals.ideal_closure", "ideals.hereditary_vertices", "ideals.has_absorption",
        "ideals.is_maximal", "ideals.maximal_ideals_report",
        "galois.run_theorem_suite",
        "oracle.brute_force_ideals", "oracle.enumerate_subspaces",
        "documents.load_algebra", "documents.dumps_document",
        "cli.main",
    ):
        out.append((name + ".self_ms", "ms"))
    out += [("cli.import_ms", "ms"), ("cli.interpreter_ms", "ms"), ("cli.stdout_bytes", "bytes")]
    out += [(f"cli.{c}.p50_ms", "ms") for c in CLI_COMMANDS]
    return tuple(out)


PER_LAYER = _per_layer()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "kernel", "enum", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def locate_program():
    """Put this checkout's src/ first on the import path.

    Exits with code 2 when the checkout holds no program.
    """
    if not os.path.isfile(os.path.join(SRC, "evoalg", "__init__.py")):
        print(f"benchmark: no program at {SRC}/evoalg; run from an evoalg checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import jsonschema  # noqa: F401  (the checker's import, kept out of set-up time)


def import_program():
    import evoalg
    import evoalg.cli  # noqa: F401
    import evoalg.schemas  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(evoalg.__file__))) != SRC:
        print(f"benchmark: imported evoalg from {evoalg.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def commit():
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    """Inclusive-method percentile, q in (0, 100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# reference speed
# ---------------------------------------------------------------------------


def python_probe():
    """Fixed stdlib-only work: Fraction arithmetic, dict updates, a list
    comprehension.  Its duration tracks the speed the machine gives
    interpreted code at this moment."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    sum([a * b % 7 for a, b in zip(range(3000), range(3000))])
    return perf_counter() - start


_PROBE_MATRIX = [
    [Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 3) for j in range(10)] for i in range(10)
]


def elimination_probe():
    """The benchmark's own exact elimination of a fixed 10x10 rational
    matrix: Fraction and list work like the suite and kernel ops, which
    slow down under contention more than plain loops do."""
    import reference

    start = perf_counter()
    reference.rank(_PROBE_MATRIX, None)
    return perf_counter() - start


def interpreter_probe():
    """A bare interpreter start, the fixed part of every CLI op."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return perf_counter() - start


class Clock:
    """Scales measured times to the reference machine speed.

    The machine's speed drifts by tens of percent over seconds to minutes
    under other tenants' load.  A fixed probe that shares no code with evoalg
    is timed between ops; an op's scale factor is the mean of the probes just
    before and after it over the probe's reference duration, and its time
    divided by that factor is its time at reference speed.
    """

    def __init__(self, probe, reference_s, every_s):
        self.probe = probe
        self.reference_s = reference_s
        self.every_s = every_s
        self.samples = []
        self._last = float("-inf")

    def sample(self):
        self.samples.append(self.probe())
        self._last = perf_counter()

    def sample_if_due(self):
        if perf_counter() - self._last >= self.every_s:
            self.sample()
        return len(self.samples) - 1

    def factor(self, i):
        """Speed factor between probe i and the next one."""
        return (self.samples[i] + self.samples[i + 1]) / (2 * self.reference_s)

    def timed(self, fn):
        """Run fn once; return its result and its time at reference speed."""
        self.sample()
        start = perf_counter()
        result = fn()
        elapsed = perf_counter() - start
        self.sample()
        return result, elapsed / self.factor(len(self.samples) - 2)


def clock_for(name):
    if name == "cli":
        return Clock(interpreter_probe, CLI_PROBE_REF_S, CLI_PROBE_EVERY_S)
    if name == "enum":
        return Clock(python_probe, PYTHON_PROBE_REF_S, PROBE_EVERY_S)
    return Clock(elimination_probe, ELIMINATION_PROBE_REF_S, PROBE_EVERY_S)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class Runner:
    """Runs and checks ops.  The first output for each corpus entry gets the
    workload's full check; a repeat must reproduce that checked output."""

    def __init__(self, workload, corpus):
        self.workload = workload
        self.corpus = corpus
        self.verified = {}
        self.problems = []

    def op(self, k, tracer=None):
        """Run op k; return (latency_s, ok, fingerprint, output)."""
        wl = self.workload
        idx = k % len(self.corpus)
        item = self.corpus[idx]
        span = tracer.open("op") if tracer is not None else None
        start = perf_counter()
        try:
            output = wl.run(item)
        except Exception:  # an op that raises is a failed op, not a failed run
            latency = perf_counter() - start
            self._problem(k, traceback.format_exc(limit=3))
            return latency, False, None, None
        finally:
            if span is not None:
                tracer.close(span)
        latency = perf_counter() - start
        try:
            fp = wl.fingerprint(output)
            if idx in self.verified:
                problems = [] if fp == self.verified[idx] else ["output differs from the checked output of the same input"]
            else:
                problems = wl.check(item, output)
                if not problems:
                    self.verified[idx] = fp
        except Exception:  # a check that raises fails the op
            fp, problems = None, [traceback.format_exc(limit=3)]
        for problem in problems:
            self._problem(k, problem)
        return latency, not problems, fp, output

    def _problem(self, k, text):
        if len(self.problems) < 20:
            self.problems.append(f"op {k}: {text}")


class Op:
    __slots__ = ("k", "item", "latency", "cycle", "ok", "fingerprint", "probe", "factor")

    def __init__(self, k, item, latency, cycle, ok, fingerprint, probe):
        self.k, self.item, self.latency, self.cycle = k, item, latency, cycle
        self.ok, self.fingerprint, self.probe = ok, fingerprint, probe
        self.factor = 1.0


def run_ops(runner, clock, until, tracer=None, after=None):
    """Run ops 0, 1, ... while ``until(k)`` is false, probing the clock
    between ops.  ``after(output, root)`` sees each op's output and the index
    of its root span."""
    ops = []
    clock.sample()
    k = 0
    while not until(k):
        probe = clock.sample_if_due()
        root = -1
        if tracer is not None:
            tracer.op = k
            root = len(tracer.span_name)
        start = perf_counter()
        latency, ok, fp, output = runner.op(k, tracer)
        cycle = perf_counter() - start
        if after is not None:
            after(output, root)
        ops.append(Op(k, runner.corpus[k % len(runner.corpus)], latency, cycle, ok, fp, probe))
        k += 1
    clock.sample()
    for op in ops:
        op.factor = clock.factor(op.probe)
    return ops


def digest(ops, count):
    h = hashlib.sha256()
    for op in ops[:count]:
        h.update(f"{op.k}:{op.fingerprint}\n".encode("utf-8"))
    return h.hexdigest()


def summarize(ops, scaled):
    """End-to-end figures of a sequence of ops, at reference speed when
    ``scaled``, else as measured."""
    def t(op, value):
        return value / op.factor if scaled else value

    passed = sum(op.ok for op in ops)
    lat_ms = sorted(t(op, op.latency) * 1e3 for op in ops)
    out = {"ops_per_s": passed / sum(t(op, op.cycle) for op in ops)}
    for key, is_q in (("q_ops_per_s", True), ("fp_ops_per_s", False)):
        side = [op for op in ops if (op.item.p is None) == is_q]
        busy = sum(t(op, op.latency) for op in side)
        out[key] = sum(op.ok for op in side) / busy if busy else 0.0
    out["latency_p50_ms"] = statistics.median(lat_ms)
    out["latency_p90_ms"] = percentile(lat_ms, 90)
    return out


def peak_rss_mb(workload_name):
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def timed_run(runner, clock, seconds, setup_s, name):
    period = runner.workload.period
    deadline = perf_counter() + seconds
    start = perf_counter()
    ops = run_ops(
        runner,
        clock,
        lambda k: k % period == 0 and k >= MIN_OPS and perf_counter() >= deadline,
    )
    wall = perf_counter() - start
    metrics = summarize(ops, scaled=True)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb(name)
    failed = sum(not op.ok for op in ops)
    p90 = metrics["latency_p90_ms"]
    record = {
        "ops": len(ops),
        "wall_s": wall,
        "as_measured": summarize(ops, scaled=False),
        "speed_factor_median": statistics.median(op.factor for op in ops),
        "probes": len(clock.samples),
        "samples": {
            "latency_p50_ms": len(ops),
            "latency_p90_ms": len(ops),
            "beyond_p90": sum(1 for op in ops if op.latency / op.factor * 1e3 > p90),
        },
        "failed_ops": {"value": failed / len(ops), "base": len(ops)},
        "digest": digest(ops, runner.workload.trace_ops),
        "digest_ops": min(len(ops), runner.workload.trace_ops),
        "tracing_overhead": None,
    }
    return ops, metrics, record


def trace_run(runner, clock, workload, name, work_dir, trace_path):
    import tracer as tracing

    count = workload.trace_ops

    def until(k):
        return k >= count

    plain = run_ops(runner, clock, until)
    trace = tracing.Tracer()
    stdout_bytes = 0
    import_ms = []

    def after(output, root):
        nonlocal stdout_bytes
        if name != "cli":
            return
        dump = _read_dump(workload.spans_file)
        if dump is not None:
            trace.merge(dump, parent=root)
            import_ms.append(dump["import_ms"])
        if output is not None:
            stdout_bytes += len(output[1].encode("utf-8"))

    if name == "cli":
        workload.launcher = os.path.join(HERE, "cli_launcher.py")
        workload.spans_file = os.path.join(work_dir, "spans.json")
    else:
        trace.install()
    try:
        traced = run_ops(runner, clock, until, tracer=trace, after=after)
    finally:
        trace.uninstall()
        workload.launcher = None

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    trace.write(trace_path)
    values = dict(trace.counts)
    for key, ms in trace.self_ms().items():
        values[key + ".self_ms"] = ms
    ops = plain + traced
    failed = sum(not op.ok for op in ops)
    overhead = sum(op.latency / op.factor for op in traced) / sum(
        op.latency / op.factor for op in plain
    ) - 1.0
    values["failed_ops"] = failed / len(ops)
    values["trace.overhead"] = overhead
    if name == "cli":
        values["cli.stdout_bytes"] = stdout_bytes
        values["cli.import_ms"] = statistics.median(import_ms) if import_ms else 0.0
        values["cli.interpreter_ms"] = statistics.median(clock.samples) * 1e3
        by_command = {}
        for op in plain:
            by_command.setdefault(op.item.command, []).append(op.latency * 1e3)
        for command, lat in by_command.items():
            values[f"cli.{command}.p50_ms"] = statistics.median(lat)
    metrics = {metric: values.get(metric, 0) for metric, _unit in PER_LAYER}

    problems = []
    if digest(plain, count) != digest(traced, count):
        problems.append("traced outputs differ from untraced outputs")
    missing = trace.missing(name)
    if missing:
        problems.append("wrapped names never entered: " + ", ".join(missing))
    record = {
        "ops": len(ops),
        "failed_ops": {"value": failed / len(ops), "base": len(ops)},
        "digest": digest(plain, count),
        "digest_ops": count,
        "tracing_overhead": overhead,
        "spans": len(trace.span_name),
        "bindings": trace.bindings,
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    return ops, metrics, record, problems


def _read_dump(path):
    try:
        with open(path, encoding="utf-8") as fh:
            dump = json.load(fh)
    except (OSError, ValueError):
        return None
    os.remove(path)
    return dump


def print_metrics(metrics, units):
    for name, unit in units:
        print(f"  {name:<40} {metrics[name]:>16.6g} {unit}")


def main(argv=None):
    args = parse_args(argv)
    locate_program()
    import_s = Clock(python_probe, PYTHON_PROBE_REF_S, 0.0).timed(import_program)[1]
    import workloads

    workload = workloads.make(args.workload, SRC)
    clock = clock_for(args.workload)
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            def setup():
                corpus = workload.build(args.seed, work_dir)
                workload.warm_up(corpus)
                return corpus

            corpus, elapsed = clock.timed(setup)
            setups.append(elapsed)
        setup_s = import_s + statistics.median(setups)
        runner = Runner(workload, corpus)

        if args.trace:
            trace_path = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.csv.gz")
            ops, metrics, record, problems = trace_run(
                runner, clock, workload, args.workload, work_dir, trace_path
            )
            units = PER_LAYER
        else:
            ops, metrics, record = timed_run(runner, clock, args.seconds, setup_s, args.workload)
            problems = []
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    problems = runner.problems + problems
    correct = failed == 0 and not problems
    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(),
            "setup_runs_s": setups,
            "import_s": import_s,
            "problems": problems,
        }
    )
    print(f"evoalg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {attempted} ops, {failed} failed")
    print_metrics(metrics, units)
    if not args.trace:
        print(f"  {'failed_ops':<40} {failed / attempted:>16.6g} ratio (base {attempted} ops)")
    for problem in problems:
        print(f"  problem: {problem.strip()}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
