"""The four benchmark workloads: generated inputs, one op each, and its check.

Every op starts from raw generated input (a square matrix of raw entries, or
an algebra document on disk), so no cached property of an earlier op is
reused.  Library functions are called through their modules, so the
tracer's wrappers see the calls.  Inputs depend only on the seed.  Over Q, matrix entries are exact
scalar text as in algebra documents, so the scalar parser is on the path;
over F_p they are ints.  Checks use ``reference`` (the benchmark's own
arithmetic), never the evoalg layer they check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from array import array
from dataclasses import dataclass, field as dc_field

import evoalg.cli
import jsonschema
from evoalg import QQ, EvolutionAlgebra, PrimeField, galois, ideals
from evoalg.schemas import SCHEMAS

import reference as ref

CHILD_TIMEOUT_S = 60


@dataclass
class Item:
    """One generated input.  ``p`` is None over Q, else the prime."""

    p: int | None
    n: int
    squares: list = dc_field(default_factory=list)
    extra: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.field = QQ if self.p is None else PrimeField(self.p)


def _entry(rng, p, density, pool):
    if rng.random() < density:
        return rng.choice(pool)
    return "0" if p is None else 0


def _pool(p, q_pool):
    return q_pool if p is None else tuple(range(1, p))


def _masks(family):
    out = []
    for vs in family:
        m = 0
        for v in vs:
            m |= 1 << v
        out.append(m)
    return out


def _basis_text(subspace):
    return [[str(x) for x in row] for row in subspace.basis]


def _ref_rows(subspace, p):
    if p is None:
        return [list(row) for row in subspace.basis]
    return [[x.value % p for x in row] for row in subspace.basis]


class Workload:
    """Interface of a workload; the harness owns timing and tracing."""

    name = ""
    # Ops after which the mix of input strata (field, size, ...) repeats; a
    # timed run stops at a multiple of it, so every run has the same mix.
    period = 1
    # Ops in a traced run: a fixed prefix of the corpus, so counts repeat.
    trace_ops = 0

    # Ops run once in each set-up, untimed, before the first timed op.
    warm_up_ops = 2

    def build(self, seed, work_dir):
        raise NotImplementedError

    def warm_up(self, corpus):
        for item in corpus[: self.warm_up_ops]:
            self.run(item)

    def run(self, item):
        raise NotImplementedError

    def fingerprint(self, output):
        """Exact text of an op's output; equal text means equal output."""
        raise NotImplementedError

    def check(self, item, output):
        """List of problems with an op's output; empty when correct."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# suite: the property registry on small random algebras
# ---------------------------------------------------------------------------


class Suite(Workload):
    """Shape of acceptance test 6: n 2..6, fields Q/F2/F3/F5, densities
    0.35..0.95.  Field, density and n are strata of the item index, so a run
    of any length sees the same mix; only the entries depend on the seed."""

    name = "suite"
    period = 80
    trace_ops = 160
    warm_up_ops = 8
    FIELDS = (None, 2, 3, 5)
    DENSITIES = (0.35, 0.55, 0.75, 0.95)
    Q_POOL = ("-2", "-1", "1", "2")
    CORPUS = 4000

    def build(self, seed, work_dir):
        rng = random.Random(f"suite:{seed}")
        corpus = []
        for k in range(self.CORPUS):
            p = self.FIELDS[k % 4]
            density = self.DENSITIES[(k // 4) % 4]
            n = 2 + (k // 16) % 5
            pool = _pool(p, self.Q_POOL)
            squares = [[_entry(rng, p, density, pool) for _ in range(n)] for _ in range(n)]
            corpus.append(Item(p, n, squares, {"suite_seed": k}))
        return corpus

    def run(self, item):
        A = EvolutionAlgebra(item.field, item.squares)
        return galois.run_theorem_suite(A, trials=3, seed=item.extra["suite_seed"])

    def fingerprint(self, report):
        return repr(
            [report.ok]
            + [(r.name, r.checked, r.failed, r.not_applicable) for r in report.properties]
        )

    def check(self, item, report):
        if report.ok:
            return []
        return [f"property {r.name} failed" for r in report.failed_properties()]


# ---------------------------------------------------------------------------
# kernel: a few large eliminations per op
# ---------------------------------------------------------------------------


class Kernel(Workload):
    """Raw squares with n in {24, 32, 40} over Q and F5.  The graph is a chain
    of strongly connected blocks (each block reaches the next), with the
    sinks last, so closures of generators in different blocks are proper
    ideals of different dimension.  The rank is fixed at n - sinks by
    construction, which fixes the hyperplane family over F5 (six hyperplanes
    at n = 24 with two sinks, one above) and lets the check know the square
    span's dimension.  F5 at n = 40 comes twice in a period of seven, which
    puts p50 and p90 inside a cost class rather than between two."""

    name = "kernel"
    period = 7
    trace_ops = 14
    # (prime or None for Q, n, sinks)
    CONFIGS = (
        (5, 24, 2), (None, 24, 2), (5, 32, 1), (None, 32, 1),
        (5, 40, 1), (None, 40, 1), (5, 40, 1),
    )
    REPEATS = 12
    BLOCKS = (3, 5, 2, 6, 4, 1, 7, 2, 5, 3, 8, 1, 4, 6)
    Q_POOL = ("1", "-1", "2", "-2", "3", "1/2", "-3/2")
    INTRA_DENSITY = 0.3
    INTER_DENSITY = 0.06
    # Over Q the rank is certified modulo this prime: rank mod P <= rank over
    # Q <= n - sinks, so reaching n - sinks mod P proves it over Q.
    RANK_PRIME = 2**61 - 1

    def build(self, seed, work_dir):
        rng = random.Random(f"kernel:{seed}")
        corpus = []
        for rep in range(self.REPEATS):
            for c, (p, n, sinks) in enumerate(self.CONFIGS):
                corpus.append(self._item(rng, p, n, sinks=sinks, offset=rep + c))
        return corpus

    def _blocks(self, n, sinks, offset):
        sizes, left, k = [], n - sinks, offset
        while left > 0:
            s = min(left, self.BLOCKS[k % len(self.BLOCKS)])
            sizes.append(s)
            left -= s
            k += 1
        blocks, v = [], 0
        for s in sizes:
            blocks.append(list(range(v, v + s)))
            v += s
        return blocks

    def _item(self, rng, p, n, sinks, offset):
        blocks = self._blocks(n, sinks, offset)
        pool = _pool(p, self.Q_POOL)
        zero = "0" if p is None else 0
        intra = [(i, j) for blk in blocks for i in blk for j in blk]
        inter = [(i, j) for blk in blocks for i in blk for j in range(blk[-1] + 1, n)]
        while True:
            M = [[zero] * n for _ in range(n)]
            # Exact entry counts, so an op's cost varies little with the seed.
            for i, j in rng.sample(intra, round(len(intra) * self.INTRA_DENSITY)):
                M[i][j] = rng.choice(pool)
            for i, j in rng.sample(inter, round(len(inter) * self.INTER_DENSITY)):
                M[i][j] = rng.choice(pool)
            for blk in blocks:
                for k, i in enumerate(blk):
                    M[i][blk[(k + 1) % len(blk)]] = rng.choice(pool)
                if blk[-1] + 1 < n:
                    M[blk[-1]][blk[-1] + 1] = rng.choice(pool)
            rank_p = self.RANK_PRIME if p is None else p
            if ref.rank(ref.matrix(M, rank_p), rank_p) == n - sinks:
                break
        gens = []
        for quarter in (1, 2, 3):
            blk = blocks[quarter * len(blocks) // 4]
            g = [zero] * n
            for v in rng.sample(blk, min(len(blk), rng.choice((1, 2)))):
                g[v] = rng.choice(pool)
            gens.append(g)
        perm = list(range(n))
        rng.shuffle(perm)
        squares = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                squares[perm[i]][perm[j]] = M[i][j]
        moved = []
        for g in gens:
            h = [zero] * n
            for i in range(n):
                h[perm[i]] = g[i]
            moved.append(h)
        return Item(p, n, squares, {"sinks": sinks, "generators": moved})

    def run(self, item):
        A = EvolutionAlgebra(item.field, item.squares)
        span = A.square_span
        report = ideals.maximal_ideals_report(A)
        closures = []
        for g in item.extra["generators"]:
            ideal = ideals.ideal_closure(A, [g])
            closures.append(
                (
                    ideal.subspace,
                    ideal.hereditary_vertices,
                    ideal.has_absorption(),
                    ideal.is_maximal() if ideal.is_proper else None,
                )
            )
        return span, report, closures

    def fingerprint(self, output):
        span, report, closures = output
        return json.dumps(
            [
                _basis_text(span),
                report,
                [[_basis_text(s), sorted(hv), ab, mx] for s, hv, ab, mx in closures],
            ],
            sort_keys=True,
        )

    def check(self, item, output):
        p, n = item.p, item.n
        span, report, closures = output
        squares = ref.matrix(item.squares, p)
        problems = []

        rows = _ref_rows(span, p)
        pivots = ref.rref_pivots(rows)
        rank = n - item.extra["sinks"]
        if pivots is None:
            problems.append("square span basis is not in canonical RREF")
        elif len(rows) != rank:
            problems.append(f"square span has dim {len(rows)}, expected {rank}")
        elif not all(ref.reduces_to_zero(sq, rows, pivots, p) for sq in squares):
            problems.append("a basis square is outside the square span")
        if report["square_span_dim"] != rank:
            problems.append("maximal ideals report: wrong square span dim")
        family = report["hyperplane_family"]
        codim = n - rank
        expected = 1 if codim == 1 else (None if p is None else (p**codim - 1) // (p - 1))
        if family["count"] != expected:
            problems.append(f"hyperplane count {family['count']}, expected {expected}")
        for text in family["ideals"] or []:
            hrows = [[ref.scalar(x, p) for x in row] for row in text]
            hpiv = ref.rref_pivots(hrows)
            if hpiv is None or len(hrows) != n - 1 or not all(
                ref.reduces_to_zero(sq, hrows, hpiv, p) for sq in squares
            ):
                problems.append("a listed hyperplane is not a canonical hyperplane over the square span")

        for g, (sub, hv, absorbs, _maximal) in zip(item.extra["generators"], closures):
            rows = _ref_rows(sub, p)
            pivots = ref.rref_pivots(rows)
            if pivots is None:
                problems.append("closure basis is not in canonical RREF")
                continue
            if not ref.reduces_to_zero([ref.scalar(x, p) for x in g], rows, pivots, p):
                problems.append("a generator is outside its closure")
            inside = {i for i in range(n) if ref.reduces_to_zero(squares[i], rows, pivots, p)}
            touched = {i for row in rows for i, x in enumerate(row) if x}
            if not touched <= inside:
                problems.append("row * e_i leaves the closure")
            if set(hv) != inside:
                problems.append("hereditary vertices differ from the squares inside")
            units_inside = all(
                ref.reduces_to_zero([1 if j == i else 0 for j in range(n)], rows, pivots, p)
                for i in inside
            )
            if absorbs != (units_inside and len(rows) == len(inside)):
                problems.append("absorption verdict differs from the vertex span test")
        return problems


# ---------------------------------------------------------------------------
# enum: hereditary-set enumeration only
# ---------------------------------------------------------------------------


class Enum(Workload):
    """Sparse DAG-shaped graphs, mostly singleton components (two 2-cycles
    each), whose hereditary family size is pinned to a band around a target,
    so the cost of an op does not swing with the seed.  Targets run from 1k
    to 16k sets, small enough that a run gets the 100 ops p90 needs."""

    name = "enum"
    period = 20
    trace_ops = 20
    # (n, target family size).  The middle four and the top two entries
    # share a band, so p50 and p90 fall inside a band, not between two.
    TARGETS = (
        (20, 1000), (22, 2000), (24, 3000), (26, 5000), (26, 5000),
        (26, 5000), (26, 5000), (28, 10000), (30, 16000), (30, 16000),
    )
    REPEATS = 2
    BAND = 0.02
    PINNED_MEAN_FROM = 16000
    MEAN_DRAWS = 3
    MEAN_FRACTION = 0.5
    TWO_CYCLES = 2
    FIELDS = (None, 3)
    Q_POOL = ("1", "-1", "2", "1/2")

    def build(self, seed, work_dir):
        rng = random.Random(f"enum:{seed}")
        corpus = []
        for rep in range(self.REPEATS):
            for k, (n, target) in enumerate(self.TARGETS):
                p = self.FIELDS[(k + rep) % len(self.FIELDS)]
                corpus.append(self._item(rng, p, n, target))
        return corpus

    def _item(self, rng, p, n, target):
        # The mean set size fixes how much memory a family takes, and the
        # largest families set peak RSS, so for those keep the best of a
        # fixed number of draws (a fixed number keeps set-up time steady).
        draws = self.MEAN_DRAWS if target >= self.PINNED_MEAN_FROM else 1
        candidates = [self._edges(rng, n, target) for _ in range(draws)]
        edges, count, _size = min(
            candidates, key=lambda c: abs(c[2] / c[1] / n - self.MEAN_FRACTION)
        )
        pool = _pool(p, self.Q_POOL)
        zero = "0" if p is None else 0
        squares = [[zero] * n for _ in range(n)]
        for i, j in edges:
            squares[i][j] = rng.choice(pool)
        return Item(p, n, squares, {"count": count})

    def _edges(self, rng, n, target):
        """Edges of a random DAG-shaped graph whose hereditary family size is
        within BAND of the target, with the family's size and total members."""
        lo, hi = target * (1 - self.BAND), target * (1 + self.BAND)
        while True:
            order = list(range(n))
            rng.shuffle(order)
            pairs = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
            rng.shuffle(pairs)
            back = [
                (order[a + 1], order[a])
                for a in rng.sample(range(n - 1), self.TWO_CYCLES)
            ]
            # More edges never add hereditary sets, so bisect on how many of
            # the shuffled pairs become edges.
            low, high = 0, len(pairs)
            while low <= high:
                k = (low + high) // 2
                edges = pairs[:k] + back
                count, size = ref.count_down_sets(self._succ(n, edges))
                if count > hi:
                    low = k + 1
                elif count < lo:
                    high = k - 1
                else:
                    return edges, count, size

    @staticmethod
    def _succ(n, edges):
        succ = [0] * n
        for i, j in edges:
            succ[i] |= 1 << j
        return succ

    def run(self, item):
        g = EvolutionAlgebra(item.field, item.squares).graph
        return (
            g.hereditary_sets(),
            g.hereditary_saturated_sets(),
            g.maximal_hereditary_sets(),
        )

    def fingerprint(self, output):
        # A frozenset's hash depends only on its members, so this is
        # canonical; the first output of an input gets the full check.
        return "|".join(
            hashlib.sha256(array("q", map(hash, family)).tobytes()).hexdigest()
            for family in output
        )

    def check(self, item, output):
        hered, saturated, maximal = (_masks(f) for f in output)
        succ = ref.successor_masks(item.squares)
        reach = ref.reach_masks(succ)
        full = (1 << item.n) - 1
        problems = []
        for name, family in (("hereditary", hered), ("saturated", saturated), ("maximal", maximal)):
            if any(a >= b for a, b in zip(family, family[1:])):
                problems.append(f"{name} masks do not strictly increase")
        if not all(ref.is_hereditary(m, succ) for m in hered):
            problems.append("a listed set is not hereditary")
        if len(hered) != item.extra["count"]:
            problems.append(f"{len(hered)} hereditary sets, expected {item.extra['count']}")
        if saturated != [m for m in hered if ref.is_saturated(m, succ)]:
            problems.append("saturated family differs from the saturated hereditary sets")

        def is_maximal(m):
            return m != full and all(m | reach[v] == full for v in range(item.n) if not m >> v & 1)

        if maximal != [m for m in hered if is_maximal(m)]:
            problems.append("maximal family differs from the maximal hereditary sets")
        return problems


# ---------------------------------------------------------------------------
# cli: one child process per command
# ---------------------------------------------------------------------------


@dataclass
class Command:
    argv: list
    p: int | None

    @property
    def command(self):
        return self.argv[0]


class Cli(Workload):
    """`python -m evoalg <cmd> <fixture>` as one child at a time, over
    mixed-field fixtures with n from 4 to 12 written during set-up.
    Interpreter start and import dominate most commands; `simple` runs the
    brute-force oracle on the small F2 and F3 fixtures."""

    name = "cli"
    period = 20
    trace_ops = 20
    warm_up_ops = 1
    # (name, prime or None for Q, n, kind): kind "dag" pins the hereditary
    # family near 300 sets; "dense" is a random square matrix.
    FIXTURES = (
        ("q8", None, 8, "dense"),
        ("q12", None, 12, "dag"),
        ("f3_6", 3, 6, "dense"),
        ("f5_10", 5, 10, "dense"),
        ("f2_5", 2, 5, "dense"),
        ("f3_4", 3, 4, "dense"),
        ("q4", None, 4, "dense"),
    )
    Q_POOL = ("1", "-1", "2", "-3/2")

    def __init__(self, src_dir):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        # Set by a traced run: ops then run under this launcher, which
        # writes the child's spans to spans_file.
        self.launcher = None
        self.spans_file = None

    def build(self, seed, work_dir):
        rng = random.Random(f"cli:{seed}")
        docs = {}
        for name, p, n, kind in self.FIXTURES:
            squares = self._squares(rng, p, n, kind)
            path = os.path.join(work_dir, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self._document(p, squares), fh, indent=2)
            docs[name] = (path, p, n, squares)

        def cmd(fixture, *args):
            path, p, _n, _sq = docs[fixture]
            return Command([args[0], path, *args[1:]], p)

        def unit(fixture):
            _path, p, n, _sq = docs[fixture]
            v = rng.randrange(n)
            return ",".join(str(rng.choice(_pool(p, ("1", "-2")))) if i == v else "0" for i in range(n))

        q12 = docs["q12"]
        reach = ref.reach_masks(ref.successor_masks(q12[3]))
        quotient_set = max((m for m in reach if m != (1 << q12[2]) - 1), key=int.bit_count)
        labels = ",".join(f"e{i + 1}" for i in range(q12[2]) if quotient_set >> i & 1)
        # Twelve cheap commands, three verify, five simple: p50 falls inside
        # the cheap group and p90 inside the simple group.
        return [
            cmd("q8", "analyze"),
            cmd("f2_5", "simple"),
            cmd("f5_10", "analyze", "--json"),
            cmd("q12", "hereditary", "--all"),
            cmd("q4", "verify", "--trials", "2"),
            cmd("f3_6", "hereditary", "--saturated", "--json"),
            cmd("f3_4", "simple", "--json"),
            cmd("q12", "hereditary", "--maximal", "--json"),
            cmd("f5_10", "maximal-ideals"),
            cmd("f2_5", "simple", "--json"),
            cmd("q8", "maximal-ideals", "--json"),
            cmd("f3_6", "verify", "--trials", "2", "--json"),
            cmd("q8", "ideal", "--generators=" + unit("q8")),
            cmd("f3_4", "simple"),
            cmd("f3_6", "ideal", "--generators=" + unit("f3_6"), "--json"),
            cmd("q12", "quotient", "--set", labels),
            cmd("q4", "verify", "--trials", "2", "--json"),
            cmd("f5_10", "graph"),
            cmd("f2_5", "simple"),
            cmd("q4", "graph", "--json"),
        ]

    def _squares(self, rng, p, n, kind):
        pool = _pool(p, self.Q_POOL)
        if kind == "dag":
            item = Enum()._item(rng, p, n, 300)
            return item.squares
        return [[_entry(rng, p, 0.35, pool) for _ in range(n)] for _ in range(n)]

    @staticmethod
    def _document(p, squares):
        n = len(squares)
        labels = [f"e{i + 1}" for i in range(n)]
        doc = {"field": "Q" if p is None else {"prime": p}, "dim": n, "squares": {}}
        for i, row in enumerate(squares):
            column = {labels[j]: str(x) for j, x in enumerate(row) if str(x) != "0"}
            if column:
                doc["squares"][labels[i]] = column
        return doc

    def run(self, item):
        if self.launcher is None:
            argv = [sys.executable, "-m", "evoalg", *item.argv]
        else:
            argv = [sys.executable, self.launcher, self.spans_file, *item.argv]
        proc = subprocess.run(
            argv, capture_output=True, env=self.env, timeout=CHILD_TIMEOUT_S, check=False
        )
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")

    def fingerprint(self, output):
        code, out, _err = output
        return f"{code}\n{out}"

    def check(self, item, output):
        code, out, err = output
        if code != 0:
            return [f"exit code {code}: {err.strip()[-200:]}"]
        problems = []
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            in_process = evoalg.cli.main(list(item.argv))
        if in_process != 0 or buf.getvalue() != out:
            problems.append("child output differs from in-process evoalg.cli.main")
        schema = None
        if "--json" in item.argv:
            schema = SCHEMAS[item.command]
        elif item.command == "quotient":
            schema = SCHEMAS["document"]
        if schema is not None:
            try:
                jsonschema.validate(json.loads(out), schema)
            except (ValueError, jsonschema.ValidationError) as exc:
                problems.append(f"output fails its schema: {str(exc)[:200]}")
        return problems


def make(name, src_dir):
    if name == "cli":
        return Cli(src_dir)
    return {"suite": Suite, "kernel": Kernel, "enum": Enum}[name]()


NAMES = ("suite", "kernel", "enum", "cli")
