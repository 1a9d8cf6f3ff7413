"""Print one sha256 per program output, to compare two checkouts byte for byte.

Run it from each checkout and diff the two listings:

    python tests/output_digests.py > new.txt
    python /path/to/other/checkout/tests/output_digests.py > old.txt
    diff old.txt new.txt

Each line is a label and the digest of one output: the exit code, stdout,
stderr and any file the command wrote.  The outputs are every CLI command,
through ``cli.main`` with and without ``--json``, on the example algebras of
``helpers.py`` and on seeded random documents over Q, F2, F3 and F5, plus
``run_fuzz(200).to_json()``, plus the graph results (components, condensation
DAG, source components, maximal hereditary sets, trees, saturated closures,
sources and simplicity) of seeded random ``Digraph``s with up to 64 vertices
and their hereditary sets and hereditary saturated sets, each set's members
sorted, in list order, with up to 20 vertices, plus the oracle's own
results (the ``certify_fast_vs_brute`` result and the
``brute_force_maximal_ideals`` bases of seeded algebras over F2, F3 with n
up to 4 and F5 with n up to 3, and ``brute_force_hereditary`` on those
random digraphs with up to 12 vertices), plus
the linear-algebra results (ideal closures with their pivots, hereditary and
basis vertices, absorption and maximality criterion, then the same closures
again in reverse order on the same algebra; the errors for ragged and
unparseable generators; ``maximal_ideals_report``; intersections, sums,
containments and equality of random subspace pairs) of seeded random
algebras over Q, F2, F3, F5 and F7, a third of them with forced sinks, plus
``run_theorem_suite`` reports at ``enum_limit`` 20 and 100 on
``disjoint_pairs(4..6)`` and ``zero_algebra(8..12)``, whose hereditary
families pass those limits, plus ``run_theorem_suite`` reports at the
default limit on the example algebras,
on seeded random algebras over Q, F2, F3 and F5 with n 2 to 8, and on
``zero_algebra(9..12)``, whose hereditary pairs pass the sampling cap, plus
the suite reports on the example algebras under each broken building block of
``helpers.MUTANTS`` and ``helpers.LYING_PREDICATES`` (the two lying predicates
also together), patched in for the run and restored after it, so that failing
counts and witnesses are compared too, plus ``run_fuzz(count=8)`` reports
under the same patches, plus the published ``SCHEMAS`` under ``json.dumps``,
plus ``hereditary`` and ``verify`` at limits at and past ``sys.maxsize``,
``fuzz`` under ``EVOALG_MAX_ENUM``, ``analyze`` on basis entries that are
not strings and on ``helpers.REPEATED_KEY_DOCUMENTS``, plus ``verify`` (text
and ``--json``) on a 3-dimensional document over F_1000003, ``verify --random`` and ``fuzz`` over F_1000003,
``maximal-ideals --json`` over F_1021 with codimension two, and
``hereditary --saturated`` and ``verify`` on ``zero_algebra(16)`` under
``EVOALG_MAX_ENUM=1000``; an exception that escapes a command is digested as
its output.  The script imports the ``src`` tree next to it, so each checkout
measures its own code.  Pytest does not collect it.

To compare with a revision in one step:

    python tests/output_digests.py --against REV

extracts ``git archive REV src`` into a temporary directory, runs this script
and ``helpers.py`` on that ``src`` and on the working tree's, prints each
label whose digest differs (or that only one side has) and exits 1 if any
does.  It writes nothing inside the repository.

    python tests/output_digests.py --write

writes the listing to ``tests/output_digests.txt`` under a header line
naming the Python version; ``tests/test_output_listing.py`` compares a fresh
listing with that file, so a change that alters an output rewrites it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import helpers  # noqa: E402
from evoalg import Digraph, EvolutionAlgebra, PrimeField, QQ, algebra_to_document  # noqa: E402
from evoalg.cli import main  # noqa: E402
from evoalg.galois import run_fuzz, run_theorem_suite  # noqa: E402
from evoalg.ideals import ideal_closure, maximal_ideals_report  # noqa: E402
from evoalg.linalg import rref  # noqa: E402
from evoalg.oracle import (  # noqa: E402
    RandomSpec,
    brute_force_hereditary,
    brute_force_maximal_ideals,
    certify_fast_vs_brute,
    random_algebra,
    random_with_sinks,
)
from evoalg.schemas import SCHEMAS  # noqa: E402

EXAMPLES = (
    "six_dim_branching",
    "three_dim_perfect",
    "mirror_pair",
    "double_loop_pair",
    "double_loop_plus_fixed",
    "loop_feeding_pair",
    "four_dim_non_maximal_span",
    "four_dim_degenerate_funnel",
    "four_dim_all_to_third",
    "three_dim_collapsing",
    "two_cycle",
    "zero_algebra",
)
FIELDS = (("Q", QQ), ("F2", PrimeField(2)), ("F3", PrimeField(3)), ("F5", PrimeField(5)))


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def run(argv, written=None, env=None):
    """Digest of one ``main`` call under the extra environment ``env``;
    ``written`` names a file it may write.  An exception that escapes
    ``main`` is digested in place of the exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, env or {}):
        try:
            code = main(argv)
        except Exception as exc:  # the type and text are the output
            code = (type(exc).__name__, str(exc))
    parts = [code, stdout.getvalue(), stderr.getvalue()]
    if written is not None and os.path.exists(written):
        with open(written, encoding="utf-8") as fh:
            parts.append(fh.read())
        os.remove(written)
    return digest(*parts)


def document_commands(name, algebra):
    """Every file command on one document, as (label, argv, written)."""
    g = algebra.graph
    n = algebra.n

    def labels(vertices):
        return ",".join(algebra.labels[i] for i in sorted(vertices))

    maxher = [h for h in g.maximal_hereditary_sets() if len(h) < n]
    hereditary = labels(maxher[0]) if maxher else ""
    unit = ",".join("1" if i == 0 else "0" for i in range(n))
    ones = ";".join([",".join(["1"] * n), unit])
    yield "analyze", ["analyze", name], None
    for mode in ("--all", "--maximal", "--saturated"):
        yield f"hereditary {mode}", ["hereditary", name, mode], None
    yield "hereditary --limit 2", ["hereditary", name, "--limit", "2"], None
    yield "maximal-ideals", ["maximal-ideals", name], None
    yield "maximal-ideals --hyperplane-limit 1", ["maximal-ideals", name, "--hyperplane-limit", "1"], None
    yield "simple", ["simple", name], None
    for label, value in (("maximal", hereditary), ("tree", labels(g.tree({n - 1})))):
        if value:
            yield f"quotient {label}", ["quotient", name, "--set", value], None
            yield f"quotient {label} --out", ["quotient", name, "--set", value, "--out", "q.json"], "q.json"
    yield "ideal unit", ["ideal", name, "--generators", unit], None
    yield "ideal ones", ["ideal", name, "--generators", ones], None
    yield "graph", ["graph", name], None
    yield "graph --dot", ["graph", name, "--dot", "g.dot"], "g.dot"
    yield "verify", ["verify", name, "--trials", "2", "--seed", "3"], None


def documents():
    for example in EXAMPLES:
        yield example, getattr(helpers, example)()
    for token, field in FIELDS:
        for k in range(3):
            spec = RandomSpec(field=field, min_dim=2, max_dim=5, density=0.3 + 0.25 * k, seed=k)
            yield f"random-{token}-{k}", random_algebra(spec)


def random_digraphs(count=60, max_n=64):
    """Sparse seeded digraphs, so that components of every size appear."""
    rng = random.Random(11)
    for _ in range(count):
        n = rng.randint(0, max_n)
        density = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]) / max(n, 1)
        out = [[j for j in range(n) if rng.random() < density] for _ in range(n)]
        yield Digraph(n, out)


def graph_digests():
    def sets(family):
        return [sorted(s) for s in family]

    for k, g in enumerate(random_digraphs()):
        components, dag_out = g.condensation()
        maximal = g.maximal_hereditary_sets()
        for label, value in (
            ("components", sets(components)),
            ("dag_out", sets(dag_out)),
            ("source_components", sets(g.source_components())),
            ("maximal_hereditary_sets", sets(maximal)),
            ("trees", sets(g.tree({v}) for v in range(g.n))),
            ("saturated_closures", sets(g.saturated_closure(h) for h in maximal)),
            ("sources", sorted(g.sources())),
            ("is_simple", g.is_simple()),
        ):
            print("graph", k, f"n={g.n}", label, digest(value))
    for k, g in enumerate(random_digraphs(max_n=20)):
        print("graph", k, f"n={g.n}", "hereditary_sets", digest(sets(g.hereditary_sets())))
        print("graph", k, f"n={g.n}", "hereditary_saturated_sets", digest(sets(g.hereditary_saturated_sets())))


def oracle_digests():
    """The oracle's own results: the ``certify_fast_vs_brute`` result and the
    ``brute_force_maximal_ideals`` bases of seeded algebras over F2 and F3
    with n 2 to 4 and over F5 with n 2 to 3, a third of them with forced
    sinks, and ``brute_force_hereditary`` on the random digraphs with up to
    12 vertices."""
    for p, max_dim, count in ((2, 4, 12), (3, 4, 8), (5, 3, 6)):
        for k in range(count):
            spec = RandomSpec(
                field=PrimeField(p), min_dim=2, max_dim=max_dim, density=0.3 + 0.2 * (k % 4), seed=k
            )
            A = random_with_sinks(spec) if k % 3 == 2 else random_algebra(spec)
            label = ("oracle", f"F{p}", k, f"n={A.n}")
            result = json.dumps(certify_fast_vs_brute(A), sort_keys=True)
            print(*label, "certify_fast_vs_brute", digest(result))
            maximal = [s.basis for s in brute_force_maximal_ideals(A)]
            print(*label, "brute_force_maximal_ideals", digest(maximal))
    for k, g in enumerate(random_digraphs(max_n=12)):
        family = [sorted(h) for h in brute_force_hereditary(g)]
        print("oracle graph", k, f"n={g.n}", "brute_force_hereditary", digest(family))


def linalg_digests(count=300):
    """One line per seeded random algebra; the closures, reports and
    intersections are drawn from a second seeded stream."""
    fields = FIELDS + (("F7", PrimeField(7)),)
    rng = random.Random(13)
    for k in range(count):
        token, field = fields[k % len(fields)]
        spec = RandomSpec(
            field=field,
            min_dim=1,
            max_dim=9 if field.order in (None, 2, 3) else 6,
            density=rng.choice([0.1, 0.25, 0.4, 0.7]),
            seed=k,
        )
        sinks = k % 3 == 2 and rng.randint(1, 3)
        A = random_with_sinks(spec, min_sinks=sinks) if sinks else random_algebra(spec)
        n = A.n
        pool = (0, 0, 1, 2, -1) if field.order is None else (0, 0) + tuple(range(field.order))

        def vectors(count):
            return [[rng.choice(pool) for _ in range(n)] for _ in range(count)]

        def closure(generators):
            ideal = ideal_closure(A, generators)
            return (
                ideal.subspace.basis,
                ideal.subspace.pivots,
                sorted(ideal.hereditary_vertices),
                sorted(ideal.basis_vertices()),
                ideal.has_absorption(),
                ideal.maximality_criterion() if ideal.is_proper else None,
            )

        generator_sets = [vectors(rng.randint(0, 3)) for _ in range(4)]
        closures = [closure(gens) for gens in generator_sets]
        # The same closures again, in reverse order, once the algebra holds
        # its square span.
        closures_again = [closure(gens) for gens in reversed(generator_sets)]
        errors = []
        for bad in ([[1] * (n + 1)], [["x"] * n], [[0] * n, [1] * (n + 2)], [["1/0"] * n]):
            try:
                ideal_closure(A, bad)
            except Exception as exc:  # the type and text are the output
                errors.append((type(exc).__name__, str(exc)))
        meets, pairs = [], []
        for _ in range(6):
            U = rref(field, n, vectors(rng.randint(0, n)))
            W = rref(field, n, vectors(rng.randint(0, n)))
            meets.append((U.intersect(W).basis, W.intersect(U).pivots))
            pairs.append((
                U.sum(W).basis,
                U.contains_subspace(W),
                W.contains_subspace(U.intersect(W)),
                U == W,
            ))
        for label, value in (
            ("closures", closures),
            ("closures_again", closures_again),
            ("errors", errors),
            ("maximal_ideals_report", json.dumps(maximal_ideals_report(A), sort_keys=True)),
            ("intersections", meets),
            ("sums_and_containment", pairs),
        ):
            print("linalg", k, token, f"n={n}", label, digest(value))

def suite_digests():
    """Suite reports at limits that the hereditary family passes."""
    algebras = [(f"disjoint_pairs({k})", helpers.disjoint_pairs(k)) for k in (4, 5, 6)]
    algebras += [(f"zero_algebra({n})", helpers.zero_algebra(n)) for n in range(8, 13)]
    for name, algebra in algebras:
        for limit in (20, 100):
            report = run_theorem_suite(algebra, enum_limit=limit).to_json()
            print("suite", name, f"enum_limit={limit}", digest(json.dumps(report, sort_keys=True)))
    algebras = [(name, getattr(helpers, name)()) for name in EXAMPLES]
    algebras += [(f"disjoint_pairs({k})", helpers.disjoint_pairs(k)) for k in (1, 2, 3, 4)]
    rng = random.Random(17)
    for k in range(120):
        token, field = FIELDS[k % len(FIELDS)]
        n = rng.randint(2, 8)
        spec = RandomSpec(field=field, min_dim=n, max_dim=n, density=rng.choice([0.2, 0.4, 0.6, 0.9]), seed=k)
        algebras.append((f"random-{token}-{k}", random_algebra(spec)))
    algebras += [(f"zero_algebra({n})", helpers.zero_algebra(n)) for n in range(9, 13)]
    for k, (name, algebra) in enumerate(algebras):
        report = run_theorem_suite(algebra, trials=3, seed=k).to_json()
        print("suite", name, "default limit", digest(json.dumps(report, sort_keys=True)))


def broken(entries):
    """Patch each (class, attribute, breaker) entry in until the exit."""
    stack = contextlib.ExitStack()
    for cls, attr, breaker in entries:
        stack.enter_context(mock.patch.object(cls, attr, breaker(getattr(cls, attr))))
    return stack


def report_json(make):
    """``make().to_json()`` as sorted JSON, or the type and text of the
    exception it raises."""
    try:
        return json.dumps(make().to_json(), sort_keys=True)
    except Exception as exc:  # the type and text are the output
        return (type(exc).__name__, str(exc))


def failing_suite_digests():
    """Suite reports, and then ``run_fuzz(count=8)`` reports, under each
    broken building block; an exception the run raises is digested in place
    of its report."""
    broken_blocks = {**helpers.MUTANTS, **helpers.LYING_PREDICATES}
    patches = [(name, [entry]) for name, entry in broken_blocks.items()]
    patches.append(("lying_predicates", list(helpers.LYING_PREDICATES.values())))
    for label, entries in patches:
        for name in EXAMPLES:
            algebra = getattr(helpers, name)()
            with broken(entries):
                output = report_json(lambda: run_theorem_suite(algebra, trials=2, seed=0))
            print("suite", label, name, digest(output))
    for label, entries in patches:
        with broken(entries):
            output = report_json(lambda: run_fuzz(count=8))
        print("run_fuzz(8)", label, digest(output))


def limit_and_basis_digests(work):
    """Limits at and past sys.maxsize, EVOALG_MAX_ENUM under ``fuzz``, basis
    entries that are not strings, and documents that repeat a key."""
    path = os.path.join(work, "six.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_document(helpers.six_dim_branching()), fh)
    for limit in (str(sys.maxsize - 1), str(sys.maxsize), "9" * 23):
        for mode in ("--all", "--saturated"):
            print("hereditary --limit", limit, mode, run(["hereditary", path, mode, "--limit", limit]))
        env = {"EVOALG_MAX_ENUM": limit}
        print("EVOALG_MAX_ENUM", limit, "hereditary", run(["hereditary", path], env=env))
        print("EVOALG_MAX_ENUM", limit, "verify", run(["verify", path, "--trials", "1"], env=env))
    for limit in ("2", "9" * 23):
        argv = ["fuzz", "--count", "2", "--dim", "6", "--field", "2"]
        print("EVOALG_MAX_ENUM", limit, "fuzz", run(argv, env={"EVOALG_MAX_ENUM": limit}))
    for label, entry in (("list", ["a"]), ("object", {"a": "1"})):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"field": "Q", "dim": 2, "basis": [entry, "b"], "squares": {}}, fh)
        print("basis entry", label, run(["analyze", path]))
    for label, (text, _) in helpers.REPEATED_KEY_DOCUMENTS.items():
        # A path relative to ``work``, the working directory: the error names it.
        with open("repeated.json", "w", encoding="utf-8") as fh:
            fh.write(text)
        print("repeated key", label, run(["analyze", "repeated.json"]))


def large_field_and_saturated_limit_digests(work):
    """``verify`` and ``fuzz`` over F_1000003, ``maximal-ideals`` with 1,022
    hyperplanes over F_1021, and ``zero_algebra(16)``, whose 65,536 sets are
    all saturated, under ``EVOALG_MAX_ENUM=1000``."""
    spec = RandomSpec(field=PrimeField(1000003), min_dim=3, max_dim=3, seed=5)
    documents = (
        ("large-field.json", random_algebra(spec), (["verify"], ["verify", "--json"]), None),
        (
            "codim-two.json",
            EvolutionAlgebra(PrimeField(1021), [[1, 2, 3], [0, 0, 0], [0, 0, 0]]),
            (["maximal-ideals", "--json"],),
            None,
        ),
        (
            "zero-16.json",
            helpers.zero_algebra(16),
            (["hereditary", "--saturated"], ["verify", "--trials", "1"]),
            {"EVOALG_MAX_ENUM": "1000"},
        ),
    )
    for name, algebra, commands, env in documents:
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(algebra_to_document(algebra), fh)
        for argv in commands:
            print(name, *argv, run([argv[0], path] + argv[1:], env=env))
    for argv in (
        ["verify", "--random", "--field", "1000003", "--dim", "3"],
        ["fuzz", "--field", "1000003", "--count", "3", "--dim", "2:3"],
    ):
        print(*argv, run(argv))


def main_digests():
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for name, algebra in documents():
                path = name + ".json"
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(algebra_to_document(algebra), fh)
                for label, argv, written in document_commands(path, algebra):
                    for extra in ([], ["--json"]):
                        print(name, label, *extra, run(argv + extra, written))
            for token, _ in FIELDS:
                field = token[1:] if token != "Q" else "Q"
                for seed in (0, 1):
                    argv = ["verify", "--random", "--field", field, "--dim", "2:5", "--seed", str(seed)]
                    for extra in ([], ["--json"]):
                        print("verify --random", token, seed, *extra, run(argv + extra))
            for extra in ([], ["--json"]):
                print("fuzz --count 6", *extra, run(["fuzz", "--count", "6", "--seed", "4"] + extra))
                print("error", *extra, run(["analyze", "missing.json"] + extra))
            limit_and_basis_digests(work)
            large_field_and_saturated_limit_digests(work)
        finally:
            os.chdir(cwd)
    print("run_fuzz(200)", digest(json.dumps(run_fuzz(200).to_json(), sort_keys=True)))
    print("schemas", hashlib.sha256(json.dumps(SCHEMAS).encode()).hexdigest())
    graph_digests()
    oracle_digests()
    linalg_digests()
    suite_digests()
    failing_suite_digests()


def digest_listing(script):
    """Start ``script`` with no bytecode written; its stdout is a pipe."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, script], stdout=subprocess.PIPE, text=True, env=env
    )


LISTING = os.path.join(HERE, "output_digests.txt")


def version_header():
    """The listing file's first line: the Python that made it."""
    return f"# {platform.python_implementation()} {platform.python_version()}"


def write_listing():
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        main_digests()
    with open(LISTING, "w", encoding="utf-8") as fh:
        fh.write(version_header() + "\n" + listing.getvalue())


def labelled(listing):
    """{label: digest} of one listing; the digest is each line's last field."""
    return dict(line.rpartition(" ")[::2] for line in listing.splitlines())


def differing(old, new):
    """The labels of two listings whose digests differ or that one lacks."""
    old, new = labelled(old), labelled(new)
    return [label for label in {**old, **new} if old.get(label) != new.get(label)]


def against(rev):
    """Diff the listing of the working tree against that of ``rev``'s ``src``,
    both made by this script; the exit code is 1 if any label differs."""
    repo = os.path.dirname(HERE)
    git = subprocess.run(["git", "-C", repo, "archive", rev, "src"], capture_output=True)
    if git.returncode:
        sys.exit(git.stderr.decode().strip())
    with tempfile.TemporaryDirectory() as work:
        subprocess.run(["tar", "-x", "-C", work], input=git.stdout, check=True)
        os.mkdir(os.path.join(work, "tests"))
        for name in ("output_digests.py", "helpers.py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(work, "tests", name))
        runs = [
            digest_listing(os.path.join(work, "tests", "output_digests.py")),
            digest_listing(os.path.abspath(__file__)),
        ]
        old, new = (run.communicate()[0] for run in runs)
        if any(run.returncode for run in runs):
            sys.exit("a digest run failed")
    differ = differing(old, new)
    for label in differ:
        print(label)
    print(f"{len(differ)} of {len(labelled(new))} outputs differ from {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digest every program output.")
    parser.add_argument("--against", metavar="REV", help="list the outputs that differ from REV")
    parser.add_argument("--write", action="store_true", help="write the listing to output_digests.txt")
    args = parser.parse_args()
    if args.against:
        sys.exit(against(args.against))
    if args.write:
        write_listing()
    else:
        main_digests()
