"""Command-line front end.

Exit codes: 0 success (and all properties hold), 1 verification failure,
2 usage or input error.  ``EVOALG_MAX_ENUM`` overrides the hereditary
enumeration limit.  Every command takes ``--json`` for the machine format;
scalars stay exact strings there.  ``simple`` looks for a proper nonzero
ideal with the brute-force oracle when the oracle's cost guard admits the
input (prime fields only), and otherwise by the graph theorem.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import documents, ideals, linalg, oracle
from .algebra import DIM_CAP
from .errors import EnumerationLimitError, InputError
from .fields import QQ, PrimeField
from .graph import DEFAULT_ENUM_LIMIT
from .ideals import _labels

__all__ = ["main"]


def _enum_limit():
    raw = os.environ.get("EVOALG_MAX_ENUM")
    if raw is None:
        return DEFAULT_ENUM_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"EVOALG_MAX_ENUM={raw!r} is not an integer") from None
    if value < 1:
        raise InputError("EVOALG_MAX_ENUM must be positive")
    return value


def _set_str(labels):
    return "{" + ",".join(labels) + "}"


def _parse_field_token(token):
    if token == "Q":
        return QQ
    try:
        p = int(token) if token.isdigit() else None
    except ValueError:  # int() rejects some digits, such as "²", and over 4300 of them
        p = None
    if p is None:
        raise InputError(f"field must be Q or a prime, got {token!r}")
    return PrimeField(p)


def _parse_dims(token):
    if ":" in token:
        lo, hi = token.split(":", 1)
    else:
        lo = hi = token
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise InputError(f"dimension must be N or MIN:MAX, got {token!r}") from None
    if not 1 <= lo <= hi:
        raise InputError(f"bad dimension range {token!r}")
    if hi > DIM_CAP:
        raise InputError(f"--dim {token!r} exceeds the cap {DIM_CAP}")
    return lo, hi


def _in_range(convert, lo, hi=None):
    """argparse type: ``convert(text)``, rejected unless lo <= value <= hi."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if not (lo <= value and (hi is None or value <= hi)):
            bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


def _parse_vertex_set(algebra, text):
    if text.strip() == "":
        return frozenset()
    out = set()
    for part in text.split(","):
        try:
            out.add(algebra.index_of(part.strip()))
        except ValueError as exc:
            raise InputError(str(exc)) from None
    return frozenset(out)


def _parse_generators(algebra, text):
    vectors = []
    for chunk in text.split(";"):
        entries = [e.strip() for e in chunk.split(",")]
        if len(entries) != algebra.n:
            raise InputError(
                f"generator {chunk!r} has {len(entries)} entries, expected {algebra.n}"
            )
        vectors.append([algebra.field.parse(e) for e in entries])
    return vectors


def _emit(args, obj, text):
    if args.json:
        _print(json.dumps(obj, indent=2) + "\n")
    else:
        _print(text if text.endswith("\n") else text + "\n")
    return 0


def _print(text):
    """Write to stdout; a reader that closed the pipe early (``| head``) is
    not an error of the command, which keeps its own exit code.  Text that
    the stream cannot encode is an input error, and nothing is written: the
    stream encodes all of it before writing."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except UnicodeEncodeError as exc:
        bad = ascii(exc.object[exc.start : exc.end])
        raise InputError(
            f"stdout encoding {exc.encoding} cannot write {bad}; "
            "--json output is ASCII"
        ) from None


def _write_file(path, text):
    """Write output to a file; an unwritable path is an input error naming it.
    Once it is written, ``wrote PATH`` escapes what stdout cannot encode."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a null byte or a lone surrogate
        raise InputError(f"cannot write {ascii(path)}: {exc}") from None
    encoding = sys.stdout.encoding or "utf-8"
    _print(f"wrote {path.encode(encoding, 'backslashreplace').decode(encoding)}\n")
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    A = documents.load_algebra(args.file)
    g = A.graph
    size, witness = g.min_generating_vertex_set()
    obj = {
        "dim": A.n,
        "field": A.field.json_descriptor(),
        "perfect": A.is_perfect(),
        "degenerate": A.is_degenerate(),
        "annihilator_vertices": _labels(A, A.annihilator_vertices()),
        "square_span_dim": A.square_span.dim,
        "sinks": _labels(A, g.sinks()),
        "sources": _labels(A, g.sources()),
        "bifurcations": _labels(A, g.bifurcations()),
        "source_components": [_labels(A, c) for c in g.source_components()],
        "min_generating": {"size": size, "witness": _labels(A, witness)},
    }
    lines = [
        f"dimension           {obj['dim']}",
        f"field               {A.field.name}",
        f"perfect             {'yes' if obj['perfect'] else 'no'}",
        f"degenerate          {'yes' if obj['degenerate'] else 'no'}",
        f"annihilator         {_set_str(obj['annihilator_vertices'])}",
        f"square span dim     {obj['square_span_dim']}",
        f"sinks               {_set_str(obj['sinks'])}",
        f"sources             {_set_str(obj['sources'])}",
        f"bifurcations        {_set_str(obj['bifurcations'])}",
        "source components   "
        + " ".join(_set_str(c) for c in obj["source_components"]),
        f"min generating set  size {size}, witness {_set_str(obj['min_generating']['witness'])}",
    ]
    return _emit(args, obj, "\n".join(lines))


def cmd_hereditary(args):
    A = documents.load_algebra(args.file)
    g = A.graph
    limit = args.limit if args.limit is not None else _enum_limit()
    if args.maximal:
        mode = "maximal"
        sets = g.maximal_hereditary_sets()
    elif args.saturated:
        mode = "saturated"
        sets = g.hereditary_saturated_sets(limit)
    else:
        mode = "all"
        sets = g.hereditary_sets(limit)
    # The saturated enumeration keeps only saturated sets.
    entries = [
        {"vertices": _labels(A, h), "saturated": args.saturated or g.is_saturated(h)}
        for h in sets
    ]
    obj = {"mode": mode, "sets": entries}
    lines = [
        f"{_set_str(e['vertices'])} saturated={'yes' if e['saturated'] else 'no'}"
        for e in entries
    ]
    lines.append(f"count: {len(entries)}")
    return _emit(args, obj, "\n".join(lines))


def cmd_maximal_ideals(args):
    A = documents.load_algebra(args.file)
    obj = ideals.maximal_ideals_report(A, hyperplane_limit=args.hyperplane_limit)
    fam = obj["hyperplane_family"]
    lines = [
        f"square span: dim {obj['square_span_dim']} (codim {obj['square_span_codim']})",
    ]
    if fam["kind"] == "none":
        lines.append("hyperplanes over the square span: none (perfect)")
    elif fam["kind"] == "unique":
        lines.append("hyperplanes over the square span: the square span itself")
    elif fam["kind"] == "infinite":
        lines.append(
            "hyperplanes over the square span: infinite family "
            "(every hyperplane containing the square span is maximal)"
        )
    else:
        shown = "enumerated" if fam["ideals"] is not None else "not enumerated"
        lines.append(
            f"hyperplanes over the square span: {fam['count']} ({shown})"
        )
    lines.append("from maximal hereditary sets:")
    for entry in obj["from_maximal_hereditary"]:
        verdict = (
            f"maximal ({entry['criterion']})" if entry["maximal"] else "not maximal"
        )
        lines.append(
            f"  {_set_str(entry['vertices'])}  dim {entry['dim']}  {verdict}"
        )
    lines.append(f"complete: {'yes' if obj['complete'] else 'no'}")
    return _emit(args, obj, "\n".join(lines))


def simplicity_verdicts(algebra):
    """Graph verdict plus an ideal-search verdict for simplicity.

    The search is exhaustive (brute-force oracle) when the oracle's cost guard
    admits the input, else it follows the graph theorem of
    ``ideals.find_proper_nonzero_ideal``.  Beside ``graph_simple`` the keys
    are those of the ``ideal_search`` object that ``simple`` prints.
    """
    graph_simple = algebra.graph.is_simple()
    try:
        if not isinstance(algebra.field, PrimeField):
            raise EnumerationLimitError("the oracle runs over prime fields only")
        found = oracle.brute_force_ideals(algebra)
    except EnumerationLimitError:
        method = "theorem"
        ideal = ideals.find_proper_nonzero_ideal(algebra)
        witness = ideal.subspace if ideal is not None else None
    else:
        method = "exhaustive"
        witness = next((s for s in found if 0 < s.dim < algebra.n), None)
    return {
        "graph_simple": graph_simple,
        "method": method,
        "proper_nonzero_ideal_found": witness is not None,
        "witness": None if witness is None else linalg._row_strings(algebra.field, witness._rows),
    }


def cmd_simple(args):
    A = documents.load_algebra(args.file)
    search = simplicity_verdicts(A)
    perfect = A.is_perfect()
    note = None
    if not perfect:
        note = (
            "algebra is not perfect: the graph criterion is established for "
            "finitely generated perfect algebras, so only the graph verdict "
            "is reported"
        )
    obj = {
        "perfect": perfect,
        "graph_simple": search.pop("graph_simple"),
        "algebra_simple": (
            not search["proper_nonzero_ideal_found"] if perfect else None
        ),
        "ideal_search": search,
        "note": note,
    }
    lines = [f"graph simple: {'yes' if obj['graph_simple'] else 'no'}"]
    if perfect:
        lines.append(
            f"algebra simple: {'yes' if obj['algebra_simple'] else 'no'} "
            f"(ideal search: {search['method']})"
        )
    else:
        lines.append(f"note: {note}")
    return _emit(args, obj, "\n".join(lines))


def cmd_quotient(args):
    A = documents.load_algebra(args.file)
    h = _parse_vertex_set(A, args.set)
    if not A.graph.is_hereditary(h):
        raise InputError(
            f"vertex set {_set_str(_labels(A, h))} is not hereditary"
        )
    if len(h) == A.n:
        raise InputError("quotient by all vertices is zero-dimensional")
    quotient = A.quotient_by_hereditary(h)
    text = documents.dumps_document(quotient)
    if args.out:
        return _write_file(args.out, text)
    _print(text)
    return 0


def cmd_ideal(args):
    A = documents.load_algebra(args.file)
    generators = _parse_generators(A, args.generators)
    ideal = ideals.ideal_closure(A, generators)
    criterion = ideal.maximality_criterion() if ideal.is_proper else None
    obj = {
        "dim": ideal.dim,
        "basis": linalg._row_strings(A.field, ideal.subspace._rows),
        "hereditary_vertices": _labels(A, ideal.hereditary_vertices),
        "basis_vertices": _labels(A, ideal.basis_vertices()),
        "absorption": ideal.has_absorption(),
        "proper": ideal.is_proper,
        "maximal": criterion is not None if ideal.is_proper else None,
        "maximal_criterion": criterion,
        "spanned_by_basis_vertices": ideal.is_spanned_by_basis_vertices(),
    }
    lines = [
        f"ideal dimension        {obj['dim']}",
        f"hereditary vertices    {_set_str(obj['hereditary_vertices'])}",
        f"basis vertices inside  {_set_str(obj['basis_vertices'])}",
        f"absorption             {'yes' if obj['absorption'] else 'no'}",
        f"proper                 {'yes' if obj['proper'] else 'no'}",
        "maximal                "
        + (
            "n/a (not proper)"
            if obj["maximal"] is None
            else ("yes (" + obj["maximal_criterion"] + ")" if obj["maximal"] else "no")
        ),
        f"basis-vertex span      {'yes' if obj['spanned_by_basis_vertices'] else 'no'}",
    ]
    return _emit(args, obj, "\n".join(lines))


def cmd_graph(args):
    A = documents.load_algebra(args.file)
    g = A.graph
    dot = g.to_dot()
    if args.dot:
        return _write_file(args.dot, dot)
    obj = {
        "vertices": list(g.labels),
        "edges": [[g.labels[i], g.labels[j]] for i, j in g.edges],
        "dot": dot,
    }
    return _emit(args, obj, dot)


def _render_property_report(obj):
    lines = []
    for prop in obj["properties"]:
        status = prop["status"]
        tag = {"pass": "pass", "fail": "FAIL", "not-applicable": "n/a "}[status]
        lines.append(
            f"{tag}  {prop['name']:<34} checked {prop['checked']:>5}"
            + (f"  failed {prop['failed']}" if prop["failed"] else "")
        )
    for note in obj["notices"]:
        lines.append(f"notice: {note}")
    lines.append("result: " + ("ok" if obj["ok"] else "FAILED"))
    return "\n".join(lines)


def cmd_verify(args):
    from . import galois
    if args.random:
        field = _parse_field_token(args.field)
        lo, hi = _parse_dims(args.dim)
        spec = oracle.RandomSpec(
            field=field,
            min_dim=lo,
            max_dim=hi,
            density=args.density,
            seed=args.seed,
        )
        A = oracle.random_algebra(spec)
    else:
        if not args.file:
            raise InputError("verify needs an algebra file or --random")
        A = documents.load_algebra(args.file)
    report = galois.run_theorem_suite(
        A, trials=args.trials, seed=args.seed, enum_limit=_enum_limit()
    )
    obj = report.to_json()
    _emit(args, obj, _render_property_report(obj))
    return 0 if report.ok else 1


def cmd_fuzz(args):
    from . import galois
    lo, hi = _parse_dims(args.dim)
    if args.field == "mixed":
        fields = ("Q", 2, 3, 5)
    else:
        field = _parse_field_token(args.field)
        fields = ("Q",) if field is QQ else (field.p,)
    report = galois.run_fuzz(
        count=args.count,
        min_dim=lo,
        max_dim=hi,
        trials=args.trials,
        seed=args.seed,
        fields=fields,
        enum_limit=_enum_limit(),
    )
    obj = report.to_json()
    text = _render_property_report(obj) + f"\nalgebras: {args.count}"
    _emit(args, obj, text)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="evoalg",
        description=(
            "Exact analysis of finite-dimensional evolution algebras through "
            "their associated directed graphs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("analyze", cmd_analyze, help="structural summary of an algebra file")
    p.add_argument("file")

    p = add("hereditary", cmd_hereditary, help="hereditary vertex sets")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="every hereditary set (default)")
    mode.add_argument("--maximal", action="store_true", help="maximal ones only")
    mode.add_argument("--saturated", action="store_true", help="hereditary and saturated")
    p.add_argument(
        "--limit", type=_in_range(int, 1), default=None, help="most sets to list"
    )

    p = add("maximal-ideals", cmd_maximal_ideals, help="maximal ideal report")
    p.add_argument("file")
    p.add_argument("--hyperplane-limit", type=_in_range(int, 0), default=1024)

    p = add("simple", cmd_simple, help="simplicity of the graph and the algebra")
    p.add_argument("file")

    p = add("quotient", cmd_quotient, help="quotient by a hereditary vertex set")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated vertex labels")
    p.add_argument("--out", default=None, help="write the document here")

    p = add("ideal", cmd_ideal, help="closure and report of a generated ideal")
    p.add_argument("file")
    p.add_argument(
        "--generators",
        required=True,
        help="semicolon-separated vectors of comma-separated scalars",
    )

    p = add("graph", cmd_graph, help="DOT export of the associated graph")
    p.add_argument("file")
    p.add_argument("--dot", default=None, help="write DOT here instead of stdout")

    p = add("verify", cmd_verify, help="run the property suite on one algebra")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--random", action="store_true", help="verify a random algebra")
    p.add_argument("--field", default="Q")
    p.add_argument("--dim", default="2:6")
    p.add_argument("--density", type=_in_range(float, 0, 1), default=0.6)
    p.add_argument("--trials", type=_in_range(int, 0), default=5)
    p.add_argument("--seed", type=int, default=0)

    p = add("fuzz", cmd_fuzz, help="run the property suite over a random corpus")
    p.add_argument("--count", type=_in_range(int, 0), default=100)
    p.add_argument("--dim", default="2:6")
    p.add_argument("--trials", type=_in_range(int, 0), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="mixed", help="Q, a prime, or mixed")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    # argparse takes a value such as "-2,1" or "-a" for an option; the "="
    # form is read as the value whatever its first character.
    argv = list(sys.argv[1:] if argv is None else argv)
    for flag in ("--generators", "--set"):
        while flag in argv[:-1]:
            k = argv.index(flag)
            argv[k : k + 2] = [f"{flag}={argv[k + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (InputError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
