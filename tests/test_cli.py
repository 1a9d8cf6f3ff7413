import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evoalg
from evoalg import (
    QQ,
    EvolutionAlgebra,
    PrimeField,
    InputError,
    algebra_from_document,
    algebra_to_document,
    oracle,
    run_fuzz,
)
from evoalg.cli import main, simplicity_verdicts
from evoalg.schemas import DOCUMENT, SCHEMAS

from helpers import (
    disjoint_pairs, six_dim_branching, three_dim_perfect, mirror_pair, two_cycle, zero_algebra,
    PAST_THE_IDEAL_SEARCH_GUARD, REPEATED_KEY_DOCUMENTS, no_subspace_enumeration,
)


@pytest.fixture
def six_file(tmp_path):
    path = tmp_path / "six.json"
    path.write_text(json.dumps(algebra_to_document(six_dim_branching())))
    return str(path)


@pytest.fixture
def perfect_file(tmp_path):
    path = tmp_path / "perfect.json"
    path.write_text(json.dumps(algebra_to_document(three_dim_perfect())))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- documents -----------------------------------------------------------------


def test_document_round_trip():
    for A in (six_dim_branching(), three_dim_perfect(), mirror_pair()):
        doc = algebra_to_document(A)
        jsonschema.validate(doc, SCHEMAS["document"])
        assert algebra_from_document(doc) == A


def test_document_rejects_unknown_keys():
    doc = algebra_to_document(two_cycle())
    doc["extra"] = 1
    with pytest.raises(InputError):
        algebra_from_document(doc)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("dim"),
        lambda d: d.update(dim=0),
        lambda d: d.update(field="R"),
        lambda d: d.update(field={"prime": 4}),
        lambda d: d.update(basis=["x", "x"]),
        lambda d: d["squares"].update(zz={"e1": "1"}),
        lambda d: d["squares"].update(e1={"zz": "1"}),
        lambda d: d["squares"].update(e1={"e1": "1/0"}),
        lambda d: d["squares"].update(e1={"e1": 0.5}),
        lambda d: (d.pop("basis"), d.update(dim=65)),
        lambda d: d.update(dim=True, basis=["e1"], squares={}),
        lambda d: d["squares"].update(e1={"e1": "7" * 5000}),
        lambda d: (
            d.update(field={"prime": 5}),
            d["squares"].update(e1={"e1": "7" * 5000}),
        ),
        lambda d: d.update(basis=[["e1"], "e2"]),
        lambda d: d.update(basis=["e1", {"e2": "1"}]),
        lambda d: d.update(squares=[]),
        lambda d: d["squares"].update(e1="e2"),
    ],
)
def test_document_rejects_malformed(mutate):
    doc = algebra_to_document(two_cycle())
    mutate(doc)
    with pytest.raises(InputError):
        algebra_from_document(doc)


def test_document_defaults_basis_and_sparse_zeros():
    doc = {"field": "Q", "dim": 2, "squares": {"e1": {"e2": "1"}}}
    A = algebra_from_document(doc)
    assert A.labels == ("e1", "e2")
    assert not any(A.squares[1])


def test_document_rejects_boolean_scalars(tmp_path, capsys):
    # JSON true/false load as Python bools, which are ints; a scalar is not.
    for value in (True, False):
        doc = {"field": "Q", "dim": 1, "squares": {"e1": {"e1": value}}}
        with pytest.raises(InputError, match="must be a string, got (True|False)$"):
            algebra_from_document(doc)
    path = tmp_path / "bool.json"
    path.write_text('{"field": {"prime": 3}, "dim": 1, "squares": {"e1": {"e1": true}}}')
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "error: scalar for 'e1' -> 'e1' must be a string, got True\n"


def test_document_rejects_integer_scalars(tmp_path, capsys):
    # The document schema types every scalar as a string, so the loader does too.
    for value in (5, 0, -3):
        doc = {"field": "Q", "dim": 1, "squares": {"e1": {"e1": value}}}
        with pytest.raises(InputError, match=f"must be a string, got {value}$"):
            algebra_from_document(doc)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, SCHEMAS["document"])
    path = tmp_path / "int.json"
    path.write_text('{"field": {"prime": 3}, "dim": 1, "squares": {"e1": {"e1": 5}}}')
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "error: scalar for 'e1' -> 'e1' must be a string, got 5\n"


@pytest.mark.parametrize(
    "text, key", REPEATED_KEY_DOCUMENTS.values(), ids=REPEATED_KEY_DOCUMENTS.keys()
)
def test_document_rejects_repeated_keys(tmp_path, capsys, text, key):
    # json.loads keeps the last of two equal keys, so a repeat would be lost.
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: repeated key {key!r}\n"

# -- commands --------------------------------------------------------------------


def _object_nodes(schema):
    """Every object schema with ``properties`` inside ``schema``, itself first."""
    if isinstance(schema, list):
        for item in schema:
            yield from _object_nodes(item)
    elif isinstance(schema, dict):
        if "properties" in schema:
            yield schema
        for key, value in schema.items():
            # The values of "properties" are schemas; the mapping is not one.
            for child in value.values() if key == "properties" else [value]:
                yield from _object_nodes(child)


def test_every_schema_object_is_closed():
    # Every key of an output object is required and no other key is allowed;
    # the input document alone has an optional key, "basis".
    for name, schema in SCHEMAS.items():
        nodes = list(_object_nodes(schema))
        assert nodes[0] is schema, name
        for node in nodes:
            required = ["field", "dim", "squares"] if node is DOCUMENT else list(node["properties"])
            assert node["required"] == required, name
            assert node["additionalProperties"] is False, name


def test_analyze_text_and_json(six_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", six_file)
    assert code == 0
    assert "perfect             no" in out
    assert "sinks               {e4,e6}" in out
    code, out, _ = run_cli(capsys, "analyze", six_file, "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["analyze"])
    assert obj["square_span_dim"] == 3
    assert obj["min_generating"] == {"size": 2, "witness": ["e1", "e3"]}


def test_hereditary_modes(six_file, capsys):
    code, out, _ = run_cli(capsys, "hereditary", six_file, "--maximal", "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["hereditary"])
    assert [e["vertices"] for e in obj["sets"]] == [
        ["e1", "e2", "e4", "e5", "e6"],
        ["e2", "e3", "e4", "e5", "e6"],
    ]
    code, out, _ = run_cli(capsys, "hereditary", six_file, "--json")
    assert len(json.loads(out)["sets"]) == 21
    code, out, _ = run_cli(capsys, "hereditary", six_file, "--saturated", "--json")
    sat = json.loads(out)
    assert all(e["saturated"] for e in sat["sets"])


def test_hereditary_sets_list_labels_in_index_order(tmp_path, capsys):
    # A set built by a union may iterate out of index order ({0, 8} as 8, 0);
    # every rendered set still lists its labels in index order.
    A = zero_algebra(9)
    path = tmp_path / "zero9.json"
    path.write_text(json.dumps(algebra_to_document(A)))
    code, out, _ = run_cli(capsys, "hereditary", str(path), "--all", "--json")
    assert code == 0
    entries = json.loads(out)["sets"]
    assert len(entries) == 2**9
    for entry in entries:
        positions = [A.labels.index(label) for label in entry["vertices"]]
        assert positions == sorted(positions)


def test_hereditary_respects_env_limit(six_file, capsys, monkeypatch):
    monkeypatch.setenv("EVOALG_MAX_ENUM", "5")
    code, _, err = run_cli(capsys, "hereditary", six_file)
    assert code == 2
    assert "hereditary sets" in err
    monkeypatch.setenv("EVOALG_MAX_ENUM", "bogus")
    code, _, err = run_cli(capsys, "hereditary", six_file)
    assert code == 2
    monkeypatch.setenv("EVOALG_MAX_ENUM", "0")
    code, _, err = run_cli(capsys, "hereditary", six_file)
    assert code == 2 and "EVOALG_MAX_ENUM must be positive" in err
    # A limit past sys.maxsize is no limit at all.
    monkeypatch.setenv("EVOALG_MAX_ENUM", "9" * 30)
    code, out, err = run_cli(capsys, "hereditary", six_file)
    assert (code, err) == (0, "")
    assert out.endswith("count: 21\n")
    code, _, err = run_cli(capsys, "verify", six_file, "--trials", "1")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("limit", [str(sys.maxsize - 1), str(sys.maxsize), "9" * 30])
@pytest.mark.parametrize("mode", ["--all", "--saturated"])
def test_hereditary_limit_past_maxsize(six_file, capsys, mode, limit):
    code, out, err = run_cli(capsys, "hereditary", six_file, mode, "--limit", limit)
    assert (code, err) == (0, "")
    assert out.endswith("count: 21\n" if mode == "--all" else "count: 8\n")


def test_hereditary_saturated_limit_counts_saturated_sets(tmp_path, capsys):
    # 3^13 hereditary sets, 2^13 saturated; the limit counts the listed ones.
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(algebra_to_document(disjoint_pairs(13))))
    code, out, _ = run_cli(capsys, "hereditary", str(path), "--saturated", "--limit", "10000", "--json")
    assert code == 0
    assert len(json.loads(out)["sets"]) == 2**13
    code, out, err = run_cli(capsys, "hereditary", str(path), "--saturated", "--limit", "8191")
    assert (code, out) == (2, "")
    assert err == "error: more than 8191 hereditary saturated sets\n"


def test_maximal_ideals_command(perfect_file, capsys):
    code, out, _ = run_cli(capsys, "maximal-ideals", perfect_file, "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["maximal-ideals"])
    assert obj["complete"] is True
    assert obj["from_maximal_hereditary"][0]["vertices"] == ["e2", "e3"]


def _f3_one_loop(n):
    """F3, e1^2 = e1 and every other square zero: A^2 = span(e1), codim n - 1."""
    return {"field": {"prime": 3}, "dim": n, "squares": {"e1": {"e1": "1"}}}


def _maximal_entries(*rows):
    return [
        {"vertices": list(vs), "dim": len(vs), "maximal": True, "criterion": crit}
        for vs, crit in rows
    ]


def test_maximal_ideals_hyperplane_family_text_and_json(tmp_path, capsys):
    # Four hyperplanes over span(e1) in F3^3, listed by their functional in
    # lexicographic order; the last two rows (0,1,2) and (0,1,1) carry the
    # sign of -phi_j/phi_d.  With --hyperplane-limit 1 the family is counted
    # but not listed, so the report is not complete.
    path = tmp_path / "f3.json"
    path.write_text(json.dumps(_f3_one_loop(3)))
    entries = _maximal_entries(
        (("e1", "e2"), "hyperplane_over_square_span"),
        (("e1", "e3"), "hyperplane_over_square_span"),
        (("e2", "e3"), "maximal_hereditary_set"),
    )
    family = [
        [["1", "0", "0"], ["0", "1", "0"]],
        [["1", "0", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "1", "2"]],
        [["1", "0", "0"], ["0", "1", "1"]],
    ]
    for extra, shown, ideals, complete in (
        ((), "enumerated", family, True),
        (("--hyperplane-limit", "1"), "not enumerated", None, False),
    ):
        code, out, _ = run_cli(capsys, "maximal-ideals", str(path), *extra)
        assert code == 0
        assert out == (
            "square span: dim 1 (codim 2)\n"
            f"hyperplanes over the square span: 4 ({shown})\n"
            "from maximal hereditary sets:\n"
            "  {e1,e2}  dim 2  maximal (hyperplane_over_square_span)\n"
            "  {e1,e3}  dim 2  maximal (hyperplane_over_square_span)\n"
            "  {e2,e3}  dim 2  maximal (maximal_hereditary_set)\n"
            f"complete: {'yes' if complete else 'no'}\n"
        )
        code, out, _ = run_cli(capsys, "maximal-ideals", str(path), *extra, "--json")
        assert code == 0
        expected = {
            "dim": 3,
            "field": {"prime": 3},
            "perfect": False,
            "square_span_dim": 1,
            "square_span_codim": 2,
            "square_span_basis": [["1", "0", "0"]],
            "hyperplane_family": {"kind": "family", "count": 4, "ideals": ideals},
            "from_maximal_hereditary": entries,
            "complete": complete,
        }
        assert out == json.dumps(expected, indent=2) + "\n"
        jsonschema.validate(json.loads(out), SCHEMAS["maximal-ideals"])


def test_maximal_ideals_square_span_hyperplane_text_and_json(tmp_path, capsys):
    path = tmp_path / "f3.json"
    path.write_text(json.dumps(_f3_one_loop(2)))
    code, out, _ = run_cli(capsys, "maximal-ideals", str(path))
    assert code == 0
    assert out == (
        "square span: dim 1 (codim 1)\n"
        "hyperplanes over the square span: the square span itself\n"
        "from maximal hereditary sets:\n"
        "  {e1}  dim 1  maximal (hyperplane_over_square_span)\n"
        "  {e2}  dim 1  maximal (maximal_hereditary_set)\n"
        "complete: yes\n"
    )
    code, out, _ = run_cli(capsys, "maximal-ideals", str(path), "--json")
    assert code == 0
    expected = {
        "dim": 2,
        "field": {"prime": 3},
        "perfect": False,
        "square_span_dim": 1,
        "square_span_codim": 1,
        "square_span_basis": [["1", "0"]],
        "hyperplane_family": {"kind": "unique", "count": 1, "ideals": [[["1", "0"]]]},
        "from_maximal_hereditary": _maximal_entries(
            (("e1",), "hyperplane_over_square_span"),
            (("e2",), "maximal_hereditary_set"),
        ),
        "complete": True,
    }
    assert out == json.dumps(expected, indent=2) + "\n"
    jsonschema.validate(json.loads(out), SCHEMAS["maximal-ideals"])

def test_simple_command(perfect_file, capsys):
    code, out, _ = run_cli(capsys, "simple", perfect_file, "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["simple"])
    assert obj["perfect"] is True
    assert obj["graph_simple"] is False
    assert obj["algebra_simple"] is False


def test_simple_command_on_non_perfect_reports_caveat(six_file, capsys):
    code, out, _ = run_cli(capsys, "simple", six_file, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["perfect"] is False
    assert obj["algebra_simple"] is None
    assert obj["note"]
    assert obj["ideal_search"]["proper_nonzero_ideal_found"] is True


def _cycle_with_loops(n, loop, step):
    """e_i^2 = loop(i) e_i + step(i) e_(i+1 mod n): a strongly connected graph."""
    squares = [[0] * n for _ in range(n)]
    for i in range(n):
        squares[i][i] = loop(i)
        squares[i][(i + 1) % n] = step(i)
    return EvolutionAlgebra(QQ, squares)


def test_simple_on_strongly_connected_non_perfect_gives_square_span(tmp_path, capsys):
    # The cycle products of the loop and step coefficients cancel, so the
    # squares span a hyperplane A^2: a proper nonzero ideal.
    A = _cycle_with_loops(8, lambda i: 3 ** ((i + 1) % 8), lambda i: -(3**i))
    path = tmp_path / "a.json"
    path.write_text(json.dumps(algebra_to_document(A)))
    code, out, _ = run_cli(capsys, "simple", str(path), "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["simple"])
    assert obj["perfect"] is False and obj["graph_simple"] is True
    assert A.square_span.dim == 7
    assert obj["ideal_search"] == {
        "method": "theorem",
        "proper_nonzero_ideal_found": True,
        "witness": [[QQ.format(x) for x in row] for row in A.square_span.basis],
    }


def test_simple_on_perfect_strongly_connected_is_decided_by_the_theorem(
    tmp_path, capsys
):
    A = _cycle_with_loops(16, lambda i: 2, lambda i: 1)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(algebra_to_document(A)))
    code, out, _ = run_cli(capsys, "simple", str(path), "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["simple"])
    assert obj["perfect"] is True and obj["graph_simple"] is True
    assert obj["algebra_simple"] is True
    assert obj["ideal_search"] == {
        "method": "theorem",
        "proper_nonzero_ideal_found": False,
        "witness": None,
    }


@pytest.mark.parametrize("p, n", PAST_THE_IDEAL_SEARCH_GUARD)
def test_simple_past_the_ideal_search_guard_is_decided_by_the_theorem(
    monkeypatch, p, n
):
    # A proper nonzero ideal of a zero algebra exists from dimension 2 up.
    monkeypatch.setattr(oracle, "enumerate_subspaces", no_subspace_enumeration)
    verdicts = simplicity_verdicts(zero_algebra(n, PrimeField(p)))
    assert verdicts["method"] == "theorem"
    assert verdicts["proper_nonzero_ideal_found"] is (n > 1)


def test_quotient_round_trip(perfect_file, tmp_path, capsys):
    out_path = str(tmp_path / "quotient.json")
    code, out, _ = run_cli(
        capsys, "quotient", perfect_file, "--set", "e2,e3", "--out", out_path
    )
    assert code == 0
    doc = json.loads(open(out_path).read())
    jsonschema.validate(doc, SCHEMAS["document"])
    quotient = algebra_from_document(doc)
    assert quotient == three_dim_perfect().quotient_by_hereditary({1, 2})
    assert quotient.n == 1
    assert quotient.graph.edges == ((0, 0),)
    # The empty set is hereditary and spans the zero ideal: A/0 is A.
    code, out, err = run_cli(capsys, "quotient", perfect_file, "--set", "")
    assert (code, err) == (0, "")
    assert algebra_from_document(json.loads(out)) == three_dim_perfect()


def test_quotient_rejects_non_hereditary(six_file, capsys):
    code, _, err = run_cli(capsys, "quotient", six_file, "--set", "e1")
    assert code == 2
    assert "not hereditary" in err


def test_quotient_rejects_unknown_label(six_file, capsys):
    code, _, err = run_cli(capsys, "quotient", six_file, "--set", "zz")
    assert code == 2
    assert "unknown basis label" in err


def test_ideal_command_reports_mirror_diagonal(tmp_path, capsys):
    path = tmp_path / "mirror.json"
    path.write_text(json.dumps(algebra_to_document(mirror_pair())))
    code, out, _ = run_cli(
        capsys, "ideal", str(path), "--generators", "1,1", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["ideal"])
    assert obj["dim"] == 1
    assert obj["hereditary_vertices"] == ["e1", "e2"]
    assert obj["basis_vertices"] == []
    assert obj["absorption"] is False
    assert obj["maximal"] is True
    assert obj["maximal_criterion"] == "hyperplane_over_square_span"
    assert obj["spanned_by_basis_vertices"] is False


def test_ideal_generators_may_start_with_a_minus_sign(tmp_path, capsys):
    path = tmp_path / "mirror.json"
    path.write_text(json.dumps(algebra_to_document(mirror_pair())))
    for extra in ([], ["--json"]):
        code, out, err = run_cli(
            capsys, "ideal", str(path), "--generators", "-2,1", *extra
        )
        assert code == 0, err
        assert (code, out) == run_cli(
            capsys, "ideal", str(path), "--generators=-2,1", *extra
        )[:2]


def test_quotient_set_may_start_with_a_minus_sign(tmp_path, capsys):
    # -a is a sink, so {-a} is hereditary.
    doc = {"field": "Q", "dim": 2, "basis": ["-a", "b"], "squares": {"b": {"-a": "1"}}}
    path = tmp_path / "minus.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "quotient", str(path), "--set", "-a")
    assert code == 0, err
    assert (code, out) == run_cli(capsys, "quotient", str(path), "--set=-a")[:2]


@pytest.mark.parametrize(
    "labels, bad",
    [(["a,b", "c", "d"], "a,b"), (["a", " c", "d"], " c"), (["a", "b", "c\t"], "c\t"),
     (["", "x", "y"], "")],
)
def test_document_rejects_labels_the_cli_cannot_name_apart(tmp_path, capsys, labels, bad):
    # --set splits on commas and strips each part, and vertex sets print as
    # {a,b}: such a label could not be named, or printed apart from others.
    doc = {"field": "Q", "dim": 3, "basis": labels, "squares": {}}
    with pytest.raises(InputError, match=f"basis label {re.escape(repr(bad))}"):
        algebra_from_document(doc)
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    for argv in (["hereditary", str(path)], ["quotient", str(path), "--set", labels[0]]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and repr(bad) in err, argv


def test_ideal_command_rejects_bad_generators(six_file, capsys):
    code, _, err = run_cli(capsys, "ideal", six_file, "--generators", "1,2")
    assert code == 2
    assert "entries" in err


def test_graph_command_dot_and_json(perfect_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "graph", perfect_file)
    assert code == 0
    assert out.startswith("digraph {")
    assert "e1 -> e2;" in out
    code, out, _ = run_cli(capsys, "graph", perfect_file, "--json")
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["graph"])
    assert ["e3", "e2"] in obj["edges"]
    dot_path = str(tmp_path / "g.dot")
    code, out, _ = run_cli(capsys, "graph", perfect_file, "--dot", dot_path)
    assert code == 0
    assert open(dot_path).read() == three_dim_perfect().graph.to_dot()


def test_verify_command(six_file, capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", six_file, "--json", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["verify"])
    assert obj["ok"] is True
    # Past the enumeration limit the text report lists both notices.
    monkeypatch.setenv("EVOALG_MAX_ENUM", "1")
    code, out, _ = run_cli(capsys, "verify", six_file, "--seed", "3")
    assert code == 0
    assert out.endswith(
        "notice: hereditary enumeration exceeded the limit; "
        "enumeration-backed laws were skipped\n"
        "notice: hereditary saturated enumeration exceeded the limit; "
        "laws over saturated sets were skipped\n"
        "result: ok\n"
    )


def test_verify_random(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--random",
        "--field",
        "2",
        "--dim",
        "3:4",
        "--seed",
        "11",
        "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["algebra"]["field"] == {"prime": 2}
    assert 3 <= obj["algebra"]["dim"] <= 4


def test_verify_without_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


def test_fuzz_command(capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "--count", "8", "--seed", "4", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS["fuzz"])
    assert obj["ok"] is True
    assert obj["count"] == 8
    code, out, _ = run_cli(capsys, "fuzz", "--count", "4", "--field", "2", "--json")
    assert code == 0
    assert out == json.dumps(run_fuzz(count=4, fields=(2,)).to_json(), indent=2) + "\n"


def test_fuzz_respects_env_limit(capsys, monkeypatch):
    monkeypatch.setenv("EVOALG_MAX_ENUM", "2")
    code, out, err = run_cli(capsys, "fuzz", "--count", "2", "--dim", "6", "--field", "2")
    assert (code, err) == (0, "")
    assert (
        "notice: algebra 0: hereditary enumeration exceeded the limit; "
        "enumeration-backed laws were skipped\n"
    ) in out


def test_outputs_are_byte_identical_across_runs(six_file, capsys):
    for argv in (
        ["analyze", six_file, "--json"],
        ["hereditary", six_file, "--json"],
        ["maximal-ideals", six_file, "--json"],
        ["verify", six_file, "--json", "--seed", "5"],
        ["graph", six_file],
    ):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


_DEEP_DOCUMENTS = {
    "deep_list.json": "[" * 100_000 + "]" * 100_000,
    "deep_squares.json": '{"field": "Q", "dim": 1, "squares": '
    + '{"e1": ' * 50_000 + "{}" + "}" * 50_000 + "}",
}


def test_parse_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    missing = str(tmp_path / "missing.json")
    code, _, err = run_cli(capsys, "analyze", missing)
    assert code == 2
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    code, _, err = run_cli(capsys, "fuzz", "--count", "1", "--field", "abc")
    assert code == 2 and "error:" in err
    for dim, message in (("abc", "must be N or MIN:MAX"), ("3:2", "bad dimension range")):
        for argv in (["verify", "--random", "--dim", dim], ["fuzz", "--count", "1", "--dim", dim]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2 and message in err, argv
    # str.isdigit() holds for these, but int() reads none of them.
    for argv in (
        ["verify", "--random", "--field", "²"],
        ["fuzz", "--count", "1", "--field", "³"],
        ["verify", "--random", "--field", "9" * 5000],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "field must be Q or a prime" in err, argv[:4]
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"field": "Q", "dim": 65, "squares": {}}))
    code, _, err = run_cli(capsys, "analyze", str(huge))
    assert code == 2 and "exceeds the cap" in err
    code, _, err = run_cli(capsys, "verify", "--random", "--dim", "65")
    assert code == 2 and "exceeds the cap" in err
    code, _, err = run_cli(capsys, "fuzz", "--dim", "65:70", "--count", "1")
    assert code == 2 and "exceeds the cap" in err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"field": "Q", "dim": 1, "basis": ["\xe9"], "squares": {}}')
    code, _, err = run_cli(capsys, "analyze", str(latin1))
    assert code == 2 and "not UTF-8" in err
    digits = "7" * 5000
    for field in ("Q", {"prime": 5}):
        long_scalar = tmp_path / "long_scalar.json"
        long_scalar.write_text(
            json.dumps({"field": field, "dim": 1, "squares": {"e1": {"e1": digits}}})
        )
        code, _, err = run_cli(capsys, "analyze", str(long_scalar))
        assert code == 2 and "5000 characters" in err
    long_number = tmp_path / "long_number.json"
    long_number.write_text(
        '{"field": "Q", "dim": 1, "squares": {"e1": {"e1": %s}}}' % digits
    )
    code, _, err = run_cli(capsys, "analyze", str(long_number))
    assert code == 2 and "not valid JSON" in err
    for name, text in _DEEP_DOCUMENTS.items():
        deep = tmp_path / name
        deep.write_text(text)
        code, out, err = run_cli(capsys, "analyze", str(deep))
        assert code == 2 and "nested too deeply" in err and out == "", name
    two = tmp_path / "two.json"
    two.write_text(json.dumps(algebra_to_document(two_cycle())))
    code, _, err = run_cli(capsys, "ideal", str(two), f"--generators=1,{digits}")
    assert code == 2 and "5000 characters" in err
    for argv, flag in (
        (["maximal-ideals", str(two), "--hyperplane-limit", "-1"], "--hyperplane-limit"),
        (["verify", "--random", "--density", "1.5"], "--density"),
        (["verify", "--random", "--density", "-1"], "--density"),
        (["hereditary", str(two), "--limit", "0"], "--limit"),
        (["hereditary", str(two), "--limit", "abc"], "--limit"),
        (["fuzz", "--count", "-1"], "--count"),
        (["fuzz", "--count", "1", "--trials", "-4"], "--trials"),
        (["verify", "--random", "--trials", "-4"], "--trials"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and flag in err, argv
    # Three squares of 4,000-digit entries, the third the sum of the first
    # two: the square-span echelon entries are ratios of 2x2 minors, about
    # 8,000 digits, past the int-str limit when formatted.
    rng = random.Random(5)
    x, y = ([rng.randrange(10**3999, 10**4000) for _ in range(3)] for _ in range(2))
    rows = (x, y, [a + b for a, b in zip(x, y)])
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({
        "field": "Q",
        "dim": 3,
        "squares": {
            f"e{i + 1}": {f"e{j + 1}": str(v) for j, v in enumerate(row)}
            for i, row in enumerate(rows)
        },
    }))
    code, out, err = run_cli(capsys, "maximal-ideals", str(wide), "--json")
    assert code == 2 and "digit limit" in err and out == ""
    # Output files that cannot be written: a directory, a missing directory.
    six = tmp_path / "six.json"
    six.write_text(json.dumps(algebra_to_document(six_dim_branching())))
    code, out, err = run_cli(capsys, "quotient", str(six), "--set", "e1,e2,e3,e4,e5,e6")
    assert code == 2 and out == "" and "zero-dimensional" in err
    missing_dir = str(tmp_path / "no-such-dir" / "x.dot")
    for argv, path in (
        (["quotient", str(six), "--set", "e6", "--out", str(tmp_path)], str(tmp_path)),
        (["graph", str(two), "--dot", missing_dir], missing_dir),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and f"cannot write {path}" in err and out == "", argv


def test_label_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    # A lone surrogate is valid JSON but cannot be written as UTF-8 text.
    doc = tmp_path / "surrogate.json"
    doc.write_text(json.dumps({"field": "Q", "dim": 2, "basis": ["\ud800", "b"], "squares": {}}))
    dot = str(tmp_path / "g.dot")
    code, out, err = run_cli(capsys, "graph", str(doc), "--dot", dot)
    assert code == 2 and "UTF-8" in err and out == "" and not os.path.exists(dot)
    # Text output reaches a real stream only in a child process.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(evoalg.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "evoalg", "analyze", str(doc)], capture_output=True, env=env
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"Traceback" not in proc.stderr and b"UTF-8" in proc.stderr


def test_text_that_stdout_cannot_encode_is_an_input_error(tmp_path):
    doc = tmp_path / "accent.json"
    doc.write_text(json.dumps({"field": "Q", "dim": 2, "basis": ["\u00e9", "b"], "squares": {}}))
    env = dict(
        os.environ,
        PYTHONIOENCODING="ascii",
        PYTHONPATH=os.path.dirname(os.path.dirname(evoalg.__file__)),
    )
    for command, *extra in (
        ["analyze"], ["hereditary"], ["graph"], ["ideal", "--generators", "1,0"], ["maximal-ideals"]
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "evoalg", command, str(doc), *extra],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 2 and proc.stdout == b"", command
        assert b"Traceback" not in proc.stderr and b"ascii" in proc.stderr, command
        assert b"--json" in proc.stderr, command
    # The JSON form is ASCII, so the same stream takes it.
    proc = subprocess.run(
        [sys.executable, "-m", "evoalg", "analyze", str(doc), "--json"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0 and json.loads(proc.stdout)["sinks"] == ["\u00e9", "b"]


def test_written_file_is_reported_whatever_stdout_can_encode(tmp_path):
    # Once the file is on disk the command has done its work: a path that
    # stdout cannot encode is shown escaped, and the exit code is 0.
    doc = tmp_path / "perfect.json"
    doc.write_text(json.dumps(algebra_to_document(three_dim_perfect())))
    src = os.path.dirname(os.path.dirname(evoalg.__file__))
    for encoding, shown in (("ascii", b"\\xe9"), ("utf-8", "\u00e9".encode())):
        env = dict(os.environ, PYTHONIOENCODING=encoding, PYTHONPATH=src)
        for argv, name in (
            (["graph", str(doc), "--dot"], "\u00e9.dot"),
            (["quotient", str(doc), "--set", "", "--out"], "\u00e92.json"),
        ):
            path = tmp_path / encoding / name
            path.parent.mkdir(exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "evoalg", *argv, str(path)], capture_output=True, env=env
            )
            assert (proc.returncode, proc.stderr) == (0, b""), (encoding, argv)
            assert proc.stdout == f"wrote {path}\n".encode(encoding, "backslashreplace")
            assert shown in proc.stdout
            assert path.read_text(encoding="utf-8").startswith(("digraph", "{"))


@pytest.mark.parametrize("name", ["a\x00b", "\ud800"], ids=["null_byte", "lone_surrogate"])
def test_path_that_cannot_be_opened_is_an_input_error(tmp_path, capsys, name):
    # No file system takes these names, so open() raises ValueError (a
    # UnicodeEncodeError for the surrogate) before any OSError could.
    doc = tmp_path / "perfect.json"
    doc.write_text(json.dumps(algebra_to_document(three_dim_perfect())))
    shown = ascii(str(tmp_path / name))[1:-1]
    for argv, suffix in (
        (["graph", str(doc), "--dot"], ".dot"),
        (["quotient", str(doc), "--set", "", "--out"], ".json"),
    ):
        code, out, err = run_cli(capsys, *argv, str(tmp_path / name) + suffix)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: cannot write '{shown}{suffix}': "), err
    code, out, err = run_cli(capsys, "analyze", str(tmp_path / name) + ".json")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: '{shown}.json': cannot read (") and "JSON" not in err


_ORACLE_NAMES = (
    "RandomSpec", "brute_force_absorption", "brute_force_hereditary", "brute_force_ideals",
    "brute_force_is_ideal", "brute_force_maximal_ideals", "enumerate_subspaces",
    "gaussian_binomial", "random_algebra", "random_perfect_algebra",
)


def _fresh_interpreter(script):
    """The stdout lines of ``script`` run by a new interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(evoalg.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_imports_the_property_suite_only_for_verify_and_fuzz():
    # ``import evoalg`` loads the oracle and the property suite on first use.
    script = f"""
import sys, evoalg
lazy = ("evoalg.galois", "evoalg.oracle")
print(sorted(m for m in lazy if m in sys.modules))
names = {_ORACLE_NAMES!r}
print(set(names) <= set(evoalg.__all__))
resolved = [getattr(evoalg, name) for name in names]
from evoalg import oracle
print(all(obj is getattr(oracle, name) for obj, name in zip(resolved, names)))
print(sorted(m for m in lazy if m in sys.modules))
"""
    assert _fresh_interpreter(script) == ["[]", "True", "True", "['evoalg.oracle']"]
    script = """
import sys, evoalg.cli
print(sorted(m for m in ("evoalg.galois", "dataclasses", "inspect", "evoalg.oracle")
             if m in sys.modules))
import evoalg
suite = evoalg.run_theorem_suite
from evoalg import galois
print(suite is galois.run_theorem_suite)
names = {}
exec("from evoalg import *", names)
print(set(evoalg.__all__) <= set(names), set(evoalg.__all__) <= set(dir(evoalg)))
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
"""
    # ``cli`` imports oracle itself: perfbench's tracer wraps only modules
    # already imported, and its ``cli`` pins are oracle functions.
    assert _fresh_interpreter(script) == ["['evoalg.oracle']", "True", "True True", "[]"]
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        evoalg.nope


def test_closed_stdout_pipe_leaves_no_traceback():
    # The reader closes the pipe before the command writes, as `| head` does
    # when it has read enough.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(evoalg.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "evoalg", "fuzz", "--count", "2", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


# -- exit contract ---------------------------------------------------------------

_LABEL = st.sampled_from(["e1", "e2", "e1", "e2", "e3", "x", "", "-a", "-e1", "\ud800"])
_SCALAR = st.one_of(
    st.sampled_from(["1", "-2", "1/2", "0", "3", "3/0", "abc", "", "7" * 5000]),
    st.integers(-5, 5),
    st.none(),
    st.floats(),
)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 70), st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_LABEL, inner, max_size=3),
    max_leaves=6,
)
# Mostly well-formed documents, with a malformed value here and there.
_DOCUMENT = st.fixed_dictionaries(
    {
        "field": st.sampled_from(
            ["Q", "Q", {"prime": 2}, {"prime": 3}, {"prime": 5}, {"prime": 4},
             {"prime": 2**61 - 1}, {"prime": "5"}, {"prime": 1.5}, "F2", None]
        ),
        "dim": st.sampled_from([1, 2, 2, 3, 3, 0, 65, 10**30, True, "3", 2.5]),
        "squares": st.one_of(
            st.dictionaries(_LABEL, st.dictionaries(_LABEL, _SCALAR, max_size=3), max_size=3),
            st.dictionaries(_LABEL, _JSON, max_size=2),
        ),
    },
    optional={"basis": st.one_of(st.lists(_LABEL, max_size=3), _JSON)},
)
_FILE_BYTES = (
    st.one_of(_DOCUMENT, _DOCUMENT, _JSON).map(lambda d: json.dumps(d).encode())
    | st.binary(max_size=12)
    | st.sampled_from(list(_DEEP_DOCUMENTS.values())).map(str.encode)
)
# One well-formed command line per command, then stray tokens; numbers stay
# small so that every command that runs finishes quickly.
_COMMAND = st.sampled_from(
    [
        ["analyze", "DOC"],
        ["hereditary", "DOC", "--saturated"],
        ["hereditary", "DOC", "--limit", "3"],
        ["maximal-ideals", "DOC", "--hyperplane-limit", "3"],
        ["simple", "DOC"],
        ["quotient", "DOC", "--set", "e2", "--out", "q.json"],
        ["quotient", "DOC", "--set", "-a", "--out", "q.json"],
        ["ideal", "DOC", "--generators", "-2,1"],
        ["graph", "DOC", "--dot", "g.dot"],
        ["verify", "DOC", "--trials", "1"],
        ["verify", "--random", "--dim", "1:2", "--trials", "1"],
        ["fuzz", "--count", "1", "--dim", "1:2", "--trials", "1"],
        ["nope"],
    ]
)
_TOKEN = st.sampled_from(
    ["DOC", "missing.json", ".", "--json", "--all", "--maximal",
     "--limit", "--seed", "--set", "--generators", "--field", "--dim",
     "--density", "--trials", "-h", "0", "-1", "abc", "nan", "2:1", "65",
     "Q", "4", "e1,e2", "", "1,0;0,1", "1,x", "-a", "-e1,e2", "--set=-a",
     "--out", "--dot", "²", "7" * 5000, "9" * 19]
)
# EVOALG_MAX_ENUM: unset, not an integer, not positive, small, past
# sys.maxsize, too long.
_ENUM_LIMIT = st.sampled_from([None, "abc", "0", "-3", "5", "9" * 19, "7" * 5000])


@given(
    _FILE_BYTES,
    _COMMAND,
    st.just([]) | st.lists(_TOKEN, min_size=1, max_size=2),
    _ENUM_LIMIT,
)
@settings(max_examples=80, deadline=None)
def test_exit_contract_on_malformed_documents_and_argv(
    content, command, tokens, enum_limit
):
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    before = os.environ.get("EVOALG_MAX_ENUM")
    # patch.dict puts the environment back as it was after each example.
    with tempfile.TemporaryDirectory() as work, mock.patch.dict(os.environ):
        os.environ.pop("EVOALG_MAX_ENUM", None)
        if enum_limit is not None:
            os.environ["EVOALG_MAX_ENUM"] = enum_limit
        doc = os.path.join(work, "doc.json")
        with open(doc, "wb") as fh:
            fh.write(content)
        argv = [doc if t == "DOC" else t for t in command + tokens]
        os.chdir(work)  # --out and --dot write here
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert os.environ.get("EVOALG_MAX_ENUM") == before
    assert code in (0, 1, 2), argv
    assert "Traceback" not in stderr.getvalue(), argv


# A seeded fuzzer over documents and command lines.  Each document is a
# well-formed one with a few of its parts mutated; each command line is one
# command with its options drawn at random, then a stray token added or
# dropped now and then.  Output paths hold only surrogates that a shell's
# argv can carry.
_FUZZ_FIELDS = ["Q", "Q", {"prime": 2}, {"prime": 3}, {"prime": 5}, {"prime": 7},
                {"prime": 4}, {"prime": "5"}, {"prime": True}, {"prime": 2**61 - 1}, "F2", None]
_FUZZ_SCALARS = ["1", "1", "-2", "1/2", "-3/4", "0", "2", "3/0", "1.5", "+3", " 1", "",
                 "abc", "9" * 40, "7" * 5000, 1, -1, 0.5, None, True, [], {}]
_FUZZ_LABELS = ["e1", "e2", "e3", "a", "b,c", "-a", " x", "", "é", "\udce9", "\ud800"]


def _fuzz_document(rng):
    n = rng.choice([1, 2, 2, 3, 3, 3])
    labels = [f"e{i + 1}" for i in range(n)]
    doc = {"field": rng.choice(_FUZZ_FIELDS[:6]), "dim": n}
    if rng.random() < 0.3:
        labels = rng.sample(_FUZZ_LABELS, n) if rng.random() < 0.8 else labels[:-1] + labels[:1]
        doc["basis"] = labels
    valid = _FUZZ_SCALARS[:7] if doc["field"] == "Q" else ["1", "-2", "0", "2", "3"]
    doc["squares"] = {
        a: {b: rng.choice(valid) for b in labels if rng.random() < 0.5}
        for a in labels
        if rng.random() < 0.8
    }
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        part = rng.choice(["field", "dim", "scalar", "label", "column", "key"])
        if part == "field":
            doc["field"] = rng.choice(_FUZZ_FIELDS)
        elif part == "dim":
            doc["dim"] = rng.choice([0, -1, n + 1, 65, 10**30, "3", 2.5, True, None])
        elif part == "scalar":
            columns = [c for c in doc["squares"].values() if isinstance(c, dict)]
            if columns:
                rng.choice(columns)[rng.choice(labels + ["zz"])] = rng.choice(_FUZZ_SCALARS)
        elif part == "label":
            doc["squares"][rng.choice(_FUZZ_LABELS)] = {}
        elif part == "column" and doc["squares"]:
            doc["squares"][rng.choice(list(doc["squares"]))] = rng.choice(["1", [], None, 3])
        elif part == "key":
            doc[rng.choice(["extra", "basis"])] = rng.choice([["e1"], "e1", 1])
    return doc, labels, valid


def _fuzz_argv(rng, labels, valid):
    def vertex_set():
        return ",".join(rng.sample(labels + ["zz", " e1", ""], rng.randint(0, 2)))

    def vector():
        size = len(labels) + rng.choice([0, 0, 0, -1, 1])
        pool = valid if rng.random() < 0.8 else _FUZZ_SCALARS[:13]
        return ",".join(rng.choice(pool) for _ in range(size))

    command = rng.choice(["analyze", "hereditary", "hereditary", "maximal-ideals", "simple",
                          "quotient", "ideal", "ideal", "graph", "verify", "fuzz", "nope"])
    argv = [command] if command == "fuzz" else [command, "DOC"]
    if command == "hereditary":
        modes = [[], ["--all"], ["--maximal"], ["--saturated"], ["--maximal", "--saturated"]]
        argv += rng.choice(modes)
        if rng.random() < 0.5:
            argv += ["--limit", rng.choice(["1", "2", "3", "0", "-1", "abc", "9" * 19])]
    elif command == "maximal-ideals":
        argv += ["--hyperplane-limit", rng.choice(["0", "1", "3", "-1", "x"])]
    elif command == "quotient":
        argv += ["--set", vertex_set()]
        if rng.random() < 0.5:
            argv += ["--out", rng.choice(["q.json", "é.json", "\udce9.json", ".", "no/q.json"])]
    elif command == "ideal":
        argv += ["--generators", ";".join(vector() for _ in range(rng.randint(1, 2)))]
    elif command == "graph" and rng.random() < 0.5:
        argv += ["--dot", rng.choice(["g.dot", "é.dot", "\udce9.dot", ".", "no/g.dot"])]
    elif command == "verify":
        if rng.random() < 0.3:
            argv[1:] = ["--random", "--field", rng.choice(["Q", "2", "3", "4", "x"])]
            argv += ["--dim", rng.choice(["1:2", "2", "3:2", "x", "65"])]
        argv += ["--trials", rng.choice(["0", "1"]), "--seed", str(rng.randint(0, 9))]
    elif command == "fuzz":
        argv += ["--count", rng.choice(["0", "1", "-1"]), "--dim", rng.choice(["1:2", "2", "0"])]
        argv += ["--trials", "1", "--field", rng.choice(["mixed", "Q", "2", "3", "4", "x"])]
    if rng.random() < 0.5:
        argv.append("--json")
    if rng.random() < 0.1:
        stray = rng.choice(["--set", "--limit", "-a", "x", "--json", "-h"])
        argv.insert(rng.randint(0, len(argv)), stray)
    if rng.random() < 0.05 and len(argv) > 1:
        del argv[rng.randrange(len(argv))]
    return argv


def test_seeded_cli_fuzz_keeps_the_exit_contract(tmp_path, monkeypatch):
    rng = random.Random(20231)
    monkeypatch.chdir(tmp_path)  # --out and --dot write here
    doc_path = str(tmp_path / "doc.json")
    for k in range(1000):
        doc, labels, valid = _fuzz_document(rng)
        with open(doc_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        argv = [doc_path if t == "DOC" else t for t in _fuzz_argv(rng, labels, valid)]
        monkeypatch.delenv("EVOALG_MAX_ENUM", raising=False)
        if rng.random() < 0.1:
            monkeypatch.setenv("EVOALG_MAX_ENUM", rng.choice(["1", "2", "0", "abc"]))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:  # the contract: none leaves main
                pytest.fail(f"run {k}: {argv} raised {exc!r} on {doc!r}")
        assert code in (0, 1, 2), (k, argv, doc)
        assert "Traceback" not in stderr.getvalue(), (k, argv, doc)
