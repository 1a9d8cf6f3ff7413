"""The algebra file format.

A document is UTF-8 JSON with exactly these keys:

* ``field``: ``"Q"`` or ``{"prime": p}``
* ``dim``: the dimension n
* ``basis``: optional list of n distinct labels (default ``e1..en``), each
  nonempty, without commas and without leading or trailing whitespace, so
  that the CLI's comma-separated vertex sets name and print every label
* ``squares``: map from basis label to a sparse column, itself a map from
  basis label to a scalar string, giving the coordinates of that basis
  vector's square.  Absent entries are zero; absent columns are zero squares.

Unknown and repeated keys are rejected, scalar strings must parse in the
declared field, and scalars serialise back as exact strings.
"""

from __future__ import annotations

import json

from .algebra import DIM_CAP, EvolutionAlgebra, _nameable
from .errors import InputError
from .fields import QQ, PrimeField

__all__ = [
    "algebra_from_document",
    "algebra_to_document",
    "dumps_document",
    "load_algebra",
    "parse_field_descriptor",
]

_ALLOWED_KEYS = {"field", "dim", "basis", "squares"}


def _object_without_repeated_keys(pairs):
    """A JSON object as a dict; a key given twice in it is an input error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def parse_field_descriptor(obj):
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"prime"}:
        p = obj["prime"]
        if not isinstance(p, int):
            raise InputError(f"prime modulus must be an integer, got {p!r}")
        return PrimeField(p)
    raise InputError(f'field must be "Q" or {{"prime": p}}, got {obj!r}')


def algebra_from_document(doc) -> EvolutionAlgebra:
    if not isinstance(doc, dict):
        raise InputError("algebra document must be a JSON object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise InputError(f"unknown document keys: {sorted(unknown)}")
    for key in ("field", "dim", "squares"):
        if key not in doc:
            raise InputError(f"missing document key {key!r}")
    field = parse_field_descriptor(doc["field"])
    n = doc["dim"]
    # JSON true is an int subclass in Python; it is not a dimension.
    if type(n) is not int or n < 1:
        raise InputError(f"dim must be a positive integer, got {n!r}")
    if n > DIM_CAP:
        raise InputError(f"dim {n} exceeds the cap {DIM_CAP}")
    labels = doc.get("basis", [f"e{i + 1}" for i in range(n)])
    if (
        not isinstance(labels, list)
        or not all(isinstance(x, str) for x in labels)
        or len(labels) != n
        or len(set(labels)) != n
    ):
        raise InputError(f"basis must list {n} distinct labels")
    try:
        "".join(labels).encode()
    except UnicodeEncodeError:
        raise InputError("basis labels must encode as UTF-8") from None
    for lab in labels:
        if not _nameable(lab):
            raise InputError(f"basis label {lab!r} is empty or has a comma or outer whitespace")
    index = {lab: i for i, lab in enumerate(labels)}

    squares_doc = doc["squares"]
    if not isinstance(squares_doc, dict):
        raise InputError("squares must map labels to sparse columns")
    squares = [[field.zero] * n for _ in range(n)]
    for lab, column in squares_doc.items():
        if lab not in index:
            raise InputError(f"unknown basis label {lab!r} in squares")
        if not isinstance(column, dict):
            raise InputError(f"square of {lab!r} must map labels to scalars")
        i = index[lab]
        for target, text in column.items():
            if target not in index:
                raise InputError(f"unknown basis label {target!r} in square of {lab!r}")
            if not isinstance(text, str):
                raise InputError(
                    f"scalar for {lab!r} -> {target!r} must be a string, got {text!r}"
                )
            squares[i][index[target]] = field.parse(text)
    return EvolutionAlgebra(field, squares, labels)


def algebra_to_document(algebra) -> dict:
    squares = {}
    for i, row in enumerate(algebra.squares):
        column = {
            algebra.labels[j]: algebra.field.format(x)
            for j, x in enumerate(row)
            if x
        }
        if column:
            squares[algebra.labels[i]] = column
    return {
        "field": algebra.field.json_descriptor(),
        "dim": algebra.n,
        "basis": list(algebra.labels),
        "squares": squares,
    }


def dumps_document(algebra) -> str:
    return json.dumps(algebra_to_document(algebra), indent=2) + "\n"


def load_algebra(path) -> EvolutionAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 ({exc})") from exc
    except ValueError as exc:  # a null byte or a lone surrogate in the path
        raise InputError(f"{ascii(path)}: cannot read ({exc})") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_object_without_repeated_keys)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, or a number literal past the int-str digit limit.
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise InputError(f"{path}: not valid JSON (nested too deeply)") from None
    return algebra_from_document(doc)
