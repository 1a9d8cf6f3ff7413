"""Published JSON schemas for every machine-readable CLI output.

Every object an output prints is closed: each of its keys is required and no
other key is allowed, so each object is built by ``_closed``.  The one
exception is ``DOCUMENT``, the input format, whose ``basis`` is optional.
"""

_SCALAR = {"type": "string"}
_VECTOR = {"type": "array", "items": _SCALAR}
_BASIS_ROWS = {"type": "array", "items": _VECTOR}
_LABELS = {"type": "array", "items": {"type": "string"}}


def _closed(properties):
    """An object schema that requires every key of ``properties`` and allows no other."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


_FIELD = {"oneOf": [{"const": "Q"}, _closed({"prime": {"type": "integer"}})]}

DOCUMENT = {
    "type": "object",
    "properties": {
        "field": _FIELD,
        "dim": {"type": "integer", "minimum": 1},
        "basis": _LABELS,
        "squares": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": _SCALAR,
            },
        },
    },
    "required": ["field", "dim", "squares"],
    "additionalProperties": False,
}

ANALYZE = _closed({
    "dim": {"type": "integer"},
    "field": _FIELD,
    "perfect": {"type": "boolean"},
    "degenerate": {"type": "boolean"},
    "annihilator_vertices": _LABELS,
    "square_span_dim": {"type": "integer"},
    "sinks": _LABELS,
    "sources": _LABELS,
    "bifurcations": _LABELS,
    "source_components": {"type": "array", "items": _LABELS},
    "min_generating": _closed({"size": {"type": "integer"}, "witness": _LABELS}),
})

HEREDITARY = _closed({
    "mode": {"enum": ["all", "maximal", "saturated"]},
    "sets": {
        "type": "array",
        "items": _closed({"vertices": _LABELS, "saturated": {"type": "boolean"}}),
    },
})

MAXIMAL_IDEALS = _closed({
    "dim": {"type": "integer"},
    "field": _FIELD,
    "perfect": {"type": "boolean"},
    "square_span_dim": {"type": "integer"},
    "square_span_codim": {"type": "integer"},
    "square_span_basis": _BASIS_ROWS,
    "hyperplane_family": _closed({
        "kind": {"enum": ["none", "unique", "family", "infinite"]},
        "count": {"type": ["integer", "null"]},
        "ideals": {"oneOf": [{"type": "null"}, {"type": "array", "items": _BASIS_ROWS}]},
    }),
    "from_maximal_hereditary": {
        "type": "array",
        "items": _closed({
            "vertices": _LABELS,
            "dim": {"type": "integer"},
            "maximal": {"type": "boolean"},
            "criterion": {"type": ["string", "null"]},
        }),
    },
    "complete": {"type": "boolean"},
})

SIMPLE = _closed({
    "perfect": {"type": "boolean"},
    "graph_simple": {"type": "boolean"},
    "algebra_simple": {"type": ["boolean", "null"]},
    "ideal_search": _closed({
        "method": {"enum": ["exhaustive", "theorem"]},
        "proper_nonzero_ideal_found": {"type": "boolean"},
        "witness": {"oneOf": [{"type": "null"}, _BASIS_ROWS]},
    }),
    "note": {"type": ["string", "null"]},
})

IDEAL = _closed({
    "dim": {"type": "integer"},
    "basis": _BASIS_ROWS,
    "hereditary_vertices": _LABELS,
    "basis_vertices": _LABELS,
    "absorption": {"type": "boolean"},
    "proper": {"type": "boolean"},
    "maximal": {"type": ["boolean", "null"]},
    "maximal_criterion": {"type": ["string", "null"]},
    "spanned_by_basis_vertices": {"type": "boolean"},
})

GRAPH = _closed({
    "vertices": _LABELS,
    "edges": {
        "type": "array",
        "items": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 2,
            "maxItems": 2,
        },
    },
    "dot": {"type": "string"},
})

_PROPERTY = _closed({
    "name": {"type": "string"},
    "law": {"type": "string"},
    "status": {"enum": ["pass", "fail", "not-applicable"]},
    "checked": {"type": "integer"},
    "failed": {"type": "integer"},
    "not_applicable": {"type": "integer"},
    "witness": {"type": ["object", "null"]},
})

VERIFY = _closed({
    "algebra": {"type": "object"},
    "seed": {"type": "integer"},
    "trials": {"type": "integer"},
    "ok": {"type": "boolean"},
    "notices": {"type": "array", "items": {"type": "string"}},
    "properties": {"type": "array", "items": _PROPERTY},
})

FUZZ = _closed({
    "count": {"type": "integer"},
    "seed": {"type": "integer"},
    "trials": {"type": "integer"},
    "ok": {"type": "boolean"},
    "notices": {"type": "array", "items": {"type": "string"}},
    "failures": {"type": "array", "items": {"type": "object"}},
    "properties": {"type": "array", "items": _PROPERTY},
})

SCHEMAS = {
    "document": DOCUMENT,
    "analyze": ANALYZE,
    "hereditary": HEREDITARY,
    "maximal-ideals": MAXIMAL_IDEALS,
    "simple": SIMPLE,
    "ideal": IDEAL,
    "graph": GRAPH,
    "verify": VERIFY,
    "fuzz": FUZZ,
}
