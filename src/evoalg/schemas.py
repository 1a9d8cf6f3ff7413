"""Published JSON schemas for every machine-readable CLI output."""

_SCALAR = {"type": "string"}
_VECTOR = {"type": "array", "items": _SCALAR}
_BASIS_ROWS = {"type": "array", "items": _VECTOR}
_LABELS = {"type": "array", "items": {"type": "string"}}
_FIELD = {
    "oneOf": [
        {"const": "Q"},
        {
            "type": "object",
            "properties": {"prime": {"type": "integer"}},
            "required": ["prime"],
            "additionalProperties": False,
        },
    ]
}

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

ANALYZE = {
    "type": "object",
    "properties": {
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
        "min_generating": {
            "type": "object",
            "properties": {"size": {"type": "integer"}, "witness": _LABELS},
            "required": ["size", "witness"],
            "additionalProperties": False,
        },
    },
    "required": [
        "dim",
        "field",
        "perfect",
        "degenerate",
        "annihilator_vertices",
        "square_span_dim",
        "sinks",
        "sources",
        "bifurcations",
        "source_components",
        "min_generating",
    ],
    "additionalProperties": False,
}

HEREDITARY = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["all", "maximal", "saturated"]},
        "sets": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "vertices": _LABELS,
                    "saturated": {"type": "boolean"},
                },
                "required": ["vertices", "saturated"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["mode", "sets"],
    "additionalProperties": False,
}

MAXIMAL_IDEALS = {
    "type": "object",
    "properties": {
        "dim": {"type": "integer"},
        "field": _FIELD,
        "perfect": {"type": "boolean"},
        "square_span_dim": {"type": "integer"},
        "square_span_codim": {"type": "integer"},
        "square_span_basis": _BASIS_ROWS,
        "hyperplane_family": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["none", "unique", "family", "infinite"]},
                "count": {"type": ["integer", "null"]},
                "ideals": {
                    "oneOf": [{"type": "null"}, {"type": "array", "items": _BASIS_ROWS}]
                },
            },
            "required": ["kind", "count", "ideals"],
            "additionalProperties": False,
        },
        "from_maximal_hereditary": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "vertices": _LABELS,
                    "dim": {"type": "integer"},
                    "maximal": {"type": "boolean"},
                    "criterion": {"type": ["string", "null"]},
                },
                "required": ["vertices", "dim", "maximal", "criterion"],
                "additionalProperties": False,
            },
        },
        "complete": {"type": "boolean"},
    },
    "required": [
        "dim",
        "field",
        "perfect",
        "square_span_dim",
        "square_span_codim",
        "square_span_basis",
        "hyperplane_family",
        "from_maximal_hereditary",
        "complete",
    ],
    "additionalProperties": False,
}

SIMPLE = {
    "type": "object",
    "properties": {
        "perfect": {"type": "boolean"},
        "graph_simple": {"type": "boolean"},
        "algebra_simple": {"type": ["boolean", "null"]},
        "ideal_search": {
            "type": "object",
            "properties": {
                "method": {"enum": ["exhaustive", "theorem"]},
                "proper_nonzero_ideal_found": {"type": "boolean"},
                "witness": {"oneOf": [{"type": "null"}, _BASIS_ROWS]},
            },
            "required": ["method", "proper_nonzero_ideal_found", "witness"],
            "additionalProperties": False,
        },
        "note": {"type": ["string", "null"]},
    },
    "required": ["perfect", "graph_simple", "algebra_simple", "ideal_search", "note"],
    "additionalProperties": False,
}

IDEAL = {
    "type": "object",
    "properties": {
        "dim": {"type": "integer"},
        "basis": _BASIS_ROWS,
        "hereditary_vertices": _LABELS,
        "basis_vertices": _LABELS,
        "absorption": {"type": "boolean"},
        "proper": {"type": "boolean"},
        "maximal": {"type": ["boolean", "null"]},
        "maximal_criterion": {"type": ["string", "null"]},
        "spanned_by_basis_vertices": {"type": "boolean"},
    },
    "required": [
        "dim",
        "basis",
        "hereditary_vertices",
        "basis_vertices",
        "absorption",
        "proper",
        "maximal",
        "maximal_criterion",
        "spanned_by_basis_vertices",
    ],
    "additionalProperties": False,
}

GRAPH = {
    "type": "object",
    "properties": {
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
    },
    "required": ["vertices", "edges", "dot"],
    "additionalProperties": False,
}

_PROPERTY = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "law": {"type": "string"},
        "status": {"enum": ["pass", "fail", "not-applicable"]},
        "checked": {"type": "integer"},
        "failed": {"type": "integer"},
        "not_applicable": {"type": "integer"},
        "witness": {"type": ["object", "null"]},
    },
    "required": ["name", "law", "status", "checked", "failed", "not_applicable", "witness"],
    "additionalProperties": False,
}

VERIFY = {
    "type": "object",
    "properties": {
        "algebra": {"type": "object"},
        "seed": {"type": "integer"},
        "trials": {"type": "integer"},
        "ok": {"type": "boolean"},
        "notices": {"type": "array", "items": {"type": "string"}},
        "properties": {"type": "array", "items": _PROPERTY},
    },
    "required": ["algebra", "seed", "trials", "ok", "notices", "properties"],
    "additionalProperties": False,
}

FUZZ = {
    "type": "object",
    "properties": {
        "count": {"type": "integer"},
        "seed": {"type": "integer"},
        "trials": {"type": "integer"},
        "ok": {"type": "boolean"},
        "notices": {"type": "array", "items": {"type": "string"}},
        "failures": {"type": "array", "items": {"type": "object"}},
        "properties": {"type": "array", "items": _PROPERTY},
    },
    "required": ["count", "seed", "trials", "ok", "notices", "failures", "properties"],
    "additionalProperties": False,
}

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
