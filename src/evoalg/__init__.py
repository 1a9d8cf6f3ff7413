"""Exact-arithmetic analysis of finite-dimensional evolution algebras.

The toolkit computes the directed graph attached to an evolution algebra,
hereditary and saturated vertex sets, the two maps between hereditary sets and
ideals, absorption and maximality of ideals, simplicity, and quotients, all
over exact fields (rationals or prime fields), and certifies the fast
algorithms against definitional brute force on small prime fields.
The brute-force oracle (``oracle``) and the property suite (``galois``) each
load on first use of one of their names.  The CLI imports ``oracle`` itself,
and of its commands only ``verify`` and ``fuzz`` import ``galois``.
"""

from .algebra import DIM_CAP, EvolutionAlgebra
from .documents import (
    algebra_from_document,
    algebra_to_document,
    dumps_document,
    load_algebra,
)
from .errors import EnumerationLimitError, InputError
from .fields import GF2, PrimeField, QQ, Rationals, Residue, parse_scalar
from .graph import DEFAULT_ENUM_LIMIT, Digraph, associated_graph
from .ideals import (
    Ideal,
    hereditary_from_ideal,
    ideal_closure,
    ideal_from_hereditary,
    is_ideal,
    maximal_ideal_cover_check,
    maximal_ideals_report,
)
from .linalg import Subspace, nullspace, rref, support, unit_vector

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ENUM_LIMIT",
    "DIM_CAP",
    "Digraph",
    "EnumerationLimitError",
    "EvolutionAlgebra",
    "GF2",
    "Ideal",
    "InputError",
    "PrimeField",
    "PropertyReport",
    "PropertyResult",
    "QQ",
    "RandomSpec",
    "Rationals",
    "Residue",
    "Subspace",
    "algebra_from_document",
    "algebra_to_document",
    "associated_graph",
    "brute_force_absorption",
    "brute_force_hereditary",
    "brute_force_ideals",
    "brute_force_is_ideal",
    "brute_force_maximal_ideals",
    "check_adjunction",
    "check_lattice_identities",
    "dumps_document",
    "enumerate_subspaces",
    "gaussian_binomial",
    "hereditary_from_ideal",
    "ideal_closure",
    "ideal_from_hereditary",
    "is_ideal",
    "load_algebra",
    "maximal_ideal_cover_check",
    "maximal_ideals_report",
    "nullspace",
    "parse_scalar",
    "random_algebra",
    "random_perfect_algebra",
    "rref",
    "run_fuzz",
    "run_theorem_suite",
    "support",
    "unit_vector",
]


def __getattr__(name):
    """The names of ``__all__`` not bound above are ``oracle``'s and
    ``galois``'s, each module imported on first use (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    if name in oracle.__all__:
        return getattr(oracle, name)
    from . import galois
    return getattr(galois, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
