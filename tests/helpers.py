"""Shared example algebras, named by their structure, and broken building
blocks that the property suite must catch."""

from fractions import Fraction

from evoalg import QQ, EvolutionAlgebra
from evoalg.graph import Digraph
from evoalg.ideals import Ideal
from evoalg.linalg import Subspace


def six_dim_branching(field=QQ):
    """e1^2=e2, e2^2=e2, e3^2=e4+e5, e4^2=0, e5^2=e6, e6^2=0."""
    return EvolutionAlgebra(
        field,
        [
            [0, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 1, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0],
        ],
    )


def three_dim_perfect(field=QQ):
    """e1^2=e1+e2+e3, e2^2=e2, e3^2=e2+e3; perfect with one proper hereditary
    chain."""
    return EvolutionAlgebra(field, [[1, 1, 1], [0, 1, 0], [0, 1, 1]])


def mirror_pair():
    """e1^2=e1+e2, e2^2=-e1-e2; the span of e1+e2 is a maximal ideal."""
    return EvolutionAlgebra(QQ, [[1, 1], [-1, -1]])


def double_loop_pair():
    """e1^2=e2^2=e1+e2; single component, no proper nonempty hereditary set."""
    return EvolutionAlgebra(QQ, [[1, 1], [1, 1]])


def double_loop_plus_fixed():
    """e1^2=e2^2=e1+e2, e3^2=e3."""
    return EvolutionAlgebra(QQ, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def loop_feeding_pair():
    """e1'^2=e1', e2'^2=e1'; saturation adds the second vertex to {first}."""
    return EvolutionAlgebra(QQ, [[1, 0], [1, 0]])


def four_dim_non_maximal_span():
    """e1^2=e1+e2, e2^2=e2, e3^2=e4^2=e1+e3+e4; the span of the maximal
    hereditary set {e1,e2} is not a maximal ideal."""
    return EvolutionAlgebra(
        QQ,
        [[1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1], [1, 0, 1, 1]],
    )


def four_dim_degenerate_funnel(field=QQ):
    """e1^2=e2^2=e3^2=e3, e4^2=0; degenerate, breaks absorption for the
    span of the saturated set {e1,e2,e3}."""
    return EvolutionAlgebra(
        field,
        [[0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
    )


def four_dim_all_to_third(field=QQ):
    """e1^2=e2^2=e3^2=e4^2=e3; the codimension-one ideal over the square span
    lacks absorption."""
    return EvolutionAlgebra(
        field,
        [[0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 1, 0]],
    )


def three_dim_collapsing():
    """e1^2=e2^2=e1+e2, e3^2=e1+e2+e3; two distinct ideals share the same
    hereditary vertex set."""
    return EvolutionAlgebra(QQ, [[1, 1, 0], [1, 1, 0], [1, 1, 1]])


def two_cycle(field=QQ):
    """e1^2=e2, e2^2=e1; simple."""
    return EvolutionAlgebra(field, [[0, 1], [1, 0]])


def zero_algebra(n=3, field=QQ):
    return EvolutionAlgebra(field, [[0] * n for _ in range(n)])


# Zero algebras, where every subspace is an ideal, past the oracle's ideal
# search guard, as (p, n): a search would take from a minute (F5, dimension 4)
# to days (F37, dimension 3).
PAST_THE_IDEAL_SEARCH_GUARD = [(5, 4), (37, 3), (251, 2), (65521, 1)]


# Algebra documents that give one key twice, at the top level, in ``squares``
# and in a column, as {id: (text, repeated key)}.
REPEATED_KEY_DOCUMENTS = {
    "top-level-key": ('{"field": "Q", "dim": 2, "dim": 3, "squares": {}}', "dim"),
    "squares-label": (
        '{"field": "Q", "dim": 3, "squares": {"e1": {"e2": "1"}, "e1": {"e3": "5"}}}', "e1"
    ),
    "column-label": ('{"field": "Q", "dim": 2, "squares": {"e1": {"e2": "1", "e2": "3"}}}', "e2"),
}


def no_subspace_enumeration(field, n):
    """Stands in for ``oracle.enumerate_subspaces`` where none may start."""
    raise AssertionError(f"subspaces of F_{field.p}^{n} enumerated")


def disjoint_pairs(k, field=QQ):
    """e_{2i+1}^2 = e_{2i+2} for i < k, other squares zero: k disjoint edges,
    with 3^k hereditary vertex sets of which 2^k are saturated."""
    n = 2 * k
    return EvolutionAlgebra(
        field, [[int(i % 2 == 0 and j == i + 1) for j in range(n)] for i in range(n)]
    )


def qq(a, b=1):
    return Fraction(a, b)


def _outside_vertices(ideal):
    n = ideal.algebra.n
    return frozenset(i for i in range(n) if not ideal.subspace.contains(ideal.algebra.squares[i]))


# Each entry is (class, attribute, breaker); the breaker maps the attribute
# to its broken form, for ``setattr(cls, name, breaker(getattr(cls, name)))``.
MUTANTS = {
    "negated_is_simple": (Digraph, "is_simple", lambda f: lambda self: not f(self)),
    "maximal_sets_without_last": (
        Digraph, "maximal_hereditary_sets", lambda f: lambda self: f(self)[:-1]
    ),
    "sum_returns_self": (Subspace, "sum", lambda f: lambda self, other: self),
    "intersect_returns_self": (Subspace, "intersect", lambda f: lambda self, other: self),
    "vertices_outside_the_ideal": (Ideal, "hereditary_vertices", lambda f: property(_outside_vertices)),
}
# A saturation test that answers the opposite, and a membership test that
# rejects the zero vector and every vector of the whole space.
LYING_PREDICATES = {
    "lying_is_saturated": (
        Digraph, "is_saturated", lambda f: lambda self, vertices: not f(self, vertices)
    ),
    "lying_contains": (
        Subspace, "contains",
        lambda f: lambda self, vec: f(self, vec) and any(vec) and not self.is_full,
    ),
}
