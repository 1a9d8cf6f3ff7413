"""Ideals of an evolution algebra and their vertex-set counterparts.

The two directions of the correspondence:

* ``ideal_from_hereditary``: a hereditary vertex set H spans the ideal with
  basis ``{e_i : i in H}``; this is always an ideal admitting a natural basis
  that extends to the whole algebra.
* ``Ideal.hereditary_vertices``: the set H(I) of basis indices whose square
  lies in the ideal; always hereditary, it holds every sink and, since
  ``e_i x = x_i e_i^2``, every index where some member of I is nonzero.

The ideal generated by a set X is read off the graph: it is the span of X and
the squares ``e_j^2`` for every j in the tree of supp(X) (``ideal_closure``).

An ideal has the *absorption property* when ``x A inside I`` forces ``x in I``;
for evolution algebras this is equivalent to the ideal being exactly the span
of the basis vertices carried by its hereditary set.

Maximality is read off the graph too: A^2, spanned by the squares, lies in an
ideal I exactly when H(I) is every vertex, and for a hereditary set B,
span(B) + A^2 = A exactly when the quotient A/span(B) is perfect.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from . import linalg
from .linalg import _row_strings, support
# Not called here: bound as ``ideals.rref`` for perfbench/test_bench.py's rebinding check.
from .linalg import rref  # noqa: F401

__all__ = [
    "Ideal",
    "find_proper_nonzero_ideal",
    "hereditary_from_ideal",
    "ideal_closure",
    "ideal_from_hereditary",
    "is_ideal",
    "maximal_ideal_cover_check",
    "maximal_ideals_report",
]

CRITERION_HYPERPLANE = "hyperplane_over_square_span"
CRITERION_MAX_HEREDITARY = "maximal_hereditary_set"


def is_ideal(algebra, subspace):
    """Closure test: the square of every index in the support of the basis
    must lie back in the subspace.  That single condition already gives both
    ``A·S`` and ``S·S`` inside ``S``, because all products land in spans of
    squares over supports."""
    if subspace.ambient_dim != algebra.n or subspace.field != algebra.field:
        raise ValueError("subspace does not match the algebra")
    return all(
        subspace.contains(algebra._int_squares[i]) for i in _column_support(subspace._rows)
    )


def _column_support(rows):
    """Indices of the columns where some row is nonzero."""
    return frozenset().union(*map(support, rows))


class Ideal:
    """An ideal, held as a canonical subspace of its algebra."""

    def __init__(self, algebra, subspace, _validated=False):
        if subspace.ambient_dim != algebra.n or subspace.field != algebra.field:
            raise ValueError("subspace does not match the algebra")
        if not _validated and not is_ideal(algebra, subspace):
            raise ValueError("subspace is not closed under multiplication")
        self.algebra = algebra
        self.subspace = subspace

    @property
    def dim(self):
        return self.subspace.dim

    @property
    def codim(self):
        return self.algebra.n - self.subspace.dim

    @property
    def is_zero(self):
        return self.subspace.is_zero

    @property
    def is_proper(self):
        return not self.subspace.is_full

    def contains(self, vec):
        return self.subspace.contains(vec)

    @cached_property
    def hereditary_vertices(self):
        """Indices whose square lies in the ideal; always hereditary.  Since
        ``e_i x = x_i e_i^2``, that is every index of the column support S,
        and membership is tested only for the others whose out(i) lies in S."""
        s, A = self.subspace, self.algebra
        cols = _column_support(s._rows)
        return cols | frozenset(
            i for i, out in enumerate(A.graph.out)
            if i not in cols and cols.issuperset(out) and s.contains(A._int_squares[i])
        )

    def basis_vertices(self):
        """Indices whose unit vector lies in the ideal; a subset of
        ``hereditary_vertices``, with equality exactly for absorption.

        In a reduced echelon basis the coordinate at pivot ``c`` of a member
        is its coefficient on the row of ``c``, so ``e_i`` is a member exactly
        when ``i`` is a pivot whose row is ``e_i``: entries before a pivot are
        zero, so that row must be zero after it.
        """
        s = self.subspace
        return frozenset(c for row, c in zip(s._rows, s.pivots) if not any(row[c + 1 :]))

    def has_absorption(self):
        """True when the ideal equals the span of its hereditary vertices.

        That span is a coordinate subspace, so the ideal must be the span of
        its basis vertices B, and a square lies in span(B) exactly when its
        support, the out-neighbours of its vertex, lies in B.
        """
        b = self.basis_vertices()
        out = self.algebra.graph.out
        return len(b) == self.dim and b == frozenset(
            i for i, targets in enumerate(out) if b.issuperset(targets)
        )

    def is_spanned_by_basis_vertices(self):
        """Sufficient witness for extendable natural bases: the ideal is the
        span of the unit vectors it contains."""
        return len(self.basis_vertices()) == self.dim

    def is_maximal(self):
        """Maximality of a proper ideal, by ``maximality_criterion``."""
        return self.maximality_criterion() is not None

    def maximality_criterion(self):
        """Why a proper ideal I is maximal, or None.  Either I is a hyperplane
        holding A^2, which it holds exactly when H(I) is every vertex, or I
        is the vertex span of a maximal hereditary set B and span(B) + A^2
        fills the algebra, which it does exactly when A/span(B) is perfect."""
        if not self.is_proper:
            raise ValueError("maximality is only defined for proper ideals")
        A = self.algebra
        if len(self.hereditary_vertices) == A.n:
            return CRITERION_HYPERPLANE if self.codim == 1 else None
        # With absorption I = span(B), so H(I) = {i : out(i) inside B} = B.
        if not self.has_absorption():
            return None
        b = self.basis_vertices()
        if b in A.graph.maximal_hereditary_sets() and _quotient_is_perfect(A, b):
            return CRITERION_MAX_HEREDITARY
        return None

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.algebra == other.algebra and self.subspace == other.subspace

    def __hash__(self):
        return hash((self.algebra, self.subspace))

    def __repr__(self):
        return f"Ideal(dim={self.dim}, ambient={self.algebra.n})"


def _quotient_is_perfect(algebra, hereditary):
    """Whether A/span(B) is perfect for a hereditary B (for B empty, A)."""
    return (algebra.quotient_by_hereditary(hereditary) if hereditary else algebra).is_perfect()


def ideal_from_hereditary(algebra, hereditary) -> Ideal:
    """The span of the unit vectors of a hereditary set, as an ideal.  Its
    reduced echelon basis is those unit vectors in index order, pivoted at
    their own indices: rows of the algebra's shared unit row store."""
    h = frozenset(hereditary)
    if not algebra.graph.is_hereditary(h):
        raise ValueError("vertex set is not hereditary")
    pivots = tuple(sorted(h))
    rows = tuple(algebra._int_units[i] for i in pivots)
    return Ideal(algebra, linalg._from_rows(algebra.field, algebra.n, rows, pivots), _validated=True)


def hereditary_from_ideal(algebra, subspace) -> frozenset:
    """The hereditary vertex set of an ideal given as a subspace."""
    if not is_ideal(algebra, subspace):
        raise ValueError("subspace is not an ideal")
    return Ideal(algebra, subspace, _validated=True).hereditary_vertices


def ideal_closure(algebra, generators) -> Ideal:
    """Smallest ideal containing the generators.

    Since ``e_j x = x_j e_j^2``, an ideal holding x holds the square of
    every index in supp(x), and then of every index in the support of those
    squares: the squares over the whole tree T of the generators' support.
    Their span S_T together with the generators is supported inside T, so
    span(X) + S_T is already the ideal.  The support of span(X) is the union
    of the supports in X.  When T holds every vertex, S_T is the algebra's
    ``square_span``: the ideal is S_T itself when that is the whole space,
    and otherwise one elimination of its reduced rows with the generators.
    For a smaller T, one elimination of the generators with the squares
    over T gives the basis.  Each generator is coerced once.
    """
    field, n = algebra.field, algebra.n
    gens = [linalg._coerce_row(field, v, n) for v in generators]
    tree = algebra.graph.tree(_column_support(gens))
    if len(tree) < n:
        rows = gens + [list(algebra._int_squares[j]) for j in sorted(tree)]
    elif algebra.square_span.is_full:
        return Ideal(algebra, algebra.square_span, _validated=True)
    else:
        rows = [*map(list, algebra.square_span._rows), *gens]
    return Ideal(algebra, linalg._span(field, n, rows), _validated=True)


def maximal_ideal_cover_check(algebra, ideal: Ideal) -> bool:
    """Two facts about a maximal ideal, verified directly.

    For every basis vertex e outside the ideal, the tree of e together with
    the hereditary vertices covers all vertices; and when the codimension is
    not one, the hereditary vertices coincide with the basis vertices inside
    the ideal.
    """
    if not ideal.is_maximal():
        raise ValueError("cover check requires a maximal ideal")
    A = algebra
    everything = frozenset(range(A.n))
    h = ideal.hereditary_vertices
    b = ideal.basis_vertices()
    for i in range(A.n):
        if i not in b and A.graph.tree({i}) | h != everything:
            return False
    return ideal.codim == 1 or h == b


def _hyperplanes_over_square_span(algebra):
    """Yield the reduced echelon rows of each of the (p^c - 1)/(p - 1)
    codimension-one subspaces containing the square span, for prime fields;
    each is a maximal ideal.  With d the last index where a functional φ
    vanishing on the square span is nonzero, ker φ has the rows
    e_j - (φ_j/φ_d)·e_d for j != d, pivoted at j (φ_j = 0 for j > d, so no
    row has an entry before its pivot), as int rows."""
    A = algebra
    n, p = A.n, A.field.order
    functionals = linalg._kernel_rows(A.field, linalg.nullspace(A.field, n, A.square_span._rows))
    # Nonzero combinations whose first nonzero coefficient is one, in
    # lexicographic order: one functional per hyperplane.
    codim = len(functionals)
    combos = (
        (0,) * k + (1,) + rest
        for k in range(codim - 1, -1, -1)
        for rest in itertools.product(range(p), repeat=codim - 1 - k)
    )
    for coeffs in combos:
        phi = [sum(c * f for c, f in zip(coeffs, col)) % p for col in zip(*functionals)]
        d = max(k for k in range(n) if phi[k])
        scale = -pow(phi[d], -1, p)
        rows = []
        for j in range(n):
            if j != d:
                row = [0] * n
                row[j], row[d] = 1, scale * phi[j] % p
                rows.append(row)
        yield rows


def maximal_ideals_report(algebra, hyperplane_limit=1024) -> dict:
    """Structured description of all maximal ideals.

    Hyperplanes over the square span are reported as a family: none when the
    square span is everything, the square span itself when it has codimension
    one, and otherwise an infinite family over the rationals or an explicit
    enumeration over a prime field when small enough.  Each vertex-span ideal
    of a maximal hereditary set is tagged with the criterion that makes it
    maximal, if any.  For perfect algebras the vertex-span list is complete.
    """
    A = algebra
    sq = A.square_span
    codim = A.n - sq.dim
    report = {
        "dim": A.n,
        "field": A.field.json_descriptor(),
        "perfect": A.is_perfect(),
        "square_span_dim": sq.dim,
        "square_span_codim": codim,
        "square_span_basis": _row_strings(A.field, sq._rows),
    }

    finite = A.field.order is not None
    if codim == 0:
        family = {"kind": "none", "count": 0, "ideals": []}
    elif codim == 1:
        family = {
            "kind": "unique",
            "count": 1,
            "ideals": [_row_strings(A.field, sq._rows)],
        }
    elif finite:
        p = A.field.order
        total = (p**codim - 1) // (p - 1)
        if total <= hyperplane_limit:
            family = {
                "kind": "family",
                "count": total,
                "ideals": [_row_strings(A.field, rows) for rows in _hyperplanes_over_square_span(A)],
            }
        else:
            family = {"kind": "family", "count": total, "ideals": None}
    else:
        family = {"kind": "infinite", "count": None, "ideals": None}
    report["hyperplane_family"] = family

    entries = []
    for h in A.graph.maximal_hereditary_sets():
        ideal = ideal_from_hereditary(A, h)
        criterion = ideal.maximality_criterion() if ideal.is_proper else None
        entries.append(
            {
                "vertices": _labels(A, h),
                "dim": ideal.dim,
                "maximal": criterion is not None,
                "criterion": criterion,
            }
        )
    report["from_maximal_hereditary"] = entries

    report["complete"] = codim <= 1 or (finite and family["ideals"] is not None)
    return report


def find_proper_nonzero_ideal(algebra):
    """A proper nonzero ideal, or None when the algebra has none.

    The vertex span of a nonempty maximal hereditary set is one.  Without
    such a set the graph is strongly connected, and since ``e_j x = x_j e_j^2``
    every nonzero ideal holds every square: A^2 is then the least nonzero
    ideal, and there is none proper unless 0 < dim A^2 < n.
    """
    A = algebra
    for h in A.graph.maximal_hereditary_sets():
        if h:
            return ideal_from_hereditary(A, h)
    sq = A.square_span
    if sq.is_zero or sq.is_full:
        return None
    return Ideal(A, sq, _validated=True)


def _labels(algebra, vertices):
    """Basis labels of a vertex set, in index order."""
    return [algebra.labels[i] for i in sorted(vertices)]
