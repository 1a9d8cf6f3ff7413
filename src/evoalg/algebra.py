"""Finite-dimensional evolution algebras.

An evolution algebra is determined, relative to a natural basis (distinct
basis vectors multiply to zero), by the coordinate vectors of the basis
squares.  ``squares[i]`` holds the coordinates of the square of basis vector
``i``; the structure matrix has these vectors as its columns, but the toolkit
only ever speaks in terms of "coordinates of the square of e_i", never raw
matrix indices, to keep the transposition convention out of sight.
"""

from __future__ import annotations

from functools import cached_property

from . import graph as graph_mod
from . import linalg

__all__ = ["DIM_CAP", "EvolutionAlgebra"]

DIM_CAP = 64


def _nameable(label):
    """Whether ``label`` is a nonempty string without commas, outer
    whitespace or lone surrogates (the code points UTF-8 cannot encode): the
    labels that comma-separated vertex sets name and print apart, and that
    algebra documents accept."""
    return (
        isinstance(label, str) and label != "" and "," not in label and label == label.strip()
        and not any("\ud800" <= ch <= "\udfff" for ch in label)
    )


class EvolutionAlgebra:
    """Immutable evolution algebra value over an exact field."""

    def __init__(self, field, squares, labels=None):
        n = len(squares)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if n > DIM_CAP:
            raise ValueError(f"dimension {n} exceeds the cap {DIM_CAP}")
        self.field = field
        self._int_squares = tuple(tuple(linalg._coerce_row(field, sq, n)) for sq in squares)
        self.labels = tuple(labels) if labels is not None else tuple(
            f"e{i + 1}" for i in range(n)
        )
        if len(self.labels) != n:
            raise ValueError("label count differs from dimension")
        if len(set(self.labels)) != n:
            raise ValueError("basis labels must be distinct")
        for lab in self.labels:
            if not _nameable(lab):
                raise ValueError(
                    f"basis label {lab!r} is empty or has a comma, outer whitespace or a lone surrogate"
                )

    @property
    def n(self):
        return len(self._int_squares)

    def index_of(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown basis label {label!r}") from None

    def unit(self, i):
        return self._units[i]

    @cached_property
    def _units(self):
        """The unit rows, built once and shared by every caller."""
        return tuple(linalg.unit_vector(self.field, self.n, i) for i in range(self.n))

    @cached_property
    def _int_units(self):
        """The unit rows of the row store, shared by every vertex span."""
        return linalg._kernel_rows(self.field, self._units)

    @cached_property
    def squares(self):
        """The squares as field-element rows, ``linalg._elements`` of the
        row store ``_int_squares``: built when first read over F_p."""
        return linalg._elements(self.field, self._int_squares)

    def zero_vector(self):
        return tuple(self.field.zero for _ in range(self.n))

    # -- multiplication ------------------------------------------------------

    def product(self, x, y):
        """Bilinear commutative product; distinct basis vectors annihilate.

        Equals the sum over i of ``x_i * y_i * squares[i]``.
        """
        xs = linalg.coerce_vector(self.field, x, self.n)
        ys = linalg.coerce_vector(self.field, y, self.n)
        acc = [self.field.zero] * self.n
        for xi, yi, sq in zip(xs, ys, self.squares):
            if xi and yi:
                f = xi * yi
                acc = [a + f * b for a, b in zip(acc, sq)]
        return tuple(acc)

    @cached_property
    def square_span(self):
        """Span of all basis squares; this is the product A·A of the algebra
        with itself, and its dimension is the rank of the structure matrix.
        ``ideal_closure`` starts from it when the generators reach every
        vertex."""
        return linalg.rref(self.field, self.n, self._int_squares)

    def is_perfect(self):
        """True when the squares span everything (invertible structure
        matrix)."""
        return self.square_span.is_full

    def annihilator_vertices(self):
        """Basis indices whose square is zero; exactly the sinks of the
        graph."""
        return self.graph.sinks()

    def is_degenerate(self):
        return bool(self.annihilator_vertices())

    # -- graph and quotients ---------------------------------------------

    @cached_property
    def graph(self):
        return graph_mod.associated_graph(self)

    def quotient_by_hereditary(self, hereditary):
        """Quotient by the ideal spanned by a hereditary vertex set.

        The residue classes of the surviving basis vectors form a natural
        basis, so the quotient is realised by deleting the coordinates at the
        hereditary set; its graph equals the quotient graph.
        """
        h = frozenset(hereditary)
        if not self.graph.is_hereditary(h):
            raise ValueError("quotient requires a hereditary vertex set")
        keep = [j for j in range(self.n) if j not in h]
        if not keep:
            raise ValueError("quotient by the full vertex set is zero-dimensional")
        squares = [[self._int_squares[j][k] for k in keep] for j in keep]
        return EvolutionAlgebra(
            self.field, squares, tuple(self.labels[j] for j in keep)
        )

    def __eq__(self, other):
        if not isinstance(other, EvolutionAlgebra):
            return NotImplemented
        return (
            self.field == other.field
            and self._int_squares == other._int_squares
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.field, self._int_squares, self.labels))

    def __repr__(self):
        return f"EvolutionAlgebra(n={self.n}, field={self.field.name})"
