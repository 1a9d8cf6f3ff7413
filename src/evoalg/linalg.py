"""Canonical linear algebra over an exact field.

A :class:`Subspace` is stored as the unique reduced row echelon basis of its
span: pivot columns strictly increasing, pivot entries one, pivot columns zero
elsewhere.  Consequently two subspaces are equal exactly when their basis
matrices are equal entry-wise, which turns every set identity downstream into
a plain ``==``.

A subspace holds one row store, set when it is built: int rows in [0, p)
over F_p, the ``Fraction`` rows themselves over Q, both as tuples of tuples.
Each input row is coerced once, by a public entry point (``rref``,
``reduce``, ``contains``); private routines take row-store rows.  Over F_p
rows are combined with ``(a - f * b) % p`` and pivots inverted with
``pow(x, -1, p)``.  ``sum``, ``intersect``, membership, equality and hashing
all run on the row store.  Its rows leave it only through ``_elements``, as
field elements (themselves over Q, :class:`Residue` rows over F_p), and
``_row_strings``, as report text.  ``coerce_vector`` keeps its own
``field.coerce`` loop, so the tests' reference elimination, which coerces
through it, shares no fault of ``_coerce_row``.  Reduced echelon rows are
zero in every other pivot column, so reduction and the combinations of
``intersect`` touch only the nonzero entries of each basis row, updating a
list that the call made.  Over F_p elimination, too, updates rows in place
at the pivot row's nonzero columns; over Q it still rebuilds whole rows.
"""

from __future__ import annotations

from .fields import Residue

__all__ = [
    "Subspace",
    "coerce_vector",
    "nullspace",
    "rref",
    "support",
    "unit_vector",
    "zero_subspace",
]


def coerce_vector(field, vec, n):
    """Coerce a sequence of raw entries into a length-``n`` field vector."""
    out = tuple(field.coerce(x) for x in vec)
    if len(out) != n:
        raise ValueError(f"vector of length {len(out)}, expected {n}")
    return out


def unit_vector(field, n, i):
    row = [field.zero] * n
    row[i] = field.one
    return tuple(row)


def support(vec):
    """Indices of the nonzero coordinates."""
    return frozenset(i for i, x in enumerate(vec) if x)


def _coerce_row(field, vec, n):
    """One input row as a list: ``Fraction`` entries over Q, ints in [0, p)
    over F_p.  Coercion errors come before the length check."""
    p = field.order
    if p is None:
        row = [field.coerce(x) for x in vec]
    else:
        row = [
            x % p if type(x) is int
            else x.value if type(x) is Residue and x.p == p
            else field.coerce(x).value
            for x in vec
        ]
    if len(row) != n:
        raise ValueError(f"vector of length {len(row)}, expected {n}")
    return row


def _elements(field, rows):
    """Row-store rows as field-element rows: themselves over Q, ``Residue`` rows over F_p."""
    p = field.order
    if p is None:
        return rows
    return tuple(tuple(Residue(x, p) for x in row) for row in rows)


def _row_strings(field, rows):
    """Row-store rows as report text: ``field.format`` of each entry of ``_elements``."""
    fmt = field.format if field.order is None else str
    return [list(map(fmt, row)) for row in rows]


def _kernel_rows(field, rows):
    """Field-element rows as the kernel holds them: tuples of ints over F_p,
    of the elements themselves over Q."""
    if field.order is None:
        return tuple(map(tuple, rows))
    return tuple(tuple(x.value for x in r) for r in rows)


def _eliminate(rows, ncols, p):
    """Gauss-Jordan elimination of ``rows`` in place, over Q when ``p`` is
    None and over F_p on ints in [0, p) otherwise, there updating each list
    only at the pivot row's nonzero columns.  Returns the pivot columns; the
    first ``len(pivots)`` rows are then the reduced basis."""
    pivots = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        prow = rows[r]
        if prow[c] != 1:
            if p is None:
                inv = 1 / prow[c]
                prow = [inv * x for x in prow]
            else:
                inv = pow(prow[c], -1, p)
                prow = [inv * x % p for x in prow]
            rows[r] = prow
        nonzero = () if p is None else [(j, b) for j, b in enumerate(prow) if b]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if p is None:
                    rows[i] = [a - f * b for a, b in zip(row, prow)]
                else:
                    for j, b in nonzero:
                        row[j] = (row[j] - f * b) % p
        pivots.append(c)
        r += 1
    return pivots


def rref(field, ambient_dim, vectors):
    """Reduced row echelon span of the given vectors.

    Idempotent: applying it to the basis of the result returns an identical
    basis.  Raises ``ValueError`` for ragged input.
    """
    return _span(field, ambient_dim, [_coerce_row(field, v, ambient_dim) for v in vectors])


def _span(field, n, rows):
    """``rref`` of rows already coerced, as lists eliminated in place; the
    reduced rows become the row store as they are."""
    pivots = tuple(_eliminate(rows, n, field.order))
    return _from_rows(field, n, tuple(tuple(row) for row in rows[: len(pivots)]), pivots)


def _from_rows(field, n, rows, pivots):
    """The subspace whose row store is ``rows``, reduced tuples, as they are."""
    s = Subspace(field, n, (), pivots)
    s._rows = rows
    s._basis = None
    return s


class Subspace:
    """A subspace identified by its reduced row echelon basis.

    Construct through :func:`rref`, or directly from a basis already in that
    canonical form: pivots strictly increasing, each pivot entry one and its
    column zero in every other row.  A coordinate subspace span{e_i : i in H}
    meets it as the unit rows of H in index order, pivoted at H, and is built
    directly.  The constructor trusts its arguments and converts the basis
    once into the row store ``_rows``.  Immutable and hashable.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "_rows", "_basis")

    def __init__(self, field, ambient_dim, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = pivots
        self._rows = _kernel_rows(field, basis)
        self._basis = self._rows if field.order is None else tuple(map(tuple, basis))

    @property
    def basis(self):
        """The basis rows: the row store over Q, ``Residue`` rows over F_p
        built when first read."""
        if self._basis is None:
            self._basis = _elements(self.field, self._rows)
        return self._basis

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def is_zero(self):
        return not self.pivots

    @property
    def is_full(self):
        return len(self.pivots) == self.ambient_dim

    def reduce(self, vec):
        """Residual of ``vec`` after elimination against the basis."""
        w = self._residual(_coerce_row(self.field, vec, self.ambient_dim))
        return _elements(self.field, (tuple(w),))[0]

    def _residual(self, w):
        """``w``, a list in row-store form that the caller made, reduced
        in place against the basis and returned."""
        p = self.field.order
        for row, c in zip(self._rows, self.pivots):
            f = w[c]
            if f:
                if p is None:
                    for j, b in enumerate(row):
                        if b:
                            w[j] -= f * b
                else:
                    for j, b in enumerate(row):
                        if b:
                            w[j] = (w[j] - f * b) % p
        return w

    def contains(self, vec):
        # Over Q through ``reduce``: perfbench/tracer.py requires
        # ``linalg.reduce`` to be entered on ``kernel`` and ``suite``.
        if self.field.order is None:
            return not any(self.reduce(vec))
        return not any(self._residual(_coerce_row(self.field, vec, self.ambient_dim)))

    def contains_subspace(self, other):
        self._check_compatible(other)
        return all(self.contains(row) for row in other._rows)

    def sum(self, other):
        """Span of both bases; a zero operand returns the other as is."""
        self._check_compatible(other)
        if self.is_zero or other.is_zero:
            return self if other.is_zero else other
        return _span(self.field, self.ambient_dim, [list(r) for r in self._rows + other._rows])

    def intersect(self, other):
        """Intersection, from the residuals of the rows u_i of the operand U
        of lower dimension (``self`` on a tie) against the other, W.  If all
        vanish, U lies inside W and is returned as is.  Otherwise reduction
        is linear, so x = sum(a_i u_i) lies in W exactly when sum(a_i r_i) = 0
        for r_i the residual of u_i; residuals vanish on the t pivot columns
        of W, so the a are the nullspace of the other n - t coordinates, in
        dim U unknowns."""
        self._check_compatible(other)
        u, w = (self, other) if self.dim <= other.dim else (other, self)
        residuals = [w._residual(list(row)) for row in u._rows]
        if not any(map(any, residuals)):
            return u
        pivots = set(w.pivots)
        eqs = [col for k, col in enumerate(zip(*residuals)) if k not in pivots]
        vecs = []
        for combo in _kernel_rows(self.field, nullspace(self.field, u.dim, eqs)):
            acc = [0] * self.ambient_dim
            for coef, row in zip(combo, u._rows):
                if coef:
                    for j, b in enumerate(row):
                        if b:
                            acc[j] += coef * b
            vecs.append(acc)
        return rref(self.field, self.ambient_dim, vecs)

    def _check_compatible(self, other):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self._rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def zero_subspace(field, n):
    return Subspace(field, n, (), ())


def nullspace(field, width, equations):
    """Canonical basis of ``{x : E x = 0}`` for the given equation rows.

    One basis vector per free column of the reduced system, in ascending
    free-column order, with a one in the free coordinate.
    """
    reduced = rref(field, width, equations)
    pivot_set = set(reduced.pivots)
    free_cols = [c for c in range(width) if c not in pivot_set]
    out = []
    for f in free_cols:
        x = [field.zero] * width
        x[f] = field.one
        for row, c in zip(reduced._rows, reduced.pivots):
            if row[f]:
                x[c] = field.from_int(-row[f])
        out.append(tuple(x))
    return out
