"""Reference arithmetic the benchmark checks the program's outputs with.

None of this imports evoalg.  Scalars over Q are ``fractions.Fraction``
values and scalars over F_p are plain ints in ``[0, p)``; ``p is None`` means
Q throughout.  Vertex sets are bitmasks with bit i for vertex i.
"""

from __future__ import annotations

from fractions import Fraction


def scalar(raw, p):
    """A raw generated entry (int or exact text) as a reference scalar."""
    x = Fraction(raw)
    if p is None:
        return x
    return x.numerator * pow(x.denominator, -1, p) % p


def matrix(raw_rows, p):
    return [[scalar(x, p) for x in row] for row in raw_rows]


def rank(rows, p):
    """Rank of a matrix over Q (exact) or F_p, by plain elimination."""
    rows = [list(r) for r in rows]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = 1 / rows[r][c] if p is None else pow(rows[r][c], -1, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                f *= inv
                rows[i] = _axpy(rows[i], -f, rows[r], p)
        r += 1
    return r


def _axpy(w, f, row, p):
    """w + f * row, entry-wise, reduced mod p over F_p."""
    if p is None:
        return [a + f * b if b else a for a, b in zip(w, row)]
    return [(a + f * b) % p if b else a for a, b in zip(w, row)]


def rref_pivots(rows):
    """Pivot columns when ``rows`` is in reduced row echelon form, else None.

    Canonical form: every row nonzero with leading entry one, leading columns
    strictly increasing, and each leading column zero in every other row.
    """
    pivots = []
    for row in rows:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None or row[c] != 1 or (pivots and c <= pivots[-1]):
            return None
        pivots.append(c)
    for k, c in enumerate(pivots):
        if any(rows[i][c] for i in range(len(rows)) if i != k):
            return None
    return pivots


def reduces_to_zero(vec, rows, pivots, p):
    """True when ``vec`` lies in the span of an RREF basis."""
    w = list(vec)
    for row, c in zip(rows, pivots):
        f = w[c]
        if f:
            w = _axpy(w, -f, row, p)
    return not any(w)


def successor_masks(raw_rows):
    """Edge i -> j exactly when entry j of the square of e_i is nonzero."""
    return [
        sum(1 << j for j, x in enumerate(row) if scalar(x, None) != 0)
        for row in raw_rows
    ]


def reach_masks(succ):
    """Vertices reachable from each vertex, the vertex itself included."""
    out = []
    for v in range(len(succ)):
        seen = 1 << v
        stack = [v]
        while stack:
            m = succ[stack.pop()] & ~seen
            seen |= m
            while m:
                low = m & -m
                stack.append(low.bit_length() - 1)
                m ^= low
        out.append(seen)
    return out


def is_hereditary(mask, succ):
    m = mask
    while m:
        low = m & -m
        if succ[low.bit_length() - 1] & ~mask:
            return False
        m ^= low
    return True


def is_saturated(mask, succ):
    """No vertex outside the set has all of its (at least one) successors
    inside it."""
    for v, s in enumerate(succ):
        if s and not mask >> v & 1 and s & ~mask == 0:
            return False
    return True


def count_down_sets(succ):
    """Number of hereditary vertex sets and their total size, by splitting on
    one vertex at a time.

    Sets avoiding vertex v avoid everything that reaches v; sets holding v
    hold everything v reaches.  Memoised on the mask of undecided vertices.
    """
    n = len(succ)
    reach = reach_masks(succ)
    reached_by = [0] * n
    for v in range(n):
        m = reach[v]
        while m:
            low = m & -m
            reached_by[low.bit_length() - 1] |= 1 << v
            m ^= low
    memo = {0: (1, 0)}

    def count(free):
        got = memo.get(free)
        if got is not None:
            return got
        best, pick = -1, 0
        m = free
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            related = ((reach[v] | reached_by[v]) & free).bit_count()
            if related > best:
                best, pick = related, v
        out_count, out_size = count(free & ~reached_by[pick])
        forced = reach[pick] & free
        in_count, in_size = count(free & ~forced)
        got = (out_count + in_count, out_size + in_size + in_count * forced.bit_count())
        memo[free] = got
        return got

    return count((1 << n) - 1)
