"""Exact Delaunay triangulation of integer points in any dimension.

Every predicate is a determinant of Python integers, so it is exact
(Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast Robust
Geometric Predicates", 1997, computed here in unbounded integers):

- ``orient(v_0..v_k)`` is ``det[u_i - u_0]`` over the edge vectors, positive
  for a positively oriented simplex;
- the in-sphere test lifts every point to ``(u, w)`` with ``w = |x|^2`` and
  asks on which side of the lifted simplex's hyperplane the lifted query
  lies.  Any lift that is a positive definite quadratic form of the
  coordinates gives the same answer as the metric sphere, which lets a point
  set in a lower-dimensional flat be triangulated in the coordinates of a
  projection while keeping the lift of its full coordinates.

Points are inserted by Bowyer-Watson in the order given, which must be a
lexicographic order (or any order ``x < y`` iff ``y - x`` is positive in a
fixed lexicographic sense).  Then each point is a vertex of the hull of the
points up to it, so it always lies outside the current hull, and it sees a
hull facet through the previous point: the cavity search starts from the
previous insertion's new simplices.  The hull is closed by ghost simplices
(a hull facet plus the vertex ``GHOST`` at infinity), which conflict with a
point strictly beyond their facet, or in its hyperplane and strictly inside
its circumsphere.  A simplex is replaced only when the new point lies
strictly inside its circumsphere: where several triangulations are Delaunay
(cospherical points), the insertion order decides, so the result depends on
the point set and the order alone.

Until the points span the full dimension they lie in a flat; the first point
off it is joined to the flat's own Delaunay triangulation (found the same
way, one dimension lower, in the coordinates of its echelon pivots), which
is Delaunay for the points so far.
"""
from __future__ import annotations

GHOST = -1


def delaunay(points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Simplices of the Delaunay triangulation of distinct integer points.

    ``points`` must be in lexicographic order.  Returns positively oriented
    tuples of point indices, or an empty list when the points do not span
    their dimension.
    """
    if not points:
        return []
    simplices = _triangulate(points, [sum(x * x for x in p) for p in points])
    for s in simplices:
        if not _orient(points, s) > 0:
            raise AssertionError(f"simplex {s} is not positively oriented")
    return simplices


def _det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss's fraction-free elimination)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _orient(u, simplex) -> int:
    base = u[simplex[0]]
    return _det([[a - b for a, b in zip(u[v], base)] for v in simplex[1:]])


def _in_sphere(u, w, simplex, q) -> int:
    """Positive iff point q lies strictly inside the circumsphere of the
    positively oriented simplex (all indices into coordinates u, lifts w)."""
    base, wq = u[q], w[q]
    det = _det([[*(a - b for a, b in zip(u[v], base)), w[v] - wq] for v in simplex])
    return -det if len(base) % 2 else det


def _in_facet_sphere(u, w, facet, q) -> bool:
    """Whether q, in the hyperplane of ``facet``, lies strictly inside its circumsphere.

    The test runs in the coordinates left after dropping an axis along which
    the facet's hyperplane projects one to one.
    """
    base = u[facet[0]]
    edges = [[a - b for a, b in zip(u[v], base)] for v in facet[1:]]
    for j in range(len(base)):
        minor = _det([e[:j] + e[j + 1 :] for e in edges])
        if minor:
            break
    projected = {v: u[v][:j] + u[v][j + 1 :] for v in (*facet, q)}
    side = _in_sphere(projected, w, facet, q)
    return side * minor > 0


def _spanning_prefix(u) -> tuple[int, list[int]] | None:
    """``(m, pivots)``: the first index m at which ``u[:m + 1]`` spans the full
    dimension k, and k - 1 coordinate axes onto which the flat of ``u[:m]``
    projects one to one.  None when the points never span."""
    k = len(u[0])
    rows: list[tuple[list[int], int]] = []   # fraction-free echelon form of the edge vectors
    for m, p in enumerate(u[1:], 1):
        v = [a - b for a, b in zip(p, u[0])]
        for row, col in rows:
            if v[col]:
                v = [a * row[col] - b * v[col] for a, b in zip(v, row)]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        if len(rows) == k - 1:
            return m, [col for _, col in rows]
        rows.append((v, pivot))
    return None


def _triangulate(u, w) -> list[tuple[int, ...]]:
    """The Delaunay simplices of points u (lifts w); none when they lie in a flat."""
    k = len(u[0])
    if k == 1:
        return [(i, i + 1) if u[i + 1][0] > u[i][0] else (i + 1, i) for i in range(len(u) - 1)]
    spanning = _spanning_prefix(u)
    if spanning is None:
        return []
    m, pivots = spanning
    flat = _triangulate([tuple(p[j] for j in pivots) for p in u[:m]], w[:m])
    simp: list[tuple[int, ...]] = []
    for s in flat:   # joined to point m, then oriented
        s = s + (m,)
        simp.append(s if _orient(u, s) > 0 else (s[1], s[0]) + s[2:])
    nbr: list[list[int | None]] = [[None] * (k + 1) for _ in simp]
    hull = _link(simp, nbr, range(len(simp)))
    ghosts = []
    for (s, i) in hull:   # a ghost per hull facet: the facet, GHOST in slot i, reoriented
        g = list(simp[s])
        g[i] = GHOST
        a, b = [j for j in range(k + 1) if j != i][:2]
        g[a], g[b] = g[b], g[a]
        ghosts.append(len(simp))
        simp.append(tuple(g))
        nbr.append([None] * (k + 1))
        nbr[s][i], nbr[-1][i] = ghosts[-1], s
    _link(simp, nbr, ghosts)
    dead = [False] * len(simp)

    def conflict(s: int, q: int) -> bool:
        vs = simp[s]
        if GHOST not in vs:
            return _in_sphere(u, w, vs, q) > 0
        j = vs.index(GHOST)
        side = _orient(u, vs[:j] + (q,) + vs[j + 1 :])
        return side > 0 or (side == 0 and _in_facet_sphere(u, w, vs[:j] + vs[j + 1 :], q))

    recent = list(range(len(simp)))
    for q in range(m + 1, len(u)):
        start = next((s for s in recent if conflict(s, q)), None)
        if start is None:
            raise AssertionError(f"point {q} sees no hull facet through point {q - 1}")
        # the cavity: every simplex in conflict with q, connected through facets
        status = {start: True}
        stack, boundary = [start], []
        while stack:
            s = stack.pop()
            dead[s] = True
            for i, n in enumerate(nbr[s]):
                inside = status.get(n)
                if inside is None:
                    inside = status[n] = conflict(n, q)
                    if inside:
                        stack.append(n)
                if not inside:
                    boundary.append((s, i, n))
        # each boundary facet is joined to q, which takes the slot of the
        # vertex it replaces, so the orientation is kept
        recent = []
        for s, i, n in boundary:
            t = len(simp)
            vs = simp[s]
            simp.append(vs[:i] + (q,) + vs[i + 1 :])
            links = [None] * (k + 1)
            links[i] = n
            nbr.append(links)
            dead.append(False)
            nbr[n][nbr[n].index(s)] = t
            recent.append(t)
        _link(simp, nbr, recent)
    return [s for s, gone in zip(simp, dead) if not gone and GHOST not in s]


def _link(simp, nbr, ids) -> list[tuple[int, int]]:
    """Set the neighbours of the simplices ``ids`` across their unlinked
    facets that they share with each other; returns the facets left
    unmatched, as (simplex, slot)."""
    pending: dict[tuple[int, ...], tuple[int, int]] = {}
    for s in ids:
        vs = simp[s]
        for i, n in enumerate(nbr[s]):
            if n is not None:
                continue
            key = tuple(sorted(vs[:i] + vs[i + 1 :]))
            other = pending.pop(key, None)
            if other is None:
                pending[key] = (s, i)
            else:
                nbr[s][i] = other[0]
                nbr[other[0]][other[1]] = s
    return list(pending.values())
