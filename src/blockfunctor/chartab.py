"""Exact character tables over a prime field.

Character values are residues modulo a prime q with q = 1 (mod exponent)
and q > 2|G|: the class-multiplication matrices are simultaneously
diagonalized over F_q, the one-dimensional common eigenspaces are the
central characters, and degrees are recovered as the unique integer
square roots below sqrt(|G|).  For an abelian G every character is
linear, and the table lists Hom(G, F_q^*) directly, extended one
generator at a time, with the same q and the same row order.  Every
reported quantity (degrees, fixed point dimensions) is a bounded
rational integer, so residue arithmetic plus bounded lifting is exact.

The class matrices are read on labels: the images of each product are
gathered with operator.itemgetter and its class is looked up by its image
tuple in the group's label and class tables, with no Permutation built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .config import PRIME_SEARCH_CAP, max_order
from .errors import DomainError, InternalCheckError, SizeBoundError
from .permgroup import PermGroup, is_prime


def character_prime(exponent: int, order: int, cap: int = PRIME_SEARCH_CAP) -> int:
    """Smallest prime q = 1 (mod exponent) with q > 2*order."""
    q = 2 * order + 1
    q += (-(q - 1)) % exponent
    while q <= cap:
        if is_prime(q):
            return q
        q += exponent
    raise DomainError(f"no suitable prime below {cap} for exponent {exponent}")


# -- small exact linear algebra mod q ---------------------------------------

def _rref(rows, q):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % q), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, q)
        rows[r] = [v * inv % q for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % q:
                f = rows[i][col]
                rows[i] = [(v - f * w) % q for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def _kernel_basis(mat, q):
    """Basis of the null space of a square matrix, as rref'd row vectors."""
    n = len(mat)
    reduced, pivots = _rref(mat, q)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = (-row[fc]) % q
        basis.append(tuple(vec))
    basis, _ = _rref(basis, q)
    return basis


def _charpoly(mat, q):
    """Characteristic polynomial coefficients [1, c1, ..., cn] mod q: the
    matrix is reduced by similarity to upper Hessenberg form h, whose
    leading minors p(k) satisfy p(k+1) = (x - h[k][k]) p(k) - sum over
    i < k of h[i][k] h[i+1][i] ... h[k][k-1] p(i)."""
    n = len(mat)
    h = [[v % q for v in row] for row in mat]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        inv = pow(h[m][m - 1], -1, q)
        for i in range(m + 1, n):
            t = h[i][m - 1] * inv % q
            if t:
                h[i] = [(a - t * b) % q for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + t * row[i]) % q
    polys = [[1]]  # minors of h, lowest degree first
    for k in range(n):
        nxt = [0] + polys[k]
        for j, c in enumerate(polys[k]):
            nxt[j] = (nxt[j] - h[k][k] * c) % q
        chain = 1
        for i in range(k - 1, -1, -1):
            chain = chain * h[i + 1][i] % q
            factor = h[i][k] * chain % q
            for j, c in enumerate(polys[i]):
                nxt[j] = (nxt[j] - factor * c) % q
        polys.append(nxt)
    return polys[n][::-1]


def _poly_roots(coeffs, q):
    roots = []
    for x in range(q):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % q
        if acc == 0:
            roots.append(x)
    return roots


def _pivot_columns(rref_rows):
    pivots = []
    for row in rref_rows:
        pivots.append(next(c for c, v in enumerate(row) if v))
    return pivots


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible character values of a group as residues mod q.

    Rows are characters sorted by (degree, value columns); columns follow
    the canonical class order with the identity class first.
    """

    group: PermGroup
    modulus: int
    class_reps: tuple
    class_sizes: tuple
    degrees: tuple
    values: tuple  # tuple of rows, each a tuple of residues

    @property
    def n_classes(self) -> int:
        return len(self.class_reps)


def _class_matrix(G: PermGroup, classes, i, q):
    """Matrix of multiplication by the i-th class sum acting on class sums:
    entry (j, col) counts the x in class i with x^-1 z in class j, for z
    the rep of class col.  G's classes must be read already; a group with
    two or more classes has degree two or more, so itemgetter returns the
    image tuple of x^-1 z."""
    k = len(classes)
    positions, class_of = G._positions, G._class_of
    mat = [[0] * k for _ in range(k)]
    times = [itemgetter(*x.inverse().images) for x in classes[i].elements]
    for col in range(k):
        z = classes[col].rep.images
        for times_x_inv in times:
            mat[class_of[positions[times_x_inv(z)]]][col] += 1
    return [[v % q for v in row] for row in mat]


def _split_space(basis, mat, k, q):
    """Split a common eigenspace sum along one class matrix.

    The basis rows must be in rref; returns a list of rref'd sub-bases,
    one per eigenvalue of the restricted operator.
    """
    d = len(basis)
    pivots = _pivot_columns(basis)
    images = []
    for vec in basis:
        img = tuple(sum(mat[r][c] * vec[c] for c in range(k)) % q for r in range(k))
        images.append(img)
    coords = []
    for img in images:
        c = [img[pc] for pc in pivots]
        rebuilt = [0] * k
        for coeff, row in zip(c, basis):
            rebuilt = [(a + coeff * b) % q for a, b in zip(rebuilt, row)]
        if tuple(rebuilt) != img:
            raise InternalCheckError("class matrix leaves a split subspace")
        coords.append(c)
    # operator on coordinate columns: basis vector a maps to sum coords[a][b] * basis[b]
    op = [[coords[a][b] for a in range(d)] for b in range(d)]
    pieces = []
    covered = 0
    for lam in _poly_roots(_charpoly(op, q), q):
        shifted = [
            [(op[r][c] - (lam if r == c else 0)) % q for c in range(d)]
            for r in range(d)
        ]
        kvecs = _kernel_basis(shifted, q)
        if not kvecs:
            continue
        lifted = []
        for kvec in kvecs:
            row = [0] * k
            for coeff, bvec in zip(kvec, basis):
                row = [(a + coeff * b) % q for a, b in zip(row, bvec)]
            lifted.append(tuple(row))
        reduced, _ = _rref(lifted, q)
        pieces.append(reduced)
        covered += len(reduced)
    if covered != d:
        raise InternalCheckError("restricted class matrix is not diagonalizable")
    return pieces


def _class_matrix_rows(G: PermGroup, classes, q):
    """(degree, values) of every irreducible, from the central characters
    that the class-multiplication matrices separate."""
    k = len(classes)
    inv_class = [G.class_index_of(cls.rep.inverse()) for cls in classes]
    sizes = [cls.size for cls in classes]

    spaces = [[tuple(int(i == j) for j in range(k)) for i in range(k)]]
    for i in range(1, k):
        if all(len(b) == 1 for b in spaces):
            break
        mat = _class_matrix(G, classes, i, q)
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
            else:
                new_spaces.extend(_split_space(basis, mat, k, q))
        spaces = new_spaces
    if any(len(b) != 1 for b in spaces):
        raise InternalCheckError("class matrices failed to separate the characters")

    rows = []
    for (vec,) in spaces:
        if vec[0] % q == 0:
            raise InternalCheckError("central character vanishes on the identity")
        scale = pow(vec[0], -1, q)
        omega = [v * scale % q for v in vec]
        total = 0
        for j in range(k):
            total = (total + omega[j] * omega[inv_class[j]] * pow(sizes[j], -1, q)) % q
        rhs = G.order * pow(total, -1, q) % q
        degree = next(
            (d for d in range(1, math.isqrt(G.order) + 1) if d * d % q == rhs),
            None,
        )
        if degree is None:
            raise InternalCheckError("no integral degree matches a central character")
        values = tuple(
            degree * omega[j] % q * pow(sizes[j], -1, q) % q for j in range(k)
        )
        rows.append((degree, values))
    return rows


def _roots_of_unity(n, q):
    """The n-th roots of unity in F_q, for n dividing q - 1, as the powers
    of a primitive one."""
    for g in range(2, q):
        w = pow(g, (q - 1) // n, q)
        roots = [pow(w, j, q) for j in range(n)]
        if len(set(roots)) == n:
            return roots
    raise InternalCheckError(f"no primitive {n}-th root of unity mod {q}")


def _linear_rows(G: PermGroup, classes, q):
    """(1, values) of every character of an abelian G: Hom(G, F_q^*),
    extended along the generators.  When g^r is the first power of g in
    H = <g1..g(i-1)>, each character chi of H extends to <H, g> in r ways,
    chi(h g^j) = chi(h) zeta^j with zeta^r = chi(g^r)."""
    roots = _roots_of_unity(G.exponent(), q)
    elements = [G.identity]
    chars = [[1]]
    for g in G.generators:
        index = {x.images: i for i, x in enumerate(elements)}
        power, r = g, 1
        while power.images not in index:
            power, r = power * g, r + 1
        layers = [elements]
        for _ in range(1, r):
            layers.append([x * g for x in layers[-1]])
        elements = [x for layer in layers for x in layer]
        unity = [z for z in roots if pow(z, r, q) == 1]
        extended = []
        for chi in chars:
            target = chi[index[power.images]]
            first = next(z for z in roots if pow(z, r, q) == target)
            for root in unity:
                zeta = first * root % q
                z, values = 1, []
                for _ in range(r):
                    values.extend(v * z % q for v in chi)
                    z = z * zeta % q
                extended.append(values)
        chars = extended
    position = {x.images: i for i, x in enumerate(elements)}
    columns = [position[cls.rep.images] for cls in classes]
    return [(1, tuple(chi[c] for c in columns)) for chi in chars]


def _table(G: PermGroup, rows_of) -> CharacterTable:
    """The table whose rows rows_of(G, classes, q) lists, sorted by
    (degree, values) and verified.  A failed check names the group's
    order and class count."""
    classes = G.conjugacy_data()
    q = character_prime(G.exponent(), G.order)
    try:
        rows = sorted(rows_of(G, classes, q))
        table = CharacterTable(
            group=G,
            modulus=q,
            class_reps=tuple(cls.rep for cls in classes),
            class_sizes=tuple(cls.size for cls in classes),
            degrees=tuple(d for d, _ in rows),
            values=tuple(v for _, v in rows),
        )
        _verify_table(table)
    except InternalCheckError as exc:
        raise InternalCheckError(
            f"character table, |G|={G.order}, {len(classes)} classes: {exc}"
        ) from exc
    return table


def character_table(G: PermGroup) -> CharacterTable:
    """The exact character table of G over a suitable prime field.

    For an abelian G the rows are the linear characters, listed directly;
    otherwise they come from the class-multiplication matrices.  Both give
    the same prime, the same row order and the same verified table.
    """
    bound = max_order()
    if G.order > bound:
        raise SizeBoundError(
            f"character table: the group has order {G.order}, over the "
            f"configured bound {bound}"
        )
    return _table(G, _linear_rows if G.is_abelian() else _class_matrix_rows)


def _verify_table(table: CharacterTable):
    q = table.modulus
    G = table.group
    k = table.n_classes
    if sum(d * d for d in table.degrees) != G.order:
        raise InternalCheckError("degrees do not satisfy the order identity")
    inv_class = [G.class_index_of(rep.inverse()) for rep in table.class_reps]
    order_inv = pow(G.order % q, -1, q)
    for a in range(k):
        for b in range(a, k):
            total = 0
            for j in range(k):
                total = (
                    total
                    + table.class_sizes[j]
                    * table.values[a][j]
                    * table.values[b][inv_class[j]]
                ) % q
            if total * order_inv % q != (1 if a == b else 0):
                raise InternalCheckError("row orthogonality fails mod q")


def class_counts(G: PermGroup, H: PermGroup) -> tuple:
    """How many elements of H lie in each class of G, in class order.  An
    element of H outside G raises DomainError when its class is looked
    up."""
    counts = [0] * len(G.conjugacy_data())
    for h in H.elements():
        counts[G.class_index_of(h)] += 1
    return tuple(counts)


def fixed_point_dim(table: CharacterTable, row: int, counts: tuple) -> int:
    """Dimension of the H-fixed points on the row-th irreducible module,
    for the subgroup H of the table's group with the given class_counts.

    Computed as the residue of (1/|H|) * sum of character values over H,
    lifted to the unique integer in [0, degree].
    """
    if not 0 <= row < table.n_classes:
        raise DomainError(f"character index {row} out of range")
    q = table.modulus
    total = sum(c * v for c, v in zip(counts, table.values[row])) % q
    value = total * pow(sum(counts) % q, -1, q) % q
    if value > table.degrees[row]:
        raise InternalCheckError(
            f"fixed-point dimension lift {value} exceeds the degree "
            f"{table.degrees[row]}"
        )
    return value
