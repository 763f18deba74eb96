"""Exact permutation groups at desk scale.

Every group is its full element list (orders are capped by the
configured bound): the order is its length and membership is a lookup in
its element set.  Conjugacy classes, normalizers and p-subgroup classes
are computed by exhaustive, deterministic enumeration and cached; groups
are immutable after construction.  Centralizers of single elements are
never listed: class_and_centralizer walks a conjugacy class and returns
Schreier generators of the centralizer.

A subgroup is a PermGroup of its own, and a homomorphism is the dict of
its element images (homomorphism and close_map).  Normalizers are
memoized on the ambient group, keyed by the element set of the subgroup,
so N_G(P) is computed once per (G, P) however many groups carry the
elements of P: the Sylow chain, the pair orbits and the fusion objects
share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import max_order
from .errors import DomainError, InternalCheckError, SizeBoundError
from .permutation import Permutation, conjugate, conjugate_with


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _closure(degree, gens, cap):
    """All products of the generators, in breadth-first discovery order."""
    ident = Permutation.identity(degree)
    seen = {ident}
    out = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    if len(seen) >= cap:
                        raise SizeBoundError(
                            f"group of degree {degree} on {len(gens)} generators: "
                            f"order exceeds the configured bound {cap}"
                        )
                    seen.add(y)
                    out.append(y)
                    nxt.append(y)
        frontier = nxt
    return out


def orbit(seed, step) -> set:
    """Everything reachable from seed, where step(x) lists the moves of x."""
    reached = {seed}
    todo = [seed]
    while todo:
        for y in step(todo.pop()):
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return reached


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


@dataclass(frozen=True)
class ConjClass:
    rep: Permutation
    elements: tuple

    @property
    def size(self) -> int:
        return len(self.elements)


class PermGroup:
    """A finite permutation group with exact, fully enumerated structure."""

    def __init__(self, degree: int, generators):
        if degree < 1:
            raise DomainError(f"degree must be positive, got {degree}")
        gens = []
        for g in generators:
            if g.degree != degree:
                raise DomainError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._elements = tuple(sorted(_closure(degree, self.generators, max_order())))
        self._element_set = frozenset(self._elements)
        self.order = len(self._elements)
        self._classes = None
        self._class_index = None
        self._p_subgroup_cache = {}
        self._normalizer_cache = {}
        self._by_invariant = None

    # -- membership and element access ------------------------------------

    def contains(self, perm: Permutation) -> bool:
        """Membership test; a permutation of another degree is never a
        member, since it equals no element."""
        return perm in self._element_set

    def __contains__(self, perm):
        return self.contains(perm)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self) -> tuple:
        """All elements, canonically sorted (identity first)."""
        return self._elements

    def element_set(self) -> frozenset:
        return self._element_set

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])

    def exponent(self) -> int:
        return math.lcm(*(c.rep.order() for c in self.conjugacy_data()))

    # -- conjugacy classes -------------------------------------------------

    def conjugacy_data(self) -> tuple:
        """Conjugacy classes ordered by their minimal element; identity first."""
        if self._classes is None:
            classes = []
            seen = set()
            steps = [(g, g.inverse()) for g in self.generators]
            for x in self._elements:
                if x in seen:
                    continue
                members = orbit(
                    x, lambda y: [conjugate_with(g, g_inv, y) for g, g_inv in steps]
                )
                classes.append(ConjClass(rep=x, elements=tuple(sorted(members))))
                seen |= members
            self._classes = tuple(classes)
            self._class_index = {
                elt: i for i, cls in enumerate(classes) for elt in cls.elements
            }
        return self._classes

    def class_index_of(self, x: Permutation) -> int:
        self.conjugacy_data()
        try:
            return self._class_index[x]
        except KeyError:
            raise DomainError("element does not belong to the group") from None

    def invariant(self, x: Permutation) -> tuple:
        """(element order, class size) of a member; conjugates share it."""
        return (x.order(), self.conjugacy_data()[self.class_index_of(x)].size)

    def elements_by_invariant(self) -> dict:
        """The elements grouped by their invariant, each group in canonical
        order; one order is computed per conjugacy class."""
        if self._by_invariant is None:
            classes = self.conjugacy_data()
            invariants = [(c.rep.order(), c.size) for c in classes]
            by_invariant = {}
            for x in self._elements:
                by_invariant.setdefault(
                    invariants[self._class_index[x]], []
                ).append(x)
            self._by_invariant = {k: tuple(v) for k, v in by_invariant.items()}
        return self._by_invariant

    # -- subgroups ----------------------------------------------------------

    def subgroup(self, gens) -> PermGroup:
        """The subgroup generated by members of this group."""
        gens = tuple(gens)
        for g in gens:
            if not self.contains(g):
                raise DomainError("subgroup generator is not a member of the parent")
        return PermGroup(self.degree, gens)

    def subgroup_from_elements(self, elements) -> PermGroup:
        """The subgroup with the given closed element list."""
        elements = tuple(sorted(elements))
        H = self.subgroup(small_generating_set(self.degree, elements))
        if H.order != len(elements):
            raise InternalCheckError("generating set does not span the given elements")
        return H


def small_generating_set(degree, elements):
    """A greedy small generating sequence for a closed element list."""
    elements = tuple(sorted(elements))
    if len(elements) == 1:
        return ()
    candidates = sorted(
        (x for x in elements if not x.is_identity()),
        key=lambda x: (-x.order(), x.images),
    )
    gens = []
    generated = {Permutation.identity(degree)}
    while len(generated) < len(elements):
        addition = next(x for x in candidates if x not in generated)
        gens.append(addition)
        generated = set(_closure(degree, gens, len(elements) + 1))
    return tuple(gens)


def class_and_centralizer(gens, s: Permutation):
    """The class of s under conjugation by <gens>, and generators of the
    centralizer of s in <gens>.

    The walk keeps a transversal t_y with t_y s t_y^-1 = y for every
    conjugate y.  An edge y -> z = g y g^-1 off the walk's tree gives the
    Schreier generator t_z^-1 g t_y, which centralizes s; by Schreier's
    lemma these generate C_<gens>(s).  They come back deduplicated, without
    the identity, in the order the walk finds them.
    """
    steps = [(g, g.inverse()) for g in gens]
    one = Permutation.identity(s.degree)
    transversal = {s: (one, one)}  # y -> (t_y, t_y^-1)
    todo = [s]
    schreier = {}
    while todo:
        y = todo.pop()
        t_y, t_y_inv = transversal[y]
        for g, g_inv in steps:
            z = conjugate_with(g, g_inv, y)
            known = transversal.get(z)
            if known is None:
                transversal[z] = (g * t_y, t_y_inv * g_inv)
                todo.append(z)
                continue
            x = known[1] * g * t_y
            if not x.is_identity():
                schreier[x] = None
    return set(transversal), tuple(schreier)


def _check_subgroup_of(G: PermGroup, P: PermGroup):
    for g in P.generators:
        if not G.contains(g):
            raise DomainError("subgroup is not contained in the group")


def normalizer(G: PermGroup, P: PermGroup) -> PermGroup:
    """The normalizer N_G(P); always contains P.  Memoized on G by the
    element set of P."""
    pset = P.element_set()
    N = G._normalizer_cache.get(pset)
    if N is None:
        _check_subgroup_of(G, P)
        members = []
        for g in G.elements():
            g_inv = g.inverse()
            if all(conjugate_with(g, g_inv, x) in pset for x in P.generators):
                members.append(g)
        N = G._normalizer_cache[pset] = G.subgroup_from_elements(members)
    return N


def is_p_prime_element(g: Permutation, p: int) -> bool:
    return g.order() % p != 0


def _canonical_conjugate(G, element_set):
    """Lexicographically minimal G-conjugate of a subgroup element set."""
    steps = [(g, g.inverse()) for g in G.generators]
    conjugates = orbit(
        element_set,
        lambda s: [frozenset([conjugate_with(g, g_inv, x) for x in s])
                   for g, g_inv in steps],
    )
    return min(conjugates, key=_set_key)


def _set_key(element_set):
    return tuple(sorted(x.images for x in element_set))


def _all_subgroups_of(degree, elements):
    """Every subgroup of the group given by its element list.

    Each subgroup s found keeps the generating set it was first closed
    from, and is extended by one x per coset s x outside s: <s, h x> is
    <s, x> for every h in s.
    """
    cap = len(elements) + 1
    trivial = frozenset([Permutation.identity(degree)])
    generators = {trivial: ()}

    def extensions(s):
        found = []
        covered = set(s)
        for x in elements:
            if x in covered:
                continue
            covered.update(h * x for h in s)
            gens = generators[s] + (x,)
            t = frozenset(_closure(degree, gens, cap))
            generators.setdefault(t, gens)
            found.append(t)
        return found

    return orbit(trivial, extensions)


def p_subgroup_classes(G: PermGroup, p: int):
    """One canonical representative per conjugacy class of p-subgroups.

    By Sylow's theorem these are the G-classes of the subgroups of one
    Sylow subgroup S, each given by its minimal conjugate.  S is grown from
    the trivial group: P below the Sylow order lies properly in a Sylow Q,
    and N_Q(P) / P is a nontrivial p-group, so some x in N_G(P) - P has x^p
    in P, and <P, x> has order p|P|.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p in G._p_subgroup_cache:
        return G._p_subgroup_cache[p]

    sylow_order = p_part(G.order, p)
    P = PermGroup(G.degree, ())
    while P.order < sylow_order:
        pset = P.element_set()
        N = normalizer(G, P)
        x = next((x for x in N.elements() if x not in pset and x ** p in pset), None)
        if x is None:
            raise InternalCheckError(
                f"p-subgroup classes, p={p}: no element of N_G(P) extends "
                f"|P|={P.order} toward the Sylow order {sylow_order}"
            )
        P = G.subgroup(P.generators + (x,))
        if P.order != p * len(pset):
            raise InternalCheckError("layered extension gave a wrong order")

    canonical = {
        _canonical_conjugate(G, s) for s in _all_subgroups_of(G.degree, P.elements())
    }
    reps = sorted(canonical, key=lambda s: (len(s), _set_key(s)))
    result = [G.subgroup_from_elements(s) for s in reps]
    G._p_subgroup_cache[p] = result
    return result


def sylow_subgroup(G: PermGroup, p: int) -> PermGroup:
    """A canonical Sylow p-subgroup (the largest p-subgroup class rep)."""
    return p_subgroup_classes(G, p)[-1]


def close_map(A: PermGroup, B: PermGroup, pairs, start=None, twist=None):
    """Extend (generator, image) pairs to a map on <generators>, or None
    when two products of the generators get different images.

    ``start``, when given, is the map already closed on the group that
    every pair but the last generates; the closure resumes from it, so
    only the last pair is applied to its elements.

    ``twist`` = (c, d), with c normalizing A and d normalizing B, also
    closes the map under x -> c x c^-1 with image d m(x) d^-1.  The map
    then lives on the smallest c-invariant subgroup holding the
    generators, and it intertwines conjugation by c with conjugation by
    d there; a conflict returns None as above.
    """
    if start is None:
        m = {A.identity: B.identity}
        frontier = [A.identity]
        moves = pairs
        twisting = twist
    else:
        # start is closed under the twist already
        m = dict(start)
        frontier = list(start)
        moves = pairs[-1:]
        twisting = None
    if twist is not None:
        c, d = twist
        c_inv, d_inv = c.inverse(), d.inverse()
    while frontier:
        nxt = []
        for x in frontier:
            mx = m[x]
            for g, h in moves:
                y = x * g
                my = mx * h
                known = m.get(y)
                if known is None:
                    m[y] = my
                    nxt.append(y)
                elif known != my:
                    return None
            if twisting is not None:
                y = c * x * c_inv
                my = d * mx * d_inv
                known = m.get(y)
                if known is None:
                    m[y] = my
                    nxt.append(y)
                elif known != my:
                    return None
        frontier = nxt
        moves = pairs
        twisting = twist
    return m


def homomorphism(A: PermGroup, B: PermGroup, pairs) -> dict:
    """The element map of the homomorphism A -> B with the given
    (generator, image) pairs, checked on every element of A.

    Raises InternalCheckError when the images do not define a
    homomorphism or the generators do not generate A.
    """
    m = close_map(A, B, tuple(pairs))
    if m is None:
        raise InternalCheckError("generator images do not define a homomorphism")
    if len(m) != A.order:
        raise InternalCheckError("generator images do not cover the source group")
    return m


def quotient_group(G: PermGroup, N: PermGroup):
    """The quotient G/N realized on the right cosets of N, with the
    projection as an element map."""
    _check_subgroup_of(G, N)
    nset = N.element_set()
    for g in G.generators:
        for x in N.generators:
            if conjugate(g, x) not in nset:
                raise DomainError(
                    f"subgroup is not normal: conjugating {x.cycle_string()} by "
                    f"{g.cycle_string()} leaves the subgroup"
                )
    n_elements = N.elements()
    coset_of = {}
    reps = []
    for x in G.elements():  # ascending, so each rep is its coset's minimum
        if x in coset_of:
            continue
        index = len(reps)
        reps.append(x)
        for n in n_elements:
            coset_of[n * x] = index
    degree = len(reps)
    pairs = []
    for g in G.generators:
        images = [coset_of[rep * g] for rep in reps]
        pairs.append((g, Permutation(images)))
    quotient = PermGroup(max(degree, 1), [img for _, img in pairs])
    if quotient.order * N.order != G.order:
        raise InternalCheckError("coset action has the wrong kernel")
    return quotient, homomorphism(G, quotient, pairs)


def direct_product(G: PermGroup, H: PermGroup) -> PermGroup:
    """The direct product acting on the disjoint union of the point sets."""
    degree = G.degree + H.degree
    gens = []
    for g in G.generators:
        gens.append(Permutation(tuple(g.images) + tuple(range(G.degree, degree))))
    for h in H.generators:
        gens.append(Permutation(tuple(range(G.degree)) + tuple(i + G.degree for i in h.images)))
    return PermGroup(degree, gens)


def _mat_mult(a, b, p):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _mat_order(m, p, cap=10 ** 6):
    n = len(m)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    power = m
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = _mat_mult(power, m, p)
    raise DomainError("matrix order exceeds the search cap")


def _mat_invertible(m, p):
    n = len(m)
    rows = [list(r) for r in m]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] % p), None)
        if pivot is None:
            return False
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank == n


def frobenius_group(p: int, rank: int, matrix) -> PermGroup:
    """The affine group of translations of (F_p)^rank plus a matrix action.

    The matrix must be invertible mod p, its multiplicative order m must be
    coprime to p, and every proper power must fix only the zero vector.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if rank < 1:
        raise DomainError("rank must be positive")
    m = tuple(tuple(v % p for v in row) for row in matrix)
    if len(m) != rank or any(len(row) != rank for row in m):
        raise DomainError(f"matrix must be {rank}x{rank}")
    bound, where = max_order(), f"frobenius form, p={p}, rank {rank}"
    if p ** rank > bound:
        raise SizeBoundError(f"{where}: the translations alone have order {p}^{rank} "
                             f"= {p ** rank}, over the configured bound {bound}")
    if not _mat_invertible(m, p):
        raise DomainError("matrix is not invertible mod p")
    order = _mat_order(m, p)
    if order % p == 0:
        raise DomainError(f"matrix order {order} is divisible by p = {p}")
    if p ** rank * order > bound:
        raise SizeBoundError(f"{where}: order {p}^{rank} * {order} = {p ** rank * order}, "
                             f"over the configured bound {bound}")

    vectors = [
        tuple((v // p ** i) % p for i in range(rank))
        for v in range(p ** rank)
    ]
    index = {v: i for i, v in enumerate(vectors)}

    def translation(basis):
        return Permutation(
            index[tuple((v[i] + int(i == basis)) % p for i in range(rank))]
            for v in vectors
        )

    def matrix_perm(mat):
        return Permutation(
            index[tuple(sum(mat[i][j] * v[j] for j in range(rank)) % p for i in range(rank))]
            for v in vectors
        )

    power = m
    for j in range(1, order):
        fixed = [
            v for v in vectors
            if any(v) and all(
                sum(power[i][k] * v[k] for k in range(rank)) % p == v[i]
                for i in range(rank)
            )
        ]
        if fixed:
            raise DomainError(
                f"action is not free: matrix power {j} fixes the nonzero vector {fixed[0]}"
            )
        power = _mat_mult(power, m, p)

    group = PermGroup(p ** rank, [translation(i) for i in range(rank)] + [matrix_perm(m)])
    if group.order != p ** rank * order:
        raise InternalCheckError("affine group has unexpected order")
    return group
