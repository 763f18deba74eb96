"""Exact permutation groups at desk scale.

Every group materializes its full element list (orders are capped by the
configured bound) and derives a base/strong-generating-set structure from
it: the base is the sequence of smallest moved points down the stabilizer
chain and the transversal representatives are the canonically minimal
elements.  All derived data (classes, centralizers, p-subgroup classes)
is computed by exhaustive, deterministic enumeration and cached; groups
are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import max_order
from .errors import DomainError, InternalCheckError, SizeBoundError
from .permutation import Permutation, conjugate


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
                            f"group order exceeds the configured bound {cap}"
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
        self._chain = self._build_chain()
        self.order = math.prod(len(t) for _, t in self._chain) if self._chain else 1
        if self.order != len(self._elements):
            raise InternalCheckError("stabilizer chain order disagrees with closure")
        self.base = tuple(point for point, _ in self._chain)
        self._classes = None
        self._class_index = None
        self._p_subgroup_cache = {}

    def _build_chain(self):
        levels = []
        current = list(self._elements)
        degree = self.degree
        while len(current) > 1:
            point = next(
                pt
                for pt in range(degree)
                if any(g.images[pt] != pt for g in current)
            )
            transversal = {}
            for g in current:  # canonical order, so reps are minimal
                image = g.images[point]
                if image not in transversal:
                    transversal[image] = g
            levels.append((point, transversal))
            current = [g for g in current if g.images[point] == point]
        return tuple(levels)

    # -- membership and element access ------------------------------------

    def contains(self, perm: Permutation) -> bool:
        """Membership test by sifting through the stabilizer chain."""
        if perm.degree != self.degree:
            return False
        g = perm
        for point, transversal in self._chain:
            u = transversal.get(g.images[point])
            if u is None:
                return False
            g = g * u.inverse()
        return g.is_identity()

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
            gens = self.generators
            for x in self._elements:
                if x in seen:
                    continue
                members = orbit(x, lambda y: [conjugate(g, y) for g in gens])
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

    def class_size_of(self, x: Permutation) -> int:
        return self.conjugacy_data()[self.class_index_of(x)].size

    # -- subgroups ----------------------------------------------------------

    def subgroup(self, gens) -> "Subgroup":
        return Subgroup(self, gens)

    def subgroup_from_elements(self, elements) -> "Subgroup":
        elements = tuple(sorted(elements))
        return Subgroup(self, small_generating_set(self.degree, elements),
                        _known_order=len(elements))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, ())

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.generators, _known_order=self.order)


class Subgroup:
    """A subgroup of a parent group, carried by its own PermGroup."""

    def __init__(self, parent: PermGroup, gens, _known_order=None):
        gens = tuple(gens)
        for g in gens:
            if not parent.contains(g):
                raise DomainError("subgroup generator is not a member of the parent")
        self.parent = parent
        self.group = PermGroup(parent.degree, gens)
        if _known_order is not None and self.group.order != _known_order:
            raise InternalCheckError("generating set does not span the given elements")

    @property
    def generators(self) -> tuple:
        return self.group.generators

    @property
    def order(self) -> int:
        return self.group.order

    def elements(self) -> tuple:
        return self.group.elements()

    def element_set(self) -> frozenset:
        return self.group.element_set()

    def contains(self, perm) -> bool:
        return self.group.contains(perm)

    def __repr__(self):
        return f"Subgroup(order={self.order} of degree-{self.parent.degree} group)"


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


def group_from_generators(degree: int, gens) -> PermGroup:
    """Construct a group with exact order and a valid base/SGS structure."""
    return PermGroup(degree, gens)


def centralizer(G: PermGroup, s: Permutation) -> Subgroup:
    """The centralizer C_G(s)."""
    if not G.contains(s):
        raise DomainError("element is not a member of the group")
    return G.subgroup_from_elements(
        [g for g in G.elements() if g * s == s * g]
    )


def _check_subgroup_of(G: PermGroup, P: Subgroup):
    if P.parent is G:
        return
    for g in P.generators:
        if not G.contains(g):
            raise DomainError("subgroup is not contained in the group")


def normalizer(G: PermGroup, P: Subgroup) -> Subgroup:
    """The normalizer N_G(P); always contains P."""
    _check_subgroup_of(G, P)
    pset = P.element_set()
    members = [
        g for g in G.elements()
        if all(conjugate(g, x) in pset for x in P.generators)
    ]
    return G.subgroup_from_elements(members)


def is_p_element(g: Permutation, p: int) -> bool:
    n = g.order()
    return p_part(n, p) == n


def is_p_prime_element(g: Permutation, p: int) -> bool:
    return g.order() % p != 0


def _canonical_conjugate(G, element_set):
    """Lexicographically minimal G-conjugate of a subgroup element set."""
    conjugates = orbit(
        element_set,
        lambda s: [frozenset(conjugate(g, x) for x in s) for g in G.generators],
    )
    return min(conjugates, key=_set_key)


def _set_key(element_set):
    return tuple(sorted(x.images for x in element_set))


def _all_subgroups_of(degree, elements):
    """Every subgroup of the group given by its element list."""
    return orbit(
        frozenset([Permutation.identity(degree)]),
        lambda s: [
            frozenset(_closure(degree, list(s) + [x], len(elements) + 1))
            for x in elements
            if x not in s
        ],
    )


def p_subgroup_classes(G: PermGroup, p: int):
    """One canonical representative per conjugacy class of p-subgroups.

    Built by layered normalizer extension with conjugacy deduplication;
    when the p-elements of G form a (then unique and normal) Sylow
    subgroup, enumeration shortcuts to the subgroups of that Sylow.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p in G._p_subgroup_cache:
        return G._p_subgroup_cache[p]

    sylow_order = p_part(G.order, p)
    p_elements = [x for x in G.elements() if is_p_element(x, p)]
    canonical = set()
    if len(p_elements) == sylow_order and sylow_order > 1:
        # normal Sylow subgroup: every p-subgroup sits inside it
        for sub in _all_subgroups_of(G.degree, p_elements):
            canonical.add(_canonical_conjugate(G, sub))
    else:
        ident = Permutation.identity(G.degree)
        trivial = frozenset([ident])
        canonical.add(trivial)
        layer = [trivial]
        while layer:
            new_sets = set()
            for pset in layer:
                P = G.subgroup_from_elements(pset)
                N = normalizer(G, P)
                for x in N.elements():
                    if x in pset or (x ** p) not in pset:
                        continue
                    extended = frozenset(
                        _closure(G.degree, list(P.generators) + [x], G.order + 1)
                    )
                    if len(extended) != p * len(pset):
                        raise InternalCheckError("layered extension gave a wrong order")
                    new_sets.add(_canonical_conjugate(G, extended))
            new_sets -= canonical
            canonical |= new_sets
            layer = sorted(new_sets, key=_set_key)

    reps = sorted(canonical, key=lambda s: (len(s), _set_key(s)))
    result = [G.subgroup_from_elements(s) for s in reps]
    G._p_subgroup_cache[p] = result
    return result


def sylow_subgroup(G: PermGroup, p: int) -> Subgroup:
    """A canonical Sylow p-subgroup (the largest p-subgroup class rep)."""
    return p_subgroup_classes(G, p)[-1]


def close_map(A: PermGroup, B: PermGroup, pairs, start=None):
    """Extend (generator, image) pairs to a map on <generators>, or None
    when two products of the generators get different images.

    ``start``, when given, is the map already closed on the group that
    every pair but the last generates; the closure resumes from it, so
    only the last pair is applied to its elements.
    """
    if start is None:
        m = {A.identity: B.identity}
        frontier = [A.identity]
        moves = pairs
    else:
        m = dict(start)
        frontier = list(start)
        moves = pairs[-1:]
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
        frontier = nxt
        moves = pairs
    return m


class GroupHom:
    """A homomorphism given by generator images, verified exhaustively.

    The full element map is materialized on first use; a conflict during
    the closure (the images do not define a homomorphism, or the given
    generators do not generate the source) raises InternalCheckError.
    """

    def __init__(self, source: PermGroup, target: PermGroup, pairs):
        self.source = source
        self.target = target
        self.pairs = tuple(pairs)
        self._map = None

    def mapping(self) -> dict:
        if self._map is None:
            m = close_map(self.source, self.target, self.pairs)
            if m is None:
                raise InternalCheckError(
                    "generator images do not define a homomorphism"
                )
            if len(m) != self.source.order:
                raise InternalCheckError(
                    "generator images do not cover the source group"
                )
            self._map = m
        return self._map

    def __call__(self, x: Permutation) -> Permutation:
        try:
            return self.mapping()[x]
        except KeyError:
            raise DomainError("element is not in the source group") from None

    def is_bijective(self) -> bool:
        m = self.mapping()
        return len(set(m.values())) == len(m) == self.target.order


def quotient_group(G: PermGroup, N: Subgroup):
    """The quotient G/N realized on the right cosets of N, with projection."""
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
    projection = GroupHom(G, quotient, pairs)
    return quotient, projection


def direct_product(G: PermGroup, H: PermGroup) -> PermGroup:
    """The direct product acting on the disjoint union of the point sets."""
    degree = G.degree + H.degree
    gens = []
    for g in G.generators:
        gens.append(Permutation(tuple(g.images) + tuple(range(G.degree, degree))))
    for h in H.generators:
        gens.append(Permutation(tuple(range(G.degree)) + tuple(i + G.degree for i in h.images)))
    return PermGroup(degree, gens)


@dataclass(frozen=True)
class FrobeniusGroup:
    """An affine group (C_p)^rank . C_m with kernel D and free complement E."""

    group: PermGroup
    kernel: Subgroup
    complement: Subgroup
    p: int
    rank: int
    matrix: tuple


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


def frobenius_group(p: int, rank: int, matrix) -> FrobeniusGroup:
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
    if not _mat_invertible(m, p):
        raise DomainError("matrix is not invertible mod p")
    order = _mat_order(m, p)
    if order % p == 0:
        raise DomainError(f"matrix order {order} is divisible by p = {p}")

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

    translations = [translation(i) for i in range(rank)]
    action = matrix_perm(m)
    group = PermGroup(p ** rank, translations + [action])
    if group.order != p ** rank * order:
        raise InternalCheckError("affine group has unexpected order")
    kernel = Subgroup(group, translations)
    complement = Subgroup(group, [action] if order > 1 else [])
    return FrobeniusGroup(group, kernel, complement, p, rank, m)
