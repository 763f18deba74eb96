"""Exact permutation groups at desk scale.

Every group is its full element list (orders are capped by the
configured bound): the order is its length and membership is a lookup in
its element set.  Every group is closed by Dimino's coset enumeration
(_closure), which keeps the given generators that enlarge it.
Conjugacy classes and p-subgroup classes are computed by exhaustive,
deterministic enumeration and cached; groups are immutable after
construction.  Normalizers and centralizers are never found by scanning
the group: schreier_walk walks one orbit (the conjugates of a subgroup's
element set, or of an element) and returns Schreier generators of its
stabilizer.

The label of an element is its position in elements(), which is sorted
by image tuples, so the identity is always label 0.  A map f on the
elements acts on the labels as the permutation label_perm(f); this is
how automorphisms and translations of a group become permutations.  The
group of right translations, regular, is built once per group and has
the same labels.

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
from functools import cached_property
from operator import attrgetter

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


def _closure(degree, candidates, cap, start=None):
    """The group generated by the candidates, by Dimino's coset
    enumeration, as (elements, kept): kept lists, in order, the
    candidates outside the group closed before them.

    A kept g extends the group H closed so far by right cosets H r.  The
    coset reps start at g, and a product r s, with r a rep and s a kept
    generator, opens a new coset when it lies in no known coset.  Since
    (h r) s = h (r s), the union is closed under every generator, so it
    is <H, g>.  ``start`` = (elements, generators) resumes from a group
    already closed; its generators join the products r s.
    """
    if start is None:
        elements, gens = [Permutation.identity(degree)], []
    else:
        elements, gens = list(start[0]), list(start[1])
    members = set(elements)
    kept = []
    for g in candidates:
        if g in members:
            continue
        kept.append(g)
        gens.append(g)
        H = tuple(elements)
        todo = [g]
        while todo:
            r = todo.pop()
            if r in members:
                continue
            if len(elements) + len(H) > cap:
                count = len({x for x in candidates if not x.is_identity()})
                raise SizeBoundError(
                    f"group of degree {degree} on {count} generators: "
                    f"order exceeds the configured bound {cap}"
                )
            coset = [h * r for h in H]
            elements += coset
            members.update(coset)
            todo += [r * s for s in gens]
    return elements, kept


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


_images = attrgetter("images")  # the sort key of elements()


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
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise DomainError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
        self.degree = degree
        elements, kept = _closure(degree, generators, max_order())
        self.generators = tuple(kept)  # the given generators that enlarge it
        self._elements = tuple(sorted(elements, key=_images))
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
        """All elements, sorted by their images; the identity is label 0."""
        return self._elements

    def element_set(self) -> frozenset:
        return self._element_set

    @cached_property
    def _positions(self) -> dict:
        return {x: i for i, x in enumerate(self._elements)}

    def position(self, x: Permutation) -> int:
        """The label of a member: its position in elements()."""
        return self._positions[x]

    def label_perm(self, f) -> Permutation:
        """The permutation of the labels made by a map f on the elements:
        label i goes to the label of f(elements()[i])."""
        positions = self._positions
        return Permutation([positions[f(x)] for x in self._elements])

    @cached_property
    def regular(self) -> PermGroup:
        """The right-regular representation on the labels, generated by the
        translations y -> y x for x in generators.  The translation by x
        sends label 0 to the label of x, so elements()[j] is the translation
        by self.elements()[j]: both groups have the same labels."""
        return PermGroup(self.order, [
            self.label_perm(lambda y, x=x: y * x) for x in self.generators
        ])

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
                classes.append(ConjClass(x, tuple(sorted(members, key=_images))))
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
        """The subgroup with the given closed element list, on the greedy
        generators of small_generating_set.  Every element is a member, so
        the order check proves that the list was closed."""
        H = self.subgroup(_by_order(elements))
        if H.order != len(elements):
            raise InternalCheckError("generating set does not span the given elements")
        return H


def _by_order(perms):
    """The permutations by descending order, then by images."""
    return sorted(perms, key=lambda x: (-x.order(), x.images))


def small_generating_set(degree, elements):
    """A greedy small generating sequence for a closed element list: each
    element, by descending order and then images, that lies outside the
    group of the ones kept before it."""
    return tuple(_closure(degree, _by_order(elements), len(elements))[1])


def schreier_walk(seed, gens, act, one):
    """The orbit of seed under <gens>, and the Schreier generators of its
    stabilizer.

    act(g, g_inv, y) is the image of y under g, for a left action:
    act(g, act(t, y)) = act(g * t, y).  The walk keeps a transversal t_y
    taking seed to y for every y in the orbit.  An edge y -> z = act(g, y)
    off the walk's tree gives the Schreier generator t_z^-1 g t_y, which
    fixes seed; by Schreier's lemma these generate the stabilizer.  They
    come back deduplicated, without the identity ``one``, in the order
    the walk finds them.
    """
    steps = [(g, g.inverse()) for g in gens]
    transversal = {seed: (one, one)}  # y -> (t_y, t_y^-1)
    todo = [seed]
    schreier = {}
    while todo:
        y = todo.pop()
        t_y, t_y_inv = transversal[y]
        for g, g_inv in steps:
            z = act(g, g_inv, y)
            known = transversal.get(z)
            if known is None:
                transversal[z] = (g * t_y, t_y_inv * g_inv)
                todo.append(z)
                continue
            x = known[1] * g * t_y
            if x != one:
                schreier[x] = None
    return set(transversal), tuple(schreier)


def class_and_centralizer(gens, s: Permutation):
    """The class of s under conjugation by <gens>, and the Schreier
    generators of the centralizer of s in <gens> (schreier_walk)."""
    return schreier_walk(s, gens, conjugate_with, Permutation.identity(s.degree))


def _check_subgroup_of(G: PermGroup, P: PermGroup):
    for g in P.generators:
        if not G.contains(g):
            raise DomainError("subgroup is not contained in the group")


def normalizer(G: PermGroup, P: PermGroup) -> PermGroup:
    """The normalizer N_G(P), the stabilizer of the element set of P under
    conjugation, closed from the Schreier generators of the walk over its
    conjugates, taken by descending order.  Memoized on G by the element
    set of P."""
    pset = P.element_set()
    N = G._normalizer_cache.get(pset)
    if N is None:
        _check_subgroup_of(G, P)
        _, schreier = schreier_walk(
            pset,
            G.generators,
            lambda g, g_inv, y: frozenset([conjugate_with(g, g_inv, x) for x in y]),
            G.identity,
        )
        N = G._normalizer_cache[pset] = PermGroup(G.degree, _by_order(schreier))
    return N


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
    <s, x> for every h in s.  The closure of <s, x> resumes from s.
    """
    cap = len(elements)
    trivial = frozenset([Permutation.identity(degree)])
    generators = {trivial: ()}

    def extensions(s):
        found = []
        covered = set(s)
        for x in elements:
            if x in covered:
                continue
            covered.update(h * x for h in s)
            t = frozenset(_closure(degree, (x,), cap, start=(s, generators[s]))[0])
            generators.setdefault(t, generators[s] + (x,))
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


def frobenius_group(p: int, rank: int, matrix) -> PermGroup:
    """The affine group of translations of (F_p)^rank plus a matrix action.

    Everything about the matrix is read from g, its permutation of the
    p^rank vectors (vector 0 is the zero vector), which is the last
    generator: g must be a bijection (the matrix is invertible mod p), its
    order m must be coprime to p, and every proper power of g must fix
    only vector 0.
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
    vectors = [
        tuple((v // p ** i) % p for i in range(rank))
        for v in range(p ** rank)
    ]
    index = {v: i for i, v in enumerate(vectors)}
    try:  # the matrix's permutation of the vectors
        g = Permutation(
            index[tuple(sum(m[i][j] * v[j] for j in range(rank)) % p for i in range(rank))]
            for v in vectors
        )
    except ValueError:
        raise DomainError("matrix is not invertible mod p") from None
    order = g.order()
    if order % p == 0:
        raise DomainError(f"matrix order {order} is divisible by p = {p}")
    if p ** rank * order > bound:
        raise SizeBoundError(f"{where}: order {p}^{rank} * {order} = {p ** rank * order}, "
                             f"over the configured bound {bound}")
    power = g
    for j in range(1, order):
        fixed = next((i for i in range(1, p ** rank) if power.images[i] == i), None)
        if fixed is not None:
            raise DomainError(
                f"action is not free: matrix power {j} fixes the nonzero vector {vectors[fixed]}"
            )
        power = power * g

    def translation(basis):
        return Permutation(
            index[tuple((v[i] + int(i == basis)) % p for i in range(rank))]
            for v in vectors
        )

    group = PermGroup(p ** rank, [translation(i) for i in range(rank)] + [g])
    if group.order != p ** rank * order:
        raise InternalCheckError("affine group has unexpected order")
    return group
