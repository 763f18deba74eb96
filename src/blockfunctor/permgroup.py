"""Exact permutation groups at desk scale.

Every group is its full element list (orders are capped by the
configured bound): the order is its length and membership is a lookup in
its element set.  Every group is closed by Dimino's coset enumeration
(_closure), which keeps the given generators that enlarge it.
Conjugacy classes and p-subgroup classes are computed by exhaustive,
deterministic enumeration and cached; groups are immutable after
construction.  Normalizers and centralizers are never found by scanning
the group: schreier_walk walks one orbit (the conjugates of a subgroup's
label set, or of a label) and returns Schreier generators of its
stabilizer.

The label of an element is its position in elements(), which is sorted
by image tuples, so the identity is always label 0 and an order on labels
is the order on image tuples.  A label is found by the element's image
tuple, which Python hashes and compares in C, so the tables below gather
the images of each product or conjugate with operator.itemgetter and build
no Permutation for it.  induced(g) is the label map of x -> g x g^-1 for
any g normalizing the group, inside it or not; it is the one conjugation
action on labels, and the automorphisms of a group that its normalizer
induces are read from it.  Three tables on labels are built on first read:

- table, the products: table[i][j] is the label of x_i x_j.  The
  isomorphism search, homomorphism and the subgroups of a Sylow subgroup
  (p_subgroup_classes) read it.
- conjugation, (g, g^-1, induced(g)) for each generator g.  Every
  conjugation walk inside a group moves labels or label sets by
  induced(g) and multiplies elements only for its transversal and its
  Schreier generators: the classes (a plain loop over labels), the class
  and centralizer of a member, normalizers and the classes of
  p-subgroups.
- orders, the order of each label, one Permutation.order per class.

A subgroup is a PermGroup of its own, and a homomorphism is the list of
the labels of its images (homomorphism and close_map).  Normalizers are
memoized on the ambient group, keyed by the element set of the subgroup,
so N_G(P) is computed once per (G, P) however many groups carry the
elements of P: the Sylow chain, the pair orbits and the fusion objects
share it.  The normalizer of a normal subgroup is G itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from operator import attrgetter, getitem, itemgetter

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


def _closure(degree, candidates, cap):
    """The group generated by the candidates, by Dimino's coset
    enumeration, as (elements, members, kept): members is the set of the
    elements, and kept lists, in order, the candidates outside the group
    closed before them.

    A kept g extends the group H closed so far by right cosets H r.  The
    coset reps start at g, and a product r s, with r a rep and s a kept
    generator, opens a new coset when it lies in no known coset.  Since
    (h r) s = h (r s), the union is closed under every generator, so it
    is <H, g>.
    """
    elements, gens = [Permutation.identity(degree)], []
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
    return elements, members, kept


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
    """A conjugacy class: its minimal element, its elements and their
    labels, both in label order."""

    rep: Permutation
    elements: tuple
    labels: tuple

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
        elements, members, kept = _closure(degree, generators, max_order())
        self.generators = tuple(kept)  # the given generators that enlarge it
        self._elements = tuple(sorted(elements, key=_images))
        self._element_set = frozenset(members)  # copies the stored hashes
        self.order = len(self._elements)
        self._classes = None
        self._class_of = None  # label -> index of its class
        self._p_subgroup_cache = {}
        self._normalizer_cache = {}  # element set -> normalizer, None for G

    # -- membership and element access ------------------------------------

    def contains(self, perm: Permutation) -> bool:
        """Membership test; a permutation of another degree is never a
        member, since it equals no element."""
        return perm in self._element_set

    def __contains__(self, perm):
        return self.contains(perm)

    @property
    def identity(self) -> Permutation:
        """Label 0: the elements are sorted by their images."""
        return self._elements[0]

    def elements(self) -> tuple:
        """All elements, sorted by their images; the identity is label 0."""
        return self._elements

    def element_set(self) -> frozenset:
        return self._element_set

    @cached_property
    def _positions(self) -> dict:
        """The label of each member, keyed by its image tuple."""
        return {x.images: i for i, x in enumerate(self._elements)}

    def position(self, x: Permutation) -> int:
        """The label of a member: its position in elements()."""
        return self._positions[x.images]

    def induced(self, g: Permutation) -> tuple:
        """The label map of x -> g x g^-1, for a g of this degree that
        normalizes the group: entry i is the label of g x_i g^-1, found by
        the image tuple of the conjugate.  Raises DomainError when a
        conjugate lies outside the group."""
        if self.degree < 2:  # see Permutation.__mul__
            return (0,)
        positions = self._positions
        times_g, inv_images = itemgetter(*g.images), g.inverse().images
        try:
            return tuple([
                positions[itemgetter(*times_g(x.images))(inv_images)]
                for x in self._elements
            ])
        except KeyError:
            raise DomainError("element does not normalize the group") from None

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])

    def exponent(self) -> int:
        return math.lcm(*set(self.orders))

    # -- tables on labels ----------------------------------------------------

    @cached_property
    def table(self) -> tuple:
        """The products on labels: table[i][j] is the label of x_i x_j.

        The row of the identity is the identity, and row j of x_j = g x_k,
        for a generator g, is L_g . row k, with L_g[t] the label of g x_t;
        so one product per element and generator fills the table.
        """
        n = self.order
        if n == 1:
            return ((0,),)
        positions = self._positions
        lefts = []
        for g in self.generators:
            times_g = itemgetter(*g.images)  # x -> the images of g x
            lefts.append(tuple([positions[times_g(x.images)] for x in self._elements]))
        rows = [None] * n
        rows[0] = tuple(range(n))
        todo = [0]
        while todo:
            k = todo.pop()
            for left in lefts:
                j = left[k]
                if rows[j] is None:
                    rows[j] = itemgetter(*rows[k])(left)
                    todo.append(j)
        return tuple(rows)

    @cached_property
    def conjugation(self) -> tuple:
        """(g, g^-1, c_g) for each generator g, with c_g = induced(g)."""
        return tuple([(g, g.inverse(), self.induced(g)) for g in self.generators])

    @cached_property
    def orders(self) -> tuple:
        """The order of each label, from one Permutation.order call per
        conjugacy class."""
        per_class = [c.rep.order() for c in self.conjugacy_data()]
        return tuple([per_class[i] for i in self._class_of])

    @cached_property
    def invariants(self) -> tuple:
        """(element order, class size) of each label; conjugates share it,
        and so do elements matched by an isomorphism."""
        sizes = [c.size for c in self.conjugacy_data()]
        return tuple(zip(self.orders, [sizes[i] for i in self._class_of]))

    # -- conjugacy classes -------------------------------------------------

    def conjugacy_data(self) -> tuple:
        """Conjugacy classes ordered by their minimal element; identity
        first.  Each is the orbit of its minimal label under the c_g,
        walked on labels: class_of marks the labels reached."""
        if self._classes is None:
            moves = [c_g for _, _, c_g in self.conjugation]
            class_of = [-1] * self.order
            classes = []
            for x in range(self.order):
                if class_of[x] >= 0:
                    continue
                index = len(classes)
                class_of[x] = index
                labels = [x]
                for y in labels:  # the list grows as the walk reaches labels
                    for c_g in moves:
                        z = c_g[y]
                        if class_of[z] < 0:
                            class_of[z] = index
                            labels.append(z)
                labels.sort()
                members = tuple([self._elements[y] for y in labels])
                classes.append(ConjClass(members[0], members, tuple(labels)))
            self._classes = tuple(classes)
            self._class_of = class_of
        return self._classes

    def class_index_of(self, x: Permutation) -> int:
        self.conjugacy_data()
        try:
            return self._class_of[self._positions[x.images]]
        except KeyError:
            raise DomainError("element does not belong to the group") from None

    # -- subgroups ----------------------------------------------------------

    def subgroup(self, gens) -> PermGroup:
        """The subgroup generated by members of this group."""
        gens = tuple(gens)
        for g in gens:
            if not self.contains(g):
                raise DomainError("subgroup generator is not a member of the parent")
        return PermGroup(self.degree, gens)

    def subgroup_from_elements(self, elements) -> PermGroup:
        """The subgroup with the given closed element list, generated by the
        elements by descending order and then images, of which Dimino
        closure keeps each one outside the group of those before it.  Every
        element is a member, so the order check proves that the list was
        closed."""
        H = self.subgroup(_by_order(elements))
        if H.order != len(elements):
            raise InternalCheckError("generating set does not span the given elements")
        return H


def _by_order(perms):
    """The permutations by descending order, then by images."""
    return sorted(perms, key=lambda x: (-x.order(), x.images))


def schreier_walk(seed, steps, act, one):
    """The orbit of seed under <g : (g, g^-1, move) in steps>, and the
    Schreier generators of its stabilizer.

    act(move, y) is the image of y under the step's g, for a left action:
    act(g, act(t, y)) = act(g * t, y).  The walk keeps a transversal t_y
    taking seed to y for every y in the orbit.  An edge y -> z = act(g, y)
    off the walk's tree gives the Schreier generator t_z^-1 g t_y, which
    fixes seed; by Schreier's lemma these generate the stabilizer.  They
    come back deduplicated, without the identity ``one``, in the order
    the walk finds them.
    """
    transversal = {seed: (one, one)}  # y -> (t_y, t_y^-1)
    todo = [seed]
    schreier = {}
    while todo:
        y = todo.pop()
        t_y, t_y_inv = transversal[y]
        for g, g_inv, move in steps:
            z = act(move, y)
            known = transversal.get(z)
            if known is None:
                transversal[z] = (g * t_y, t_y_inv * g_inv)
                todo.append(z)
                continue
            x = known[1] * g * t_y
            if x != one:
                schreier[x] = None
    return set(transversal), tuple(schreier)


def class_and_centralizer(G: PermGroup, x: Permutation):
    """The class of the member x of G, as a set of labels, and the
    Schreier generators of C_G(x), from the walk on the labels of G."""
    return schreier_walk(G.position(x), G.conjugation, getitem, G.identity)


def element_class_and_centralizer(gens, s: Permutation):
    """The class of s under conjugation by <gens>, as elements, and the
    Schreier generators of its centralizer in <gens>, for an s that need
    not lie in <gens>."""
    steps = []
    for g in gens:
        g_inv = g.inverse()
        steps.append((g, g_inv, partial(conjugate_with, g, g_inv)))
    one = Permutation.identity(s.degree)
    return schreier_walk(s, steps, lambda conjugate, y: conjugate(y), one)


def _conjugate_set(c_g, labels):
    """The image of a set of labels under the label permutation c_g."""
    return frozenset([c_g[x] for x in labels])


def _check_subgroup_of(G: PermGroup, P: PermGroup):
    for g in P.generators:
        if not G.contains(g):
            raise DomainError("subgroup is not contained in the group")


def normalizer(G: PermGroup, P: PermGroup) -> PermGroup:
    """The normalizer N_G(P), the stabilizer of the label set of P under
    conjugation, closed from the Schreier generators of the walk over its
    conjugates, taken by descending order.  A normal P, one that is its
    only conjugate, has the normalizer G itself, with nothing to close.
    Memoized on G by the element set of P; a normal P is stored as None,
    since G holding itself would keep it alive in a reference cycle."""
    pset = P.element_set()
    try:
        N = G._normalizer_cache[pset]
    except KeyError:
        _check_subgroup_of(G, P)
        seed = frozenset([G.position(x) for x in P.elements()])
        conjugates, schreier = schreier_walk(seed, G.conjugation, _conjugate_set, G.identity)
        N = None if len(conjugates) == 1 else PermGroup(G.degree, _by_order(schreier))
        G._normalizer_cache[pset] = N
    return G if N is None else N


def _all_subgroups_of(P: PermGroup):
    """Every subgroup of P, as a set of labels of P.

    Each subgroup s found keeps the generating set it was first closed
    from, and is extended by one x per coset s x outside s: <s, h x> is
    <s, x> for every h in s.  <s, x> is the orbit of label 0 under right
    multiplication by the generators of s and x, read from the table of P.
    """
    rows = P.table
    trivial = frozenset([0])
    generators = {trivial: ()}

    def extensions(s):
        found = []
        covered = set(s)
        for x in range(P.order):
            if x in covered:
                continue
            covered.update([rows[h][x] for h in s])
            gens = generators[s] + (x,)
            t = frozenset(orbit(0, lambda y: [rows[y][g] for g in gens]))
            generators.setdefault(t, gens)
            found.append(t)
        return found

    return orbit(trivial, extensions)


def p_subgroup_classes(G: PermGroup, p: int):
    """One canonical representative per conjugacy class of p-subgroups.

    By Sylow's theorem these are the G-classes of the subgroups of one
    Sylow subgroup S, found on the labels of S (_all_subgroups_of), each
    given by its minimal conjugate: one walk over the conjugate label
    sets of each class, whatever number of its subgroups lie in S.  S is
    grown from the trivial group: P below the
    Sylow order lies properly in a Sylow Q, and N_Q(P) / P is a
    nontrivial p-group, so some x in N_G(P) - P has x^p in P, and <P, x>
    has order p|P|.
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

    # one walk per G-class: the conjugates of a subgroup's label set, of
    # which the least by sorted labels, the least by sorted images, is
    # the class representative
    moves = [c_g for _, _, c_g in G.conjugation]
    in_g = [G.position(x) for x in P.elements()]  # label in P -> label in G
    seen = set()
    reps = []
    for s in _all_subgroups_of(P):
        labels = frozenset([in_g[x] for x in s])
        if labels in seen:
            continue
        conjugates = orbit(labels, lambda y: [_conjugate_set(c_g, y) for c_g in moves])
        seen |= conjugates
        reps.append(min(tuple(sorted(y)) for y in conjugates))
    reps.sort(key=lambda s: (len(s), s))
    elements = G.elements()
    result = [G.subgroup_from_elements([elements[i] for i in s]) for s in reps]
    G._p_subgroup_cache[p] = result
    return result


def sylow_subgroup(G: PermGroup, p: int) -> PermGroup:
    """A canonical Sylow p-subgroup (the largest p-subgroup class rep)."""
    return p_subgroup_classes(G, p)[-1]


def close_map(A: PermGroup, B: PermGroup, pairs, start, twist=None):
    """Extend a map by one more (generator, image) pair of labels in A
    and B, as a list whose entry at a label of A is the label of its
    image in B, or -1 where the map is not defined; None when two
    products of the generators get different images.  Products are read
    from the tables of A and B.

    ``start`` is the map already closed on the group that every pair but
    the last generates (for one pair, the map that sends label 0 to
    label 0); the closure resumes from it, so the last pair alone is
    applied to its labels, and every pair to the labels it adds.

    ``twist`` = (c, d), label permutations of A and B that are
    automorphisms, also closes the map under x -> c[x] with image
    d[m(x)]; ``start`` must be closed under it too.  The map then lives
    on the smallest c-invariant subgroup holding the generators, and it
    intertwines c with d there; a conflict returns None as above.
    """
    rows_a, rows_b = A.table, B.table
    m = list(start)
    frontier = [x for x, y in enumerate(start) if y >= 0]
    moves = pairs[-1:]
    twisting = None
    while frontier:
        nxt = []
        for x in frontier:
            mx = m[x]
            row_x, row_mx = rows_a[x], rows_b[mx]
            for g, h in moves:
                y = row_x[g]
                my = row_mx[h]
                known = m[y]
                if known < 0:
                    m[y] = my
                    nxt.append(y)
                elif known != my:
                    return None
            if twisting is not None:
                y = twisting[0][x]
                my = twisting[1][mx]
                known = m[y]
                if known < 0:
                    m[y] = my
                    nxt.append(y)
                elif known != my:
                    return None
        frontier = nxt
        moves = pairs
        twisting = twist
    return m


def homomorphism(A: PermGroup, B: PermGroup, pairs) -> list:
    """The homomorphism A -> B with the given (generator, image) pairs of
    labels, as the list of the labels of the images of the labels of A,
    checked on every element of A: close_map adds the pairs one at a
    time, from the map that sends label 0 to label 0.

    Raises InternalCheckError when the images do not define a
    homomorphism or the generators do not generate A.
    """
    pairs = tuple(pairs)
    m = [-1] * A.order
    m[0] = 0
    for i in range(1, len(pairs) + 1):
        m = close_map(A, B, pairs[:i], m)
        if m is None:
            raise InternalCheckError("generator images do not define a homomorphism")
    if -1 in m:
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
    labels = homomorphism(
        G, quotient, [(G.position(g), quotient.position(img)) for g, img in pairs]
    )
    images = quotient.elements()
    return quotient, {x: images[j] for x, j in zip(G.elements(), labels)}


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
