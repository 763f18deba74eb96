"""Independent brute-force oracles for the test suite.

Everything before ``LinearScanRegistry`` works on raw image tuples and
exact Fractions and shares no code with the package: subgroups come from
closing generating subsets, pair orbits and normalizers from explicit
conjugation by every group element, and the character sums use
hand-written integer tables of the three outer groups that occur for the
golden fixtures.

``faithful_quotient`` is the translation route, as the package reduced
a pair (P, s) before it classified the pair on P itself: L is
``regular(P)``, the right translations of P on its labels, and u is the
action of s on them; ``decode_witness`` reads a witness back into P
from the translation at each label.  The carrier oracles build the
carrier L<u> of a faithful quotient (L, u) from the translations plus u,
as the package did before it searched on L alone; they take a class on
the faithful quotient of its realization, whose labels are those of P,
so that an s acting with a kernel does not enlarge the carrier.
``carrier_pair_isomorphism`` searches the carriers for an isomorphism
taking L onto L' and u into the class of u', and ``carrier_witness``
conjugates its image of u onto u' by scanning the carrier.
``LinearScanRegistry`` is the package's registry with the
classification it had before class keys, on this carrier route, kept
to show that keyed classification on P changes nothing.
``section_scan_triple_orbits`` is the fusion route as it was before it
moved to label indices, kept to show that the index-tuple walk and its
Schreier stabilizers change nothing.
``carrier_out`` is Out(L, u) as it was built before C / N: Aut(L, u)
from a search of every level (the level of u included), closed on the
labels of the carrier, Inn inside it, and the coset action of Aut on
Inn with its projection.  ``leverrier_charpoly`` is the characteristic
polynomial by Faddeev-LeVerrier, as the character tables had it before
the Hessenberg recurrence.  ``class_matrix`` is a class-multiplication
matrix from Permutation products and a class dict keyed by Permutation,
as the character tables built it before they read each product's class
by its image tuple.  ``layered_p_subgroup_classes`` is the
p-subgroup enumeration by layered normalizer extension, as every group
without a normal Sylow subgroup had it before one Sylow subgroup.
``stabilizer_chain`` is the base and transversals every PermGroup carried
before a group was its element set.  ``greedy_generating_set`` is the
greedy generating sequence that subgroup_from_elements takes, found as
before Dimino closure, re-closing the kept elements after each one it
added.
``element_walk_inner`` is N = <c_u, c_x : x in C_L(u)> as PairClass.inner
built it before it read C_L(u) and each c_x from the table of L: C_L(u)
from the Schreier generators of an element walk over the class of u
under L, and each c_x conjugated on the elements of L.
``conjugation`` and ``label_perm`` are the element-scan reference for
PermGroup.induced: conjugation by g as a map on elements, and the
permutation of the labels that a map on the elements makes, found by a
dict keyed by the elements, as the package read conjugation actions on
labels before induced.  ``pairs_conjugate_scan`` is the matching of a psi pair with a pair orbit
as verify_class made it before one label walk of the pair's G-orbit: a
scan of G for an element that conjugates one pair onto the other.
``find_complement`` and ``complement_fixed_point`` are the complement
search and the free-action scan that the fusion route ran before it read
class sizes.  ``matrix_frobenius`` is the frobenius file form by matrix
arithmetic (product, order, Gauss-Jordan rank), as frobenius_group built
it before it read the matrix from its permutation of the vectors.
``twisted_centralizer`` is C = C_Aut(L)(c_u) by the stabilizer-chain
backtrack on L that closes every partial map under conjugation by u, as
the package searched for C before it took the centralizer of c_u in a
shared Aut(L).  ``basic_orbit`` is the basic orbit under element maps,
as autos took it before its strong generators were permutations of
labels.  Every witness here is a permutation of labels, as a class
member holds it (``label_witness``).  The package searches and closes
maps on labels; ``element_search``, ``element_candidates`` and
``element_homomorphism`` hand the carrier oracles the same searches and
closures on elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from blockfunctor import autos, ddelta
from blockfunctor.autos import _candidate_lists, _search_maps
from blockfunctor.chartab import CharacterTable, character_table
from blockfunctor.config import max_order
from blockfunctor.errors import DomainError, InternalCheckError, SizeBoundError
from blockfunctor.permgroup import (
    PermGroup,
    element_class_and_centralizer,
    homomorphism,
    normalizer,
    orbit,
    quotient_group,
)
from blockfunctor.permutation import Permutation
from blockfunctor.permutation import conjugate as package_conjugate
from blockfunctor.permutation import conjugate_with as package_conjugate_with


def compose(a, b):
    """Apply a first, then b (the package's product convention)."""
    return tuple(b[i] for i in a)


def inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def conj(g, x):
    """g x g^-1."""
    return compose(compose(g, x), inverse(g))


def identity(degree):
    return tuple(range(degree))


def closure(degree, gens):
    seen = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def greedy_generating_set(degree, elements):
    """The first element, by descending order and then images, outside
    the closure of the ones taken before it, until that closure is the
    whole closed list of Permutations."""
    candidates = sorted(elements, key=lambda x: (-perm_order(x.images), x.images))
    gens = []
    generated = {identity(degree)}
    while len(generated) < len(elements):
        gens.append(next(x for x in candidates if x.images not in generated))
        generated = closure(degree, [g.images for g in gens])
    return tuple(gens)


def close_hom(identity_a, identity_b, pairs):
    """The map on <generators> defined by (generator, image) pairs, or
    None when two words for one element get different images."""
    m = {identity_a: identity_b}
    frontier = [identity_a]
    while frontier:
        nxt = []
        for x in frontier:
            for g, h in pairs:
                y = compose(x, g)
                image = compose(m[x], h)
                if y not in m:
                    m[y] = image
                    nxt.append(y)
                elif m[y] != image:
                    return None
        frontier = nxt
    return m


def leaf_only_search(identity_a, identity_b, order_a, order_b, sequence,
                     candidates, limit=None, commuting=None):
    """Generator-image search that closes only complete candidate tuples.

    Tuples are tried in lexicographic order of the candidate lists; each
    is closed from the identity and kept when it is a bijection of the
    whole group and, given ``commuting`` = (c, d), when it satisfies
    m(c x c^-1) = d m(x) d^-1 on every element.  Stops after ``limit``
    maps.
    """
    if order_a != order_b:
        return []
    if order_a == 1:
        return [{identity_a: identity_b}]
    if candidates is None:
        return []
    found = []
    for images in itertools.product(*candidates):
        m = close_hom(identity_a, identity_b, list(zip(sequence, images)))
        if m is None or len(m) != order_a or len(set(m.values())) != order_b:
            continue
        if commuting is None or all(
            m[conj(commuting[0], x)] == conj(commuting[1], y) for x, y in m.items()
        ):
            found.append(m)
            if len(found) == limit:
                break
    return found


def center(elements):
    """The elements commuting with every element."""
    return [z for z in elements if all(compose(z, x) == compose(x, z) for x in elements)]


def perm_order(a):
    n = 1
    x = a
    ident = identity(len(a))
    while x != ident:
        x = compose(x, a)
        n += 1
    return n


def mat_mult(a, b, p):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def mat_order(m, p):
    """The multiplicative order of an invertible matrix mod p."""
    n = len(m)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    power, k = m, 1
    while power != ident:
        power = mat_mult(power, m, p)
        k += 1
    return k


def mat_invertible(m, p):
    """Gauss-Jordan elimination mod p: does every column find a pivot?"""
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


def matrix_frobenius(p, rank, matrix, bound):
    """The frobenius file form by matrix arithmetic, with the checks in
    the order frobenius_group makes them.  Returns the refusal as
    (exception class name, message), or (group order, generator images):
    the translations by the basis vectors, then the matrix, each as its
    image tuple on the vectors numbered in base p, least digit first."""
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        return ("DomainError", f"{p} is not prime")
    if rank < 1:
        return ("DomainError", "rank must be positive")
    m = tuple(tuple(v % p for v in row) for row in matrix)
    if len(m) != rank or any(len(row) != rank for row in m):
        return ("DomainError", f"matrix must be {rank}x{rank}")
    where, size = f"frobenius form, p={p}, rank {rank}", p ** rank
    if size > bound:
        return ("SizeBoundError", f"{where}: the translations alone have order "
                                  f"{p}^{rank} = {size}, over the configured bound {bound}")
    if not mat_invertible(m, p):
        return ("DomainError", "matrix is not invertible mod p")
    order = mat_order(m, p)
    if order % p == 0:
        return ("DomainError", f"matrix order {order} is divisible by p = {p}")
    if size * order > bound:
        return ("SizeBoundError", f"{where}: order {p}^{rank} * {order} = "
                                  f"{size * order}, over the configured bound {bound}")
    vectors = [tuple((v // p ** i) % p for i in range(rank)) for v in range(size)]

    def times(mat, v):
        return tuple(sum(mat[i][k] * v[k] for k in range(rank)) % p for i in range(rank))

    power = m
    for j in range(1, order):
        fixed = [v for v in vectors if any(v) and times(power, v) == v]
        if fixed:
            return ("DomainError", f"action is not free: matrix power {j} fixes "
                                   f"the nonzero vector {fixed[0]}")
        power = mat_mult(power, m, p)
    index = {v: i for i, v in enumerate(vectors)}
    translations = [
        tuple(index[tuple((v[i] + int(i == b)) % p for i in range(rank))] for v in vectors)
        for b in range(rank)
    ]
    return (size * order, translations + [tuple(index[times(m, v)] for v in vectors)])


def is_p_power_order(x, p):
    n = perm_order(x)
    while n % p == 0:
        n //= p
    return n == 1


def all_p_subgroups(degree, elements, p, max_gens=3):
    """Every p-subgroup, by closing all generating subsets of small size.

    Complete for subgroups of order up to p^max_gens.
    """
    p_elts = sorted(x for x in elements if is_p_power_order(x, p))
    subgroups = {frozenset([identity(degree)])}
    for size in range(1, max_gens + 1):
        for gens in itertools.combinations(p_elts, size):
            sub = frozenset(closure(degree, gens))
            order = len(sub)
            while order % p == 0:
                order //= p
            if order == 1:
                subgroups.add(sub)
    return subgroups


def pair_orbits(degree, elements, p, subgroups):
    """Orbits of (P, s) pairs under conjugation by every group element."""
    pairs = set()
    for sub in subgroups:
        for s in elements:
            if perm_order(s) % p == 0:
                continue
            if frozenset(conj(s, x) for x in sub) == sub:
                pairs.add((sub, s))
    orbits = []
    remaining = set(pairs)
    while remaining:
        seed = next(iter(remaining))
        orbit = {
            (frozenset(conj(g, x) for x in seed[0]), conj(g, seed[1]))
            for g in elements
        }
        assert orbit <= pairs
        orbits.append(orbit)
        remaining -= orbit
    return orbits


def induced_order(sub, s):
    """Order of the automorphism of the subgroup induced by s."""
    degree = len(s)
    power = s
    n = 1
    while any(conj(power, x) != x for x in sub):
        power = compose(power, s)
        n += 1
    return n


def stabilizer_pair(elements, sub, s):
    """Elements normalizing the subgroup and centralizing s."""
    return [
        g
        for g in elements
        if compose(g, s) == compose(s, g)
        and frozenset(conj(g, x) for x in sub) == sub
    ]


# hand-written character tables, values indexed by the number of fixed
# points of the induced permutation of the nonidentity subgroup elements

SYM3_CHARS = {
    # V4 case: Out is the symmetric group of the three involutions
    "triv": {3: 1, 1: 1, 0: 1},
    "sgn": {3: 1, 1: -1, 0: 1},
    "deg2": {3: 2, 1: 0, 0: -1},
}
SYM2_CHARS = {
    # C3 case: Out swaps the two nonidentity elements or fixes them
    "triv": {2: 1, 0: 1},
    "sgn": {2: 1, 0: -1},
}


def _image_fixcounts(elements, sub, s):
    """Fixed-point counts of the normalizer image on the nonidentity
    subgroup elements (the concrete form of its image in the out group)."""
    nonid = sorted(x for x in sub if x != identity(len(s)))
    counts = []
    for g in stabilizer_pair(elements, sub, s):
        moved = [conj(g, x) for x in nonid]
        counts.append(sum(1 for a, b in zip(nonid, moved) if a == b))
    return counts


def multiplicity_oracle(degree, gens, p):
    """Multiplicities keyed by ((|L|, order of u), character label).

    Valid for the golden fixtures, where (|P|, order of the induced
    automorphism) separates the pair classes and every outer group is
    trivial, of order two, or the symmetric group on three letters.
    """
    elements = closure(degree, gens)
    subgroups = all_p_subgroups(degree, elements, p)
    orbits = pair_orbits(degree, elements, p, subgroups)

    table = {}

    def add(key, label, amount):
        table[(key, label)] = table.get((key, label), 0) + amount

    for orbit in orbits:
        sub, s = min(orbit, key=lambda t: (sorted(t[0]), t[1]))
        key = (len(sub), induced_order(sub, s))
        if key == (4, 1):
            counts = _image_fixcounts(elements, sub, s)
            for label, char in SYM3_CHARS.items():
                value = Fraction(sum(char[c] for c in counts), len(counts))
                assert value.denominator == 1 and value >= 0
                add(key, label, int(value))
        elif key == (3, 1):
            counts = _image_fixcounts(elements, sub, s)
            for label, char in SYM2_CHARS.items():
                value = Fraction(sum(char[c] for c in counts), len(counts))
                assert value.denominator == 1 and value >= 0
                add(key, label, int(value))
        else:
            # remaining outer groups are trivial: (1,1), (2,1), (3,2), (4,3)
            assert key in ((1, 1), (2, 1), (3, 2), (4, 3)), key
            add(key, "triv", 1)
    return table


def orbit_count(degree, gens, p):
    elements = closure(degree, gens)
    subgroups = all_p_subgroups(degree, elements, p)
    return len(pair_orbits(degree, elements, p, subgroups))


def normalizer_elements(elements, sub):
    """The elements g with g P g^-1 = P, by conjugating all of P."""
    sub = frozenset(sub)
    return {g for g in elements if frozenset(conj(g, x) for x in sub) == sub}


def centralizer(G, s):
    """The centralizer C_G(s) as a subgroup of G, by testing every element
    of G (the package takes it from Schreier generators of a class walk)."""
    if not G.contains(s):
        raise DomainError("element is not a member of the group")
    return G.subgroup_from_elements([g for g in G.elements() if g * s == s * g])


def conjugation(g):
    """The map x -> g x g^-1 on elements, with g^-1 computed once for all
    the elements it is applied to."""
    return partial(package_conjugate_with, g, g.inverse())


def label_perm(G, f):
    """The permutation of the labels of G made by a map f on its elements,
    by a scan of the elements: label i goes to the label of f(x_i)."""
    index = {x: i for i, x in enumerate(G.elements())}
    return Permutation([index[f(x)] for x in G.elements()])


def element_walk_inner(cls):
    """N of a pair class, from an element walk over the class of u."""
    L, u = cls.realization.subgroup, cls.realization.element
    _, fixing_u = element_class_and_centralizer(L.generators, u)
    return PermGroup(L.order, [label_perm(L, conjugation(g)) for g in (u,) + fixing_u])


def pairs_conjugate_scan(G, a, b):
    """Whether some g in G conjugates the pair (P_a, s_a) onto (P_b, s_b),
    by a scan of G."""
    if a.subgroup.order != b.subgroup.order or a.element.order() != b.element.order():
        return False
    bset = b.subgroup.element_set()
    for g in G.elements():
        c_g = conjugation(g)
        if c_g(a.element) == b.element and all(c_g(x) in bset for x in a.subgroup.generators):
            return True
    return False


def regular(P):
    """The right-regular representation of P on its labels, generated by
    the translations y -> y x for x in the generators of P.  The
    translation by x sends label 0 to the label of x, so label j is the
    translation by the element at label j of P: both have the same labels."""
    return PermGroup(P.order, [label_perm(P, lambda y, x=x: y * x) for x in P.generators])


def faithful_quotient(pair):
    """The marked pair (regular(P), sigma) of a pair (P, s), given as any
    object with a subgroup and an element: sigma is the label map
    y -> s^-1 y s, which conjugates the translations as s conjugates P,
    sigma tau_x sigma^-1 = tau_(s x s^-1), and acts on them faithfully."""
    P = pair.subgroup
    sigma = label_perm(P, conjugation(pair.element.inverse()))
    return autos.MarkedPair(regular(P), sigma)


def basic_orbit(x, maps):
    """The orbit of x under the automorphisms given as element maps, as
    the package took basic orbits before its strong generators were
    permutations of labels."""
    return orbit(x, lambda y: [m[y] for m in maps])


def element_search(A, B, sequence, restrictions, limit=None, commuting=None):
    """The package's label search with the generators, the restrictions
    and the twist (c, d) given as elements, and the maps it finds as
    element maps; the twist is taken on labels as conjugation by c and
    by d."""
    if commuting is not None:
        c, d = commuting
        commuting = (label_perm(A, conjugation(c)).images, label_perm(B, conjugation(d)).images)
    found = _search_maps(
        A,
        B,
        [A.position(g) for g in sequence],
        [None if r is None else {B.position(y) for y in r} for r in restrictions],
        limit,
        commuting,
    )
    images = B.elements()
    return [dict(zip(A.elements(), [images[j] for j in m])) for m in found]


def element_candidates(A, B, sequence, restrictions):
    """The package's candidate lists for element generators and
    restrictions, as lists of elements of B."""
    lists = _candidate_lists(
        A,
        B,
        [A.position(g) for g in sequence],
        [None if r is None else {B.position(y) for y in r} for r in restrictions],
    )
    images = B.elements()
    return None if lists is None else [[images[j] for j in pool] for pool in lists]


def element_homomorphism(A, B, pairs):
    """The package's homomorphism for (generator, image) element pairs,
    as an element map."""
    labels = homomorphism(A, B, [(A.position(g), B.position(h)) for g, h in pairs])
    images = B.elements()
    return dict(zip(A.elements(), [images[j] for j in labels]))


def label_witness(source, target, m):
    """The element map m: source -> target as the permutation sending the
    label of x in source to the label of m(x) in target."""
    return Permutation(target.position(m[x]) for x in source.elements())


def decode_witness(cls, pair, iso=None):
    """The witness phi: L -> P of a member on the translation route: iso,
    a pair isomorphism from the class's translations onto the member's
    faithful quotient, or the identity for the founding member, followed
    by decoding each translation t to the element of P at label t(0),
    closed from the generators of L; as a permutation of labels."""
    source = cls.realization.subgroup
    labels = pair.subgroup.elements()
    pairs = [
        (tau, labels[(tau if iso is None else iso[tau]).images[0]])
        for tau in source.generators
    ]
    return label_witness(source, pair.subgroup, element_homomorphism(source, pair.subgroup, pairs))


def carrier(mp):
    """The carrier L<u> of a marked pair, from the generators of L and u."""
    L = mp.subgroup
    return PermGroup(L.degree, L.generators + (mp.element,))


def pair_sequence(mp):
    """Generating sequence [u] + generators of L (u omitted when trivial)."""
    seq = [] if mp.element.is_identity() else [mp.element]
    seq.extend(mp.subgroup.generators)
    return seq


def carrier_pair_isomorphism(a, b):
    """An isomorphism F of the carriers with F(L) = L' and F(u) conjugate
    to u', as its element map, or None; a first-hit search over the pair
    sequence of a."""
    A, B = carrier(a), carrier(b)
    if (
        A.order != B.order
        or a.subgroup.order != b.subgroup.order
        or a.element.order() != b.element.order()
    ):
        return None
    sequence = pair_sequence(a)
    restrictions = []
    if not a.element.is_identity():
        t_class = B.conjugacy_data()[B.class_index_of(b.element)]
        restrictions.append(set(t_class.elements))
    restrictions.extend([b.subgroup.element_set()] * len(a.subgroup.generators))
    maps = element_search(A, B, sequence, restrictions, limit=1)
    return maps[0] if maps else None


def carrier_witness(cls, quotient, iso, pair):
    """The witness phi: L -> P from a carrier isomorphism onto a member's
    quotient: conjugate the image of u onto sigma by the first carrier
    element that does so, restrict to the translations and decode each
    translation t to the element of P at label t(0); as a permutation of
    labels."""
    sigma = quotient.element
    image = iso[cls.realization.element]
    adjust = next(
        (h for h in sorted(iso.values()) if package_conjugate(h, image) == sigma), None
    )
    if adjust is None:
        raise InternalCheckError("pair isomorphism image is not conjugate to sigma")
    source = cls.realization.subgroup
    labels = pair.subgroup.elements()
    pairs = [
        (tau, labels[package_conjugate(adjust, iso[tau]).images[0]])
        for tau in source.generators
    ]
    return label_witness(source, pair.subgroup, element_homomorphism(source, pair.subgroup, pairs))


class LinearScanRegistry(ddelta.PairClassRegistry):
    """Classification on the carrier route by a linear scan over every
    class, filtered only by |L|, the order of u and the carrier order."""

    def _classify(self, pair):
        marked = faithful_quotient(pair)
        for cls in self.classes:
            if (
                cls.subgroup_order != marked.subgroup.order
                or cls.element_order != marked.element.order()
                or carrier(cls.realization).order != carrier(marked).order
            ):
                continue
            iso = carrier_pair_isomorphism(cls.realization, marked)
            if iso is None:
                continue
            member = ddelta.ClassMember(pair, carrier_witness(cls, marked, iso, pair))
            ddelta._verify_witness(cls, member)
            cls.members.append(member)
            return cls, member
        cls = ddelta.PairClass(
            len(self.classes), marked, ddelta.pair_class_key(marked), self.shared
        )
        self.classes.append(cls)
        member = ddelta.ClassMember(pair, decode_witness(cls, pair))
        ddelta._verify_witness(cls, member)
        cls.members.append(member)
        return cls, member


def all_isomorphisms(cls, obj):
    """Every isomorphism L -> P from an unlimited search, as image tuples
    over the sorted elements of L."""
    L_group = cls.realization.subgroup
    sequence = list(greedy_generating_set(L_group.degree, L_group.elements()))
    maps = element_search(L_group, obj.subgroup, sequence, [None] * len(sequence))
    return [tuple(m[x] for x in L_group.elements()) for m in maps]


def carrier_automorphism_maps(mp):
    """Strong generators of Aut(L, u) as full element maps of the carrier,
    from the stabilizer-chain backtrack over every level of the pair
    sequence [u, l1..lk]; at the level of u the candidates are the
    conjugates of u."""
    G = carrier(mp)
    bound = max_order()
    sequence = pair_sequence(mp)
    restrictions = []
    if not mp.element.is_identity():
        s_class = G.conjugacy_data()[G.class_index_of(mp.element)]
        restrictions.append(set(s_class.elements))
    restrictions.extend([None] * len(mp.subgroup.generators))
    lists = element_candidates(G, G, sequence, restrictions)
    maps = []
    order = 1
    for i in reversed(range(len(sequence))):
        x = sequence[i]
        fixed = [{y} for y in sequence[:i]]
        basic = basic_orbit(x, maps)
        for cand in lists[i]:
            if cand in basic:
                continue
            hit = element_search(
                G, G, sequence, fixed + [{cand}] + restrictions[i + 1:], limit=1
            )
            if hit:
                maps.append(hit[0])
                basic = basic_orbit(x, maps)
                if order * len(basic) > bound:
                    raise SizeBoundError(f"Aut(L, u) has more than {bound} elements")
        order *= len(basic)
    return maps


def twisted_centralizer(mp):
    """C = C_Aut(L)(c_u) as the element set of its label permutations of
    L, closed from strong generators that a backtrack along l1..lk finds
    by first-hit searches closed under the twist (u, u), and checked
    against their basic orbit product."""
    L, u = mp.subgroup, mp.element
    commuting = None if u.is_identity() else (u, u)
    sequence = list(L.generators)
    lists = element_candidates(L, L, sequence, [None] * len(sequence))
    free = [set(pool) for pool in lists]
    maps = []
    for i in reversed(range(len(sequence))):
        fixed = [{y} for y in sequence[:i]]
        basic = basic_orbit(sequence[i], maps)
        for cand in lists[i]:
            if cand in basic:
                continue
            hit = element_search(L, L, sequence, fixed + [{cand}] + free[i + 1:], 1, commuting)
            if hit:
                maps.append(hit[0])
                basic = basic_orbit(sequence[i], maps)
    C = PermGroup(L.order, [label_perm(L, m.__getitem__) for m in maps])
    expected = 1
    for i, x in enumerate(sequence):
        level = [m for m in maps if all(m[y] == y for y in sequence[:i])]
        expected *= len(basic_orbit(x, level))
    assert C.order == expected
    return C.element_set()


@dataclass(frozen=True)
class CarrierOut:
    """Aut(L, u) on the labels of the carrier of ``pair``, a class's
    faithful quotient, and Out(L, u) as the action of Aut(L, u) on the
    cosets of Inn."""

    pair: autos.MarkedPair
    carrier: PermGroup
    aut: PermGroup
    labels: tuple
    index: dict
    inn: PermGroup
    out_group: PermGroup
    projection: dict
    table: CharacterTable

    def perm_from_map(self, m):
        return Permutation(self.index[m[x]] for x in self.labels)

    def project_c(self, c):
        """The image in Out of c in C: the carrier automorphism fixing u
        that acts on L as c (on the class's labels), projected."""
        u = self.pair.element
        labels = self.pair.subgroup.elements()
        powers = [u.identity(u.degree)]
        for _ in range(1, u.order()):
            powers.append(powers[-1] * u)
        m = {
            l * power: labels[c.images[i]] * power
            for i, l in enumerate(labels)
            for power in powers
        }
        return self.projection[self.perm_from_map(m)]


def carrier_out(cls):
    """Out(L, u) of a pair class by the carrier route, on the faithful
    quotient of its realization."""
    mp = faithful_quotient(cls.realization)
    G = carrier(mp)
    maps = carrier_automorphism_maps(mp)
    labels = G.elements()
    index = {x: i for i, x in enumerate(labels)}
    aut = PermGroup(len(labels), [Permutation(index[m[x]] for x in labels) for m in maps])
    sequence = pair_sequence(mp)
    expected = 1
    for i, x in enumerate(sequence):
        stabilizer = [m for m in maps if all(m[y] == y for y in sequence[:i])]
        expected *= len(basic_orbit(x, stabilizer))
    assert aut.order == expected
    inn = aut.subgroup(
        Permutation(index[package_conjugate(g, x)] for x in labels)
        for g in G.generators
    )
    out_group, projection = quotient_group(aut, inn)
    return CarrierOut(
        pair=mp,
        carrier=G,
        aut=aut,
        labels=labels,
        index=index,
        inn=inn,
        out_group=out_group,
        projection=projection,
        table=character_table(out_group),
    )


def carrier_image_of_normalizer(out, cls, ambient, subgroup, element, witness):
    """The image of N_G(P, s) in the carrier route's Out, as a subgroup:
    each generator g of N_G(P) /\\ C_G(s) gives the pair automorphism
    acting as phi^-1 . c_g . phi on the translations and fixing u.  The
    witness, a permutation of labels, is read on the translations at the
    labels of the class's L."""
    n_ps = centralizer(normalizer(ambient, subgroup), element)
    labels = subgroup.elements()
    phi = {
        t: labels[witness.images[i]] for i, t in enumerate(out.pair.subgroup.elements())
    }
    phi_inv = {v: k for k, v in phi.items()}
    realization = out.carrier
    u = out.pair.element
    images = []
    for g in n_ps.generators:
        pairs = []
        for gen in realization.generators:
            if gen == u and not u.is_identity():
                pairs.append((gen, u))
            else:
                pairs.append((gen, phi_inv[package_conjugate(g, phi[gen])]))
        perm = out.perm_from_map(element_homomorphism(realization, realization, pairs))
        if not out.aut.contains(perm):
            raise InternalCheckError("induced map is not a pair automorphism")
        images.append(out.projection[perm])
    return out.out_group.subgroup(images)


def section_scan_triple_orbits(F, cls, out_data):
    """The fusion route before label indices, one entry per object with an
    admissible isomorphism: (object, admissible set, orbits), each orbit
    as (representative, orbit size, stabilizer element set).

    Each isomorphism is tested by conjugating degree-|G| permutations, each
    double coset is walked whole and then by its left orbit, and each
    stabilizer is found by testing one preimage of every element of Out.
    Aut(L, u), Out and the projection are those of ``out_data``, the
    class's ``carrier_out``, and the stabilizers are element sets of its
    Out.
    """
    u = out_data.pair.element
    l_elements = out_data.pair.subgroup.elements()
    l_index = {x: i for i, x in enumerate(l_elements)}
    projection = out_data.projection

    def apply(aut_elt, x):
        return out_data.labels[aut_elt.images[out_data.index[x]]]

    section = {}
    for aut_elt in out_data.aut.elements():
        section.setdefault(projection[aut_elt], aut_elt)
    aut_gens_l = [
        tuple(l_index[apply(psi, x)] for x in l_elements)
        for psi in out_data.aut.generators
    ]

    def admissible(obj, t):
        inverse = {img: l_elements[i] for i, img in enumerate(t)}
        images = [
            obj.subgroup.position(t[l_index[package_conjugate(u, inverse[x])]])
            for x in obj.subgroup.elements()
        ]
        return obj.aut_f.contains(Permutation(images))

    out = []
    for obj in F.objects:
        if obj.subgroup.order != len(l_elements):
            continue
        tuples = {t for t in all_isomorphisms(cls, obj) if admissible(obj, t)}
        if not tuples:
            continue
        n_gens = obj.normalizer.generators

        def left_moves(t):
            return [tuple(package_conjugate(g, x) for x in t) for g in n_gens]

        def right_moves(t):
            return [tuple(t[row[i]] for i in range(len(t))) for row in aut_gens_l]

        remaining = set(tuples)
        orbits = []
        while remaining:
            start = min(remaining)
            double = orbit(start, lambda t: left_moves(t) + right_moves(t))
            assert double <= tuples
            remaining -= double
            left_orbit = orbit(start, left_moves)
            stabilizer = set()
            for out_elt, aut_elt in sorted(section.items()):
                row = tuple(l_index[apply(aut_elt, x)] for x in l_elements)
                if tuple(start[row[i]] for i in range(len(start))) in left_orbit:
                    stabilizer.add(out_elt)
            orbits.append((start, len(double), stabilizer))
        out.append((obj, tuples, orbits))
    return out


def leverrier_charpoly(mat, q):
    """Characteristic polynomial coefficients [1, c1, ..., cn] mod q by
    Faddeev-LeVerrier: n matrix products, each step dividing a trace by k
    (so q must exceed n)."""
    n = len(mat)
    coeffs = [1]
    work = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        work = [
            [sum(mat[i][t] * work[t][j] for t in range(n)) % q for j in range(n)]
            for i in range(n)
        ]
        trace = sum(work[i][i] for i in range(n)) % q
        ck = (-trace * pow(k, -1, q)) % q
        coeffs.append(ck)
        for i in range(n):
            work[i][i] = (work[i][i] + ck) % q
    return coeffs


def class_matrix(classes, i, q):
    """The matrix of multiplication by the i-th class sum on the class
    sums mod q: entry (j, col) counts the x in class i with x^-1 z in
    class j, for z the rep of class col."""
    k = len(classes)
    class_of = {x: j for j, cls in enumerate(classes) for x in cls.elements}
    mat = [[0] * k for _ in range(k)]
    for x in classes[i].elements:
        x_inv = x.inverse()
        for col in range(k):
            mat[class_of[x_inv * classes[col].rep]][col] += 1
    return [[v % q for v in row] for row in mat]


def layered_p_subgroup_classes(G, p):
    """The p-subgroup class representatives by layered normalizer
    extension, as the package built them before it enumerated the
    subgroups of one Sylow subgroup: each class of order p|P| is reached
    from a representative P by some x in N_G(P) outside P with x^p in P,
    so every layer extends every representative of the layer below by
    every such x and keeps the minimal conjugates.  Works on raw image
    tuples, conjugating by every element; returns element sets in the
    package's order, by (order, sorted images)."""
    elements = sorted(closure(G.degree, [g.images for g in G.generators]))

    def minimal_conjugate(sub):
        return min(tuple(sorted(conj(g, x) for x in sub)) for g in elements)

    def power(x, n):
        out = identity(G.degree)
        for _ in range(n):
            out = compose(out, x)
        return out

    trivial = (identity(G.degree),)
    canonical = {trivial}
    layer = [trivial]
    while layer:
        new = set()
        for sub in layer:
            members = set(sub)
            for x in sorted(normalizer_elements(elements, sub)):
                if x in members or power(x, p) not in members:
                    continue
                extended = closure(G.degree, list(sub) + [x])
                assert len(extended) == p * len(sub), "layered extension gave a wrong order"
                new.add(minimal_conjugate(extended))
        new -= canonical
        canonical |= new
        layer = sorted(new)
    return [
        frozenset(Permutation(x) for x in sub)
        for sub in sorted(canonical, key=lambda sub: (len(sub), sub))
    ]


def stabilizer_chain(G):
    """(base point, transversal) levels of G: each base point is the
    smallest point that the current stabilizer moves, and each transversal
    maps an image of that point to the smallest element sending the point
    there."""
    levels = []
    current = list(G.elements())
    while len(current) > 1:
        point = next(
            pt for pt in range(G.degree) if any(g.images[pt] != pt for g in current)
        )
        transversal = {}
        for g in current:  # canonical order, so reps are minimal
            transversal.setdefault(g.images[point], g)
        levels.append((point, transversal))
        current = [g for g in current if g.images[point] == point]
    return tuple(levels)


def find_complement(G, D):
    """A subgroup E with |E| = [G : D] and E /\\ D = 1, for D normal Sylow:
    a cyclic complement if there is one, else a breadth-first search of
    the subgroups generated by elements of order dividing the index."""
    index = G.order // D.order
    if index == 1:
        return PermGroup(G.degree, ())
    eligible = [
        x for x in G.elements() if not x.is_identity() and index % x.order() == 0
    ]
    for x in sorted(eligible, key=lambda x: (-x.order(), x.images)):
        if x.order() == index:
            return G.subgroup([x])
    seen = set()
    frontier = [PermGroup(G.degree, ())]
    while frontier:
        nxt = []
        for current in frontier:
            for x in eligible:
                if current.contains(x):
                    continue
                extended = G.subgroup(current.generators + (x,))
                if index % extended.order != 0 or extended.element_set() in seen:
                    continue
                if extended.order == index:
                    return extended
                seen.add(extended.element_set())
                nxt.append(extended)
        frontier = nxt
    raise DomainError(f"no complement of order {index} found")


def complement_fixed_point(D, E):
    """The first (e, d) with e in E and d in D both nonidentity and
    e d e^-1 = d, by conjugating every d by every e; None when E acts
    freely."""
    for e in E.elements()[1:]:
        for d in D.elements()[1:]:
            if package_conjugate(e, d) == d:
                return e, d
    return None
