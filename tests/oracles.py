"""Independent brute-force oracles for the test suite.

Everything here but ``LinearScanRegistry`` works on raw image tuples and
exact Fractions and shares no code with the package: subgroups come from
closing generating subsets, pair orbits and normalizers from explicit
conjugation by every group element, and the character sums use
hand-written integer tables of the three outer groups that occur for the
golden fixtures.  ``LinearScanRegistry`` is the package's registry with
the classification it had before class keys, kept to show that keyed
classification changes nothing.  ``section_scan_triple_orbits`` is the
fusion route as it was before it moved to label indices, kept to show
that the index-tuple walk and its Schreier stabilizers change nothing.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from blockfunctor import ddelta
from blockfunctor.autos import _search_maps, find_pair_isomorphism
from blockfunctor.permgroup import orbit, small_generating_set
from blockfunctor.permutation import Permutation
from blockfunctor.permutation import conjugate as package_conjugate


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
                     candidates, limit=None):
    """Generator-image search that closes only complete candidate tuples.

    Tuples are tried in lexicographic order of the candidate lists; each
    is closed from the identity and kept when it is a bijection of the
    whole group.  Stops after ``limit`` maps.
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
        if m is not None and len(m) == order_a and len(set(m.values())) == order_b:
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


class LinearScanRegistry(ddelta.PairClassRegistry):
    """Classification by a linear scan over every class, filtered only by
    |L|, the order of u and the carrier order."""

    def _classify(self, pair):
        quotient = ddelta.faithful_quotient(pair)
        marked = quotient.marked
        for cls in self.classes:
            if (
                cls.subgroup_order != marked.subgroup.order
                or cls.element_order != marked.element.order()
                or cls.realization.group.order != marked.group.order
            ):
                continue
            iso = find_pair_isomorphism(cls.realization, marked)
            if iso is None:
                continue
            member = ddelta.ClassMember(
                pair, ddelta._witness_from_isomorphism(cls, quotient, iso, pair)
            )
            ddelta._verify_witness(cls, member)
            cls.members.append(member)
            return cls, member
        cls = ddelta.PairClass(
            len(self.classes), quotient, ddelta.pair_class_key(marked)
        )
        self.classes.append(cls)
        member = ddelta.ClassMember(pair, ddelta._founding_witness(cls, pair))
        ddelta._verify_witness(cls, member)
        cls.members.append(member)
        return cls, member


def all_isomorphisms(cls, obj):
    """Every isomorphism L -> P from an unlimited search, as image tuples
    over the sorted elements of L."""
    L_group = cls.realization.subgroup.group
    sequence = list(small_generating_set(L_group.degree, L_group.elements()))
    maps = _search_maps(L_group, obj.subgroup.group, sequence, [None] * len(sequence))
    return [tuple(m[x] for x in L_group.elements()) for m in maps]


def section_scan_triple_orbits(F, cls):
    """The fusion route before label indices, one entry per object with an
    admissible isomorphism: (object, admissible set, orbits), each orbit
    as (representative, orbit size, stabilizer element set).

    Each isomorphism is tested by conjugating degree-|G| permutations, each
    double coset is walked whole and then by its left orbit, and each
    stabilizer is found by testing one preimage of every element of Out.
    """
    cls.ensure_aut()
    u = cls.realization.element
    l_elements = cls.realization.subgroup.elements()
    l_index = {x: i for i, x in enumerate(l_elements)}
    aut = cls.aut_action
    projection = cls.out_projection.mapping()
    section = {}
    for aut_elt in aut.group.elements():
        section.setdefault(projection[aut_elt], aut_elt)
    aut_gens_l = [
        tuple(l_index[aut.apply(psi, x)] for x in l_elements)
        for psi in aut.group.generators
    ]

    def admissible(obj, t):
        inverse = {img: l_elements[i] for i, img in enumerate(t)}
        images = [
            obj.index[t[l_index[package_conjugate(u, inverse[x])]]]
            for x in obj.labels
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
                row = tuple(l_index[aut.apply(aut_elt, x)] for x in l_elements)
                if tuple(start[row[i]] for i in range(len(start))) in left_orbit:
                    stabilizer.add(out_elt)
            orbits.append((start, len(double), stabilizer))
        out.append((obj, tuples, orbits))
    return out
