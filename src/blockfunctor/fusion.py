"""Fusion data for groups with a normal abelian Sylow subgroup acted on
freely by a complement, triple orbits under double-coset actions, and the
verifier matching triple orbits with pair orbits.

Hypotheses are checked up front with explicit witnesses: the Sylow
p-subgroup must be normal and abelian and every nonidentity complement
element must move every nonidentity Sylow element.

Triple orbits work on label indices: pi: L -> P is the tuple of
obj.index[pi(l)] over the sorted elements of L.  Iso(L, P) = Aut(P) . pi0
for one pi0 found by a first-hit search, with Aut(P) closed once per
object.  The route reads no pair orbits or witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .autos import MarkedPair, _search_maps, pair_automorphism_maps
from .ddelta import (
    NormalizerPair,
    PairClass,
    PairClassRegistry,
    image_of_normalizer,
)
from .errors import DomainError, InternalCheckError
from .permgroup import (
    PermGroup,
    _closure,
    class_and_centralizer,
    homomorphism,
    is_p_prime_element,
    normalizer,
    orbit,
    p_subgroup_classes,
    sylow_subgroup,
)
from .permutation import Permutation, conjugate


def find_complement(G: PermGroup, D: PermGroup) -> PermGroup:
    """A subgroup E with |E| = [G : D] and E /\\ D = 1, for D normal Sylow.

    Tries a cyclic complement first, then searches subgroups generated by
    elements of order dividing the index.
    """
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
    frontier = [frozenset([G.identity])]
    while frontier:
        nxt = []
        for current in frontier:
            for x in eligible:
                if x in current:
                    continue
                extended = frozenset(
                    _closure(G.degree, [g for g in current if not g.is_identity()] + [x],
                             G.order + 1)
                )
                if index % len(extended) != 0 or extended in seen:
                    continue
                if len(extended) == index:
                    return G.subgroup_from_elements(extended)
                seen.add(extended)
                nxt.append(extended)
        frontier = nxt
    raise DomainError(f"no complement of order {index} found")


def frobenius_structure(G: PermGroup, p: int):
    """The normal abelian Sylow p-subgroup and a free complement, verified.

    Raises DomainError with the failing witness when the group is not of
    this shape.
    """
    D = sylow_subgroup(G, p)
    if D.order == 1:
        raise DomainError(
            f"the Sylow {p}-subgroup is trivial; this route needs a "
            f"nontrivial normal Sylow subgroup"
        )
    dset = D.element_set()
    for g in G.generators:
        for x in D.generators:
            if conjugate(g, x) not in dset:
                raise DomainError(
                    f"Sylow {p}-subgroup is not normal: conjugating "
                    f"{x.cycle_string()} by {g.cycle_string()} leaves it"
                )
    if not D.is_abelian():
        a, b = next(
            (a, b)
            for a in D.generators
            for b in D.generators
            if a * b != b * a
        )
        raise DomainError(
            f"Sylow {p}-subgroup is not abelian: {a.cycle_string()} and "
            f"{b.cycle_string()} do not commute"
        )
    E = find_complement(G, D)
    _check_free_action(D, E)
    return D, E


def _check_free_action(D: PermGroup, E: PermGroup):
    for e in E.elements():
        if e.is_identity():
            continue
        for d in D.elements():
            if d.is_identity():
                continue
            if conjugate(e, d) == d:
                raise DomainError(
                    f"complement action is not free: {e.cycle_string()} "
                    f"fixes {d.cycle_string()}"
                )


@dataclass(frozen=True)
class FusionObject:
    """One subgroup class representative P <= D with its induced data."""

    subgroup: PermGroup
    normalizer: PermGroup
    labels: tuple
    index: dict
    aut_f: PermGroup  # automorphisms of P induced by the normalizer

    @cached_property
    def automorphisms(self) -> set:
        """Aut(P) as index tuples over the labels, closed from the strong
        generators of the automorphism search on the pair (P, 1)."""
        P = self.subgroup
        maps = pair_automorphism_maps(MarkedPair(P, P.identity))
        gens = [tuple([self.index[m[x]] for x in self.labels]) for m in maps]
        return orbit(
            tuple(range(len(self.labels))),
            lambda a: [tuple([g[j] for j in a]) for g in gens],
        )


@dataclass(frozen=True)
class FusionData:
    """Conjugation fusion on the subgroups of the normal Sylow subgroup."""

    group: PermGroup
    p: int
    kernel: PermGroup
    complement: PermGroup
    objects: tuple


def build_fusion(G: PermGroup, p: int) -> FusionData:
    """Fusion data for G = D . E, with D and E from frobenius_structure."""
    D, E = frobenius_structure(G, p)
    dset = D.element_set()
    objects = []
    for P in p_subgroup_classes(G, p):
        if not P.element_set() <= dset:
            raise InternalCheckError(
                f"fusion route, |P|={P.order}: p-subgroup class leaves the "
                f"normal Sylow of order {D.order}"
            )
        N = normalizer(G, P)
        labels = P.elements()
        index = {x: i for i, x in enumerate(labels)}
        obj = FusionObject(
            subgroup=P,
            normalizer=N,
            labels=labels,
            index=index,
            aut_f=PermGroup(
                len(labels),
                [
                    Permutation(index[conjugate(g, x)] for x in labels)
                    for g in N.generators
                ],
            ),
        )
        objects.append(obj)
    return FusionData(group=G, p=p, kernel=D, complement=E, objects=tuple(objects))


@dataclass
class TripleOrbit:
    """A double-coset orbit of admissible isomorphisms onto an object.

    The representative pi: L -> P is the tuple of images of the class
    realization's translation elements in canonical order; the stabilizer
    is the preimage in the class's C of the orbit's stabilizer in Out, so
    it contains N.
    """

    object: FusionObject
    rep: tuple
    stabilizer: PermGroup
    orbit_size: int


def _where(cls: PairClass) -> str:
    """The class as fusion-route errors name it; the route matches the
    class only with objects P of order |L|."""
    return (
        f"fusion route, class {cls.class_id} (|L|={cls.subgroup_order}, "
        f"ord u={cls.element_order}), |P|={cls.subgroup_order}"
    )


def admissible_isomorphisms(cls: PairClass, obj: FusionObject) -> set:
    """The isomorphisms pi: L -> P, as index tuples, with pi . i_u . pi^-1
    induced by the normalizer; empty when L and P are not isomorphic."""
    L_group = cls.realization.subgroup
    sequence = list(L_group.generators)
    found = _search_maps(
        L_group, obj.subgroup, sequence, [None] * len(sequence), limit=1
    )
    if not found:
        return set()
    c_u = [cls.label_index[conjugate(cls.realization.element, x)] for x in cls.labels]
    pi0 = [obj.index[found[0][x]] for x in cls.labels]
    induced = {a.images for a in obj.aut_f.elements()}
    admissible = set()
    images = [0] * len(pi0)
    for alpha in obj.automorphisms:
        pi = tuple([alpha[j] for j in pi0])
        for i, j in enumerate(c_u):
            images[pi[i]] = pi[j]
        if tuple(images) in induced:
            admissible.add(pi)
    return admissible


def triple_orbits(F: FusionData, cls: PairClass):
    """Double-coset orbits of admissible isomorphisms, with stabilizers.

    The normalizer acts on the left (by obj.aut_f) and Aut(L, u) on the
    right; L is abelian, so Aut(L, u) acts on L through C = C_Aut(L)(c_u).
    Each double coset is walked once, as the C-orbit of its left orbits
    (blocks), with a transversal T_k from the first block to the k-th.
    Products compose left to right, so generator psi steps from block k
    by psi * T_k, and on landing in a known block j gives the Schreier
    generator T_j^-1 * psi * T_k of the first block's stabilizer in C.
    N fixes every block (c_u is admissible), so the stabilizer is
    <Schreier generators, N>, the preimage of the orbit's stabilizer in
    Out.  Its generators are products of generators of C, so it is closed
    without a membership test.
    """
    if cls.subgroup_order == 1:
        raise DomainError("triple orbits are defined for nontrivial subgroups only")
    cls.ensure_aut()
    C = cls.aut

    orbits = []
    for obj in F.objects:
        if obj.subgroup.order != cls.subgroup_order:
            continue
        admissible = admissible_isomorphisms(cls, obj)
        left = [a.images for a in obj.aut_f.generators]

        def left_orbit(t):
            block = orbit(t, lambda x: [tuple([a[j] for j in x]) for a in left])
            if not block <= admissible:
                raise InternalCheckError(
                    f"{_where(cls)}: orbit action left the admissible set"
                )
            return block

        remaining = set(admissible)
        while remaining:
            start = min(remaining)
            reps, transversal = [start], [C.identity]
            block_of = dict.fromkeys(left_orbit(start), 0)
            schreier = list(cls.inner.generators)
            for k, rep in enumerate(reps):  # reps grows as blocks are found
                for psi in C.generators:
                    moved = tuple([rep[i] for i in psi.images])
                    j = block_of.get(moved)
                    if j is None:
                        block_of.update(dict.fromkeys(left_orbit(moved), len(reps)))
                        reps.append(moved)
                        transversal.append(psi * transversal[k])
                    else:
                        schreier.append(transversal[j].inverse() * psi * transversal[k])
            remaining.difference_update(block_of)
            orbits.append(
                TripleOrbit(
                    object=obj,
                    rep=tuple(obj.labels[j] for j in start),
                    stabilizer=PermGroup(C.degree, dict.fromkeys(schreier)),
                    orbit_size=len(block_of),
                )
            )
        if sum(o.orbit_size for o in orbits if o.object is obj) != len(admissible):
            raise InternalCheckError(
                f"{_where(cls)}: double-coset orbits do not partition"
            )
    return orbits


def psi_pair(F: FusionData, cls: PairClass, orbit: TripleOrbit) -> NormalizerPair:
    """The pair (P, s) with s a p'-normalizer element inducing pi.i_u.pi^-1,
    carrying the generators of C_{N_G(P)}(s) from the walk over the
    N_G(P)-class of s.

    The search runs over the whole normalizer in canonical order; absence
    of such an element contradicts the verified bijection and is raised
    as an internal error.
    """
    obj = orbit.object
    l_elements = cls.realization.subgroup.elements()
    pi, pi_inv = dict(zip(l_elements, orbit.rep)), dict(zip(orbit.rep, l_elements))
    gens = obj.subgroup.generators
    target = [pi[conjugate(cls.realization.element, pi_inv[x])] for x in gens]
    for s in obj.normalizer.elements():
        if is_p_prime_element(s, F.p) and [conjugate(s, x) for x in gens] == target:
            _, fixing_s = class_and_centralizer(obj.normalizer.generators, s)
            return NormalizerPair(F.group, F.p, obj.subgroup, s, fixing_s)
    raise InternalCheckError(
        f"{_where(cls)}: no p'-element of the normalizer induces the "
        f"required action"
    )


def _pairs_conjugate(G: PermGroup, sub_a, s_a, sub_b, s_b) -> bool:
    if sub_a.order != sub_b.order or s_a.order() != s_b.order():
        return False
    bset = sub_b.element_set()
    for g in G.elements():
        if conjugate(g, s_a) != s_b:
            continue
        if all(conjugate(g, x) in bset for x in sub_a.generators):
            return True
    return False


@dataclass(frozen=True)
class ClassCheck:
    """Outcome of the orbit matching for one class."""

    class_id: int
    subgroup_order: int
    element_order: int
    triple_orbits: int
    pair_orbits: int
    stabilizer_orders: tuple


def verify_class(F: FusionData, cls: PairClass, registry: PairClassRegistry) -> ClassCheck:
    """Check the orbit bijection and the stabilizer equality for one class.

    The induced map from triple orbits to pair orbits must be defined,
    injective and onto the class members of this group, and for every
    matched orbit the image of N_G(P, s) in Out (computed with the orbit's
    pi, closed from its representative) must equal the triple stabilizer
    as a literal subgroup; both are carried by their preimages in C.
    Any failure raises InternalCheckError naming the class and the orbit.
    """
    members = registry.members_for(F.group, cls)
    orbits = triple_orbits(F, cls)
    L = cls.realization.subgroup
    where = _where(cls)
    if len(orbits) != len(members):
        raise InternalCheckError(
            f"{where}: {len(orbits)} triple orbits vs {len(members)} pair orbits"
        )
    assigned = {}
    stab_orders = []
    for i, orbit in enumerate(orbits):
        pairs = [(g, orbit.rep[cls.label_index[g]]) for g in L.generators]
        try:
            pi = homomorphism(L, orbit.object.subgroup, pairs)
        except InternalCheckError as exc:
            raise InternalCheckError(f"{where}, triple orbit {i}: {exc}") from exc
        pair = psi_pair(F, cls, orbit)
        match = next(
            (
                j
                for j, member in enumerate(members)
                if _pairs_conjugate(
                    F.group,
                    pair.subgroup,
                    pair.element,
                    member.pair.subgroup,
                    member.pair.element,
                )
            ),
            None,
        )
        if match is None:
            raise InternalCheckError(
                f"{where}: psi image of triple orbit {i} hits no pair orbit"
            )
        if match in assigned:
            raise InternalCheckError(
                f"{where}: triple orbits {assigned[match]} and {i} map to the "
                f"same pair orbit"
            )
        assigned[match] = i

        image = image_of_normalizer(cls, pair, pi)
        if image.element_set() != orbit.stabilizer.element_set():
            raise InternalCheckError(
                f"{where}: stabilizer mismatch on triple orbit {i} "
                f"(|image| = {image.order}, |stabilizer| = {orbit.stabilizer.order})"
            )
        stab_orders.append(orbit.stabilizer.order // cls.inner.order)
    if len(assigned) != len(members):
        raise InternalCheckError(f"{where}: orbit matching is not onto")
    return ClassCheck(
        class_id=cls.class_id,
        subgroup_order=cls.subgroup_order,
        element_order=cls.element_order,
        triple_orbits=len(orbits),
        pair_orbits=len(members),
        stabilizer_orders=tuple(stab_orders),
    )
