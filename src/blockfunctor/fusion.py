"""Fusion data for groups with a normal abelian Sylow subgroup acted on
freely by a complement, triple orbits under double-coset actions, and the
verifier matching triple orbits with pair orbits.

Hypotheses are checked up front with explicit witnesses: the Sylow
p-subgroup must be normal and abelian and every nonidentity complement
element must move every nonidentity Sylow element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autos import _search_maps
from .ddelta import (
    NormalizerPair,
    PairClass,
    PairClassRegistry,
    image_of_normalizer,
)
from .errors import DomainError, InternalCheckError
from .permgroup import (
    GroupHom,
    PermGroup,
    Subgroup,
    _closure,
    is_p_prime_element,
    normalizer,
    orbit,
    p_subgroup_classes,
    small_generating_set,
    sylow_subgroup,
)
from .permutation import Permutation, conjugate


def find_complement(G: PermGroup, D: Subgroup) -> Subgroup:
    """A subgroup E with |E| = [G : D] and E /\\ D = 1, for D normal Sylow.

    Tries a cyclic complement first, then searches subgroups generated by
    elements of order dividing the index.
    """
    index = G.order // D.order
    if index == 1:
        return G.trivial_subgroup()
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
    if not D.group.is_abelian():
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


def _check_free_action(D: Subgroup, E: Subgroup):
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

    subgroup: Subgroup
    normalizer: Subgroup
    labels: tuple
    index: dict
    aut_f: PermGroup  # automorphisms of P induced by the normalizer

    def restriction_perm(self, g: Permutation) -> Permutation:
        return Permutation(
            self.index[conjugate(g, x)] for x in self.labels
        )


@dataclass(frozen=True)
class FusionData:
    """Conjugation fusion on the subgroups of the normal Sylow subgroup."""

    group: PermGroup
    p: int
    kernel: Subgroup
    complement: Subgroup
    objects: tuple


def build_fusion(G: PermGroup, p: int) -> FusionData:
    """Fusion data for G = D . E, with D and E from frobenius_structure."""
    D, E = frobenius_structure(G, p)
    dset = D.element_set()
    objects = []
    for P in p_subgroup_classes(G, p):
        if not P.element_set() <= dset:
            raise InternalCheckError("p-subgroup class leaves the normal Sylow")
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

    The representative is the tuple of images of the class realization's
    translation elements in canonical order; the stabilizer lives in the
    class's out group.
    """

    object: FusionObject
    rep: tuple
    pi: GroupHom
    stabilizer: Subgroup
    orbit_size: int


def _iso_tuples(cls: PairClass, obj: FusionObject, l_elements):
    """All isomorphisms L -> P as image tuples over the L element list."""
    L_group = cls.realization.subgroup.group
    P_group = obj.subgroup.group
    sequence = list(small_generating_set(L_group.degree, L_group.elements()))
    maps = _search_maps(L_group, P_group, sequence, [None] * len(sequence))
    return [tuple(m[x] for x in l_elements) for m in maps]


def _admissible(cls: PairClass, obj: FusionObject, pi_tuple, l_elements, l_index):
    """Whether pi . i_u . pi^-1 lies in the fusion automorphisms of P."""
    u = cls.realization.element
    inverse = {img: l_elements[i] for i, img in enumerate(pi_tuple)}
    images = []
    for x in obj.labels:
        l_elt = inverse[x]
        moved = conjugate(u, l_elt)
        images.append(obj.index[pi_tuple[l_index[moved]]])
    return obj.aut_f.contains(Permutation(images))


def triple_orbits(F: FusionData, cls: PairClass):
    """Double-coset orbits of admissible isomorphisms, with stabilizers.

    For each object P isomorphic to the class subgroup L: enumerate the
    isomorphisms pi: L -> P with pi . i_u . pi^-1 induced by the
    normalizer, split them under the left normalizer action and the right
    action of the pair automorphisms, and compute for each orbit the
    stabilizer inside the out group by direct test over a coset section.
    """
    if cls.subgroup_order == 1:
        raise DomainError("triple orbits are defined for nontrivial subgroups only")
    cls.ensure_aut()
    L_sub = cls.realization.subgroup
    l_elements = L_sub.elements()
    l_index = {x: i for i, x in enumerate(l_elements)}

    # right action data: index permutations of the L labels per generator
    aut_gens_l = []
    for psi in cls.aut_action.group.generators:
        aut_gens_l.append(
            tuple(l_index[cls.aut_action.apply(psi, x)] for x in l_elements)
        )

    orbits = []
    for obj in F.objects:
        if obj.subgroup.order != L_sub.order:
            continue
        tuples = [
            t
            for t in _iso_tuples(cls, obj, l_elements)
            if _admissible(cls, obj, t, l_elements, l_index)
        ]
        if not tuples:
            continue
        admissible = set(tuples)
        n_gens = obj.normalizer.generators

        def left_moves(t):
            return [tuple(conjugate(g, x) for x in t) for g in n_gens]

        def right_moves(t):
            return [tuple(t[row[i]] for i in range(len(t))) for row in aut_gens_l]

        remaining = set(admissible)
        total = 0
        while remaining:
            start = min(remaining)
            double = orbit(start, lambda t: left_moves(t) + right_moves(t))
            if not double <= admissible:
                raise InternalCheckError("orbit action left the admissible set")
            remaining -= double
            total += len(double)
            left_orbit = orbit(start, left_moves)

            stabilizer_elements = []
            for out_elt, aut_elt in sorted(cls.out_section().items()):
                row = tuple(
                    l_index[cls.aut_action.apply(aut_elt, x)] for x in l_elements
                )
                moved = tuple(start[row[i]] for i in range(len(start)))
                if moved in left_orbit:
                    stabilizer_elements.append(out_elt)
            stabilizer = cls.out_group.subgroup_from_elements(stabilizer_elements)

            pi = GroupHom(
                L_sub.group,
                obj.subgroup.group,
                [(g, start[l_index[g]]) for g in L_sub.generators]
                or [(L_sub.group.identity, obj.subgroup.group.identity)],
            )
            orbits.append(
                TripleOrbit(
                    object=obj,
                    rep=start,
                    pi=pi,
                    stabilizer=stabilizer,
                    orbit_size=len(double),
                )
            )
        if total != len(admissible):
            raise InternalCheckError("double-coset orbits do not partition")
    return orbits


def psi_pair(F: FusionData, cls: PairClass, orbit: TripleOrbit) -> NormalizerPair:
    """The pair (P, s) with s a p'-normalizer element inducing pi.i_u.pi^-1.

    The search runs over the whole normalizer in canonical order; absence
    of such an element contradicts the verified bijection and is raised
    as an internal error.
    """
    obj = orbit.object
    u = cls.realization.element
    l_elements = cls.realization.subgroup.elements()
    l_index = {x: i for i, x in enumerate(l_elements)}
    inverse = {img: l_elements[i] for i, img in enumerate(orbit.rep)}
    target = {
        x: orbit.rep[l_index[conjugate(u, inverse[x])]] for x in obj.labels
    }
    for s in obj.normalizer.elements():
        if not is_p_prime_element(s, F.p):
            continue
        if all(conjugate(s, x) == target[x] for x in obj.subgroup.generators):
            return NormalizerPair(F.group, F.p, obj.subgroup, s)
    raise InternalCheckError(
        "no p'-element of the normalizer induces the required action"
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
    matched orbit the image of N_G(P, s) in the out group (computed with
    the same pi) must equal the triple stabilizer as a literal subgroup.
    Any failure raises InternalCheckError naming the orbit.
    """
    members = registry.members_for(F.group, cls)
    orbits = triple_orbits(F, cls)
    cid = cls.class_id
    if len(orbits) != len(members):
        raise InternalCheckError(
            f"class {cid}: {len(orbits)} triple orbits vs {len(members)} pair orbits"
        )
    assigned = {}
    stab_orders = []
    for i, orbit in enumerate(orbits):
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
                f"class {cid}: psi image of triple orbit {i} hits no pair orbit"
            )
        if match in assigned:
            raise InternalCheckError(
                f"class {cid}: triple orbits {assigned[match]} and {i} map to "
                f"the same pair orbit"
            )
        assigned[match] = i

        image = image_of_normalizer(
            cls, F.group, pair.subgroup, pair.element, orbit.pi
        )
        if image.element_set() != orbit.stabilizer.element_set():
            raise InternalCheckError(
                f"class {cid}: stabilizer mismatch on triple orbit {i} "
                f"(|image| = {image.order}, |stabilizer| = {orbit.stabilizer.order})"
            )
        stab_orders.append(orbit.stabilizer.order)
    if len(assigned) != len(members):
        raise InternalCheckError(f"class {cid}: orbit matching is not onto")
    return ClassCheck(
        class_id=cid,
        subgroup_order=cls.subgroup_order,
        element_order=cls.element_order,
        triple_orbits=len(orbits),
        pair_orbits=len(members),
        stabilizer_orders=tuple(stab_orders),
    )
