"""Fusion data for groups with a normal abelian Sylow subgroup acted on
freely by a complement, triple orbits under double-coset actions, and the
verifier matching triple orbits with pair orbits.

Hypotheses are checked up front with explicit witnesses: the Sylow
p-subgroup D must be normal and abelian, and G / D must act on it
freely.  No complement E is built: C_G(d) = D C_E(d) for d in D, so the
action is free exactly when every nonidentity d in D has a G-class of
size [G : D].

Triple orbits work on labels (PermGroup.position): pi: L -> P is the
label map that autos returns, the tuple of the labels of pi(l) in P
over the elements of L in label order, and an orbit's representative
is such a tuple.  As a permutation w of the labels, pi is a witness in
the sense of ddelta.ClassMember, and pi . i_u . pi^-1 is
w^-1 * c_u * w.  The normalizer acts on P through the label maps
PermGroup.induced.  Iso(L, P) = Aut(P) . pi0 for one pi0 found by
autos.find_group_isomorphism once per object and element set of L,
however many classes share L.  Aut(P) on the labels of P is the
registry's shared Aut(L) for L = P, searched once per product table.
The right action is that of C = C_Aut(L)(c_u), which the class builds
as a centralizer in Aut(L) (ddelta.PairClass.aut).
The route reads no pair orbits or witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .autos import _generator_labels, find_group_isomorphism
from .ddelta import (
    NormalizerPair,
    PairClass,
    PairClassRegistry,
    image_of_normalizer,
)
from .errors import DomainError, InternalCheckError
from .permgroup import (
    PermGroup,
    class_and_centralizer,
    homomorphism,
    normalizer,
    orbit,
    p_part,
    p_subgroup_classes,
    schreier_walk,
    sylow_subgroup,
)
from .permutation import Permutation, conjugate


def frobenius_structure(G: PermGroup, p: int) -> PermGroup:
    """The Sylow p-subgroup D, verified normal and abelian with G / D
    acting on it freely.

    A complement E exists (Schur-Zassenhaus), and D is abelian, so
    C_G(d) = D C_E(d) for d in D (Dedekind): E acts freely exactly when
    every nonidentity d in D has a G-class of size [G : D].  Raises
    DomainError with the failing witness when the group is not of this
    shape; the witness e of a non-free action is the p'-part of a
    generator of C_G(d) outside D, which is not the identity because
    every p-element lies in D.
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
    index = G.order // D.order
    for cls in G.conjugacy_data()[1:]:  # the identity's class comes first
        if cls.size != index and cls.rep in dset:
            d = cls.rep
            _, fixing_d = class_and_centralizer(G, d)
            g = next(g for g in fixing_d if g not in dset)
            e = g ** p_part(g.order(), p)
            raise DomainError(
                f"complement action is not free: {e.cycle_string()} "
                f"fixes {d.cycle_string()}"
            )
    return D


@dataclass(frozen=True)
class FusionObject:
    """One subgroup class representative P <= D with its induced data."""

    subgroup: PermGroup
    normalizer: PermGroup
    aut_f: PermGroup  # automorphisms of P induced by the normalizer, on labels
    # element set of L -> pi0 as labels of P, or None when L is not isomorphic to P
    _first_isomorphisms: dict = field(default_factory=dict, compare=False, repr=False)

    def first_isomorphism(self, L: PermGroup):
        """pi0: L -> P from find_group_isomorphism, as the labels in P of
        its images over the elements of L, or None; searched once per
        element set of L.  Iso(L, P) = Aut(P) . pi0 does not depend on
        which pi0 is found."""
        key = L.element_set()
        if key not in self._first_isomorphisms:
            self._first_isomorphisms[key] = find_group_isomorphism(L, self.subgroup)
        return self._first_isomorphisms[key]


@dataclass(frozen=True)
class FusionData:
    """Conjugation fusion on the subgroups of the normal Sylow subgroup."""

    group: PermGroup
    p: int
    kernel: PermGroup
    objects: tuple


def build_fusion(G: PermGroup, p: int) -> FusionData:
    """Fusion data for G = D . E, with D from frobenius_structure."""
    D = frobenius_structure(G, p)
    dset = D.element_set()
    objects = []
    for P in p_subgroup_classes(G, p):
        if not P.element_set() <= dset:
            raise InternalCheckError(
                f"fusion route, |P|={P.order}: p-subgroup class leaves the "
                f"normal Sylow of order {D.order}"
            )
        N = normalizer(G, P)
        induced = [Permutation(P.induced(g)) for g in N.generators]
        objects.append(FusionObject(P, N, PermGroup(P.order, induced)))
    return FusionData(group=G, p=p, kernel=D, objects=tuple(objects))


@dataclass
class TripleOrbit:
    """A double-coset orbit of admissible isomorphisms onto an object.

    The representative pi: L -> P is a label map, the tuple of the labels
    in P of the images of the elements of the class realization's L in
    label order, and the least tuple of its orbit; the stabilizer
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
    """The isomorphisms pi: L -> P, as label tuples, with pi . i_u . pi^-1
    induced by the normalizer; empty when L and P are not isomorphic."""
    L = cls.realization.subgroup
    pi0 = obj.first_isomorphism(L)
    if pi0 is None:
        return set()
    c_u = cls.realization.action.images
    induced = {a.images for a in obj.aut_f.elements()}
    automorphisms = cls.shared.automorphism_group(obj.subgroup, cls.name)
    admissible = set()
    images = [0] * len(pi0)
    for alpha in (a.images for a in automorphisms.elements()):
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
    The left orbits (blocks) partition the admissible set, and each block
    is named by its least tuple.  The actions commute, so C permutes the
    blocks: psi maps a block to the block of its name composed with psi.
    Each double coset is one C-orbit of blocks, walked by schreier_walk
    from the block of the least remaining tuple.  N fixes every block
    (c_u is admissible), so the stabilizer is <N, Schreier generators>,
    the preimage of the orbit's stabilizer in Out.  Its generators are
    products of generators of C, so it is closed without a membership
    test.
    """
    if cls.subgroup_order == 1:
        raise DomainError("triple orbits are defined for nontrivial subgroups only")
    C = cls.aut
    steps = [(psi, psi.inverse(), psi.images) for psi in C.generators]

    left_the_set = f"{_where(cls)}: orbit action left the admissible set"
    orbits = []
    for obj in F.objects:
        if obj.subgroup.order != cls.subgroup_order:
            continue
        admissible = admissible_isomorphisms(cls, obj)
        left = [a.images for a in obj.aut_f.generators]
        blocks = {}  # least tuple -> its block
        name_of = {}  # tuple -> the least tuple of its block
        for t in admissible:
            if t in name_of:
                continue
            block = orbit(t, lambda x: [tuple([a[j] for j in x]) for a in left])
            if not block <= admissible:
                raise InternalCheckError(left_the_set)
            name = min(block)
            blocks[name] = block
            name_of.update(dict.fromkeys(block, name))

        def right_action(psi, name):
            moved = name_of.get(tuple([name[i] for i in psi]))
            if moved is None:
                raise InternalCheckError(left_the_set)
            return moved

        remaining = set(blocks)
        while remaining:
            start = min(remaining)
            names, schreier = schreier_walk(start, steps, right_action, C.identity)
            remaining -= names
            orbits.append(
                TripleOrbit(
                    object=obj,
                    rep=start,
                    stabilizer=PermGroup(C.degree, cls.inner.generators + schreier),
                    orbit_size=sum(len(blocks[name]) for name in names),
                )
            )
    return orbits


def psi_pair(
    F: FusionData, cls: PairClass, orbit: TripleOrbit, w: Permutation
) -> NormalizerPair:
    """The pair (P, s) with s a p'-normalizer element inducing pi.i_u.pi^-1.
    w is the orbit's representative pi as the permutation of labels that
    verify_class has checked.

    The search runs over the whole normalizer in canonical order, with
    the element orders of its classes, and compares the label map
    P.induced(s) with that of pi.i_u.pi^-1; absence of such an element
    contradicts the verified bijection and is raised as an internal error.
    """
    obj = orbit.object
    P, N = obj.subgroup, obj.normalizer
    induced = (w.inverse() * cls.realization.action * w).images  # pi . i_u . pi^-1
    for s, order in zip(N.elements(), N.orders):
        if order % F.p and P.induced(s) == induced:
            return NormalizerPair(P, s, ambient=F.group, p=F.p)
    raise InternalCheckError(
        f"{_where(cls)}: no p'-element of the normalizer induces the "
        f"required action"
    )


def _pair_labels(G: PermGroup, pair: NormalizerPair) -> tuple:
    """(the label set of P, the label of s) in G, for a pair (P, s) of G."""
    return frozenset(map(G.position, pair.subgroup.elements())), G.position(pair.element)


def _pair_orbit(G: PermGroup, pair: NormalizerPair) -> set:
    """The G-conjugates of a pair (P, s) as _pair_labels, by one walk under
    the label permutations c_g of the generators of G."""
    moves = [c_g for _, _, c_g in G.conjugation]
    return orbit(
        _pair_labels(G, pair),
        lambda y: [(frozenset([c_g[x] for x in y[0]]), c_g[y[1]]) for c_g in moves],
    )


@dataclass(frozen=True)
class ClassCheck:
    """Outcome of the orbit matching for one class."""

    triple_orbits: int
    pair_orbits: int
    stabilizer_orders: tuple


def verify_class(F: FusionData, cls: PairClass, registry: PairClassRegistry) -> ClassCheck:
    """Check the orbit bijection and the stabilizer equality for one class.

    The induced map from triple orbits to pair orbits must be defined and
    injective; there are as many orbits as class members of this group,
    so it is then onto them.  A psi pair is matched with the member that
    lies in its G-orbit, walked once on labels (_pair_orbit).  For every matched orbit the image of
    N_G(P, s) in Out (computed with the orbit's pi, closed from its
    representative) must equal the triple stabilizer as a literal
    subgroup; both are carried by their preimages in C.
    Any failure raises InternalCheckError naming the class and the orbit.
    """
    members = registry.members_for(F.group, cls)
    member_labels = [_pair_labels(F.group, m.pair) for m in members]
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
        P = orbit.object.subgroup
        try:
            pi = homomorphism(L, P, [(g, orbit.rep[g]) for g in _generator_labels(L)])
        except InternalCheckError as exc:
            raise InternalCheckError(f"{where}, triple orbit {i}: {exc}") from exc
        if len(set(pi)) != P.order:
            raise InternalCheckError(
                f"{where}, triple orbit {i}: generator images do not define a "
                f"bijection onto P"
            )
        w = Permutation(pi)
        pair = psi_pair(F, cls, orbit, w)
        conjugates = _pair_orbit(F.group, pair)
        match = next((j for j, y in enumerate(member_labels) if y in conjugates), None)
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

        image = image_of_normalizer(cls, pair, w)
        if image.element_set() != orbit.stabilizer.element_set():
            raise InternalCheckError(
                f"{where}: stabilizer mismatch on triple orbit {i} "
                f"(|image| = {image.order}, |stabilizer| = {orbit.stabilizer.order})"
            )
        stab_orders.append(orbit.stabilizer.order // cls.inner.order)
    return ClassCheck(
        triple_orbits=len(orbits),
        pair_orbits=len(members),
        stabilizer_orders=tuple(stab_orders),
    )
