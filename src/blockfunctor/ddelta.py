"""Enumeration and classification of normalizer pairs.

A normalizer pair of a group G at a prime p is a p-subgroup P together
with a p'-element s of N_G(P).  Pairs are enumerated one representative
per conjugacy orbit, reduced to their faithful quotient (the action of
<s> on P with the centralizing part collapsed), and classified up to
pair isomorphism in a registry shared across groups, so that identical
class labels mean isomorphic faithful pairs on both sides of any later
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .autos import (
    ElementAction,
    MarkedPair,
    action_from_maps,
    find_pair_isomorphism,
    inner_automorphism_subgroup,
    pair_automorphism_maps,
)
from .chartab import CharacterTable, character_table
from .errors import DomainError, InternalCheckError
from .permgroup import (
    GroupHom,
    PermGroup,
    Subgroup,
    is_p_prime_element,
    normalizer,
    orbit,
    p_subgroup_classes,
    quotient_group,
)
from .permutation import Permutation, conjugate


@dataclass(frozen=True)
class NormalizerPair:
    """A p-subgroup with a p'-element of its normalizer."""

    ambient: PermGroup
    p: int
    subgroup: Subgroup
    element: Permutation

    def __post_init__(self):
        if self.element.order() % self.p == 0:
            raise DomainError("marked element order is divisible by p")
        pset = self.subgroup.element_set()
        for x in self.subgroup.generators:
            if conjugate(self.element, x) not in pset:
                raise DomainError("element does not normalize the subgroup")


def pair_orbit_reps(G: PermGroup, p: int):
    """One representative per conjugacy orbit of normalizer pairs.

    Subgroup classes are visited in canonical order; for each class
    representative P the s-components run over the N_G(P)-classes of
    p'-elements of N_G(P), ordered by (element order, images).
    """
    reps = []
    for P in p_subgroup_classes(G, p):
        N = normalizer(G, P)
        eligible = [s for s in N.elements() if is_p_prime_element(s, p)]
        eligible_set = set(eligible)
        seen = set()
        class_reps = []
        for s in eligible:  # ascending, so the first of each class is minimal
            if s in seen:
                continue
            conj_class = orbit(s, lambda y: [conjugate(g, y) for g in N.generators])
            if not conj_class <= eligible_set:
                raise InternalCheckError("conjugation left the p'-elements")
            seen |= conj_class
            class_reps.append(s)
        class_reps.sort(key=lambda s: (s.order(), s.images))
        reps.extend(NormalizerPair(G, p, P, s) for s in class_reps)
    return reps


@dataclass(frozen=True)
class FaithfulQuotient:
    """The pair (P, image of s) realized faithfully on the points of P.

    The carrier group is generated by the right translations of P and the
    conjugation action of s; its marked subgroup is the translation copy
    of P and its marked element the conjugation permutation.
    """

    marked: MarkedPair
    point_labels: tuple
    identity_point: int

    def decode(self, translation: Permutation) -> Permutation:
        """The element of P whose right translation is the given permutation."""
        return self.point_labels[translation.images[self.identity_point]]


def faithful_quotient(pair: NormalizerPair) -> FaithfulQuotient:
    P = pair.subgroup
    s = pair.element
    labels = P.elements()
    index = {x: i for i, x in enumerate(labels)}
    degree = len(labels)

    tau_gens = [
        Permutation(index[labels[i] * x] for i in range(degree))
        for x in P.generators
    ]
    # products compose left to right, so the label map y -> s^-1 y s is the
    # permutation that conjugates right translations by s:
    # sigma tau_x sigma^-1 = tau_(s x s^-1)
    s_inv = s.inverse()
    sigma = Permutation(index[conjugate(s_inv, labels[i])] for i in range(degree))

    carrier = PermGroup(degree, tau_gens + [sigma])
    translations = Subgroup(carrier, tau_gens)
    marked = MarkedPair(carrier, translations, sigma)

    # the cyclic part must act with trivial centralizer on the translations
    for j in range(1, sigma.order()):
        power = sigma ** j
        if all(power * t == t * power for t in tau_gens):
            raise InternalCheckError("faithful quotient has a central cyclic part")

    return FaithfulQuotient(
        marked=marked,
        point_labels=labels,
        identity_point=index[P.group.identity],
    )


@dataclass
class ClassMember:
    """A pair orbit assigned to a class, with its intertwining witness.

    The witness phi maps the class realization's marked subgroup onto the
    member's subgroup and satisfies phi(u l u^-1) = s phi(l) s^-1.
    """

    pair: NormalizerPair
    phi: GroupHom


class PairClass:
    """An isomorphism class of faithful pairs, shared across groups."""

    def __init__(self, class_id: int, quotient: FaithfulQuotient):
        self.class_id = class_id
        self.realization = quotient.marked
        self._founding_quotient = quotient
        self.members = []
        self.aut_action: Optional[ElementAction] = None
        self.inn: Optional[Subgroup] = None
        self.out_group: Optional[PermGroup] = None
        self.out_projection: Optional[GroupHom] = None
        self.out_table: Optional[CharacterTable] = None
        self._out_section = None

    @property
    def subgroup_order(self) -> int:
        return self.realization.subgroup.order

    @property
    def element_order(self) -> int:
        return self.realization.element.order()

    def ensure_aut(self):
        """Populate Aut, Out, the out character table and a coset section."""
        if self.aut_action is not None:
            return
        maps = pair_automorphism_maps(self.realization)
        action = action_from_maps(self.realization, maps)
        self.aut_action = action
        self.inn = inner_automorphism_subgroup(self.realization.group, action)
        self.out_group, self.out_projection = quotient_group(action.group, self.inn)
        self.out_table = character_table(self.out_group)
        section = {}
        projection = self.out_projection.mapping()
        for aut_elt in action.group.elements():
            image = projection[aut_elt]
            section.setdefault(image, aut_elt)
        self._out_section = section

    def out_section(self) -> dict:
        self.ensure_aut()
        return self._out_section

    def __repr__(self):
        return (
            f"PairClass(id={self.class_id}, |L|={self.subgroup_order}, "
            f"ord(u)={self.element_order}, members={len(self.members)})"
        )


def _founding_witness(cls: PairClass, pair: NormalizerPair) -> GroupHom:
    quotient = cls._founding_quotient
    source = cls.realization.subgroup.group
    pairs = [(tau, quotient.decode(tau)) for tau in source.generators]
    return GroupHom(source, pair.subgroup.group, pairs)


def _witness_from_isomorphism(
    cls: PairClass, quotient: FaithfulQuotient, iso: GroupHom, pair: NormalizerPair
) -> GroupHom:
    """Turn a pair isomorphism onto a member's quotient into a witness.

    The isomorphism sends the class element u to a conjugate of the
    member's sigma; composing with an inner automorphism makes the image
    exactly sigma, after which restricting to the translations and
    decoding gives phi: L -> P with phi(u l u^-1) = s phi(l) s^-1.
    """
    u = cls.realization.element
    sigma = quotient.marked.element
    image = iso(u)
    carrier = quotient.marked.group
    adjust = next(
        (h for h in carrier.elements() if conjugate(h, image) == sigma), None
    )
    if adjust is None:
        raise InternalCheckError("pair isomorphism image is not conjugate to sigma")
    source = cls.realization.subgroup.group
    pairs = [
        (tau, quotient.decode(conjugate(adjust, iso(tau))))
        for tau in source.generators
    ]
    return GroupHom(source, pair.subgroup.group, pairs)


def _verify_witness(cls: PairClass, member: ClassMember):
    """Check the intertwining relation on the class generators."""
    u = cls.realization.element
    s = member.pair.element
    phi = member.phi.mapping()
    for tau in cls.realization.subgroup.generators:
        left = phi.get(conjugate(u, tau))
        right = conjugate(s, phi[tau])
        if left is None or left != right:
            raise InternalCheckError(
                f"witness fails the intertwining relation on {tau.cycle_string()}"
            )
    if not member.phi.is_bijective():
        raise InternalCheckError("witness is not a bijection onto the subgroup")
    if set(member.phi.mapping().values()) != set(member.pair.subgroup.elements()):
        raise InternalCheckError("witness image is not the member subgroup")


class PairClassRegistry:
    """Classes of faithful pairs discovered so far, shared across groups.

    Classification happens in a deterministic enumeration order, so class
    identifiers and character labels are reproducible; once assigned they
    are never mutated, which keeps concurrent readers safe.
    """

    def __init__(self):
        self.classes = []
        self._by_group = {}
        self._group_refs = []  # keeps cached groups alive so ids stay unique

    def classify_group(self, G: PermGroup, p: int):
        """Classify every pair orbit of G; returns (class, member) pairs."""
        key = (id(G), p)
        if key not in self._by_group:
            assignments = []
            for pair in pair_orbit_reps(G, p):
                assignments.append(self._classify(pair))
            self._by_group[key] = assignments
            self._group_refs.append(G)
        return self._by_group[key]

    def _classify(self, pair: NormalizerPair):
        quotient = faithful_quotient(pair)
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
            member = ClassMember(pair, _witness_from_isomorphism(cls, quotient, iso, pair))
            _verify_witness(cls, member)
            cls.members.append(member)
            return cls, member
        cls = PairClass(len(self.classes), quotient)
        self.classes.append(cls)
        member = ClassMember(pair, _founding_witness(cls, pair))
        _verify_witness(cls, member)
        cls.members.append(member)
        return cls, member

    def trivial_class(self) -> Optional[PairClass]:
        for cls in self.classes:
            if cls.subgroup_order == 1:
                return cls
        return None

    def members_for(self, G: PermGroup, cls: PairClass):
        return [m for m in cls.members if m.pair.ambient is G]


def image_of_normalizer(
    cls: PairClass,
    ambient: PermGroup,
    subgroup: Subgroup,
    element: Permutation,
    witness: GroupHom,
) -> Subgroup:
    """The image of N_G(P, s) in Out(L, u) through a witness phi.

    Each generator g of N_G(P) /\\ C_G(s) induces the automorphism of the
    realization acting as phi^-1 . i_g . phi on the translations and
    fixing the marked element; the result is the subgroup of the out
    group generated by their images.
    """
    cls.ensure_aut()
    n_sub = normalizer(ambient, subgroup)
    stabilizing = [g for g in n_sub.elements() if g * element == element * g]
    n_ps = ambient.subgroup_from_elements(stabilizing)

    phi = witness.mapping()
    phi_inv = {v: k for k, v in phi.items()}
    realization = cls.realization.group
    u = cls.realization.element
    projection = cls.out_projection.mapping()

    out_generators = []
    for g in n_ps.generators:
        pairs = []
        for gen in realization.generators:
            if gen == u and not u.is_identity():
                pairs.append((gen, u))
            else:
                moved = phi_inv.get(conjugate(g, phi[gen]))
                if moved is None:
                    raise InternalCheckError(
                        "normalizer action leaves the witness image"
                    )
                pairs.append((gen, moved))
        alpha = GroupHom(realization, realization, pairs)
        perm = cls.aut_action.perm_from_map(alpha.mapping())
        if not cls.aut_action.group.contains(perm):
            raise InternalCheckError(
                "induced map is not a pair automorphism (intertwining violation)"
            )
        out_generators.append(projection[perm])
    return cls.out_group.subgroup(out_generators)
