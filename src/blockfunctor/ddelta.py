"""Enumeration and classification of normalizer pairs.

A normalizer pair of a group G at a prime p is a p-subgroup P together
with a p'-element s of N_G(P).  Pairs are enumerated one representative
per conjugacy orbit, reduced to their faithful quotient (the action of
<s> on P with the centralizing part collapsed), and classified up to
pair isomorphism in a registry shared across groups, so that identical
class labels mean isomorphic faithful pairs on both sides of any later
comparison.

A faithful pair is a group L with an element u acting faithfully on it,
and (L, u) is isomorphic to (L', u') when some isomorphism f: L -> L'
satisfies f(u l u^-1) = u' f(l) u'^-1; autos.find_pair_isomorphism
searches for f on L alone.  Each class carries an isomorphism-invariant
key, computed once when the class is created: |L|, the order of u, and
the sorted multiset over l in L of (ord l, k(l)), where k(l) is the
least k >= 0 with u l u^-1 = l^k, or -1 when there is none.  A pair
isomorphism f preserves both numbers, so isomorphic pairs have equal
keys, and a new pair is tested for isomorphism only against the classes
with its key.  The witness of a member is f followed by decoding the
translations of its quotient into its own subgroup P: the right
translation by x sends the identity, label 0 of P, to the label of x.

Out(L, u) is never built as a group.  A class holds C = C_Aut(L)(c_u)
acting on the labels of L (PermGroup.label_perm) and its normal
subgroup N = <c_u, c_x : x in C_L(u)>, with Out(L, u) = C / N.  A
subgroup of Out is carried by its preimage in C, which contains N, and
the irreducibles of Out are the characters of C with N in their kernel.
C, from strong generators found by a search on L alone, and N are built
on first read; the character table of C is built only when a
multiplicity or a report first reads it, so commands that need only
subgroups of Out, such as verify-psi, build no table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

from .autos import (
    MarkedPair,
    find_pair_isomorphism,
    pair_automorphism_maps,
)
from .chartab import CharacterTable, character_table, fixed_point_dim
from .errors import DomainError, InternalCheckError, SizeBoundError
from .permgroup import (
    PermGroup,
    class_and_centralizer,
    homomorphism,
    normalizer,
    orbit,
    p_subgroup_classes,
    small_generating_set,
)
from .permutation import Permutation, conjugate, conjugate_with


def pair_class_key(marked: MarkedPair) -> tuple:
    """The isomorphism invariant of a faithful pair (L, u) described in
    the module docstring."""
    u = marked.element
    identity = marked.subgroup.identity
    profile = []
    for x in marked.subgroup.elements():
        image = conjugate(u, x)
        order = x.order()
        k, power = 0, identity
        while k < order and power != image:
            power = power * x
            k += 1
        profile.append((order, k if k < order else -1))
    return (marked.subgroup.order, u.order(), tuple(sorted(profile)))


@dataclass(frozen=True)
class NormalizerPair:
    """A p-subgroup P with a p'-element s of its normalizer, and generators
    of C_{N_G(P)}(s): the Schreier generators of the walk over the
    N_G(P)-class of s (permgroup.class_and_centralizer)."""

    ambient: PermGroup
    p: int
    subgroup: PermGroup
    element: Permutation
    centralizer_gens: tuple

    def __post_init__(self):
        if self.element.order() % self.p == 0:
            raise DomainError("marked element order is divisible by p")
        pset = self.subgroup.element_set()
        for x in self.subgroup.generators:
            if conjugate(self.element, x) not in pset:
                raise DomainError("element does not normalize the subgroup")


def pair_orbit_reps(G: PermGroup, p: int):
    """One representative per conjugacy orbit of normalizer pairs.

    The p-subgroup classes are visited in canonical order; for each class
    representative P the s-components run over the N_G(P)-classes of
    p'-elements of N_G(P), ordered by (element order, images).
    """
    reps = []
    for P in p_subgroup_classes(G, p):
        N = normalizer(G, P)
        eligible = [s for s in N.elements() if s.order() % p]
        eligible_set = set(eligible)
        seen = set()
        class_reps = []
        for s in eligible:  # ascending, so the first of each class is minimal
            if s in seen:
                continue
            conj_class, fixing_s = class_and_centralizer(N.generators, s)
            if not conj_class <= eligible_set:
                raise InternalCheckError(
                    f"pair orbits, p={p}, |P|={P.order}: conjugation in "
                    f"N_G(P) left the p'-elements"
                )
            seen |= conj_class
            class_reps.append((s, fixing_s))
        class_reps.sort(key=lambda rep: (rep[0].order(), rep[0].images))
        reps.extend(NormalizerPair(G, p, P, s, fixing_s) for s, fixing_s in class_reps)
    return reps


def faithful_quotient(pair: NormalizerPair) -> MarkedPair:
    """The pair (P, image of s) realized faithfully on the labels of P.

    The marked subgroup L is the group of right translations of P on its
    labels and the marked element u is the conjugation action of s on
    them, so u acts on L as s acts on P, and faithfully.
    """
    P = pair.subgroup
    tau_gens = [P.label_perm(lambda y: y * x) for x in P.generators]
    # products compose left to right, so the label map y -> s^-1 y s is the
    # permutation that conjugates right translations by s:
    # sigma tau_x sigma^-1 = tau_(s x s^-1)
    sigma = P.label_perm(partial(conjugate, pair.element.inverse()))
    _check_fixes_identity(pair, sigma)
    return MarkedPair(PermGroup(P.order, tau_gens), sigma)


def _check_fixes_identity(pair: NormalizerPair, sigma: Permutation):
    """Check that <sigma> acts faithfully on the right translations.

    A label map pi commuting with every right translation y -> y x has
    pi(x) = pi(1) x, so it is the left translation by pi(1).  A power of
    sigma that centralizes the translations is therefore trivial when
    sigma fixes the identity label 0.
    """
    moved = sigma.images[0]
    if moved != 0:
        raise InternalCheckError(
            f"faithful quotient, |P|={pair.subgroup.order}, "
            f"ord s={pair.element.order()}: sigma moves the identity label "
            f"to {pair.subgroup.elements()[moved].cycle_string()}, so a power "
            f"of sigma may centralize the translations"
        )


@dataclass
class ClassMember:
    """A pair orbit assigned to a class, with its intertwining witness.

    The witness phi is the element map of an isomorphism from the class
    realization's marked subgroup onto the member's subgroup, and it
    satisfies phi(u l u^-1) = s phi(l) s^-1.
    """

    pair: NormalizerPair
    phi: dict


class PairClass:
    """An isomorphism class of faithful pairs, shared across groups."""

    def __init__(self, class_id: int, realization: MarkedPair, key: tuple):
        self.class_id = class_id
        self.realization = realization
        self.key = key
        self.members = []

    @property
    def subgroup_order(self) -> int:
        return self.realization.subgroup.order

    @property
    def element_order(self) -> int:
        return self.realization.element.order()

    @property
    def name(self) -> str:
        """The class as error messages name it."""
        return f"pair class (|L|={self.subgroup_order}, ord u={self.element_order})"

    @property
    def out_order(self) -> int:
        return self.aut.order // self.inner.order

    @cached_property
    def aut(self) -> PermGroup:
        """C = C_Aut(L)(c_u) on the labels of L, closed on first read from
        the strong generators of pair_automorphism_maps."""
        L = self.realization.subgroup
        gens = [L.label_perm(m.__getitem__) for m in pair_automorphism_maps(self.realization)]
        aut = PermGroup(L.order, gens)
        # strong generators along the base l1..lk exactly when the closed
        # order is the product of their basic orbit lengths
        base = [L.position(x) for x in L.generators]
        expected = 1
        for i, point in enumerate(base):
            level = [g.images for g in gens if all(g.images[y] == y for y in base[:i])]
            expected *= len(orbit(point, lambda y: [a[y] for a in level]))
        if aut.order != expected:
            raise InternalCheckError(
                f"Out(L, u), {self.name}: C_Aut(L)(c_u) closed from its "
                f"generators has order {aut.order}, not the basic orbit "
                f"product {expected}"
            )
        return aut

    @cached_property
    def inner(self) -> PermGroup:
        """N = <c_u, c_x : x in C_L(u)> on the labels of L, the kernel of
        C -> Out, checked to lie in C on first read."""
        aut = self.aut
        L = self.realization.subgroup
        u = self.realization.element
        fixing_u = [x for x in L.elements() if x * u == u * x]
        inner = [
            L.label_perm(partial(conjugate, g))
            for g in (u,) + small_generating_set(u.degree, fixing_u)
        ]
        if not all(aut.contains(c) for c in inner):
            raise InternalCheckError(
                f"Out(L, u), {self.name}: an inner automorphism fixing u is "
                f"not in C_Aut(L)(c_u) of order {aut.order}"
            )
        return PermGroup(L.order, inner)

    @cached_property
    def aut_table(self) -> CharacterTable:
        """The character table of C, built on first read."""
        try:
            return character_table(self.aut)
        except (SizeBoundError, InternalCheckError) as exc:
            raise type(exc)(f"Out(L, u), {self.name}: {exc}") from exc

    @cached_property
    def out_rows(self) -> tuple:
        """The rows of aut_table inflated from Out: those equal to their
        degree on every class meeting N, in table order."""
        table = self.aut_table
        kernel = {self.aut.class_index_of(n) for n in self.inner.elements()}
        return tuple(
            r for r, d in enumerate(table.degrees)
            if all(table.values[r][j] == d for j in kernel)
        )

    def out_dims(self, H: PermGroup) -> list:
        """The fixed-point dimension of each irreducible of Out on the
        image of H, for H <= C containing N: the average of the inflated
        character over H."""
        if not self.inner.element_set() <= H.element_set():
            raise InternalCheckError(
                f"Out(L, u), {self.name}: a preimage in C of order {H.order} "
                f"does not contain N of order {self.inner.order}"
            )
        return [fixed_point_dim(self.aut_table, r, H) for r in self.out_rows]

    def __repr__(self):
        return (
            f"PairClass(id={self.class_id}, |L|={self.subgroup_order}, "
            f"ord(u)={self.element_order}, members={len(self.members)})"
        )


def _witness(cls: PairClass, pair: NormalizerPair, iso=None) -> dict:
    """The witness phi: L -> P of a member: decode . f, closed from the
    generators of L.

    f: L -> L' is a pair isomorphism onto the member's quotient, given as
    its element map, with f(u l u^-1) = sigma f(l) sigma^-1, or the
    identity when the member founds the class.  A translation t of L'
    decodes to the element of P at label t(0).  Decoding carries
    sigma tau_x sigma^-1 = tau_(s x s^-1) to s x s^-1, so
    phi(u l u^-1) = s phi(l) s^-1.
    """
    source = cls.realization.subgroup
    labels = pair.subgroup.elements()
    pairs = [
        (tau, labels[(tau if iso is None else iso[tau]).images[0]])
        for tau in source.generators
    ]
    try:
        return homomorphism(source, pair.subgroup, pairs)
    except InternalCheckError as exc:
        raise InternalCheckError(f"classification, {cls.name}: {exc}") from exc


def _verify_witness(cls: PairClass, member: ClassMember):
    """Check the intertwining relation on the class generators."""
    u = cls.realization.element
    s = member.pair.element
    phi = member.phi
    for tau in cls.realization.subgroup.generators:
        left = phi.get(conjugate(u, tau))
        right = conjugate(s, phi[tau])
        if left is None or left != right:
            raise InternalCheckError(
                f"classification, {cls.name}: witness fails the intertwining "
                f"relation on {tau.cycle_string()}"
            )
    image = set(phi.values())
    if not len(image) == len(phi) == member.pair.subgroup.order:
        raise InternalCheckError(
            f"classification, {cls.name}: witness is not a bijection onto the "
            f"subgroup of order {member.pair.subgroup.order}"
        )
    if image != member.pair.subgroup.element_set():
        raise InternalCheckError(
            f"classification, {cls.name}: witness image is not the member "
            f"subgroup of order {member.pair.subgroup.order}"
        )


class PairClassRegistry:
    """Classes of faithful pairs discovered so far, shared across groups.

    Classification happens in a deterministic enumeration order, so class
    identifiers and character labels are reproducible.  A class keeps its
    identifier, realization and key once assigned, but it is not frozen:
    its members grow as later pairs join it, and C, N and the table of C
    are built when first read.  The registry has no locking, so it must
    not be shared between threads.
    """

    def __init__(self):
        self.classes = []
        self._by_key = {}  # class key -> classes with it, in creation order
        self._by_group = {}  # (G, p) -> assignments; a PermGroup hashes by identity

    def classify_group(self, G: PermGroup, p: int):
        """Classify every pair orbit of G; returns (class, member) pairs."""
        key = (G, p)
        if key not in self._by_group:
            self._by_group[key] = [self._classify(pair) for pair in pair_orbit_reps(G, p)]
        return self._by_group[key]

    def _classify(self, pair: NormalizerPair):
        marked = faithful_quotient(pair)
        key = pair_class_key(marked)
        same_key = self._by_key.setdefault(key, [])
        for cls in same_key:
            iso = find_pair_isomorphism(cls.realization, marked)
            if iso is not None:
                break
        else:
            iso = None
            cls = PairClass(len(self.classes), marked, key)
            self.classes.append(cls)
            same_key.append(cls)
        member = ClassMember(pair, _witness(cls, pair, iso))
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
    cls: PairClass, pair: NormalizerPair, witness: dict
) -> PermGroup:
    """The preimage in C of the image of N_G(P, s) in Out(L, u), through
    a witness phi: L -> P given as its element map.

    N_G(P, s) = C_{N_G(P)}(s) is generated by pair.centralizer_gens.  Each
    such g induces phi^-1 . c_g . phi on L, which must lie in C; the
    result is the subgroup of C generated by these and N.  On labels,
    phi is the permutation w sending the label of l in L to the label of
    phi(l) in P, and the induced map is w . a_g . w^-1, where a_g is the
    label permutation of c_g on P.  Generators with the same action on
    the generators of P induce the same map, so each action is checked
    and closed once.  The result is closed without a second membership
    test: each induced map has just passed C.contains, and N <= C was
    checked when N was built.
    """
    P = pair.subgroup
    actions = {}  # the conjugates of the generators of P -> (g, g^-1)
    for g in pair.centralizer_gens:
        g_inv = g.inverse()
        key = tuple([conjugate_with(g, g_inv, x) for x in P.generators])
        actions.setdefault(key, (g, g_inv))
    try:
        w = Permutation([P.position(witness[x]) for x in cls.realization.subgroup.elements()])
    except (KeyError, ValueError):
        raise InternalCheckError(
            f"normalizer image, {cls.name}: witness image is not the member "
            f"subgroup of order {P.order}"
        ) from None
    w_inv = w.inverse()
    induced = []
    for g, g_inv in actions.values():
        try:
            a_g = P.label_perm(partial(conjugate_with, g, g_inv))
        except KeyError:
            raise InternalCheckError(
                f"normalizer image, {cls.name}: the action of "
                f"{g.cycle_string()} leaves the witness image"
            ) from None
        perm = w * a_g * w_inv
        if not cls.aut.contains(perm):
            raise InternalCheckError(
                f"normalizer image, {cls.name}: the map induced by "
                f"{g.cycle_string()} is not in C_Aut(L)(c_u) of order "
                f"{cls.aut.order} (intertwining violation)"
            )
        induced.append(perm)
    return PermGroup(cls.aut.degree, induced + list(cls.inner.generators))
