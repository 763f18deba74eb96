"""Enumeration and classification of normalizer pairs.

A normalizer pair of a group G at a prime p is a p-subgroup P together
with a p'-element s of N_G(P).  Pairs are enumerated one representative
per conjugacy orbit, reduced to their faithful quotient (the action of
<s> on P with the centralizing part collapsed), and classified up to
pair isomorphism in a registry shared across groups, so that identical
class labels mean isomorphic faithful pairs on both sides of any later
comparison.

Each class carries an isomorphism-invariant key, computed once when the
class is created: |L|, the order of u, the order of the carrier L<u>,
and the sorted multiset over l in L of (ord l, k(l)), where k(l) is the
least k >= 0 with u l u^-1 = l^k, or -1 when there is none.  A pair
isomorphism f sends u to a conjugate g t g^-1 of the target's element,
and l -> g^-1 f(l) g carries L onto the target's subgroup preserving
both numbers, so isomorphic pairs have equal keys.  A new pair is
therefore tested for isomorphism only against the classes with its key.

Out(L, u) is never built as a group.  A class holds C = C_Aut(L)(c_u)
acting on the labels of L and its normal subgroup N = <c_u, c_x : x in
C_L(u)>, with Out(L, u) = C / N.  A subgroup of Out is carried by its
preimage in C, which contains N, and the irreducibles of Out are the
characters of C with N in their kernel.  ensure_aut builds C, from
strong generators found by a search on L alone, and N; the character
table of C is built only when a multiplicity or a report first reads
it, so commands that need only subgroups of Out, such as verify-psi,
build no table.
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
    GroupHom,
    PermGroup,
    Subgroup,
    centralizer,
    is_p_prime_element,
    normalizer,
    orbit,
    p_subgroup_classes,
    small_generating_set,
)
from .permutation import Permutation, conjugate


def pair_class_key(marked: MarkedPair) -> tuple:
    """The isomorphism invariant of a faithful pair (L, u) described in
    the module docstring."""
    u = marked.element
    identity = marked.group.identity
    profile = []
    for x in marked.subgroup.elements():
        image = conjugate(u, x)
        order = x.order()
        k, power = 0, identity
        while k < order and power != image:
            power = power * x
            k += 1
        profile.append((order, k if k < order else -1))
    return (
        marked.subgroup.order,
        u.order(),
        marked.group.order,
        tuple(sorted(profile)),
    )


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

    def __init__(self, class_id: int, quotient: FaithfulQuotient, key: tuple):
        self.class_id = class_id
        self.realization = quotient.marked
        self.key = key
        self._founding_quotient = quotient
        self.members = []
        labels = quotient.marked.subgroup.elements()
        self.labels = labels  # the elements of L, sorted
        self.label_index = {x: i for i, x in enumerate(labels)}
        self.aut: Optional[PermGroup] = None  # C = C_Aut(L)(c_u) on the labels
        self.inner: Optional[Subgroup] = None  # N, the kernel of C -> Out

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

    def label_perm(self, automorphism) -> Permutation:
        """The permutation of the labels of L made by a map on L."""
        return Permutation(self.label_index[automorphism(x)] for x in self.labels)

    def ensure_aut(self):
        """Populate C and N; the characters of Out = C / N are built only
        when first read, by aut_table and out_rows."""
        if self.aut is not None:
            return
        gens = [self.label_perm(m.__getitem__) for m in pair_automorphism_maps(self.realization)]
        aut = PermGroup(len(self.labels), gens)
        # strong generators along the base l1..lk exactly when the closed
        # order is the product of their basic orbit lengths
        base = [self.label_index[x] for x in self.realization.subgroup.generators]
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
        u = self.realization.element
        fixing_u = [x for x in self.labels if x * u == u * x]
        inner = [
            self.label_perm(partial(conjugate, g))
            for g in (u,) + small_generating_set(u.degree, fixing_u)
        ]
        if not all(aut.contains(c) for c in inner):
            raise InternalCheckError(
                f"Out(L, u), {self.name}: an inner automorphism fixing u is "
                f"not in C_Aut(L)(c_u) of order {aut.order}"
            )
        self.inner = aut.subgroup(inner)
        self.aut = aut

    @cached_property
    def aut_table(self) -> CharacterTable:
        """The character table of C, built on first read."""
        self.ensure_aut()
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

    def out_dims(self, H: Subgroup) -> list:
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
    identifiers and character labels are reproducible.  A class keeps its
    identifier, realization and key once assigned, but it is not frozen:
    its members grow as later pairs join it, ensure_aut fills in C and N
    on first use, and the table of C is built when first read.  The
    registry has no locking, so it must not be shared between threads.
    """

    def __init__(self):
        self.classes = []
        self._by_key = {}  # class key -> classes with it, in creation order
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
        key = pair_class_key(marked)
        same_key = self._by_key.setdefault(key, [])
        for cls in same_key:
            iso = find_pair_isomorphism(cls.realization, marked)
            if iso is None:
                continue
            member = ClassMember(pair, _witness_from_isomorphism(cls, quotient, iso, pair))
            _verify_witness(cls, member)
            cls.members.append(member)
            return cls, member
        cls = PairClass(len(self.classes), quotient, key)
        self.classes.append(cls)
        same_key.append(cls)
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
    """The preimage in C of the image of N_G(P, s) in Out(L, u), through
    a witness phi.

    Each generator g of N_G(P) /\\ C_G(s) induces phi^-1 . c_g . phi on
    L, which must lie in C; the result is the subgroup of C generated by
    these and N.
    """
    cls.ensure_aut()
    n_ps = centralizer(normalizer(ambient, subgroup).group, element)

    phi = witness.mapping()
    phi_inv = {v: k for k, v in phi.items()}
    induced = []
    for g in n_ps.generators:
        moved = [phi_inv.get(conjugate(g, phi[x])) for x in cls.labels]
        if None in moved:
            raise InternalCheckError("normalizer action leaves the witness image")
        perm = Permutation(cls.label_index[y] for y in moved)
        if not cls.aut.contains(perm):
            raise InternalCheckError(
                "induced map is not a pair automorphism (intertwining violation)"
            )
        induced.append(perm)
    return cls.aut.subgroup(induced + list(cls.inner.generators))
