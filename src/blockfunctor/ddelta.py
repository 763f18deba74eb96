"""Enumeration and classification of normalizer pairs.

A normalizer pair of a group G at a prime p is a p-subgroup P together
with a p'-element s of N_G(P).  Pairs are enumerated one representative
per conjugacy orbit and classified up to pair isomorphism in a registry
shared across groups, so that identical class labels mean isomorphic
pairs on both sides of any later comparison.

A pair is classified on P itself by the action c_s of s on P: only c_s
enters the triple (L, u, V), so s may centralize P without being 1, and
the order of u is the order of that action (MarkedPair.action_order).
(L, u) is isomorphic to (L', u') when some isomorphism f: L -> L'
satisfies f(u l u^-1) = u' f(l) u'^-1; autos.find_pair_isomorphism
searches for f on L alone.  A NormalizerPair is a MarkedPair, and a
class is realized on the pair (P, s) that founds it.  Each class
carries an isomorphism-invariant key, computed once when the class is
created: |L|, the order of c_u, and the sorted multiset over l in L of
(ord l, k(l)), where k(l) is the least k >= 0 with u l u^-1 = l^k, or
-1 when there is none.  A pair isomorphism f preserves both numbers, so
isomorphic pairs have equal keys, and a new pair is tested for
isomorphism only against the classes with its key.  The witness of a
member is f as the search returns it, a label map: the permutation
sending the label of l in L to the label of f(l) in the member's P.
The founding member's witness is the identity.

Out(L, u) is never built as a group.  A class holds C = C_Aut(L)(c_u)
acting on the labels of L (PermGroup.induced gives c_u) and its normal
subgroup N = <c_u, c_x : x in C_L(u)>, with Out(L, u) = C / N.  A
subgroup of Out is carried by its preimage in C, which contains N, and
the irreducibles of Out are the characters of C with N in their kernel.
C and N are built on first read.  C is the stabilizer of c_u under
conjugation in Aut(L), closed from the Schreier generators of one walk
over the Aut(L)-class of c_u and checked by orbit-stabilizer; Aut(L)
comes from one search on L (autos.pair_automorphism_maps).  Many
classes share one L and many share one C, so the classes of a registry
share Aut(L) once per product table of L on its labels and the character
table of C once per element set of C (SharedGroups); Aut(L) on labels
depends only on the product table, and a character table only on the
element set.  The table of C is built only when a row of a
multiplicity table or a report first reads it, so commands that need
only subgroups of Out or permutation characters, such as verify-psi
and a compare with a stable verdict, build no table.

N is read from labels too: C_L(u) is the set of labels that c_u fixes,
and each c_x is L.induced(x).  A subgroup H of C that contains N enters
a multiplicity table as its class count in C (PairClass.class_count),
from which the class reads its permutation character without a table,
and out_dims the fixed-point dimensions with one.

The pair orbits read the classes of N_G(P) and their element orders
from N_G(P) itself, one Permutation.order per class, and walk no class.
The generators of N_G(P, s) = C_{N_G(P)}(s) come from a walk over the
N_G(P)-class of s on the labels of N_G(P), made only when the image of
N_G(P, s) in Out first reads them (NormalizerPair.centralizer_gens):
never for P = 1, whose image is N, so commands that build no image,
such as pairs, walk no class.  The image reads each induced
automorphism a_g of P as P.induced(g).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .autos import (
    MarkedPair,
    find_pair_isomorphism,
    generator_labels,
    pair_automorphism_maps,
)
from .chartab import CharacterTable, character_table, class_counts, fixed_point_dim
from .errors import DomainError, InternalCheckError, SizeBoundError
from .permgroup import (
    PermGroup,
    class_and_centralizer,
    element_class_and_centralizer,
    normalizer,
    orbit,
    p_subgroup_classes,
)
from .permutation import Permutation


def pair_class_key(marked: MarkedPair) -> tuple:
    """The isomorphism invariant of a pair (L, u) described in the module
    docstring, with the orders and the powers of each label read from the
    tables of L."""
    L = marked.subgroup
    rows, orders = L.table, L.orders
    profile = []
    for x, image in enumerate(marked.action.images):
        order = orders[x]
        k, power = 0, 0  # power is the label of x^k
        while k < order and power != image:
            power = rows[power][x]
            k += 1
        profile.append((order, k if k < order else -1))
    return (L.order, marked.action_order, tuple(sorted(profile)))


@dataclass(frozen=True)
class NormalizerPair(MarkedPair):
    """The marked pair (P, s) of a p-subgroup P of ``ambient`` and a
    p'-element s of its normalizer.  MarkedPair checks that s normalizes
    P."""

    ambient: PermGroup
    p: int

    def __post_init__(self):
        if self.element.order() % self.p == 0:
            raise DomainError("marked element order is divisible by p")
        super().__post_init__()

    @cached_property
    def centralizer_gens(self) -> tuple:
        """Generators of N_G(P, s) = C_{N_G(P)}(s): the Schreier generators
        of the walk over the N_G(P)-class of s (class_and_centralizer),
        made on first read.  The walk must find the class of s in
        N_G(P).conjugacy_data()."""
        N = normalizer(self.ambient, self.subgroup)
        conj_class, fixing_s = class_and_centralizer(N, self.element)
        expected = N.conjugacy_data()[N.class_index_of(self.element)].labels
        if conj_class != set(expected):
            raise InternalCheckError(
                f"normalizer pair, p={self.p}, |P|={self.subgroup.order}, "
                f"s={self.element.cycle_string()}: the walk over the N_G(P)-class "
                f"of s found {len(conj_class)} conjugates, not its class of "
                f"{len(expected)}"
            )
        return fixing_s


def pair_orbit_reps(G: PermGroup, p: int):
    """One representative per conjugacy orbit of normalizer pairs.

    The p-subgroup classes are visited in canonical order; for each class
    representative P the s-components run over the N_G(P)-classes of
    p'-elements of N_G(P), each given by its minimal element and ordered
    by (element order, images).  The classes and their orders come from
    N_G(P) (PermGroup.conjugacy_data and orders), so one element order is
    computed per class, and no class is walked.
    """
    reps = []
    for P in p_subgroup_classes(G, p):
        N = normalizer(G, P)
        orders = N.orders
        class_reps = [
            (orders[cls.labels[0]], cls.rep.images, cls.rep)
            for cls in N.conjugacy_data() if orders[cls.labels[0]] % p
        ]
        reps.extend(NormalizerPair(P, s, ambient=G, p=p) for *_, s in sorted(class_reps))
    return reps


class SharedGroups:
    """Aut(L) once per table of L and the character table of C once per
    element set of C, for the classes of one registry.

    It holds no class, so the classes that share it form no reference
    cycle with it and are freed as soon as the registry is.
    """

    def __init__(self):
        self._automorphisms = {}  # table of L -> Aut(L) on its labels
        self._tables = {}  # element set of C -> its character table

    def automorphism_group(self, L: PermGroup, name: str) -> PermGroup:
        """Aut(L) on the labels of L, closed once per table of L from the
        strong generators that pair_automorphism_maps returns on those
        labels.  The automorphisms of L on its labels are the label
        permutations that preserve its table, so groups with one table
        share one Aut(L), whatever their elements.  ``name`` is the class
        that reads it first, for the error message.

        The generators are strong along the base l1..lk exactly when the
        closed order is the product of their basic orbit lengths.
        """
        aut = self._automorphisms.get(L.table)
        if aut is not None:
            return aut
        gens = pair_automorphism_maps(L)
        aut = PermGroup(L.order, gens)
        base = generator_labels(L)
        expected = 1
        for i, point in enumerate(base):
            level = [g.images for g in gens if all(g.images[y] == y for y in base[:i])]
            expected *= len(orbit(point, lambda y: [a[y] for a in level]))
        if aut.order != expected:
            raise InternalCheckError(
                f"Out(L, u), {name}: C_Aut(L)(c_u) closed from its "
                f"generators has order {aut.order}, not the basic orbit "
                f"product {expected}"
            )
        self._automorphisms[L.table] = aut
        return aut

    def character_table_of(self, C: PermGroup) -> CharacterTable:
        """The character table of C, built once per element set of C."""
        table = self._tables.get(C.element_set())
        if table is None:
            table = self._tables[C.element_set()] = character_table(C)
        return table


@dataclass
class ClassMember:
    """A pair orbit assigned to a class, with its intertwining witness.

    The witness of an isomorphism phi: L -> P from the class
    realization's subgroup onto the member's, with phi(u l u^-1) =
    s phi(l) s^-1, is the permutation w sending the label of l in L to
    the label of phi(l) in P; on labels the relation reads
    c_u * w == w * c_s.
    """

    pair: NormalizerPair
    witness: Permutation


class PairClass:
    """An isomorphism class of pairs, shared across groups.

    Aut(L) and the character table of C come from ``shared``, which the
    classes of one registry share.
    """

    def __init__(self, class_id: int, realization: MarkedPair, key: tuple, shared: SharedGroups):
        self.class_id = class_id
        self.realization = realization
        self.key = key
        self.members = []
        self.shared = shared

    @property
    def subgroup_order(self) -> int:
        return self.realization.subgroup.order

    @property
    def element_order(self) -> int:
        """The order of u on L, which reports print as u_order."""
        return self.realization.action_order

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
        the Schreier generators of the walk over the Aut(L)-class of c_u.

        The walk must start inside Aut(L), and |C| times the length of
        the class must be |Aut(L)|; a Schreier generator left out breaks
        the second check.  It runs on the elements of Aut(L), not on its
        labels: a label walk needs every element of Aut(L) conjugated by
        every generator (PermGroup.conjugation), while the element walk
        conjugates only the class of c_u, which can be far smaller (GL(3,3)
        of order 11232 for L = C3^3), and nothing else needs the classes
        of Aut(L).
        """
        L = self.realization.subgroup
        aut_l = self.shared.automorphism_group(L, self.name)
        c_u = self.realization.action
        if not aut_l.contains(c_u):
            raise InternalCheckError(
                f"Out(L, u), {self.name}: c_u is not in Aut(L) of order {aut_l.order}"
            )
        conj_class, fixing = element_class_and_centralizer(aut_l.generators, c_u)
        # a central c_u, such as u = 1, has the generators of Aut(L) for its
        # Schreier generators, which would only close Aut(L) again
        aut = aut_l if len(conj_class) == 1 else PermGroup(L.order, fixing)
        if aut.order * len(conj_class) != aut_l.order:
            raise InternalCheckError(
                f"Out(L, u), {self.name}: C_Aut(L)(c_u) closed from its "
                f"Schreier generators has order {aut.order}, but c_u has "
                f"{len(conj_class)} conjugates in Aut(L) of order {aut_l.order}"
            )
        return aut

    @cached_property
    def inner(self) -> PermGroup:
        """N = <c_u, c_x : x in C_L(u)> on the labels of L, the kernel of
        C -> Out, checked to lie in C on first read.  C_L(u) is the set of
        labels that c_u fixes, and c_x = L.induced(x)."""
        aut = self.aut
        L = self.realization.subgroup
        c_u = self.realization.action
        elements = L.elements()
        maps = {}
        for x, image in enumerate(c_u.images):
            if image == x:
                maps[L.induced(elements[x])] = None
        inner = [c_u] + [Permutation(c_x) for c_x in maps]
        if not all(aut.contains(c) for c in inner):
            raise InternalCheckError(
                f"Out(L, u), {self.name}: an inner automorphism fixing u is "
                f"not in C_Aut(L)(c_u) of order {aut.order}"
            )
        return PermGroup(L.order, inner)

    @cached_property
    def aut_table(self) -> CharacterTable:
        """The character table of C, from ``shared`` on first read; its
        group has the element set of C."""
        try:
            return self.shared.character_table_of(self.aut)
        except (SizeBoundError, InternalCheckError) as exc:
            raise type(exc)(f"Out(L, u), {self.name}: {exc}") from exc

    @cached_property
    def out_rows(self) -> tuple:
        """The rows of aut_table inflated from Out: those equal to their
        degree on every class meeting N, in table order."""
        table = self.aut_table
        kernel = {table.group.class_index_of(n) for n in self.inner.elements()}
        return tuple(
            r for r, d in enumerate(table.degrees)
            if all(table.values[r][j] == d for j in kernel)
        )

    def class_count(self, H: PermGroup) -> tuple:
        """How many elements of H lie in each class of C, for H <= C
        containing N; permutation_character and out_dims read it."""
        if not self.inner.element_set() <= H.element_set():
            raise InternalCheckError(
                f"Out(L, u), {self.name}: a preimage in C of order {H.order} "
                f"does not contain N of order {self.inner.order}"
            )
        return class_counts(self.aut, H)

    def permutation_character(self, counts) -> tuple:
        """pi = sum over H of 1_H induced to C, on the classes of C, from
        the class count of each H: 1_H induced takes the value
        |C| |c^C & H| / (|H| |c^C|) at c.  Its inner product with an
        irreducible of Out is the sum over H of out_dims, by Frobenius
        reciprocity, so pi determines those sums and needs no table."""
        C = self.aut
        sizes = [cls.size for cls in C.conjugacy_data()]
        pi = [0] * len(sizes)
        for count in counts:
            order = sum(count)
            for j, n in enumerate(count):
                pi[j] += C.order * n // (order * sizes[j])
        return tuple(pi)

    def out_dims(self, counts: tuple) -> list:
        """The fixed-point dimension of each irreducible of Out on the
        image of H, from the class count of H: the average of the inflated
        character over H."""
        return [fixed_point_dim(self.aut_table, r, counts) for r in self.out_rows]

    def __repr__(self):
        return (
            f"PairClass(id={self.class_id}, |L|={self.subgroup_order}, "
            f"ord(u)={self.element_order}, members={len(self.members)})"
        )


def _verify_witness(cls: PairClass, member: ClassMember):
    """Check that the witness w permutes |P| labels and that
    c_u * w == w * c_s on every label of L."""
    w = member.witness
    c_u = cls.realization.action
    order = member.pair.subgroup.order
    if not w.degree == c_u.degree == order:
        raise InternalCheckError(
            f"classification, {cls.name}: witness is not a bijection onto the "
            f"subgroup of order {order}"
        )
    left, right = (c_u * w).images, (w * member.pair.action).images
    if left != right:
        i = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
        tau = cls.realization.subgroup.elements()[i]
        raise InternalCheckError(
            f"classification, {cls.name}: witness fails the intertwining "
            f"relation on {tau.cycle_string()}"
        )


class PairClassRegistry:
    """Classes of pairs discovered so far, shared across groups.

    Classification happens in a deterministic enumeration order, so class
    identifiers and character labels are reproducible.  A class keeps its
    identifier, realization and key once assigned, but it is not frozen:
    its members grow as later pairs join it, and C, N and the table of C
    are built when first read, Aut(L) and the table of C from the
    registry's SharedGroups.  The registry has no locking, so it must not
    be shared between threads.
    """

    def __init__(self):
        self.classes = []
        self._by_key = {}  # class key -> classes with it, in creation order
        self._by_group = {}  # (G, p) -> assignments; a PermGroup hashes by identity
        self.shared = SharedGroups()

    def classify_group(self, G: PermGroup, p: int):
        """Classify every pair orbit of G; returns (class, member) pairs."""
        key = (G, p)
        if key not in self._by_group:
            self._by_group[key] = [self._classify(pair) for pair in pair_orbit_reps(G, p)]
        return self._by_group[key]

    def _classify(self, pair: NormalizerPair):
        key = pair_class_key(pair)
        same_key = self._by_key.setdefault(key, [])
        for cls in same_key:
            labels = find_pair_isomorphism(cls.realization, pair)
            if labels is not None:
                witness = Permutation(labels)
                break
        else:
            cls = PairClass(len(self.classes), pair, key, self.shared)
            self.classes.append(cls)
            same_key.append(cls)
            witness = Permutation.identity(pair.subgroup.order)
        member = ClassMember(pair, witness)
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


def image_of_normalizer(cls: PairClass, pair: NormalizerPair, w: Permutation) -> PermGroup:
    """The preimage in C of the image of N_G(P, s) in Out(L, u), through
    the witness w of an isomorphism phi: L -> P (ClassMember).

    N_G(P, s) = C_{N_G(P)}(s) is generated by pair.centralizer_gens.  Each
    such g induces phi^-1 . c_g . phi on L, which must lie in C; the
    result is the subgroup of C generated by these and N.  On labels the
    induced map is w * a_g * w^-1, where a_g = P.induced(g) is the label
    permutation of c_g on P.  Generators with the same a_g induce the
    same map, so each action is checked once.  The result is closed
    without a second membership test: each induced map has just passed
    C.contains, and N <= C was checked when N was built.
    """
    P = pair.subgroup
    actions = {}  # a_g -> the first g with it
    # P = 1 has no generators and its image is N, so it reads no generators of N_G(P, s)
    for g in pair.centralizer_gens if P.generators else ():
        try:
            actions.setdefault(P.induced(g), g)
        except DomainError:
            raise InternalCheckError(
                f"normalizer image, {cls.name}: the action of "
                f"{g.cycle_string()} leaves the witness image"
            ) from None
    w_inv = w.inverse()
    induced = []
    for a_g, g in actions.items():
        perm = w * Permutation(a_g) * w_inv
        if not cls.aut.contains(perm):
            raise InternalCheckError(
                f"normalizer image, {cls.name}: the map induced by "
                f"{g.cycle_string()} is not in C_Aut(L)(c_u) of order "
                f"{cls.aut.order} (intertwining violation)"
            )
        induced.append(perm)
    return PermGroup(cls.aut.degree, induced + list(cls.inner.generators))
