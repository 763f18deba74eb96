"""Multiplicity tables and equivalence verdicts.

A table maps (class id, irreducible index) to the multiplicity of the
corresponding simple summand.  Two routes compute it: the pair route sums
fixed-point dimensions over the normalizer images of the class members,
and the fusion route sums them over triple-orbit stabilizers; they must
agree on every class with nontrivial subgroup.  Rows are stored sparsely:
a class appears with all its irreducible indices or not at all, and
absent rows read as zero.

A table keeps, per class, how many elements of each summed subgroup H
lie in each class of C (PairClass.class_count).  From these alone it
reads the permutation character pi = sum over H of 1_H induced to C, a
character of C / N whose multiplicity on each irreducible of Out is the
row of that irreducible (Frobenius reciprocity; Isaacs, Character Theory
of Finite Groups, ch. 5).  The irreducibles are linearly independent, so
two tables agree on the rows of a class exactly when their pi agree
there, and pi needs the classes of C but no character table.  The
trivial-class check reads pi; the two routes must have equal pi on every
nontrivial class before their rows are compared; and compare decides
stability from pi, building the table of C only for a class whose pi
differ, to list its rows.  The rows are built when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .ddelta import PairClassRegistry, image_of_normalizer
from .errors import DomainError, InternalCheckError
from .fusion import FusionData, triple_orbits
from .permgroup import (
    PermGroup,
    direct_product,
    is_prime,
    p_part,
    sylow_subgroup,
)
from .autos import find_group_isomorphism


def invariants_kl(G: PermGroup, p: int):
    """(k, l, k - l): class count, p-regular class count, difference."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    classes = G.conjugacy_data()
    k = len(classes)
    l = sum(1 for c in classes if c.rep.order() % p != 0)
    return k, l, k - l


@dataclass
class MultiplicityTable:
    """Multiplicities of simple summands, with block-style invariants.

    The table holds the class count in C of each subgroup H it sums over;
    the permutation characters and the rows are read from them on first
    use, and only the rows build character tables.
    """

    group: PermGroup
    p: int
    k: int
    l: int
    defect_order: int
    counts: dict  # class_id -> the class count in C of each H, in order
    registry: PairClassRegistry
    sylow: PermGroup

    def class_ids(self):
        return sorted(self.counts)

    @cached_property
    def pi(self) -> dict:
        """class_id -> the permutation character pi of the class."""
        classes = self.registry.classes
        return {cid: classes[cid].permutation_character(c) for cid, c in self.counts.items()}

    def class_rows(self, cid) -> dict:
        """(cid, irr_index) -> multiplicity for one class; empty when the
        class is absent."""
        cls = self.registry.classes[cid]
        rows = {}
        for counts in self.counts.get(cid, ()):
            for irr, dim in enumerate(cls.out_dims(counts)):
                rows[(cid, irr)] = rows.get((cid, irr), 0) + dim
        return rows

    @cached_property
    def rows(self) -> dict:
        """(class_id, irr_index) -> multiplicity."""
        return {key: m for cid in self.counts for key, m in self.class_rows(cid).items()}


def _table(G, p, counts, registry) -> MultiplicityTable:
    """The table of the given class counts, with the invariants of G at p."""
    k, l, _ = invariants_kl(G, p)
    return MultiplicityTable(
        group=G,
        p=p,
        k=k,
        l=l,
        defect_order=p_part(G.order, p),
        counts=counts,
        registry=registry,
        sylow=sylow_subgroup(G, p),
    )


def mult_table_pairs(G: PermGroup, p: int, registry: PairClassRegistry) -> MultiplicityTable:
    """Multiplicity table through the pair route.

    m(class, chi) is the sum over the class members (P, s) of the fixed
    point dimension of chi on the image of N_G(P, s) in Out.
    """
    counts = {}
    for cls, member in registry.classify_group(G, p):
        image = image_of_normalizer(cls, member.pair, member.witness)
        counts.setdefault(cls.class_id, []).append(cls.class_count(image))
    table = _table(G, p, counts, registry)
    trivial = registry.trivial_class()
    # C is trivial at the trivial class, so its one multiplicity is pi(1)
    if trivial is None or table.pi.get(trivial.class_id) != (table.l,):
        raise InternalCheckError(
            "multiplicity at the trivial class does not equal the "
            "p-regular class count"
        )
    return table


def mult_table_fusion(F: FusionData, registry: PairClassRegistry) -> MultiplicityTable:
    """Multiplicity table through the fusion route (nontrivial classes only).

    m(class, chi) is the sum over the triple orbits of the fixed point
    dimension of chi on the orbit stabilizer.
    """
    counts = {}
    for cls in registry.classes:
        if cls.subgroup_order == 1:
            continue
        if all(obj.subgroup.order != cls.subgroup_order for obj in F.objects):
            continue
        for orbit in triple_orbits(F, cls):
            counts.setdefault(cls.class_id, []).append(cls.class_count(orbit.stabilizer))
    return _table(F.group, F.p, counts, registry)


def _nontrivial_ids(left: MultiplicityTable, right: MultiplicityTable) -> list:
    """The classes with nontrivial subgroup in either of two tables of one
    registry, in id order."""
    if left.registry is not right.registry:
        raise DomainError("tables were built against different registries")
    classes = left.registry.classes
    return sorted(c for c in left.counts.keys() | right.counts.keys()
                  if classes[c].subgroup_order > 1)


def _pi_diff(left: MultiplicityTable, right: MultiplicityTable) -> list:
    """The nontrivial classes on which the permutation characters of two
    tables differ; an absent class has none."""
    return [c for c in _nontrivial_ids(left, right) if left.pi.get(c) != right.pi.get(c)]


def _row_diff(left: MultiplicityTable, right: MultiplicityTable, cids) -> list:
    """(class_id, irr_index, left, right) for every row of the given classes
    on which two tables disagree, in key order; absent rows read as zero."""
    diff = []
    for cid in cids:
        lrows, rrows = left.class_rows(cid), right.class_rows(cid)
        for key in sorted(lrows.keys() | rrows.keys()):
            a, b = lrows.get(key, 0), rrows.get(key, 0)
            if a != b:
                diff.append((cid, key[1], a, b))
    return diff


def cross_check_formulas(pairs_table: MultiplicityTable, fusion_table: MultiplicityTable):
    """Equality of the two routes on nontrivial classes: first of the
    permutation characters, which builds no character table, then
    exactly, row by row."""
    mismatch = _pi_diff(pairs_table, fusion_table)
    if mismatch:
        cid = mismatch[0]
        raise InternalCheckError(
            f"permutation character mismatch at class {cid}: pair route "
            f"{pairs_table.pi.get(cid)} vs fusion route {fusion_table.pi.get(cid)}"
        )
    diff = _row_diff(pairs_table, fusion_table, _nontrivial_ids(pairs_table, fusion_table))
    if diff:
        cid, irr, a, b = diff[0]
        raise InternalCheckError(
            f"formula mismatch at class {cid}, character {irr}: "
            f"pair route {a} vs fusion route {b}"
        )


def l_multiplicativity_check(G: PermGroup, H: PermGroup, p: int) -> bool:
    """Whether l(G x H) equals l(G) * l(H)."""
    product = direct_product(G, H)
    _, l_product, _ = invariants_kl(product, p)
    _, l_g, _ = invariants_kl(G, p)
    _, l_h, _ = invariants_kl(H, p)
    return l_product == l_g * l_h


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of comparing two multiplicity tables."""

    stable: bool
    functorial: bool
    defect_isomorphic: bool
    diff: tuple  # (class_id, irr_index, left, right) rows that disagree

    def __post_init__(self):
        if self.functorial and not self.stable:
            raise InternalCheckError("functorial verdict without stability")


def compare(left: MultiplicityTable, right: MultiplicityTable) -> EquivalenceVerdict:
    """Compare two tables built against the same registry.

    Stability means equality on all rows with nontrivial subgroup, which
    holds exactly when the permutation characters agree on every such
    class: the irreducibles of Out are linearly independent.  Only a class
    whose characters differ builds its table, to list the rows that
    differ.  The functorial upgrade additionally needs equal p-regular
    class counts.  A stable verdict with diverging k - l is a hard
    internal error.
    """
    differing = _pi_diff(left, right)
    diff = _row_diff(left, right, differing)
    if len({row[0] for row in diff}) != len(differing):
        raise InternalCheckError("permutation characters differ on a class whose rows agree")
    stable = not diff
    functorial = stable and left.l == right.l
    defect_isomorphic = (
        find_group_isomorphism(left.sylow, right.sylow) is not None
    )
    if stable and (left.k - left.l) != (right.k - right.l):
        raise InternalCheckError(
            "stable tables with different k - l: "
            f"{left.k - left.l} vs {right.k - right.l}"
        )
    return EquivalenceVerdict(
        stable=stable,
        functorial=functorial,
        defect_isomorphic=defect_isomorphic,
        diff=tuple(diff),
    )
