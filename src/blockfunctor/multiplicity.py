"""Multiplicity tables and equivalence verdicts.

A table maps (class id, irreducible index) to the multiplicity of the
corresponding simple summand.  Two routes compute it: the pair route sums
fixed-point dimensions over the normalizer images of the class members,
and the fusion route sums them over triple-orbit stabilizers; they must
agree on every class with nontrivial subgroup.  Rows are stored sparsely:
a class appears with all its irreducible indices or not at all, and
absent rows read as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Multiplicities of simple summands, with block-style invariants."""

    group_name: str
    group: PermGroup
    p: int
    k: int
    l: int
    defect_order: int
    rows: dict  # (class_id, irr_index) -> multiplicity
    registry: PairClassRegistry
    sylow: PermGroup
    includes_trivial: bool

    def class_ids(self):
        return sorted({cid for cid, _ in self.rows})


def _table(name, G, p, rows, registry, includes_trivial) -> MultiplicityTable:
    """The table of the given rows, with the invariants of G at p."""
    k, l, _ = invariants_kl(G, p)
    return MultiplicityTable(
        group_name=name,
        group=G,
        p=p,
        k=k,
        l=l,
        defect_order=p_part(G.order, p),
        rows=rows,
        registry=registry,
        sylow=sylow_subgroup(G, p),
        includes_trivial=includes_trivial,
    )


def mult_table_pairs(
    G: PermGroup, p: int, registry: PairClassRegistry, name: str = "group"
) -> MultiplicityTable:
    """Multiplicity table through the pair route.

    m(class, chi) is the sum over the class members (P, s) of the fixed
    point dimension of chi on the image of N_G(P, s) in Out.
    """
    assignments = registry.classify_group(G, p)
    rows = {}
    for cls, member in assignments:
        cls.ensure_aut()
        image = image_of_normalizer(cls, member.pair, member.phi)
        for irr, dim in enumerate(cls.out_dims(image)):
            key = (cls.class_id, irr)
            rows[key] = rows.get(key, 0) + dim
    table = _table(name, G, p, rows, registry, includes_trivial=True)
    trivial = registry.trivial_class()
    if trivial is None or table.rows.get((trivial.class_id, 0)) != table.l:
        raise InternalCheckError(
            "multiplicity at the trivial class does not equal the "
            "p-regular class count"
        )
    return table


def mult_table_fusion(
    F: FusionData, registry: PairClassRegistry, name: str = "group"
) -> MultiplicityTable:
    """Multiplicity table through the fusion route (nontrivial classes only).

    m(class, chi) is the sum over the triple orbits of the fixed point
    dimension of chi on the orbit stabilizer.
    """
    rows = {}
    for cls in registry.classes:
        if cls.subgroup_order == 1:
            continue
        if all(obj.subgroup.order != cls.subgroup_order for obj in F.objects):
            continue
        orbits = triple_orbits(F, cls)
        if not orbits:
            continue
        for orbit in orbits:
            for irr, dim in enumerate(cls.out_dims(orbit.stabilizer)):
                key = (cls.class_id, irr)
                rows[key] = rows.get(key, 0) + dim
    return _table(name, F.group, F.p, rows, registry, includes_trivial=False)


def nontrivial_rows(table: MultiplicityTable) -> dict:
    """Rows of classes with nontrivial subgroup; absent rows read as zero."""
    out = {}
    for (cid, irr), value in table.rows.items():
        if table.registry.classes[cid].subgroup_order > 1:
            out[(cid, irr)] = value
    return out


def _row_diff(left: MultiplicityTable, right: MultiplicityTable) -> list:
    """(class_id, irr_index, left, right) for every nontrivial row on which
    two tables of one registry disagree, in key order."""
    if left.registry is not right.registry:
        raise DomainError("tables were built against different registries")
    lrows = nontrivial_rows(left)
    rrows = nontrivial_rows(right)
    diff = []
    for key in sorted(set(lrows) | set(rrows)):
        a = lrows.get(key, 0)
        b = rrows.get(key, 0)
        if a != b:
            diff.append((key[0], key[1], a, b))
    return diff


def cross_check_formulas(pairs_table: MultiplicityTable, fusion_table: MultiplicityTable):
    """Exact row-by-row equality of the two routes on nontrivial classes."""
    diff = _row_diff(pairs_table, fusion_table)
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

    Stability means equality on all rows with nontrivial subgroup; the
    functorial upgrade additionally needs equal p-regular class counts.
    A stable verdict with diverging k - l is a hard internal error.
    """
    diff = _row_diff(left, right)
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
