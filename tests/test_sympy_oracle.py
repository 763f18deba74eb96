"""Group order, k, l and the Sylow order against sympy.

sympy's ``PermutationGroup`` computes orders by Schreier-Sims, classes by
its own orbit algorithm and Sylow subgroups by its own reduction, so it
shares no code with the package.  The cases are the nine fixtures, F75
and the groups with no normal Sylow subgroup, at every prime dividing
the order.
"""

import pytest
from sympy import primefactors
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup

from conftest import DATA_DIR
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.multiplicity import invariants_kl
from blockfunctor.permgroup import group_from_generators, sylow_subgroup
from blockfunctor.permutation import Permutation

FIXTURES = ("s3", "c3", "a4", "s4", "f20", "f20b", "f21", "g72", "g56", "f75")
GENERATED = {
    "s5": (5, ("(1,2,3,4,5)", "(1,2)")),
    "a5": (5, ("(1,2,3)", "(1,2,3,4,5)")),
    "psl27": (7, ("(1,2,3,4,5,6,7)", "(3,5)(6,7)")),
    "a6": (6, ("(1,2,3)", "(2,3,4,5,6)")),
    "s3xs3": (6, ("(1,2,3)", "(1,2)", "(4,5,6)", "(4,5)")),
}
PRIMES = {
    "s3": (2, 3), "c3": (3,), "a4": (2, 3), "s4": (2, 3), "f20": (2, 5),
    "f20b": (2, 5), "f21": (3, 7), "g72": (2, 3), "g56": (2, 7), "f75": (3, 5),
    "s5": (2, 3, 5), "a5": (2, 3, 5), "psl27": (2, 3, 7), "a6": (2, 3, 5),
    "s3xs3": (2, 3),
}
CASES = [(name, p) for name in FIXTURES + tuple(GENERATED) for p in PRIMES[name]]


def load(name):
    if name in GENERATED:
        degree, cycles = GENERATED[name]
        return group_from_generators(degree, [Permutation.parse(degree, c) for c in cycles])
    return load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text())).group


@pytest.mark.parametrize("name,p", CASES, ids=[f"{n}-p{p}" for n, p in CASES])
def test_invariants_match_sympy(name, p):
    G = load(name)
    S = PermutationGroup([SympyPermutation(list(g.images)) for g in G.generators])
    classes = S.conjugacy_classes()
    k, l, _ = invariants_kl(G, p)
    assert G.order == S.order()
    assert primefactors(G.order) == list(PRIMES[name])
    assert k == len(classes)
    assert l == sum(1 for c in classes if next(iter(c)).order() % p != 0)
    assert sylow_subgroup(G, p).order == S.sylow_subgroup(p).order()
