import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfunctor.permutation import (
    CycleSyntaxError,
    Permutation,
    conjugate,
    conjugate_with,
)


def test_identity():
    e = Permutation.identity(4)
    assert e.is_identity()
    assert e.order() == 1
    assert e.cycle_string() == "()"


def test_parse_and_cycle_string_round_trip():
    for text in ["(1,2,3)", "(1,2)(3,4)", "(2,3,5,4)", "()"]:
        p = Permutation.parse(5, text)
        assert Permutation.parse(5, p.cycle_string()) == p


def test_product_applies_left_factor_first():
    a = Permutation.parse(3, "(1,2)")
    b = Permutation.parse(3, "(2,3)")
    # 1 -> a -> 2 -> b -> 3
    assert (a * b).images[0] == 2
    assert (b * a).images[0] == 1


def test_inverse_and_power():
    g = Permutation.parse(5, "(1,2,3,4,5)")
    assert g * g.inverse() == Permutation.identity(5)
    assert g ** 5 == Permutation.identity(5)
    assert g ** -2 == (g.inverse()) ** 2
    assert g ** 0 == Permutation.identity(5)


def test_order():
    assert Permutation.parse(6, "(1,2)(3,4,5)").order() == 6
    assert Permutation.parse(4, "(1,2,3,4)").order() == 4
    assert Permutation.identity(1).order() == 1


def test_constructor_rejects_bad_images():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 0))
    with pytest.raises(ValueError):
        Permutation((1, 2))


BAD_TEXT = [
    (5, "(1,2"), (5, "1,2)"), (5, "(1,x)"), (5, "(1,9)"), (5, "(1,2)(2,3)"),
    # spaces inside a cycle separate no points: "1 2" is not the point 12
    (20, "(1 2)"), (20, "(1 2,3)"),
]


@pytest.mark.parametrize("degree, text", BAD_TEXT, ids=[text for _, text in BAD_TEXT])
def test_parse_rejects_bad_text(degree, text):
    with pytest.raises(ValueError):
        Permutation.parse(degree, text)


def test_parse_error_carries_the_index_of_the_cycle_at_fault():
    with pytest.raises(CycleSyntaxError) as info:
        Permutation.parse(4, "(1,2) (3, 5)")
    assert (str(info.value), info.value.index) == ("point 5 out of range 1..4", 6)
    assert Permutation.parse(4, " (1, 2)  (3,4) ") == Permutation.parse(4, "(1,2)(3,4)")


def _validated_product(a, b):
    return Permutation(tuple(b.images[i] for i in a.images))


def _is_permutation(p):
    return sorted(p.images) == list(range(p.degree))


@settings(max_examples=200, derandomize=True)
@given(
    st.integers(min_value=1, max_value=13).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.permutations(range(n)),
            st.integers(min_value=-6, max_value=30),
        )
    )
)
def test_unvalidated_results_match_a_validated_reference(case):
    a_images, b_images, n = case
    a, b = Permutation(a_images), Permutation(b_images)
    ident = Permutation(range(a.degree))
    product = a * b
    reference = _validated_product(a, b)
    assert _is_permutation(product)
    assert product == reference and hash(product) == hash(reference)
    inverse = a.inverse()
    assert _is_permutation(inverse)
    assert _validated_product(a, inverse) == ident == _validated_product(inverse, a)
    assert hash(Permutation.identity(a.degree)) == hash(ident)
    power = a ** n
    reference = ident
    for _ in range(abs(n)):
        reference = _validated_product(reference, a if n > 0 else inverse)
    assert _is_permutation(power)
    assert power == reference and hash(power) == hash(reference)
    assert a.order() == next(k for k in itertools.count(1) if a ** k == ident)


@settings(max_examples=200, derandomize=True)
@given(
    st.integers(min_value=1, max_value=13).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
    )
)
def test_fused_conjugate_matches_products(case):
    g, x = (Permutation(images) for images in case)
    reference = _validated_product(_validated_product(g, x), g.inverse())
    assert conjugate(g, x) == conjugate_with(g, g.inverse(), x) == reference
    assert _is_permutation(conjugate(g, x))


def test_degree_one_products_and_conjugates_are_tuples():
    # operator.itemgetter with one index returns a scalar, so degree 1
    # takes its own path; the results must still be permutation tuples
    e = Permutation.identity(1)
    for result in (e * e, conjugate(e, e), conjugate_with(e, e, e), e ** 3, e.inverse()):
        assert result.images == (0,) and result == e and hash(result) == hash(e)
    two = Permutation.parse(2, "(1,2)")
    assert (two * two).images == (0, 1) and conjugate(two, two).images == (1, 0)


def test_conjugate_is_an_automorphism_action():
    g = Permutation.parse(4, "(1,2,3,4)")
    x = Permutation.parse(4, "(1,2)")
    y = Permutation.parse(4, "(3,4)")
    assert conjugate(g, x * y) == conjugate(g, x) * conjugate(g, y)
    assert conjugate(g, x).order() == x.order()


def test_sorting_puts_identity_first():
    perms = [
        Permutation.parse(3, "(1,2,3)"),
        Permutation.identity(3),
        Permutation.parse(3, "(1,2)"),
    ]
    assert sorted(perms)[0].is_identity()


def test_hashable_and_usable_in_sets():
    a = Permutation.parse(3, "(1,2)")
    b = Permutation.parse(3, "(1,2)")
    assert len({a, b}) == 1
