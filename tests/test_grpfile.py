import pytest

from conftest import DATA_DIR
from blockfunctor.errors import DomainError, GroupFileError, SizeBoundError
from blockfunctor.grpfile import load_group, parse_group_file

S3_TEXT = "name S3\ndegree 3\nprime 3\ngen (1,2,3)\ngen (1,2)\n"
FROB_TEXT = "frobenius\np 3\nrank 2\nmatrix 0 1 1 2\n"


def test_parse_generator_form():
    spec = parse_group_file(S3_TEXT)
    assert spec.name == "S3"
    assert spec.degree == 3
    assert spec.prime == 3
    assert tuple(g.cycle_string() for g in spec.generators) == ("(1,2,3)", "(1,2)")
    assert spec.frobenius is None


def test_parse_frobenius_form():
    spec = parse_group_file(FROB_TEXT)
    assert spec.frobenius == (3, 2, (0, 1, 1, 2))
    assert spec.prime == 3
    assert spec.generators == ()


def test_comments_and_blank_lines_are_ignored():
    spec = parse_group_file("# hello\n\n" + S3_TEXT)
    assert spec.name == "S3"


def test_repeated_point_is_an_error_with_location():
    with pytest.raises(GroupFileError) as info:
        parse_group_file("degree 3\nprime 3\ngen (1,1,2)\n")
    assert "repeated point 1" in str(info.value)
    assert "line 3" in str(info.value)


def test_out_of_range_point():
    with pytest.raises(GroupFileError) as info:
        parse_group_file("degree 3\nprime 3\ngen (1,4)\n")
    assert "out of range" in str(info.value)
    assert "line 3" in str(info.value)


def test_unknown_key():
    with pytest.raises(GroupFileError) as info:
        parse_group_file("degree 3\nprime 3\nfoo bar\n")
    assert "unknown key" in str(info.value)


def test_duplicate_keys():
    with pytest.raises(GroupFileError):
        parse_group_file("degree 3\ndegree 4\nprime 3\ngen (1,2)\n")
    with pytest.raises(GroupFileError):
        parse_group_file("frobenius\np 3\np 5\nrank 1\nmatrix 2\n")


def test_mixed_forms_are_rejected():
    with pytest.raises(GroupFileError):
        parse_group_file("degree 3\nfrobenius\n")
    with pytest.raises(GroupFileError):
        parse_group_file("frobenius\ndegree 3\n")
    with pytest.raises(GroupFileError):
        parse_group_file("p 3\n")


def test_gen_before_degree_is_rejected():
    with pytest.raises(GroupFileError) as info:
        parse_group_file("prime 3\ngen (1,2)\ndegree 3\n")
    assert "degree must be declared before" in str(info.value)


def test_missing_required_keys():
    with pytest.raises(GroupFileError):
        parse_group_file("degree 3\ngen (1,2)\n")  # no prime
    with pytest.raises(GroupFileError):
        parse_group_file("degree 3\nprime 3\n")  # no generators
    with pytest.raises(GroupFileError):
        parse_group_file("frobenius\np 3\nrank 2\n")  # no matrix


def test_matrix_entry_count():
    with pytest.raises(GroupFileError) as info:
        parse_group_file("frobenius\np 3\nrank 2\nmatrix 0 1 1\n")
    assert "4 entries" in str(info.value)


def test_identity_generator():
    spec = parse_group_file("degree 3\nprime 3\ngen ()\ngen (1,2)\n")
    assert spec.generators[0].cycle_string() == "()"
    loaded = load_group(spec)
    assert loaded.group.order == 2


FIXTURE_ORDERS = {
    "a4.grp": 12,
    "c11sq_c2.grp": 242,
    "c3.grp": 3,
    "c5cubed_c4.grp": 500,
    "c6.grp": 6,
    "f20.grp": 20,
    "f20b.grp": 20,
    "f21.grp": 21,
    "f240.grp": 240,
    "f351.grp": 351,
    "f75.grp": 75,
    "f80.grp": 80,
    "g56.grp": 56,
    "g72.grp": 72,
    "s3.grp": 6,
    "s4.grp": 24,
}


def test_load_group_orders(monkeypatch):
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    # every fixture in the directory has an expected order or is f2r11,
    # which is refused at the default bound, so a new one cannot be skipped
    names = sorted(path.name for path in DATA_DIR.glob("*.grp"))
    assert names == sorted([*FIXTURE_ORDERS, "f2r11.grp"])
    for name, order in FIXTURE_ORDERS.items():
        loaded = load_group(parse_group_file((DATA_DIR / name).read_text()))
        assert loaded.group.order == order, name
    with pytest.raises(SizeBoundError) as info:
        load_group(parse_group_file((DATA_DIR / "f2r11.grp").read_text()))
    assert str(info.value) == (
        "frobenius form, p=2, rank 11: the translations alone have order "
        "2^11 = 2048, over the configured bound 512"
    )


PARSE_ERRORS = [
    # cycle syntax: the column is where the cycle at fault starts
    ("degree 4\nprime 2\ngen (1,2) x\n", "line 3, column 11: expected '(' but found 'x'"),
    ("degree 4\nprime 2\ngen (1,2\n", "line 3, column 5: unclosed cycle"),
    ("degree 4\nprime 2\ngen (1 2)\n", "line 3, column 5: expected a point, got '1 2'"),
    ("degree 4\nprime 2\ngen (1,2) (3, 5)\n",
     "line 3, column 11: point 5 out of range 1..4"),
    ("degree 4\nprime 2\n  gen (1,2)(2,3)\n", "line 3, column 12: repeated point 2"),
    # every scalar key appears once
    ("name A\nname B\n", "line 2: duplicate key name"),
    ("degree 3\ndegree 4\n", "line 2: duplicate key degree"),
    ("prime 3\nprime 5\n", "line 2: duplicate key prime"),
    ("frobenius\nfrobenius\n", "line 2: duplicate key frobenius"),
    ("frobenius\np 3\np 5\n", "line 3: duplicate key p"),
    ("frobenius\nrank 1\nrank 2\n", "line 3: duplicate key rank"),
    ("frobenius\nmatrix 1\nmatrix 2\n", "line 3: duplicate key matrix"),
    # an integer is an optional '-' and decimal digits, which int() alone
    # would widen with '+' and '_'
    ("degree 1_0\n", "line 1: degree expects an integer, got '1_0'"),
    ("degree +3\n", "line 1: degree expects an integer, got '+3'"),
    ("frobenius\np 3\nrank 1\nmatrix 2_0\n", "line 4: matrix expects an integer, got '2_0'"),
    ("degree -\n", "line 1: degree expects an integer, got '-'"),
    # the integer floors
    ("degree 0\n", "line 1: degree must be positive"),
    ("prime 1\n", "line 1: prime must be at least 2"),
    ("frobenius\nrank 0\n", "line 2: rank must be positive"),
    # a name is one field of a TSV report
    ("degree 3\nprime 3\nname S\t3\ngen (1,2,3)\n", "line 3: name must not contain a tab"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_errors_name_line_and_column(text, message):
    with pytest.raises(GroupFileError) as info:
        parse_group_file(text)
    assert str(info.value) == message


def test_a_digit_int_cannot_read_is_a_parse_error():
    # "²" is a digit to str.isdigit, but int() refuses it
    with pytest.raises(GroupFileError) as info:
        parse_group_file("degree 4\nprime 2\ngen (1,\u00b2)\n")
    assert str(info.value) == "line 3, column 5: expected a point, got '\u00b2'"


def test_negative_matrix_entries_are_read_mod_p():
    spec = parse_group_file("frobenius\np 3\nrank 1\nmatrix -1\n")
    assert spec.frobenius == (3, 1, (-1,))
    assert load_group(spec).group.order == 6


def test_load_group_rejects_composite_prime():
    with pytest.raises(DomainError):
        load_group(parse_group_file("degree 3\nprime 4\ngen (1,2)\n"))


def test_frobenius_handles():
    loaded = load_group(parse_group_file(FROB_TEXT))
    assert loaded.group.order == 72
    assert loaded.p == 3
