import pytest

from conftest import DATA_DIR
from blockfunctor.errors import DomainError, GroupFileError
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


def test_load_group_orders():
    expected = {
        "s3.grp": 6,
        "c3.grp": 3,
        "a4.grp": 12,
        "s4.grp": 24,
        "f20.grp": 20,
        "f20b.grp": 20,
        "f21.grp": 21,
        "g72.grp": 72,
        "g56.grp": 56,
        "f75.grp": 75,
        "f80.grp": 80,
        "f240.grp": 240,
    }
    for name, order in expected.items():
        loaded = load_group(parse_group_file((DATA_DIR / name).read_text()))
        assert loaded.group.order == order, name


def test_load_group_rejects_composite_prime():
    with pytest.raises(DomainError):
        load_group(parse_group_file("degree 3\nprime 4\ngen (1,2)\n"))


def test_frobenius_handles():
    loaded = load_group(parse_group_file(FROB_TEXT))
    assert loaded.group.order == 72
    assert loaded.p == 3
