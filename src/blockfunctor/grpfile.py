"""Line-oriented group description files.

Two forms, exactly one per file.  Generator form::

    # comment
    name S3
    degree 3
    prime 3
    gen (1,2,3)
    gen (1,2)

Frobenius form::

    frobenius
    name G72
    p 3
    rank 2
    matrix 0 1 1 2

Points are 1-based, the identity generator is written ``gen ()``, and the
matrix entries are row-major.  Unknown keys, duplicate scalar keys and
mixed forms are errors; every parse error carries the offending line.
A ``gen`` line is read by ``Permutation.parse``, the package's only
cycle-notation parser, and its errors also carry the column where the
cycle at fault starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, GroupFileError
from .permgroup import PermGroup, frobenius_group, is_prime
from .permutation import CycleSyntaxError, Permutation


@dataclass(frozen=True)
class GroupSpecFile:
    """Parsed group description."""

    name: Optional[str]
    degree: Optional[int]
    prime: Optional[int]
    generators: tuple
    frobenius: Optional[tuple]  # (p, rank, entries row-major)


def _parse_int(value: str, line_no: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise GroupFileError(f"{key} expects an integer, got {value!r}", line=line_no)


# Each scalar key may appear once.  An integer key maps to the least value
# it takes and the refusal of a smaller one; p takes any integer here, and
# frobenius_group refuses it unless it is prime.
_SCALAR_KEYS = {
    "frobenius": None,
    "name": None,
    "matrix": None,
    "p": (None, None),
    "degree": (1, "degree must be positive"),
    "prime": (2, "prime must be at least 2"),
    "rank": (1, "rank must be positive"),
}


def parse_group_file(text: str) -> GroupSpecFile:
    values = {}  # scalar key -> its value
    generators = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, payload = line.partition(" ")
        payload = payload.strip()

        if key == "frobenius" and payload:
            raise GroupFileError("frobenius takes no value", line=line_no)
        if key in _SCALAR_KEYS and key in values:
            raise GroupFileError(f"duplicate key {key}", line=line_no)
        frobenius_form = "frobenius" in values
        if key == "frobenius":
            if "degree" in values or "prime" in values or generators:
                raise GroupFileError(
                    "frobenius form cannot be mixed with generator form", line=line_no
                )
            values[key] = True
            continue
        if key in ("degree", "prime", "gen") and frobenius_form:
            raise GroupFileError(
                f"key {key} is not allowed in frobenius form", line=line_no
            )
        if key in ("p", "rank", "matrix") and not frobenius_form:
            raise GroupFileError(
                f"key {key} requires a preceding frobenius line", line=line_no
            )

        if _SCALAR_KEYS.get(key):
            least, refusal = _SCALAR_KEYS[key]
            values[key] = _parse_int(payload, line_no, key)
            if least is not None and values[key] < least:
                raise GroupFileError(refusal, line=line_no)
        elif key == "name":
            if not payload:
                raise GroupFileError("name expects a token", line=line_no)
            values[key] = payload
        elif key == "matrix":
            values[key] = tuple(_parse_int(tok, line_no, key) for tok in payload.split())
        elif key == "gen":
            if "degree" not in values:
                raise GroupFileError(
                    "degree must be declared before generators", line=line_no
                )
            if not payload:
                raise GroupFileError(
                    "gen expects cycles (write () for the identity)", line=line_no
                )
            try:
                generators.append(Permutation.parse(values["degree"], payload))
            except CycleSyntaxError as exc:
                column = raw.index(payload) + exc.index + 1
                raise GroupFileError(str(exc), line=line_no, column=column) from None
        else:
            raise GroupFileError(f"unknown key {key!r}", line=line_no)

    name = values.get("name")
    if "frobenius" in values:
        for required in ("p", "rank", "matrix"):
            if required not in values:
                raise GroupFileError(f"frobenius form is missing key {required}")
        p, rank, matrix = values["p"], values["rank"], values["matrix"]
        if len(matrix) != rank * rank:
            raise GroupFileError(f"matrix needs {rank * rank} entries, got {len(matrix)}")
        return GroupSpecFile(
            name=name, degree=None, prime=p, generators=(), frobenius=(p, rank, matrix)
        )

    if "degree" not in values:
        raise GroupFileError("missing key degree")
    if "prime" not in values:
        raise GroupFileError("missing key prime")
    if not generators:
        raise GroupFileError("generator form needs at least one gen line")
    return GroupSpecFile(
        name=name,
        degree=values["degree"],
        prime=values["prime"],
        generators=tuple(generators),
        frobenius=None,
    )


@dataclass(frozen=True)
class LoadedGroup:
    """A constructed group with its prime."""

    name: str
    group: PermGroup
    p: int


def load_group(spec: GroupSpecFile) -> LoadedGroup:
    """Build the group described by a parsed file."""
    name = spec.name if spec.name is not None else "unnamed"
    if spec.frobenius is not None:
        p, rank, entries = spec.frobenius
        matrix = [entries[i * rank:(i + 1) * rank] for i in range(rank)]
        return LoadedGroup(name=name, group=frobenius_group(p, rank, matrix), p=p)
    if not is_prime(spec.prime):
        raise DomainError(f"prime key must be prime, got {spec.prime}")
    group = PermGroup(spec.degree, spec.generators)
    return LoadedGroup(name=name, group=group, p=spec.prime)
