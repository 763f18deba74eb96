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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, GroupFileError
from .permgroup import PermGroup, frobenius_group, is_prime
from .permutation import Permutation


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


def _parse_cycles(payload: str, line_no: int, line: str, degree: int):
    """Parse `(a,b,...)(c,...)`; returns 0-based cycles.

    Columns are 1-based offsets into the full line.
    """
    offset = line.index(payload) if payload else len(line)
    cycles = []
    seen = set()
    i = 0
    n = len(payload)

    def column(pos):
        return offset + pos + 1

    while i < n:
        ch = payload[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise GroupFileError(
                f"expected '(' but found {ch!r}", line=line_no, column=column(i)
            )
        end = payload.find(")", i)
        if end < 0:
            raise GroupFileError("unclosed cycle", line=line_no, column=column(i))
        body = payload[i + 1:end].strip()
        if body:
            points = []
            for tok in body.split(","):
                tok = tok.strip()
                if not tok.isdigit():
                    raise GroupFileError(
                        f"expected a point, got {tok!r}",
                        line=line_no,
                        column=column(i),
                    )
                pt = int(tok)
                if not 1 <= pt <= degree:
                    raise GroupFileError(
                        f"point {pt} out of range 1..{degree}",
                        line=line_no,
                        column=column(i),
                    )
                if pt in seen:
                    raise GroupFileError(
                        f"repeated point {pt}", line=line_no, column=column(i)
                    )
                seen.add(pt)
                points.append(pt - 1)
            if len(points) > 1:
                cycles.append(tuple(points))
        i = end + 1
    return cycles


def parse_group_file(text: str) -> GroupSpecFile:
    name = None
    degree = None
    prime = None
    generators = []
    frobenius_form = False
    frob = {}
    seen_keys = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, payload = line.partition(" ")
        payload = payload.strip()

        if key == "frobenius":
            if payload:
                raise GroupFileError("frobenius takes no value", line=line_no)
            if frobenius_form:
                raise GroupFileError("duplicate key frobenius", line=line_no)
            if degree is not None or prime is not None or generators:
                raise GroupFileError(
                    "frobenius form cannot be mixed with generator form", line=line_no
                )
            frobenius_form = True
            continue

        if key in ("degree", "prime", "gen"):
            if frobenius_form:
                raise GroupFileError(
                    f"key {key} is not allowed in frobenius form", line=line_no
                )
        if key in ("p", "rank", "matrix"):
            if not frobenius_form:
                raise GroupFileError(
                    f"key {key} requires a preceding frobenius line", line=line_no
                )

        if key == "name":
            if "name" in seen_keys:
                raise GroupFileError("duplicate key name", line=line_no)
            if not payload:
                raise GroupFileError("name expects a token", line=line_no)
            seen_keys.add("name")
            name = payload
        elif key == "degree":
            if "degree" in seen_keys:
                raise GroupFileError("duplicate key degree", line=line_no)
            seen_keys.add("degree")
            degree = _parse_int(payload, line_no, "degree")
            if degree < 1:
                raise GroupFileError("degree must be positive", line=line_no)
        elif key == "prime":
            if "prime" in seen_keys:
                raise GroupFileError("duplicate key prime", line=line_no)
            seen_keys.add("prime")
            prime = _parse_int(payload, line_no, "prime")
            if prime < 2:
                raise GroupFileError("prime must be at least 2", line=line_no)
        elif key == "gen":
            if degree is None:
                raise GroupFileError(
                    "degree must be declared before generators", line=line_no
                )
            if not payload:
                raise GroupFileError(
                    "gen expects cycles (write () for the identity)", line=line_no
                )
            cycles = _parse_cycles(payload, line_no, raw, degree)
            perm = Permutation.from_cycles(degree, cycles)
            generators.append(perm)
        elif key == "p":
            if "p" in seen_keys:
                raise GroupFileError("duplicate key p", line=line_no)
            seen_keys.add("p")
            frob["p"] = _parse_int(payload, line_no, "p")
        elif key == "rank":
            if "rank" in seen_keys:
                raise GroupFileError("duplicate key rank", line=line_no)
            seen_keys.add("rank")
            frob["rank"] = _parse_int(payload, line_no, "rank")
            if frob["rank"] < 1:
                raise GroupFileError("rank must be positive", line=line_no)
        elif key == "matrix":
            if "matrix" in seen_keys:
                raise GroupFileError("duplicate key matrix", line=line_no)
            seen_keys.add("matrix")
            entries = []
            for tok in payload.split():
                entries.append(_parse_int(tok, line_no, "matrix"))
            frob["matrix"] = tuple(entries)
        else:
            raise GroupFileError(f"unknown key {key!r}", line=line_no)

    if frobenius_form:
        for required in ("p", "rank", "matrix"):
            if required not in frob:
                raise GroupFileError(f"frobenius form is missing key {required}")
        rank = frob["rank"]
        if len(frob["matrix"]) != rank * rank:
            raise GroupFileError(
                f"matrix needs {rank * rank} entries, got {len(frob['matrix'])}"
            )
        return GroupSpecFile(
            name=name,
            degree=None,
            prime=frob["p"],
            generators=(),
            frobenius=(frob["p"], rank, frob["matrix"]),
        )

    if degree is None:
        raise GroupFileError("missing key degree")
    if prime is None:
        raise GroupFileError("missing key prime")
    if not generators:
        raise GroupFileError("generator form needs at least one gen line")
    return GroupSpecFile(
        name=name,
        degree=degree,
        prime=prime,
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
        group = frobenius_group(p, rank, matrix).group
        return LoadedGroup(name=name, group=group, p=p)
    if not is_prime(spec.prime):
        raise DomainError(f"prime key must be prime, got {spec.prime}")
    group = PermGroup(spec.degree, spec.generators)
    return LoadedGroup(name=name, group=group, p=spec.prime)
