"""Seeded presentations of the benchmark groups.

Every case starts from a canonical presentation: a fixture read from
``tests/data/`` (never modified) or a base presentation defined below.
A seed relabels the points at random and draws a random generating set
of the right order; the isomorphism type stays fixed.  Orders are checked
with the closure in this file, never with ``blockfunctor``, so a change to
the program cannot change its own inputs.
"""

from __future__ import annotations

import hashlib
import os
import random

FIXTURE_DIR = os.path.join("tests", "data")

# name -> (source, expected order).  A source is a tests/data file name,
# ("affine", p, rank, row-major matrix) or ("gens", degree, cycle strings).
BASES = {
    "S3": ("s3.grp", 6),
    "C3": ("c3.grp", 3),
    "A4": ("a4.grp", 12),
    "S4": ("s4.grp", 24),
    "F20": ("f20.grp", 20),
    "F20b": ("f20b.grp", 20),
    "F21": ("f21.grp", 21),
    "G56": ("g56.grp", 56),
    "G72": ("g72.grp", 72),
    "F110": (("affine", 11, 1, (2,)), 110),
    "F156": (("affine", 13, 1, (2,)), 156),
    "C3^2:C4": (("affine", 3, 2, (0, 2, 1, 0)), 36),
    "C11:C5": (("affine", 11, 1, (3,)), 55),
    "C7:C6": (("affine", 7, 1, (3,)), 42),
    "S5": (("gens", 5, ("(1,2,3,4,5)", "(1,2)")), 120),
    "A5": (("gens", 5, ("(1,2,3)", "(1,2,3,4,5)")), 60),
    "PSL27": (("gens", 7, ("(1,2,3,4,5,6,7)", "(3,5)(6,7)")), 168),
    "A6": (("gens", 6, ("(1,2,3)", "(2,3,4,5,6)")), 360),
    "S3xS3": (("gens", 6, ("(1,2,3)", "(1,2)", "(4,5,6)", "(4,5)")), 36),
}


def parse_cycles(degree, text):
    """Images tuple (0-based) of a cycle string like ``(1,2)(3,4,5)``."""
    images = list(range(degree))
    for body in text.replace(" ", "").strip("()").split(")("):
        if not body:
            continue
        points = [int(tok) - 1 for tok in body.split(",")]
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


def cycle_string(images):
    seen = set()
    out = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        pt = images[start]
        while pt != start:
            cycle.append(pt)
            seen.add(pt)
            pt = images[pt]
        out.append("(" + ",".join(str(v + 1) for v in cycle) + ")")
    return "".join(out) or "()"


def mul(a, b):
    """Apply a, then b."""
    return tuple(b[i] for i in a)


def closure(gens, degree):
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def affine_generators(p, rank, entries):
    """Translations of (F_p)^rank and the matrix action, as point images."""
    vectors = [tuple((v // p ** i) % p for i in range(rank)) for v in range(p ** rank)]
    index = {v: i for i, v in enumerate(vectors)}
    matrix = [entries[i * rank:(i + 1) * rank] for i in range(rank)]
    gens = [
        tuple(index[tuple((v[i] + (i == b)) % p for i in range(rank))] for v in vectors)
        for b in range(rank)
    ]
    gens.append(tuple(
        index[tuple(sum(matrix[i][j] * v[j] for j in range(rank)) % p for i in range(rank))]
        for v in vectors
    ))
    return p ** rank, gens


def read_fixture(root, filename):
    """(degree, generator images) of a tests/data file, either form."""
    keys = {}
    gens = []
    with open(os.path.join(root, FIXTURE_DIR, filename), encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, payload = line.partition(" ")
            if key == "gen":
                gens.append(payload.strip())
            else:
                keys[key] = payload.strip()
    if "frobenius" in keys:
        entries = [int(v) for v in keys["matrix"].split()]
        return affine_generators(int(keys["p"]), int(keys["rank"]), entries)
    degree = int(keys["degree"])
    return degree, [parse_cycles(degree, g) for g in gens]


def canonical(root, name):
    """(degree, generator images) of the canonical presentation."""
    source, order = BASES[name]
    if isinstance(source, str):
        degree, gens = read_fixture(root, source)
    elif source[0] == "affine":
        degree, gens = affine_generators(*source[1:])
    else:
        degree = source[1]
        gens = [parse_cycles(degree, s) for s in source[2]]
    if len(closure(gens, degree)) != order:
        raise ValueError(f"canonical {name} does not have order {order}")
    return degree, gens


def _rng(seed, label):
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def presentation(root, name, seed, label):
    """A presentation of one group: the canonical one when seed is None,
    otherwise a random relabeling of the points with a random generating
    pair, drawn from (seed, label)."""
    degree, gens = canonical(root, name)
    if seed is None:
        return degree, gens
    order = BASES[name][1]
    rng = _rng(seed, label)
    relabel = list(range(degree))
    rng.shuffle(relabel)
    inverse = [0] * degree
    for i, j in enumerate(relabel):
        inverse[j] = i
    relabel, inverse = tuple(relabel), tuple(inverse)
    elements = sorted(mul(mul(inverse, g), relabel) for g in closure(gens, degree))
    while True:
        drawn = [rng.choice(elements), rng.choice(elements)]
        if len(closure(drawn, degree)) == order:
            return degree, drawn


def write_case(root, out_dir, name, prime, seed, label):
    """Write one generator-form group file; returns its path."""
    degree, gens = presentation(root, name, seed, label)
    path = os.path.join(out_dir, "".join(c if c.isalnum() else "_" for c in label) + ".grp")
    lines = [f"name {name}", f"degree {degree}", f"prime {prime}"]
    lines.extend(f"gen {cycle_string(g)}" for g in gens)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path
