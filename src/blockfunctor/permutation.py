"""Permutations of {1..n} with cycle-notation input and output.

Points are 0-based internally; all text I/O is 1-based.  The product
``a * b`` applies ``a`` first and then ``b``, and conjugation is fixed as
``conjugate(g, x) == g * x * g.inverse()`` throughout the package.

Validation happens at the boundary only: ``Permutation(images)``,
``from_cycles`` and ``parse`` check that the images are a permutation.
Products, inverses, powers and the identity are permutations by
construction and skip the check through ``_trusted``.
"""

from __future__ import annotations

from math import lcm

_new = object.__new__


class Permutation:
    """An element of the symmetric group on {0..degree-1}."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images!r}")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return _trusted(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build a permutation from disjoint cycles of 0-based points."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for pt in cycle:
                if not 0 <= pt < degree:
                    raise ValueError(f"point {pt + 1} out of range 1..{degree}")
                if pt in seen:
                    raise ValueError(f"repeated point {pt + 1}")
                seen.add(pt)
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                images[a] = b
        return cls(images)

    @classmethod
    def parse(cls, degree: int, text: str) -> "Permutation":
        """Parse cycle notation like ``(1,2,3)(4,5)``; ``()`` is the identity."""
        cycles = []
        rest = text.replace(" ", "")
        while rest:
            if not rest.startswith("("):
                raise ValueError(f"expected '(' in {text!r}")
            end = rest.find(")")
            if end < 0:
                raise ValueError(f"unclosed cycle in {text!r}")
            body = rest[1:end]
            if body:
                cycles.append(tuple(int(tok) - 1 for tok in body.split(",")))
            rest = rest[end + 1:]
        return cls.from_cycles(degree, cycles)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        images = other.images
        return _trusted(tuple([images[i] for i in self.images]))

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for i, j in enumerate(self.images):
            images[j] = i
        return _trusted(tuple(images))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        power = self
        while n:
            if n & 1:
                result = result * power
            power = power * power
            n >>= 1
        return result

    def order(self) -> int:
        """The lcm of the cycle lengths, walking each cycle from its
        smallest point."""
        images = self.images
        seen = bytearray(len(images))
        result = 1
        for start, pt in enumerate(images):
            if seen[start] or pt == start:
                continue
            length = 1
            while pt != start:
                seen[pt] = 1
                pt = images[pt]
                length += 1
            result = lcm(result, length)
        return result

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self):
        """Nontrivial cycles, each starting at its smallest point."""
        out = []
        seen = set()
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            pt = self.images[start]
            while pt != start:
                cycle.append(pt)
                seen.add(pt)
                pt = self.images[pt]
            out.append(tuple(cycle))
        return out

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(str(pt + 1) for pt in c) + ")" for c in cycles)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __repr__(self):
        return f"Permutation[{self.degree}]{self.cycle_string()}"


def _trusted(images: tuple) -> Permutation:
    """A Permutation on images already known to be a permutation tuple."""
    perm = _new(Permutation)
    perm.images = images
    return perm


def conjugate(g: Permutation, x: Permutation) -> Permutation:
    """The conjugate g * x * g^-1."""
    return conjugate_with(g, g.inverse(), x)


def conjugate_with(g: Permutation, g_inv: Permutation, x: Permutation) -> Permutation:
    """The conjugate g * x * g_inv, for a caller that holds g_inv = g^-1;
    one pass over the points instead of two products."""
    x_images, inv_images = x.images, g_inv.images
    return _trusted(tuple([inv_images[x_images[i]] for i in g.images]))
