"""Permutations of {1..n} with cycle-notation input and output.

Points are 0-based internally; all text I/O is 1-based.  The product
``a * b`` applies ``a`` first and then ``b``, and conjugation is fixed as
``conjugate(g, x) == g * x * g.inverse()`` throughout the package.

Validation happens at the boundary only: ``Permutation(images)`` and
``parse`` check that the images are a permutation.  ``parse`` is the only
reader of cycle notation; group files read their ``gen`` lines through it.
Products, inverses, powers and the identity are permutations by
construction and skip the check through ``_trusted``.  Products and
conjugates gather their images with ``operator.itemgetter``, one C call
per pass over the points.
"""

from __future__ import annotations

from functools import partial
from math import lcm
from operator import itemgetter

_new = object.__new__


class CycleSyntaxError(ValueError):
    """Bad cycle notation; ``index`` is where the cycle at fault starts."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


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
    def parse(cls, degree: int, text: str) -> "Permutation":
        """Parse 1-based cycle notation like ``(1,2,3) (4, 5)``; ``()`` is
        the identity.  Whitespace may separate cycles and surround points.

        The cycles are read left to right, and the first fault raises
        CycleSyntaxError with the index in ``text`` where its cycle starts.
        """
        images = list(range(degree))
        seen = set()
        i, n = 0, len(text)
        while i < n:
            if text[i].isspace():
                i += 1
                continue
            if text[i] != "(":
                raise CycleSyntaxError(f"expected '(' but found {text[i]!r}", i)
            end = text.find(")", i)
            if end < 0:
                raise CycleSyntaxError("unclosed cycle", i)
            body = text[i + 1:end].strip()
            points = []
            for tok in body.split(",") if body else ():
                tok = tok.strip()
                if not tok.isdecimal():  # what int() reads: no superscripts
                    raise CycleSyntaxError(f"expected a point, got {tok!r}", i)
                pt = int(tok)
                if not 1 <= pt <= degree:
                    raise CycleSyntaxError(f"point {pt} out of range 1..{degree}", i)
                if pt in seen:
                    raise CycleSyntaxError(f"repeated point {pt}", i)
                seen.add(pt)
                points.append(pt - 1)
            for a, b in zip(points, points[1:] + points[:1]):
                images[a] = b
            i = end + 1
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        images = self.images
        if len(images) < 2:  # the identity is all there is, and itemgetter
            return self  # with one index returns a scalar, not a tuple
        return _trusted(itemgetter(*images)(other.images))

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


def conjugation(g: Permutation):
    """The map x -> g * x * g^-1, with g^-1 computed once for all the
    elements it is applied to."""
    return partial(conjugate_with, g, g.inverse())


def conjugate_with(g: Permutation, g_inv: Permutation, x: Permutation) -> Permutation:
    """The conjugate g * x * g_inv, for a caller that holds g_inv = g^-1;
    one pass over the points instead of two products."""
    images = g.images
    if len(images) < 2:  # see Permutation.__mul__
        return x
    return _trusted(itemgetter(*itemgetter(*images)(x.images))(g_inv.images))
