"""Exception types shared across the package."""

from __future__ import annotations


class LatquotError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(LatquotError):
    """A vector or matrix has the wrong length for the lattice at hand."""


class NotSymmetric(LatquotError):
    """A candidate Gram matrix differs from its transpose."""

    def __init__(self, i: int, j: int):
        self.position = (i, j)
        super().__init__(f"entry ({i}, {j}) differs from entry ({j}, {i})")


class NotPositiveDefinite(LatquotError):
    """A candidate Gram matrix has a non-positive leading principal minor."""

    def __init__(self, minor: int):
        self.minor = minor
        super().__init__(f"leading principal minor of order {minor} is not positive")


class ParseError(LatquotError):
    """A lattice file could not be parsed."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ResourceExceeded(LatquotError):
    """A search or enumeration ran past its node budget."""

    def __init__(self, nodes: int, budget: int):
        self.nodes = nodes
        self.budget = budget
        super().__init__(f"node budget exceeded ({nodes} > {budget})")


class DependentFrame(LatquotError):
    """Frame vectors are linearly dependent."""


class CodeTooLight(LatquotError):
    """A code has minimum weight too small for the requested construction."""


class MinimumDrops(LatquotError):
    """A lifted lattice acquired a vector shorter than the base minimum."""


class UnknownLattice(LatquotError):
    """No lattice of the requested name is registered."""
