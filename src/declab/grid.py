"""Dyadic squares and cap partitions of the parameter square [0,1]^2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True, order=True)
class DyadicSquare:
    """The square [i 2^-m, (i+1) 2^-m] x [j 2^-m, (j+1) 2^-m]."""

    level: int
    i: int
    j: int

    def __post_init__(self):
        n = 1 << self.level
        if self.level < 0 or not (0 <= self.i < n and 0 <= self.j < n):
            raise ValueError("square indices out of range")

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        h = self.side
        return (self.i * h, (self.i + 1) * h, self.j * h, (self.j + 1) * h)

    @property
    def corner(self) -> tuple[float, float]:
        return (self.i * self.side, self.j * self.side)

    @property
    def center(self) -> tuple[float, float]:
        h = self.side
        return ((self.i + 0.5) * h, (self.j + 0.5) * h)

    def contains(self, t, s) -> np.ndarray:
        """Half-open membership [t0,t1) x [s0,s1); the squares touching the
        top/right boundary of [0,1]^2 are closed there so that level-m caps
        tile the unit square exactly."""
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        t0, t1, s0, s1 = self.bounds
        n = 1 << self.level
        right = (t < t1) | ((self.i == n - 1) & (t <= t1))
        top = (s < s1) | ((self.j == n - 1) & (s <= s1))
        return (t >= t0) & right & (s >= s0) & top

    def contains_square(self, other: "DyadicSquare") -> bool:
        if other.level < self.level:
            return False
        shift = other.level - self.level
        return (other.i >> shift) == self.i and (other.j >> shift) == self.j

    def subdivide(self, levels: int = 1) -> list["DyadicSquare"]:
        out = []
        f = 1 << levels
        for di in range(f):
            for dj in range(f):
                out.append(DyadicSquare(self.level + levels,
                                        self.i * f + di, self.j * f + dj))
        return out


def square_at(level: int, t: float, s: float) -> DyadicSquare:
    """The level-m cap containing (t, s) under the half-open convention."""
    n = 1 << level
    i = min(int(np.floor(t * n)), n - 1)
    j = min(int(np.floor(s * n)), n - 1)
    return DyadicSquare(level, i, j)


@dataclass(frozen=True)
class CapPartition:
    """A list of disjoint dyadic squares at one level covering a region."""

    level: int
    squares: tuple[DyadicSquare, ...]

    def __post_init__(self):
        seen = set()
        for sq in self.squares:
            if sq.level != self.level:
                raise ValueError("all squares must sit at the partition level")
            key = (sq.i, sq.j)
            if key in seen:
                raise ValueError("duplicate square in partition")
            seen.add(key)

    def __iter__(self) -> Iterator[DyadicSquare]:
        return iter(self.squares)

    def __len__(self) -> int:
        return len(self.squares)

    @classmethod
    def full(cls, level: int) -> "CapPartition":
        n = 1 << level
        sqs = tuple(DyadicSquare(level, i, j) for i in range(n) for j in range(n))
        return cls(level, sqs)

    @classmethod
    def of_region(cls, level: int, region: DyadicSquare) -> "CapPartition":
        if level < region.level:
            raise ValueError("partition level must refine the region")
        return cls(level, tuple(region.subdivide(level - region.level)))

    def assign(self, t, s) -> np.ndarray:
        """Index of the square owning each point, -1 when uncovered."""
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        out = np.full(np.broadcast_shapes(t.shape, s.shape), -1, dtype=int)
        n = 1 << self.level
        ti = np.minimum(np.floor(t * n).astype(int), n - 1)
        sj = np.minimum(np.floor(s * n).astype(int), n - 1)
        lookup = {(sq.i, sq.j): k for k, sq in enumerate(self.squares)}
        flat_t, flat_s, flat_o = ti.ravel(), sj.ravel(), out.ravel()
        for k in range(flat_t.size):
            flat_o[k] = lookup.get((flat_t[k], flat_s[k]), -1)
        return flat_o.reshape(out.shape)


def cap_level_for(n_scale: float) -> int:
    """Cap level m = ceil(log2 sqrt(N)); caps have side ~ N^{-1/2}."""
    if not 1 <= n_scale < np.inf:
        raise ValueError(f"scale must be finite and >= 1, got {n_scale}")
    return int(np.ceil(np.log2(np.sqrt(n_scale)) - 1e-12))
