"""Partitions of site indices into a fixed number of nonempty blocks.

A partition of ``n`` sites into ``k`` blocks is encoded as a restricted
growth string: entry ``m`` is the block label of site ``m``, labels appear
in first-use order starting at 0, so the encoding is canonical and two
partitions are equal iff their strings are equal.  Enumeration is
lexicographic in the string, which makes every listing deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import GuardError, ParameterError

# a swap set is just the set of site indices exchanged between the two copies
SwapSet = frozenset

# most partitions a plan builds or a listing prints; S(12, 6) = 1 323 652
# is refused, S(10, 5) = 42 525 is fine
MAX_PARTITIONS = 1_000_000

# rows turned into Python objects at a time by a bulk conversion (label
# rows here, report terms in the CLI writer), which keeps its short-lived
# objects to a few tens of KB and so off the peak resident memory
_CHUNK = 256


@dataclass(frozen=True)
class KPartition:
    """A partition of sites 0..n-1 into exactly k nonempty blocks."""

    n: int
    k: int
    rgs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rgs", tuple(int(x) for x in self.rgs))
        if self.n < 1:
            raise ParameterError(f"need at least one site, got n={self.n}")
        if not 1 <= self.k <= self.n:
            raise ParameterError(f"block count k={self.k} outside 1..{self.n}")
        if len(self.rgs) != self.n:
            raise ParameterError(
                f"label string has length {len(self.rgs)}, expected n={self.n}"
            )
        top = -1
        for pos, label in enumerate(self.rgs):
            if label < 0 or label > top + 1:
                raise ParameterError(
                    f"not a restricted growth string: label {label} at position {pos}"
                )
            if label > top:
                top = label
        if top != self.k - 1:
            raise ParameterError(f"string uses {top + 1} blocks, expected k={self.k}")

    def blocks(self) -> list[tuple[int, ...]]:
        """Blocks as site tuples, each ascending, ordered by first occurrence."""
        out: list[list[int]] = [[] for _ in range(self.k)]
        for site, label in enumerate(self.rgs):
            out[label].append(site)
        return [tuple(block) for block in out]

    def notation(self) -> str:
        """Compact block notation, e.g. ``"0,1|2"``."""
        return _notations([self.rgs])[0]

    @classmethod
    def from_blocks(cls, blocks) -> "KPartition":
        """Build from explicit blocks (any order); sites must cover 0..n-1."""
        sites = [s for block in blocks for s in block]
        n = len(sites)
        if sorted(sites) != list(range(n)):
            raise ParameterError("blocks must partition the sites 0..n-1")
        label_of = {}
        for idx, block in enumerate(blocks):
            if not block:
                raise ParameterError("blocks must be nonempty")
            for s in block:
                label_of[s] = idx
        # relabel in first-occurrence order to get the canonical string
        relabel: dict[int, int] = {}
        rgs = []
        for site in range(n):
            raw = label_of[site]
            if raw not in relabel:
                relabel[raw] = len(relabel)
            rgs.append(relabel[raw])
        return cls(n=n, k=len(blocks), rgs=tuple(rgs))


def enumerate_kpartitions(n: int, k: int) -> Iterator[KPartition]:
    """Yield every partition of n sites into k blocks, lexicographic in rgs.

    Raises when called: ParameterError for k outside 1..n, GuardError past
    MAX_PARTITIONS.
    """
    return _partitions_of(n, k, _label_rows(n, k))


def _partitions_of(n: int, k: int, rows: np.ndarray) -> Iterator[KPartition]:
    """A ``KPartition`` per row of ``_label_rows(n, k)``, without the checks
    of ``__post_init__``: those rows are restricted growth strings by
    construction.  Fields are set the way the frozen dataclass's ``__init__``
    sets them, so no instance dict is materialised."""
    new, put = object.__new__, object.__setattr__
    for start in range(0, len(rows), _CHUNK):
        for row in rows[start : start + _CHUNK].tolist():
            part = new(KPartition)
            put(part, "n", n)
            put(part, "k", k)
            put(part, "rgs", tuple(row))
            yield part


def _notations(rows) -> list[str]:
    """``KPartition.notation`` of every restricted growth string in ``rows``
    (one per row, all of the same length), built from the label array.

    A stable argsort of a row lists its sites block by block, ascending
    within each block; neighbours with equal labels are joined by ``","``,
    the others by ``"|"``.  Every row has the same characters in another
    order, so the rows are cut from one code-point array per chunk.
    """
    if not len(rows):
        return []
    n = len(rows[0])
    rows = np.asarray(rows, dtype=np.min_scalar_type(-n))  # labels are < n
    names = np.array([str(site) for site in range(n)])
    wide = names.itemsize // 4
    # site names as code points, zero-padded to the widest name
    names = names.view(np.uint32).reshape(n, wide)
    length = int(np.count_nonzero(names)) + n - 1
    out: list[str] = []
    for start in range(0, len(rows), _CHUNK):
        chunk = rows[start : start + _CHUNK]
        order = np.argsort(chunk, axis=1, kind="stable")
        labels = np.take_along_axis(chunk, order, axis=1)
        # each site name, then its separator (none after the last site)
        cells = np.zeros((len(chunk), n, wide + 1), dtype=np.uint32)
        cells[:, :, :wide] = names[order]
        cells[:, :-1, wide] = np.where(labels[:, 1:] == labels[:, :-1], ord(","), ord("|"))
        out += cells[cells != 0].view(f"U{length}").tolist()
    return out


def _label_rows(n: int, k: int) -> np.ndarray:
    """The label strings of every partition of n sites into k blocks, one
    row each, lexicographic; errors as ``enumerate_kpartitions``, raised
    before any row is built."""
    if n < 1:
        raise ParameterError(f"need at least one site, got n={n}")
    if not 1 <= k <= n:
        raise ParameterError(f"block count k={k} outside 1..{n}")
    count = stirling2(n, k)
    if count > MAX_PARTITIONS:
        raise GuardError(
            f"{count} partitions of {n} sites into {k} blocks exceed the guard {MAX_PARTITIONS}"
        )
    dtype = np.min_scalar_type(-k)  # int8 up to k = 128
    labels = np.arange(k)
    rows = np.zeros((1, 1), dtype=dtype)  # site 0 always opens block 0
    opened = np.ones(1, dtype=np.intp)
    for pos in range(1, n):
        # each row continues with 0..min(opened, k-1); label == opened opens a
        # block, and a row that can no longer open k blocks is dropped
        grown = np.maximum(opened[:, None], labels + 1)
        keep = (labels <= opened[:, None]) & (k - grown <= n - 1 - pos)
        # nonzero is row-major: parents in order, each parent's labels ascending
        parent, label = np.nonzero(keep)
        rows = np.column_stack((rows[parent], label.astype(dtype)))
        opened = grown[parent, label]
    return rows


def block_pairs(k: int) -> list[tuple[int, int, int]]:
    """The merged block pairs of any partition into k blocks, in swap-set order.

    The ordered pair (i, j) exchanges the sites of block i and block j
    between the two state copies, i.e. it acts on the union of the two
    blocks (block i alone when i = j).  The two orders of a distinct pair
    act on the same union, so they are merged and carry multiplicity 2;
    diagonal pairs carry multiplicity 1.  Multiplicities sum to k^2.

    Returns a list of (i, j, multiplicity) with i <= j, diagonal entries
    first.
    """
    return [(i, i, 1) for i in range(k)] + [
        (i, j, 2) for i in range(k) for j in range(i + 1, k)
    ]


def swap_sets(partition: KPartition) -> list[tuple[int, int, SwapSet, int]]:
    """Merged copy-swap site sets for every block pair of ``partition``.

    Returns a list of (i, j, sites, multiplicity) in ``block_pairs`` order.
    """
    blocks = [frozenset(block) for block in partition.blocks()]
    return [(i, j, blocks[i] | blocks[j], mult) for i, j, mult in block_pairs(partition.k)]


def stirling2(n: int, k: int) -> int:
    """Number of partitions of n items into k nonempty blocks.

    Tabulated independently of the enumerator via the standard recurrence
    S(n, k) = k * S(n-1, k) + S(n-1, k-1).
    """
    if n < 0 or k < 0:
        raise ParameterError("n and k must be nonnegative")
    if k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    row = [1] + [0] * k  # S(0, 0..k)
    for m in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(m, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]
