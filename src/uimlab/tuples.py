"""Tuples over a finite alphabet, dense encodings, index maps, the
pair-collapsing maps behind identification minors, and the string functions
``ofo`` (order of first occurrence) and ``supp`` (support).

Symbols and positions are 0-based internally; the rendering helpers produce
the 1-based form used in human-facing output, so e.g. internal ``(0, 0, 1)``
prints as ``(1,1,2)``.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _perms
from itertools import product as _product
from operator import itemgetter

__all__ = [
    "IndexMap",
    "IndexPair",
    "Permutation",
    "all_tuples",
    "apply_index_map",
    "collapse_map",
    "decode",
    "encode",
    "enumerate_repeat_free",
    "has_repeat",
    "ofo",
    "parse_tuple",
    "perm_remaps",
    "pullback_remap",
    "render_tuple",
    "supp",
]


def _size(alphabet) -> int:
    k = int(alphabet)
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    return k


@dataclass(frozen=True)
class IndexMap:
    """A map from positions ``0..source-1`` to positions ``0..target-1``.

    Tuples are pulled back along it (see :func:`apply_index_map`): a tuple of
    length ``target`` yields one of length ``source``.
    """

    source: int
    target: int
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if self.source < 0 or self.target < 0:
            raise ValueError("arities must be nonnegative")
        if len(self.images) != self.source:
            raise ValueError(
                f"expected {self.source} images, got {len(self.images)}"
            )
        for v in self.images:
            if not 0 <= v < self.target:
                raise ValueError(f"image {v} out of range 0..{self.target - 1}")

    def after(self, inner: "IndexMap") -> "IndexMap":
        """Function composition ``self ∘ inner``."""
        if inner.target != self.source:
            raise ValueError(
                f"cannot compose: inner target {inner.target} != source {self.source}"
            )
        return IndexMap(
            inner.source, self.target, tuple(self.images[v] for v in inner.images)
        )


@dataclass(frozen=True)
class Permutation:
    """A bijection on positions ``0..degree-1``, in one-line notation.

    >>> Permutation((1, 2, 0)).one_line()
    '[2,3,1]'
    """

    images: tuple

    def __post_init__(self):
        if type(self.images) is not tuple:
            object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation in one-line notation: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    # IndexMap-shaped aliases so apply_index_map accepts either type.
    @property
    def source(self) -> int:
        return len(self.images)

    @property
    def target(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def rotation(cls, n: int, offset: int) -> "Permutation":
        """The cyclic shift sending position ``j`` to ``(j + offset) mod n``."""
        return cls(tuple((j + offset) % n for j in range(n)))

    @classmethod
    def all_perms(cls, n: int):
        """All degree-``n`` permutations in lexicographic one-line order."""
        for im in _perms(range(n)):
            yield cls(im)

    def inverse(self) -> "Permutation":
        out = [0] * len(self.images)
        for i, v in enumerate(self.images):
            out[v] = i
        return Permutation(tuple(out))

    def after(self, inner: "Permutation") -> "Permutation":
        """Composition ``self ∘ inner`` (apply ``inner`` first)."""
        if inner.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[v] for v in inner.images))

    def as_index_map(self) -> IndexMap:
        return IndexMap(self.degree, self.degree, self.images)

    def pair_image(self, pair: "IndexPair") -> "IndexPair":
        """The unordered image ``{self(lo), self(hi)}`` of a pair of positions."""
        a, b = self.images[pair.lo], self.images[pair.hi]
        return IndexPair(min(a, b), max(a, b))

    def one_line(self) -> str:
        """1-based one-line rendering, e.g. ``[2,3,1]``."""
        return "[" + ",".join(str(v + 1) for v in self.images) + "]"


@dataclass(frozen=True)
class IndexPair:
    """An unordered pair of distinct positions, stored with ``lo < hi``."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 0 <= self.lo < self.hi:
            raise ValueError(f"need 0 <= lo < hi, got ({self.lo}, {self.hi})")

    @classmethod
    def all_pairs(cls, n: int):
        """All pairs of positions below ``n``, lexicographically."""
        for lo in range(n - 1):
            for hi in range(lo + 1, n):
                yield cls(lo, hi)

    @classmethod
    def parse(cls, text: str) -> "IndexPair":
        """Parse a 1-based pair like ``2,4`` or ``{2,4}``."""
        parts = text.strip().strip("{}()").split(",")
        if len(parts) != 2 or not all(p.strip().isdecimal() for p in parts):
            raise ValueError(f"expected two 1-based positions like 2,4, got {text!r}")
        a, b = (int(p) - 1 for p in parts)
        if min(a, b) < 0:
            raise ValueError(f"positions are 1-based, got {text!r}")
        if a == b:
            raise ValueError(f"positions must be distinct, got {text!r}")
        return cls(min(a, b), max(a, b))

    def render(self) -> str:
        """1-based rendering, e.g. ``{2,4}``."""
        return "{%d,%d}" % (self.lo + 1, self.hi + 1)


def encode(t, alphabet) -> int:
    """Dense index of ``t``: big-endian base ``k``, first coordinate most
    significant, so lexicographic tuple order equals index order.

    >>> encode((1, 0), 2)
    2
    """
    k = _size(alphabet)
    index = 0
    for x in t:
        if not 0 <= x < k:
            raise ValueError(f"symbol {x} out of range for alphabet of size {k}")
        index = index * k + x
    return index


def decode(index: int, arity: int, alphabet):
    """Inverse of :func:`encode` for fixed arity and alphabet."""
    k = _size(alphabet)
    if not 0 <= index < k**arity:
        raise ValueError(f"index {index} out of range for {arity} symbols over {k}")
    out = [0] * arity
    for pos in range(arity - 1, -1, -1):
        index, out[pos] = divmod(index, k)
    return tuple(out)


def all_tuples(alphabet, arity: int):
    """Iterate the full tuple space in encode-index order."""
    return _product(range(_size(alphabet)), repeat=arity)


def apply_index_map(t, m):
    """Pull ``t`` back along ``m``: component ``j`` of the result is
    ``t[m.images[j]]``.  Accepts an :class:`IndexMap` or a :class:`Permutation`.

    >>> apply_index_map((7, 8), IndexMap(3, 2, (0, 1, 1)))
    (7, 8, 8)
    """
    if len(t) != m.target:
        raise ValueError(f"tuple length {len(t)} != map target arity {m.target}")
    return tuple(t[j] for j in m.images)


def _tuple_getter(positions):
    """``itemgetter(*positions)``, but a tuple also for a single position."""
    if len(positions) == 1:
        (i,) = positions
        return lambda t: (t[i],)
    return itemgetter(*positions)


def pullback_remap(alphabet, images, target: int) -> list:
    """Index form of pulling back along ``images``: entry ``encode(a)`` is
    ``encode(apply_index_map(a, IndexMap(len(images), target, images)))``,
    for every length-``target`` tuple ``a`` in encode order.

    So ``[values[j] for j in pullback_remap(k, images, target)]`` is the
    table ``values`` precomposed with that pullback.

    >>> pullback_remap(2, (0, 1, 1), 2)
    [0, 3, 4, 7]
    """
    k = _size(alphabet)
    weights = [0] * target
    place = 1
    for v in reversed(images):
        if not 0 <= v < target:
            raise ValueError(f"image {v} out of range 0..{target - 1}")
        weights[v] += place
        place *= k
    out = [0]
    for w in weights:
        steps = [d * w for d in range(k)]
        out = [x + y for x in out for y in steps]
    return out


def perm_remaps(alphabet, n: int):
    """Yield ``(sigma, pullback_remap(k, sigma, n))`` for every permutation
    ``sigma`` of ``range(n)``, in lexicographic order, one at a time.

    The next ``sigma`` in that order is ``sigma`` with positions ``i < j``
    swapped and the positions after ``i`` reversed, that is ``sigma ∘ step``
    for a ``step`` fixed by ``(i, j)``; so its remap is the step's remap read
    at the entries of ``sigma``'s.  Each distinct step is pulled back once
    per call and read through the identity list, so every entry yielded is
    one of the identity's ``k**n`` int objects.  Only the current remap and
    the step remaps, at most n(n-1)/2 of them, are held.

    >>> [remap for _, remap in perm_remaps(2, 2)]
    [[0, 1, 2, 3], [0, 2, 1, 3]]
    """
    identity = list(range(_size(alphabet) ** n))
    sigma, remap = list(range(n)), identity
    steps = {}
    while True:
        yield tuple(sigma), remap
        i = n - 2
        while i >= 0 and sigma[i] > sigma[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while sigma[j] < sigma[i]:
            j -= 1
        step = steps.get((i, j))
        if step is None:
            images = list(range(n))
            images[i], images[j] = j, i
            images[i + 1:] = reversed(images[i + 1:])
            step = steps[i, j] = list(
                map(identity.__getitem__, pullback_remap(alphabet, images, n)))
        sigma[i], sigma[j] = sigma[j], sigma[i]
        sigma[i + 1:] = reversed(sigma[i + 1:])
        remap = list(_tuple_getter(remap)(step))


def collapse_map(pair: IndexPair, n: int) -> IndexMap:
    """The surjection from ``n`` positions to ``n - 1`` that sends ``pair.hi``
    onto ``pair.lo`` and shifts the higher positions down by one.

    Pulling an ``(n-1)``-tuple back along it inserts a duplicate of its
    ``pair.lo`` entry at position ``pair.hi``; the only two-element fiber is
    the one over ``pair.lo``, namely ``{pair.lo, pair.hi}``.
    """
    if n < 2:
        raise ValueError(f"need arity >= 2, got {n}")
    if pair.hi >= n:
        raise ValueError(f"pair {pair.render()} out of range for arity {n}")
    return IndexMap(n, n - 1, _collapse_images(pair.lo, pair.hi, n))


@lru_cache(maxsize=256)
def _collapse_images(lo: int, hi: int, n: int) -> tuple:
    """The images of :func:`collapse_map` for the pair ``{lo, hi}``, already
    checked; memoized, as an arity has only n(n-1)/2 of them."""
    return tuple(l if l < hi else (lo if l == hi else l - 1) for l in range(n))


def _collapse_section(hi: int, n: int) -> tuple:
    """For each collapsed position, the least position that
    :func:`_collapse_images` maps onto it.  Position ``lo`` is its own least
    preimage, so the section does not depend on ``lo``."""
    return tuple(j if j < hi else j + 1 for j in range(n - 1))


def ofo(t):
    """The subsequence keeping only the first occurrence of each element.

    Works on any iterable of hashable symbols; always returns a tuple.

    >>> "".join(ofo("balloon"))
    'balon'
    """
    return tuple(dict.fromkeys(t))


def supp(t) -> frozenset:
    """The set of elements occurring in ``t``; undefined on the empty tuple."""
    fs = frozenset(t)
    if not fs:
        raise ValueError("supp is undefined on the empty tuple")
    return fs


def has_repeat(t) -> bool:
    return len(set(t)) < len(t)


def enumerate_repeat_free(alphabet, max_len: int):
    """All repeat-free tuples of length ``0..min(max_len, k)``, each exactly
    once, shortest first and lexicographic within each length."""
    k = _size(alphabet)
    out = []
    for length in range(min(max_len, k) + 1):
        out.extend(_perms(range(k), length))
    return out


def render_tuple(t) -> str:
    """1-based display form: internal ``(0,0,1,2,3)`` prints as ``(1,1,2,3,4)``."""
    return "(" + ",".join(str(x + 1) for x in t) + ")"


def parse_tuple(text: str):
    """Parse a 1-based rendering like ``(1,1,2)`` back to internal symbols."""
    body = text.strip().strip("()")
    if not body.strip():
        return ()
    parts = body.split(",")
    if not all(p.strip().isdecimal() and int(p) > 0 for p in parts):
        raise ValueError(f"symbols are 1-based integers like (1,1,2), got {text!r}")
    return tuple(int(p) - 1 for p in parts)
