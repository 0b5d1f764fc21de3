"""Permutation groups, 2-set-transitivity of a group, and the permutation
induced on collapsed argument positions: :func:`collapse_permutation` for
one pair, :func:`collapse_permutations` for every pair of one permutation.
A table's invariance group is built by
:func:`uimlab.analysis.invariance_group`.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .tuples import (
    IndexPair, Permutation, _collapse_images, _collapse_section, _tuple_getter,
)

__all__ = [
    "PermutationGroup",
    "collapse_permutation",
    "collapse_permutations",
    "is_2_set_transitive",
]


@dataclass(frozen=True)
class PermutationGroup:
    """An explicit set of permutations of one degree.

    Construction checks identity and closure, which implies inverses in a
    finite set.  Closure is decided on a greedy generating set: each element
    not yet generated joins it, and the subgroup generated so far is closed
    again by breadth-first search.  Every product formed must lie in the
    set, and at most 2 * |G| * log2|G| are formed.
    """

    degree: int
    elements: frozenset

    def __post_init__(self):
        object.__setattr__(self, "elements", frozenset(self.elements))
        elems = self.elements
        if not elems:
            raise ValueError("a permutation group cannot be empty")
        for s in elems:
            if s.degree != self.degree:
                raise ValueError(f"element {s.one_line()} has wrong degree")
        if Permutation.identity(self.degree) not in elems:
            raise ValueError("missing identity element")
        images = {s.images for s in elems}
        generated = {tuple(range(self.degree))}
        gens = []
        for g in sorted(images):
            if g in generated:
                continue
            gens.append(g)
            frontier = list(generated)
            while frontier:
                a = frontier.pop()
                for b in gens:
                    ab = tuple(a[v] for v in b)
                    if ab not in images:
                        raise ValueError("not closed under composition: "
                                         f"{Permutation(a).one_line()} after "
                                         f"{Permutation(b).one_line()}")
                    if ab not in generated:
                        generated.add(ab)
                        frontier.append(ab)

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def symmetric(cls, n: int) -> "PermutationGroup":
        return cls(n, frozenset(Permutation.all_perms(n)))

    @classmethod
    def trivial(cls, n: int) -> "PermutationGroup":
        return cls(n, frozenset({Permutation.identity(n)}))


def is_2_set_transitive(group: PermutationGroup) -> bool:
    """Does the group act transitively on unordered pairs of positions?

    Tested as: the orbit of the first pair has full size.  For degree 2 there
    is a single pair, so every group passes; callers that care flag that
    degenerate case separately.
    """
    n = group.degree
    if n < 2:
        raise ValueError(f"2-set-transitivity needs degree >= 2, got {n}")
    base = IndexPair(0, 1)
    orbit = {s.pair_image(base) for s in group.elements}
    return len(orbit) == n * (n - 1) // 2


# The tau that collapse_permutation(s) return, one validated Permutation per
# distinct images tuple.  8192 holds every tau of degree up to 7 (the sum of
# d! for d <= 7 is 5913).
_permutation = lru_cache(maxsize=8192)(Permutation)


# One tuple getter per positions tuple, for the sections of _collapse_taus.
_getter = lru_cache(maxsize=256)(_tuple_getter)


@lru_cache(maxsize=64)
def _collapse_rows(n: int) -> tuple:
    """``(lo, hi, collapse images)`` for every pair of degree ``n``, in
    :meth:`IndexPair.all_pairs` order."""
    return tuple((p.lo, p.hi, _collapse_images(p.lo, p.hi, n)) for p in IndexPair.all_pairs(n))


@lru_cache(maxsize=64)
def _preimages(n: int) -> list:
    """``_preimages(n)[lo][hi]`` is ``IndexPair(lo, hi)``, one object per
    pair of degree ``n``."""
    return [[IndexPair(lo, hi) if lo < hi else None for hi in range(n)] for lo in range(n)]


def _collapse_taus(sigma: Permutation, rows) -> list:
    """``(tau, preimage)`` of :func:`collapse_permutation` for each pair
    ``(lo, hi, collapse images)`` of ``rows``.  ``sigma``'s inverse, the
    getter of its images and the section getter of each collapsed position
    are formed once for all of them."""
    images = sigma.images
    n = len(images)
    where = [0] * n
    for i, v in enumerate(images):
        where[v] = i
    after_sigma = itemgetter(*images)
    # read[hi] takes d_pair ∘ sigma at the least preimage of each collapsed
    # position of a preimage whose larger member is hi
    read = [_getter(_collapse_section(hi, n)) for hi in range(n)]
    preimages = _preimages(n)
    out = []
    for lo, hi, d_pair in rows:
        a, b = where[lo], where[hi]
        if a > b:
            a, b = b, a
        out.append((_permutation(read[b](after_sigma(d_pair))), preimages[a][b]))
    return out


def collapse_permutation(sigma: Permutation, pair: IndexPair):
    """Push ``sigma`` through the pair-collapsing maps.

    Returns ``(tau, preimage)`` where ``preimage`` is the unordered preimage of
    ``pair`` under ``sigma`` and ``tau`` is the unique permutation of the
    collapsed positions satisfying, as maps::

        tau ∘ collapse_map(preimage, n) == collapse_map(pair, n) ∘ sigma

    and sending the merged position of ``preimage`` (its minimum) to the
    merged position of ``pair``.  The ``lemma-hatsigma`` verification suite
    checks both identities.

    ``tau`` is read off at the least preimage of each collapsed position
    (a memoized section of ``collapse_map(preimage, n)``) and built through
    a memo, so each distinct tau is validated once and returned as the same
    :class:`Permutation` after; the preimage is a memoized :class:`IndexPair`.
    """
    n = sigma.degree
    if n < 2:
        raise ValueError("need degree >= 2")
    if pair.hi >= n:
        raise ValueError(f"pair {pair.render()} out of range for degree {n}")
    (out,) = _collapse_taus(sigma, [(pair.lo, pair.hi, _collapse_images(pair.lo, pair.hi, n))])
    return out


def collapse_permutations(sigma: Permutation) -> list:
    """``collapse_permutation(sigma, pair)`` for every pair of ``sigma``'s
    degree, in :meth:`IndexPair.all_pairs` order, from one inverse of
    ``sigma`` and one getter of its images."""
    n = sigma.degree
    if n < 2:
        raise ValueError("need degree >= 2")
    return _collapse_taus(sigma, _collapse_rows(n))
