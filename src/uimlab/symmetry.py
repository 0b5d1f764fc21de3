"""Permutation groups, 2-set-transitivity of a group, and the permutation
induced on collapsed argument positions.  A table's invariance group is
built by :func:`uimlab.analysis.invariance_group`.
"""

from dataclasses import dataclass
from functools import lru_cache

from .tuples import IndexPair, Permutation, _collapse_images, _collapse_section

__all__ = [
    "PermutationGroup",
    "collapse_permutation",
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


# The preimages and the tau that collapse_permutation returns, one object per
# pair and one validated Permutation per distinct images tuple.  8192 holds
# every tau of degree up to 7 (the sum of d! for d <= 7 is 5913).
_index_pair = lru_cache(maxsize=1024)(IndexPair)
_permutation = lru_cache(maxsize=8192)(Permutation)


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
    images = sigma.images
    n = len(images)
    if n < 2:
        raise ValueError("need degree >= 2")
    if pair.hi >= n:
        raise ValueError(f"pair {pair.render()} out of range for degree {n}")
    a, b = images.index(pair.lo), images.index(pair.hi)
    lo, hi = (a, b) if a < b else (b, a)
    d_pair = _collapse_images(pair.lo, pair.hi, n)
    tau = _permutation(tuple([d_pair[images[i]] for i in _collapse_section(hi, n)]))
    return tau, _index_pair(lo, hi)
