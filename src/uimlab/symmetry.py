"""Permutation groups, 2-set-transitivity of a group, and the permutation
induced on collapsed argument positions, :func:`collapse_permutation`; its
kernel :func:`_collapse_taus` gives the plain tuples for many pairs of one
permutation at once, as the ``lemma-hatsigma`` suite reads them.
A table's invariance group is built by
:func:`uimlab.analysis.invariance_group`.
"""

from dataclasses import dataclass
from operator import itemgetter

from .tuples import (
    IndexPair, Permutation, _collapse_images, _collapse_section, _tuple_getter,
)

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


def _collapse_taus(images, rows, sections) -> list:
    """``(tau, a, b)`` for each row ``(lo, hi, collapse images)`` of ``rows``,
    for the permutation with one-line ``images``: ``{a, b}`` with ``a < b`` is
    the preimage of the pair ``{lo, hi}``, and the tuple ``tau`` is the
    collapse map of the pair after the permutation, read through
    ``sections[b]`` at the least preimage of each collapsed position.  The
    inverse of the permutation and the getter of its images are formed once
    for all the rows."""
    n = len(images)
    where = [0] * n
    for i, v in enumerate(images):
        where[v] = i
    after_sigma = itemgetter(*images)
    out = []
    for lo, hi, d_pair in rows:
        a, b = where[lo], where[hi]
        if a > b:
            a, b = b, a
        out.append((sections[b](after_sigma(d_pair)), a, b))
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

    ``tau`` is read off by :func:`_collapse_taus` at the least preimage of
    each collapsed position, and is validated as a :class:`Permutation` on
    every call.
    """
    n = sigma.degree
    if n < 2:
        raise ValueError("need degree >= 2")
    if pair.hi >= n:
        raise ValueError(f"pair {pair.render()} out of range for degree {n}")
    sections = [_tuple_getter(_collapse_section(hi, n)) for hi in range(n)]
    ((tau, a, b),) = _collapse_taus(
        sigma.images, [(pair.lo, pair.hi, _collapse_images(pair.lo, pair.hi, n))], sections)
    return Permutation(tau), IndexPair(a, b)
