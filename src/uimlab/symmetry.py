"""Invariance groups of function tables, total symmetry, 2-set-transitivity,
and the permutation induced on collapsed argument positions.

A table's invariance group is the set of argument permutations that leave it
unchanged.  For a partial table, an invariant permutation must additionally
carry the domain onto itself (automatic when the domain is the set of repeat
tuples, which every permutation preserves).
"""

from dataclasses import dataclass
from math import factorial

from .tuples import IndexPair, Permutation, collapse_map, pullback_remap

__all__ = [
    "PermutationGroup",
    "collapse_permutation",
    "invariance_group",
    "is_2_set_transitive",
    "is_2_set_transitive_fn",
    "is_invariant_under",
    "is_totally_symmetric",
]


@dataclass(frozen=True)
class PermutationGroup:
    """An explicit set of permutations of one degree.

    Construction checks identity and closure, which implies inverses in a
    finite set; it costs O(|G|^2) products, fine for small degrees.
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
        for a in elems:
            for b in elems:
                if tuple(a.images[v] for v in b.images) not in images:
                    raise ValueError(
                        f"not closed under composition: {a.one_line()} after {b.one_line()}"
                    )

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def symmetric(cls, n: int) -> "PermutationGroup":
        return cls(n, frozenset(Permutation.all_perms(n)))

    @classmethod
    def trivial(cls, n: int) -> "PermutationGroup":
        return cls(n, frozenset({Permutation.identity(n)}))


def is_invariant_under(f, sigma: Permutation) -> bool:
    """Does ``f`` equal itself precomposed with the pullback of ``sigma``?

    Partial tables compare ``None`` markers too, which makes the check require
    that the pullback maps the domain onto itself.
    """
    if sigma.degree != f.arity:
        raise ValueError(f"degree {sigma.degree} != arity {f.arity}")
    remap = pullback_remap(f.domain_size, sigma.images, f.arity)
    return tuple(map(f.values.__getitem__, remap)) == f.values


def invariance_group(f) -> PermutationGroup:
    """All permutations under which ``f`` is invariant, as a validated group."""
    elems = frozenset(
        s for s in Permutation.all_perms(f.arity) if is_invariant_under(f, s)
    )
    return PermutationGroup(f.arity, elems)


def is_totally_symmetric(f) -> bool:
    """True iff every argument permutation leaves ``f`` unchanged."""
    return all(is_invariant_under(f, s) for s in Permutation.all_perms(f.arity))


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


def is_2_set_transitive_fn(f) -> bool:
    """Is the invariance group of ``f`` transitive on pairs of positions?"""
    return is_2_set_transitive(invariance_group(f))


def collapse_permutation(sigma: Permutation, pair: IndexPair):
    """Push ``sigma`` through the pair-collapsing maps.

    Returns ``(tau, preimage)`` where ``preimage`` is the unordered preimage of
    ``pair`` under ``sigma`` and ``tau`` is the unique permutation of the
    collapsed positions satisfying, as maps::

        tau ∘ collapse_map(preimage, n) == collapse_map(pair, n) ∘ sigma

    and sending the merged position of ``preimage`` (its minimum) to the
    merged position of ``pair``.  The ``lemma-hatsigma`` verification suite
    checks both identities.
    """
    n = sigma.degree
    if n < 2:
        raise ValueError("need degree >= 2")
    if pair.hi >= n:
        raise ValueError(f"pair {pair.render()} out of range for degree {n}")
    a, b = sigma.images.index(pair.lo), sigma.images.index(pair.hi)
    pre = IndexPair(min(a, b), max(a, b))
    d_pre = collapse_map(pre, n).images
    d_pair = collapse_map(pair, n).images
    images = [None] * (n - 1)
    for i in range(n):
        images[d_pre[i]] = d_pair[sigma.images[i]]
    return Permutation(tuple(images)), pre
