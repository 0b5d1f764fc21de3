"""Brute-force oracles for the classifier's answers, decided from the
definitions without :class:`uimlab.analysis.TableClassifier`.

A table has a unique identification minor when every minor is equivalent to
the first, each equivalence found by searching permutations; its invariance
group is S_n filtered by pulling the table back along each permutation.
A table is ofo- (supp-) determined when inputs with the same ofo word
(support) take the same value, and equivalent to an ofo-determined table
when one of its n! pull-backs along an argument permutation is; the least
such permutation, with the factorization of that pull-back, is the witness
:func:`uimlab.analysis.equiv_to_ofo_determined` returns.  Undefined
entries of a partial table compare like values, so an invariant permutation
also carries the domain onto itself.  The distinct systems of permuted ofo
fibers are found by keying each remap by the blocks it groups the inputs
into.  The permutation sigma induces on collapsed positions is written
entry by entry through both collapse maps.  The anchored minor equivalence and three of the
verification suites are the loops they were before they were made to read a
row at a time: one check, or one candidate, per step.
"""

from itertools import permutations, product
from math import factorial

from uimlab.decomp import ofo_decompose
from uimlab.ftable import are_equivalent_same_arity, identification_minor
from uimlab.symmetry import PermutationGroup, is_2_set_transitive
from uimlab.tuples import (
    IndexPair,
    Permutation,
    all_tuples,
    apply_index_map,
    collapse_map,
    encode,
    ofo,
    pullback_remap,
    render_tuple,
)


def has_uim(f) -> bool:
    if f.arity < 2:
        raise ValueError("identification minors need arity >= 2")
    minors = [identification_minor(f, p) for p in IndexPair.all_pairs(f.arity)]
    return all(are_equivalent_same_arity(minors[0], m) is not None for m in minors[1:])


def is_invariant_under(f, sigma: Permutation) -> bool:
    remap = pullback_remap(f.domain_size, sigma.images, f.arity)
    return tuple(map(f.values.__getitem__, remap)) == f.values


def invariance_group(f) -> PermutationGroup:
    return PermutationGroup(f.arity, frozenset(
        s for s in Permutation.all_perms(f.arity) if is_invariant_under(f, s)
    ))


def is_totally_symmetric(f) -> bool:
    return invariance_group(f).order == factorial(f.arity)


def is_2_set_transitive_fn(f) -> bool:
    return is_2_set_transitive(invariance_group(f))


def _determined_by(key, k, n, values) -> bool:
    """Do every two inputs with the same ``key`` take the same value?"""
    first = {}
    return all(first.setdefault(key(t), v) == v for t, v in zip(all_tuples(k, n), values))


def ofo_determined(f) -> bool:
    return _determined_by(ofo, f.domain_size, f.arity, f.values)


def supp_determined(f) -> bool:
    return _determined_by(frozenset, f.domain_size, f.arity, f.values)


def equiv_ofo_determined(f) -> bool:
    k, n = f.domain_size, f.arity
    return any(
        _determined_by(ofo, k, n, (
            f.values[encode(apply_index_map(t, sigma), k)] for t in all_tuples(k, n)
        ))
        for sigma in Permutation.all_perms(n)
    )


def ofo_witness(f):
    """The least ``(sigma, f_star)``, sigmas in lexicographic order, with
    ``f_star`` factoring ``f`` pulled back along ``sigma``'s inverse."""
    for sigma in Permutation.all_perms(f.arity):
        f_star = ofo_decompose(f.minor_by(sigma.inverse()))
        if f_star is not None:
            return sigma, f_star
    return None


def ofo_systems(k, n, remaps):
    """The first of ``remaps`` (one per argument permutation, in order) that
    gives each distinct witness partition, keyed by its blocks of more than
    one input: the inputs x grouped by the ofo word of input ``remap[x]``."""
    words = [ofo(t) for t in all_tuples(k, n)]
    systems = {}
    for remap in remaps:
        blocks = {}
        for x, y in enumerate(remap):
            blocks.setdefault(words[y], []).append(x)
        key = frozenset(tuple(block) for block in blocks.values() if len(block) > 1)
        systems.setdefault(key, remap)
    return list(systems.values())


def collapse_permutation(sigma, pair):
    """``(tau, preimage)`` with ``tau`` sending ``d_pre(i)`` to
    ``d_pair(sigma(i))`` for every position ``i``, where ``d_pre`` and
    ``d_pair`` are the collapse maps of the preimage and of ``pair``."""
    n = sigma.degree
    a, b = sigma.images.index(pair.lo), sigma.images.index(pair.hi)
    pre = IndexPair(min(a, b), max(a, b))
    d_pre = collapse_map(pre, n).images
    d_pair = collapse_map(pair, n).images
    images = [None] * (n - 1)
    for i in range(n):
        images[d_pre[i]] = d_pair[sigma.images[i]]
    return tuple(images), pre


def anchored_minor_equivalence(f, pair_i, pair_j):
    """The least ``pi`` with ``pi(pair_j.lo) == pair_i.lo`` carrying the
    minor for ``pair_j`` onto the minor for ``pair_i``, each candidate read
    from ``f`` through the pull-back of ``pi`` after the collapse."""
    n, k, values = f.arity, f.domain_size, f.values

    def pulled_back(images):
        return tuple(map(values.__getitem__, pullback_remap(k, images, n - 1)))

    d_j = collapse_map(pair_j, n)
    lhs = pulled_back(collapse_map(pair_i, n).images)
    positions = [p for p in range(n - 1) if p != pair_j.lo]
    candidates = [v for v in range(n - 1) if v != pair_i.lo]
    for combo in permutations(candidates):
        im = [0] * (n - 1)
        im[pair_j.lo] = pair_i.lo
        for p, v in zip(positions, combo):
            im[p] = v
        if pulled_back([im[x] for x in d_j.images]) == lhs:
            return Permutation(tuple(im))
    return None


def ofo_identities(k, max_len, triple_total, ofo=ofo):
    """``(checked, counterexample)`` of the ``ofo-identities`` suite, one
    ``ofo`` call per image a check compares."""
    checked = 0
    for length in range(max_len + 1):
        for t in product(range(k), repeat=length):
            checked += 1
            if ofo(ofo(t)) != ofo(t):
                return checked, f"idempotence fails at {render_tuple(t)}"
    strings = [list(product(range(k), repeat=length)) for length in range(triple_total + 1)]
    for la in range(triple_total + 1):
        for lb in range(triple_total - la + 1):
            for u in strings[la]:
                for v in strings[lb]:
                    checked += 1
                    if ofo(ofo(u) + ofo(v)) != ofo(u + v):
                        return checked, (
                            f"product identity fails at u={render_tuple(u)}, "
                            f"v={render_tuple(v)}"
                        )
    for la in range(triple_total + 1):
        for lb in range(triple_total - la + 1):
            for lc in range(triple_total - la - lb + 1):
                for u in strings[la]:
                    for v in strings[lb]:
                        for w in strings[lc]:
                            checked += 1
                            if ofo(u + ofo(v) + w) != ofo(u + v + w):
                                return checked, (
                                    f"associativity fails at u={render_tuple(u)}, "
                                    f"v={render_tuple(v)}, w={render_tuple(w)}"
                                )
    return checked, None


def collapse_insertion(k, n, ofo=ofo):
    """``(checked, counterexample)`` of the ``lemma-ofodeltaI`` suite."""
    checked = 0
    for arity in range(2, n + 1):
        for domain_size in range(1, k + 1):
            for pair in IndexPair.all_pairs(arity):
                dm = collapse_map(pair, arity)
                for t in all_tuples(domain_size, arity - 1):
                    checked += 1
                    if ofo(t) != ofo(apply_index_map(t, dm)):
                        return checked, (
                            f"k={domain_size}, n={arity}, pair={pair.render()}, "
                            f"t={render_tuple(t)}"
                        )
    return checked, None


def lemma_hatsigma(n, collapse_permutation):
    """``(checked, counterexample)`` of the ``lemma-hatsigma`` suite, with
    ``collapse_permutation(sigma, pair)`` giving each ``(tau, preimage)``."""
    checked = 0
    for arity in range(2, n + 1):
        for sigma in Permutation.all_perms(arity):
            for pair in IndexPair.all_pairs(arity):
                checked += 1
                tau, pre = collapse_permutation(sigma, pair)
                lhs = tau.as_index_map().after(collapse_map(pre, arity))
                rhs = collapse_map(pair, arity).after(sigma.as_index_map())
                if lhs.images != rhs.images or tau.images[pre.lo] != pair.lo:
                    return checked, (
                        f"n={arity}, sigma={sigma.one_line()}, pair={pair.render()}"
                    )
    return checked, None
