"""Brute-force oracles for the classifier's answers, decided from the
definitions without :class:`uimlab.analysis.TableClassifier`.

A table has a unique identification minor when every minor is equivalent to
the first, each equivalence found by searching permutations; its invariance
group is S_n filtered by pulling the table back along each permutation.
A table is ofo- (supp-) determined when inputs with the same ofo word
(support) take the same value, and equivalent to an ofo-determined table
when one of its n! pull-backs along an argument permutation is; the least
such permutation, with the factorization of that pull-back, is the witness
:func:`uimlab.decomp.equiv_to_ofo_determined` returns.  Undefined
entries of a partial table compare like values, so an invariant permutation
also carries the domain onto itself.  The distinct systems of permuted ofo
fibers are found by keying each remap's image of the fibers.  The
permutation sigma induces on collapsed positions is written entry by entry
through both collapse maps.
"""

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
    gives each distinct system of permuted ofo fibers, keyed by the sorted
    images of the fibers of more than one input."""
    by_ofo = {}
    for i, t in enumerate(all_tuples(k, n)):
        by_ofo.setdefault(ofo(t), []).append(i)
    fibers = [f for f in by_ofo.values() if len(f) > 1]
    systems = {}
    for remap in remaps:
        key = frozenset(tuple(sorted(map(remap.__getitem__, f))) for f in fibers)
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
