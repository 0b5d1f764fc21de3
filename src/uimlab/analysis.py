"""Whole-table classification and the search harness.

Classification answers, for one table: does it have a unique identification
minor (all pair-collapsing minors equivalent), is it totally symmetric,
2-set-transitive, ofo-/supp-determined, equivalent to an ofo-determined
table, and what is its invariance group order.  Tables fall into one of four
categories: ``2ST`` (2-set-transitive), ``OFO-EQ`` (equivalent to an
ofo-determined table but not 2ST), ``OTHER`` (unique identification minor
through neither route), and ``NOT-UIM``.

The search harness classifies a complete table space (or a seeded sample of
one) and reports category counts plus every OTHER witness verbatim.  OTHER
witnesses of arity above domain_size + 1 are flagged prominently: such a
table lies beyond the source paper's examples (one of shape (3, 2, 5) is in
``tests/data``), and is not an error.  Reports are deterministic given
(parameters, seed); the fingerprint hashes everything except wall-clock
timing.
"""

import hashlib
import heapq
import inspect
import math
import os
import random
import sys
import time
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, fields, replace
from itertools import (
    accumulate, chain, compress, count, groupby, islice, permutations, product,
    starmap,
)
from multiprocessing import get_context
from operator import itemgetter, ne

from . import construct, decomp, ftable, symmetry
from .ftable import TABLE_SIZE_GUARD, FunctionTable, canonical_dumps
from .tuples import (
    IndexPair,
    Permutation,
    _collapse_section,
    _tuple_getter,
    all_tuples,
    collapse_map,
    decode,
    encode,
    ofo,
    perm_remaps,
    pullback_remap,
    render_tuple,
)

__all__ = [
    "CATEGORIES",
    "Classification",
    "EXHAUSTIVE_GUARD",
    "RestrictionSummary",
    "SearchReport",
    "SuiteReport",
    "TABLE_SIZE_GUARD",
    "TableClassifier",
    "classify",
    "equiv_to_ofo_determined",
    "has_uim",
    "invariance_group",
    "sample_index",
    "search",
    "suite_names",
    "suite_parameters",
    "verify_suite",
]

CATEGORIES = ("2ST", "OFO-EQ", "OTHER", "NOT-UIM")

# Largest table space an exhaustive run will enumerate.
EXHAUSTIVE_GUARD = 1 << 24

# Largest permutation remap (n! * k**n entries) a classifier will build.
REMAP_GUARD = 1 << 24

# Most checks a verification suite that loops over its parameters will make.
SUITE_GUARD = 5_000_000


@dataclass(frozen=True)
class RestrictionSummary:
    """The same tests run on the table restricted to its repeat tuples."""

    ofo_determined: bool
    equiv_ofo_determined: bool
    two_set_transitive: bool
    two_set_transitive_degenerate: bool
    inv_group_order: int


@dataclass(frozen=True)
class Classification:
    has_uim: bool
    totally_symmetric: bool
    two_set_transitive: bool
    two_set_transitive_degenerate: bool
    ofo_determined: bool
    equiv_ofo_determined: bool
    supp_determined: bool
    inv_group_order: int
    category: str
    restriction: RestrictionSummary | None = None


def _categorize(uim: bool, two_set_transitive: bool, equiv_ofo: bool) -> str:
    if not uim:
        return "NOT-UIM"
    if two_set_transitive:
        return "2ST"
    if equiv_ofo:
        return "OFO-EQ"
    return "OTHER"


def _join(labels, remap):
    """The finest partition coarser than ``labels`` with each position x in
    the block of ``remap[x]``, for any map ``remap`` of the positions.  A
    partition is a tuple of block labels numbered by first occurrence."""
    parent = list(range(max(labels) + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for i, j in enumerate(remap):
        x, y = find(labels[i]), find(labels[j])
        if x != y:
            parent[max(x, y)] = min(x, y)
    return _representative(find(x) for x in labels)


class TableClassifier:
    """Precomputed index machinery for classifying every table of one shape.

    Value vectors are plain tuples, and nothing about a table is memoized
    across tables; only the refuters of :meth:`search_category` are built
    once per pair, on first use, and a search shares the live ones among
    the tables of one minor g for {0, 1} (see :meth:`group`).
    The identification-minor and minor-permutation pull-backs are built once
    here as getters; a table has a unique identification minor exactly when
    every minor lies in the orbit of the first under argument permutations.
    The permutation remaps, and those of the minor permutations, come from
    :func:`~uimlab.tuples.perm_remaps`, which composes each from its
    predecessor's and a lexicographic step's, so every entry is one of the
    identity remap's int objects.
    The ofo and supp fibers are flat lists of equality edges (first member,
    other member).  A table is equivalent to an ofo-determined one exactly
    when, read through a remap that gives a distinct permuted ofo system, it
    is equal across every ofo edge.  The systems are told apart by coset:
    two permutations give the same system exactly when they differ by one
    whose remap keeps the fibers, found by an early-exit label check.  One
    early-exit loop decides the three fiber tests, the other two through the
    identity remap.

    The n! permutations are split by the pair p onto which each sends
    {0, 1}, 2 * (n-2)! to a pair.  A table is 2-set-transitive exactly when,
    for every pair p, some permutation of p's list leaves it unchanged; the
    lists partition the permutations, so one pass over all of them also
    gives the invariance group's order.

    :meth:`classify_values` answers every question about one table.
    :meth:`search_category` answers only the search's, and settles a table
    without a unique identification minor at the first pair whose minor
    falls outside the orbit, checking there that the table is neither 2ST
    nor OFO-EQ by the same candidates and systems, held as refuters; only
    the other tables are classified in full.
    """

    def __init__(self, domain_size: int, codomain_size: int, arity: int):
        if arity < 2:
            raise ValueError("classification needs arity >= 2")
        k, b, n = domain_size, codomain_size, arity
        ftable._check_dims(k, b, n)
        self.domain_size, self.codomain_size, self.arity = k, b, n
        self.size = ftable._table_size(k, n)
        cap = REMAP_GUARD.bit_length()  # cap! alone exceeds the guard
        remap_entries = math.factorial(min(n, cap)) * self.size
        if remap_entries > REMAP_GUARD:
            shown = remap_entries if n <= cap else f"{n}! * {k}**{n}"
            raise ValueError(
                f"{shown} permutation remap entries (n! * k**n) exceed "
                f"guard {REMAP_GUARD}"
            )

        perms, remaps = zip(*perm_remaps(k, n))
        self.perms = list(perms)
        self.perm_remaps = list(remaps)
        self.pairs = list(IndexPair.all_pairs(n))
        # The 2 * (n-2)! permutations sending the pair {0, 1} onto each pair.
        pair_index = {frozenset((pair.lo, pair.hi)): p for p, pair in enumerate(self.pairs)}
        self.pair_perm_entries = [[] for _ in self.pairs]
        for s, remap in enumerate(self.perm_remaps):
            self.pair_perm_entries[pair_index[frozenset(self.perms[s][:2])]].append((s, remap))
        minor_maps = [pullback_remap(k, collapse_map(pair, n).images, n - 1)
                      for pair in self.pairs]
        self.minors = [_tuple_getter(remap) for remap in minor_maps]
        # Table positions read minor-first: those of the minor for {0, 1} in
        # its own order, then the rest in index order.  ``scatter`` takes a
        # vector in that order back to table order.
        self.g_first = minor_maps[0] + sorted(set(range(self.size)) - set(minor_maps[0]))
        self.scatter = _tuple_getter(sorted(range(self.size), key=self.g_first.__getitem__))
        self.sub_perms = [_tuple_getter(r) for _, r in perm_remaps(k, n - 1)]

        by_ofo = {}
        by_supp = {}
        for i, t in enumerate(all_tuples(k, n)):
            by_ofo.setdefault(ofo(t), []).append(i)
            by_supp.setdefault(frozenset(t), []).append(i)
        fibers = [f for f in by_ofo.values() if len(f) > 1]
        self.ofo_edges = [(f[0], i) for f in fibers for i in f[1:]]
        self.supp_edges = [(f[0], i) for f in by_supp.values() for i in f[1:]]

        # One remap per distinct system of permuted ofo fibers, identity
        # first; at k = 2 and n >= 3 only n of the n! differ.  The
        # permutations h whose remaps carry each fiber of more than one input
        # into one such fiber form a group H (the images then refine the
        # fibers and are as many, so they are the fibers).  A table factors
        # through ofo after sigma's pull-back exactly when it is constant on
        # the blocks {x : ofo(x∘sigma) = w}, the same for exactly the sigma∘h.
        # Each system keeps its least sigma's id in ``ofo_system_ids`` and
        # the remap of that sigma's inverse, through which the table is equal
        # across every ofo edge exactly then.
        label = [None] * self.size
        for f in fibers:
            for x in f:
                label[x] = f

        def keeps_fibers(remap):
            for f in fibers:
                g = label[remap[f[0]]]
                if g is None:
                    return False
                for x in f:
                    if label[remap[x]] is not g:
                        return False
            return True

        stabiliser = [h for h, r in zip(self.perms, self.perm_remaps) if keeps_fibers(r)]
        remap_of = dict(zip(self.perms, self.perm_remaps))
        covered = set()
        self.ofo_system_ids, self.ofo_systems = [], []
        for s, sig in enumerate(self.perms):
            if sig not in covered:
                self.ofo_system_ids.append(s)
                self.ofo_systems.append(remap_of[tuple(sorted(range(n), key=sig.__getitem__))])
                covered.update(itemgetter(*h)(sig) for h in stabiliser)
        # The identity remap alone, for the two fiber tests that read ``vals``
        # as it is.
        self.identity_remaps = self.perm_remaps[:1]

        # Refuters, built per pair on first use (see :meth:`refuters`).
        self._refuters = {}
        self._system_refuters = None

    def orbit(self, g):
        """Every minor that an argument permutation makes of the minor ``g``."""
        return {perm(g) for perm in self.sub_perms}

    def group(self, g):
        """What the tables sharing the minor ``g`` for {0, 1} share in
        :meth:`search_category`: g's :meth:`orbit`, and per failing pair
        the refuters that g's entries leave live, filled in as pairs fail."""
        return self.orbit(g), {}

    def refuters(self, p):
        """The constraints a table failing at pair ``p`` must each break,
        built on first use: for each candidate of ``pair_perm_entries[p]``
        invariance under it, then for each ofo system equality across its
        edges.  A refuter is ``(m, inner, outer)``: position x must equal
        position ``m[x]``, for the moved positions x split into ``inner``,
        both ends among g's entries, and ``outer``, the rest."""
        refs = self._refuters.get(p)
        if refs is None:
            refs = self._refuters[p] = self._build_refuters(p)
        return refs

    def _build_refuters(self, p):
        identity = self.perm_remaps[0]
        in_g = [False] * self.size
        for x in self.g_first[:self.size // self.domain_size]:
            in_g[x] = True

        def refuter(m):
            inner, outer = [], []
            # Positions taken from the identity remap share its int objects.
            for x, y in zip(identity, m):
                if x != y:
                    (inner if in_g[x] and in_g[y] else outer).append(x)
            return m, inner, outer

        # The ofo systems' refuters are the same for every pair, so they are
        # built once; system r asks position r[j] to equal r[i] on each edge.
        if self._system_refuters is None:
            self._system_refuters = []
            for r in self.ofo_systems:
                m = identity[:]
                for i, j in self.ofo_edges:
                    m[r[j]] = r[i]
                self._system_refuters.append(refuter(m))
        entries = self.pair_perm_entries[p]
        return [refuter(remap) for _, remap in entries] + self._system_refuters

    def live_refuters(self, vals, p):
        """``(m, outer)`` for each refuter of pair ``p`` whose inner edges
        ``vals`` leaves equal: those that a table sharing ``vals``'s minor
        for {0, 1} and failing at ``p`` must break on an outer edge."""
        live = []
        for m, inner, outer in self.refuters(p):
            for x in inner:
                if vals[x] != vals[m[x]]:
                    break
            else:
                live.append((m, outer))
        return live

    @staticmethod
    def refutes(vals, live) -> bool:
        """Does ``vals`` break an outer edge of every live refuter?"""
        for m, outer in live:
            for x in outer:
                if vals[x] != vals[m[x]]:
                    break
            else:
                return False
        return True

    def first_failing_pair(self, vals, orbit):
        """Index of the first pair whose minor lies outside ``orbit``, the
        orbit of the minor for {0, 1}, or None when the minor is unique."""
        minors = self.minors
        for p in range(1, len(minors)):
            if minors[p](vals) not in orbit:
                return p
        return None

    def has_uim(self, vals) -> bool:
        return self.first_failing_pair(vals, self.orbit(self.minors[0](vals))) is None

    def invariant_perm_ids(self, vals, candidates):
        """Ids of the permutations leaving ``vals`` unchanged, among the
        ``(id, remap)`` candidates, such as one of ``pair_perm_entries``."""
        out = []
        for s, remap in candidates:
            for i, j in enumerate(remap):
                if vals[i] != vals[j]:
                    break
            else:
                out.append(s)
        return out

    def invariance_summary(self, vals):
        """``(invariance group order, 2-set-transitive)`` from one pass over
        the per-pair candidate lists: the order is the sum of the pairs'
        invariant counts, and the table is 2ST when none is zero."""
        counts = [len(self.invariant_perm_ids(vals, entries))
                  for entries in self.pair_perm_entries]
        return sum(counts), all(counts)

    def two_set_transitive_tables(self):
        """An iterator over every 2-set-transitive table of this shape, in
        index order.

        A table is 2ST exactly when it is constant on the orbits of a group
        generated by one permutation from each pair's list.  Those orbit
        partitions are joined pair by pair from the partition into single
        positions, each kept partition with the cycles of each candidate,
        and repeats dropped after each pair.  A kept partition that some
        candidate already leaves unchanged is kept alone: its joins with the
        others are coarser, so their tables are among its own.  The tables
        are those constant on the blocks of some final partition.  They are
        counted, with repeats, before any is built, and more than
        ``EXHAUSTIVE_GUARD`` is refused.  Each partition's tables come in
        index order (see :func:`_block_tables`), so one merge yields them all
        without holding them."""
        partitions = {tuple(range(self.size))}
        for entries in self.pair_perm_entries[1:]:
            partitions = {
                joined
                for labels in partitions
                for joined in ((labels,) if self.invariant_perm_ids(labels, entries)
                               else (_join(labels, remap) for _, remap in entries))
            }
        b = self.codomain_size
        cap = EXHAUSTIVE_GUARD.bit_length()  # b**cap exceeds the guard for b >= 2
        counts = (b ** min(max(labels) + 1, cap) for labels in partitions)
        if any(total > EXHAUSTIVE_GUARD for total in accumulate(counts)):
            raise ValueError(
                f"the 2-set-transitive tables of ({self.domain_size}, {b}, "
                f"{self.arity}) exceed the exhaustive guard {EXHAUSTIVE_GUARD}"
            )
        merged = heapq.merge(*(_block_tables(labels, b) for labels in partitions))
        return (vals for vals, _ in groupby(merged))

    def ofo_determined(self, vals) -> bool:
        return self._equal_across(vals, self.ofo_edges, self.identity_remaps)

    def supp_determined(self, vals) -> bool:
        return self._equal_across(vals, self.supp_edges, self.identity_remaps)

    def equiv_ofo_determined(self, vals) -> bool:
        return self._equal_across(vals, self.ofo_edges, self.ofo_systems)

    @staticmethod
    def _equal_across(vals, edges, remaps) -> bool:
        """Is ``vals``, read through some remap, equal across every edge?"""
        for r in remaps:
            for i, j in edges:
                if vals[r[i]] != vals[r[j]]:
                    break
            else:
                return True
        return False

    def classify_values(self, values) -> Classification:
        vals = tuple(values)
        uim = self.has_uim(vals)
        order, two_set = self.invariance_summary(vals)
        equiv_ofo = self.equiv_ofo_determined(vals)
        return Classification(
            has_uim=uim,
            totally_symmetric=order == len(self.perms),
            two_set_transitive=two_set,
            two_set_transitive_degenerate=self.arity == 2,
            ofo_determined=self.ofo_determined(vals),
            equiv_ofo_determined=equiv_ofo,
            supp_determined=self.supp_determined(vals),
            inv_group_order=order,
            category=_categorize(uim, two_set, equiv_ofo),
        )

    def search_category(self, vals, group):
        """The category of the table ``vals``, a tuple, as
        :meth:`classify_values` gives it, given the :meth:`group` of its
        minor for {0, 1}.  A table without a unique identification minor
        fails at some pair p; it is checked there to be neither 2ST (no
        invariant permutation sends {0, 1} onto p) nor OFO-EQ, since either
        would give it a unique minor, and is not classified further.  So
        it must break every one of p's :meth:`refuters`.  The first table
        of the group to fail at p drops those that an edge among g's
        entries breaks, the same in every table of the group, and each
        table then tests the other edges of those left."""
        orbit, live = group
        p = self.first_failing_pair(vals, orbit)
        if p is None:
            return self.classify_values(vals).category
        refuters = live.get(p)
        if refuters is None:
            refuters = live[p] = self.live_refuters(vals, p)
        if not self.refutes(vals, refuters):
            raise RuntimeError(
                f"classification inconsistency at table "
                f"{encode(vals, self.codomain_size)}: category preconditions "
                f"guarantee a unique identification minor"
            )
        return "NOT-UIM"


_classifiers = {}


def _classifier(domain_size, codomain_size, arity) -> TableClassifier:
    key = (domain_size, codomain_size, arity)
    ctx = _classifiers.get(key)
    if ctx is None:
        ctx = _classifiers[key] = TableClassifier(*key)
    return ctx


def has_uim(f) -> bool:
    """All identification minors of ``f`` pairwise equivalent, by the shape's
    classifier: ``f`` is total, or partial and defined on the repeat tuples."""
    ctx = _classifier(f.domain_size, f.codomain_size, f.arity)
    for pair, minor in zip(ctx.pairs, ctx.minors):
        if None in minor(f.values):
            raise ValueError(f"partial table undefined at a repeat tuple needed by "
                             f"the minor for {pair.render()}")
    return ctx.has_uim(f.values)


def invariance_group(f) -> symmetry.PermutationGroup:
    """All argument permutations under which ``f`` is invariant, as a
    validated group.  Undefined entries of a partial table compare too, so
    an invariant permutation also carries the domain onto itself."""
    if f.arity == 1:
        return symmetry.PermutationGroup.trivial(1)
    ctx = _classifier(f.domain_size, f.codomain_size, f.arity)
    ids = ctx.invariant_perm_ids(f.values, enumerate(ctx.perm_remaps))
    return symmetry.PermutationGroup(f.arity, frozenset(Permutation(ctx.perms[s]) for s in ids))


def equiv_to_ofo_determined(f):
    """The least ``(sigma, f_star)`` with ``f`` equal to ``compose_ofo(f_star,
    n)`` after the pullback of ``sigma``, or ``None``; undefined entries are
    skipped, and keys whose fiber misses the domain are flagged unconstrained.
    The sigmas of an ofo system group the inputs alike, so only each system's
    least sigma is tried."""
    if f.arity == 1:
        return Permutation((0,)), decomp.ofo_decompose(f)
    ctx = _classifier(f.domain_size, f.codomain_size, f.arity)
    words = [ofo(t) for t in all_tuples(f.domain_size, f.arity)]
    for s in ctx.ofo_system_ids:
        f_star = decomp._decompose(f, map(words.__getitem__, ctx.perm_remaps[s]), f.values,
                                   decomp._ofo_domain, decomp.OfoTable)
        if f_star is not None:
            return Permutation(ctx.perms[s]), f_star
    return None


def classify(f: FunctionTable) -> Classification:
    """Full classification of a total table; a partial one is refused.

    When the arity does not exceed the alphabet size, the repeat-free part of
    the domain carries no minor information, so the same tests on the
    restriction to repeat tuples are attached as a sub-record.  The same
    classifier serves both: there every repeat-free tuple is its own ofo
    fiber, and argument permutations keep the undefined entries undefined.
    """
    if None in f.values:
        raise ValueError("classify expects a total table")
    ctx = _classifier(f.domain_size, f.codomain_size, f.arity)
    c = ctx.classify_values(f.values)
    if f.arity <= f.domain_size:
        r = ctx.classify_values(ftable.restrict_to_repeats(f).values)
        summary = {fld.name: getattr(r, fld.name) for fld in fields(RestrictionSummary)}
        c = replace(c, restriction=RestrictionSummary(**summary))
    return c


# ---------------------------------------------------------------------------
# Search harness

@dataclass
class SearchReport:
    domain_size: int
    codomain_size: int
    arity: int
    mode: str
    seed: int | None
    sample_count: int | None
    total_space: int
    classified: int
    counts: dict
    other_witnesses: list
    flagged_counterexamples: bool
    elapsed_seconds: float

    def to_json_obj(self, include_timing: bool = True) -> dict:
        obj = {
            "parameters": {
                "domain_size": self.domain_size,
                "codomain_size": self.codomain_size,
                "arity": self.arity,
                "mode": self.mode,
                "seed": self.seed,
                "sample_count": self.sample_count,
            },
            "total_space": self.total_space,
            "classified": self.classified,
            "counts": {cat: self.counts.get(cat, 0) for cat in CATEGORIES},
            "other_witnesses": self.other_witnesses,
            "flagged_counterexamples": self.flagged_counterexamples,
        }
        if include_timing:
            obj["elapsed_seconds"] = self.elapsed_seconds
        return obj

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form, timing excluded."""
        payload = canonical_dumps(self.to_json_obj(include_timing=False))
        return hashlib.sha256(payload.encode()).hexdigest()


def sample_index(seed: int, j: int, total: int) -> int:
    """Table index of sample ``j``: a Mersenne Twister seeded with the string
    ``"{seed}:{j}"`` draws fixed-width integers and the first one below
    ``total`` is taken (rejection keeps the draw uniform).  Each sample is
    independently computable, so parallel order cannot change results."""
    if total < 1:
        raise ValueError(f"cannot sample from an empty space of {total} tables")
    nbits = max(1, (total - 1).bit_length())
    rng = random.Random(f"{seed}:{j}")
    while True:
        v = rng.getrandbits(nbits)
        if v < total:
            return v


def _restricted_growth(length, b, prefix=()):
    """Value vectors over ``range(b)`` that extend ``prefix`` and whose
    values first occur in the order 0, 1, 2, ..., in lexicographic order:
    one representative per orbit of output renaming."""
    used = max(prefix, default=-1) + 1
    if used == b or len(prefix) == length:
        for rest in product(range(b), repeat=length - len(prefix)):
            yield prefix + rest
        return
    for v in range(used + 1):
        yield from _restricted_growth(length, b, prefix + (v,))


def _representative(values):
    """The output renaming of ``values`` that :func:`_restricted_growth`
    enumerates: each value renamed to the rank of its first occurrence."""
    names = {}
    return tuple(names.setdefault(v, len(names)) for v in values)


def _block_tables(labels, b):
    """Every table over ``range(b)`` constant on each block of ``labels``, a
    partition of the table positions as block labels numbered in order of
    first occurrence, in index order.  Two such tables first differ at the
    first position of the first block whose values differ, as every earlier
    position lies in an earlier block, so they are ordered as their block
    values, which ``product`` yields in lexicographic order."""
    return map(_tuple_getter(labels), product(range(b), repeat=max(labels) + 1))


def _renamings(values, b):
    """Every table that :func:`_representative` maps to ``values``: its
    renamings onto ``r`` of the ``b`` output values, ``b!/(b-r)!`` of them."""
    return (
        tuple(names[v] for v in values)
        for names in permutations(range(b), max(values) + 1)
    )


def _space_size(k, b, n, mode="exhaustive") -> int:
    """``b**(k**n)``, the number of tables of shape ``(k, b, n)``: at most
    ``EXHAUSTIVE_GUARD`` for an exhaustive run, and for a sampled one, whose
    report prints it, at most as many digits as the interpreter prints, and
    with no such limit, at most a table of ``TABLE_SIZE_GUARD`` entries, as
    the sampled run builds one.  Reach is decided on a capped exponent, so no
    large ``k**n`` or size is formed."""
    ftable._check_dims(k, b, n)
    if mode == "exhaustive":
        bound, name = EXHAUSTIVE_GUARD, f"the exhaustive guard {EXHAUSTIVE_GUARD}"
    elif digits := sys.get_int_max_str_digits():
        bound, name = 10**digits - 1, f"the {digits}-digit limit for printing an integer"
    else:  # the interpreter prints integers of any length
        return b ** ftable._table_size(k, n)
    cap = bound.bit_length()
    # k**n itself, or above cap, where b**exponent exceeds the bound for b >= 2.
    exponent = k ** min(n, cap.bit_length())
    if b ** min(exponent, cap) > bound:
        # k**n in digits when it is below 2**64, else as the power itself.
        shown = k**n if n * (k - 1).bit_length() <= 64 else f"({k}**{n})"
        raise ValueError(f"space of {b}**{shown} tables exceeds {name}")
    return b**exponent  # b is 1 or the exponent is k**n


def _search_chunk(args):
    """Classify worker ``worker``'s share of a search, every ``workers``-th
    group, and run both self-checks on it:
    :meth:`TableClassifier.search_category` checks that a table without a
    unique identification minor is neither 2ST nor OFO-EQ, and each
    spot-checked table's permuted copies, classified in full, must get the
    category of the table the main loop classified for it.

    Tables are taken in groups that share g, their minor for {0, 1}, and
    each group's :meth:`TableClassifier.group` is built once: g's orbit,
    and per failing pair the refuters that g's entries leave live, so a
    worker builds the live lists of its own groups.  An exhaustive group
    is a restricted-growth g followed by its restricted-growth completions in
    minor-first order (see :attr:`TableClassifier.g_first`), each taken back
    to table order; a completion stands for ``b!/(b-r)!`` tables, its
    renamings onto ``r`` of the ``b`` values.  A sampled group is one sample
    slot.
    """
    k, b, n, mode, seed, total, slots, spot_checks, worker, workers = args
    ctx = _classifier(k, b, n)
    exhaustive = mode == "exhaustive"
    if exhaustive:
        groups = (
            (g, map(ctx.scatter, _restricted_growth(ctx.size, b, g)))
            for g in islice(_restricted_growth(ctx.size // k, b), worker, None, workers)
        )
    else:
        samples = (
            decode(sample_index(seed, slot, total), ctx.size, b)
            for slot in range(worker, slots, workers)
        )
        groups = ((ctx.minors[0](values), (values,)) for values in samples)
    counts = Counter()
    witnesses = []
    for g, tables in groups:
        group = ctx.group(g)
        checks = spot_checks.get(g)  # emptied as its tables come up
        # An exhaustive table counts for its renamings: b! of them for every
        # completion of a g that already uses all b values.
        if not exhaustive:
            weight = 1
        else:
            weight = math.factorial(b) if max(g) == b - 1 else None
        for values in tables:
            category = ctx.search_category(values, group)
            for index, copy in checks.pop(values, ()) if checks else ():
                if ctx.classify_values(copy).category != category:
                    raise RuntimeError(
                        f"classification is not permutation-invariant at table {index}"
                    )
            counts[category] += weight or math.perm(b, max(values) + 1)
            if category == "OTHER":
                renamed = _renamings(values, b) if exhaustive else (values,)
                witnesses.extend(
                    {"table_index": encode(t, b), "values": list(t)} for t in renamed
                )
    return dict(counts), witnesses


def search(domain_size: int, codomain_size: int, arity: int,
           mode: str = "exhaustive", seed: int | None = None,
           samples: int | None = None, threads: int = 1) -> SearchReport:
    """Classify a complete table space, or a seeded sample of one.

    Exhaustive mode covers every table index below b**(k**n) (guarded at
    ``EXHAUSTIVE_GUARD``) but classifies one table per orbit of output
    renaming: the table whose values, read minor-first (the entries of g,
    its minor for {0, 1}, then the rest in index order), first occur in the
    order 0, 1, 2, ...  It walks each restricted-growth g in turn and then
    g's completions, so g's orbit is built once for all of them, and so is
    each failing pair's list of the refuters that g's entries leave live
    for the NOT-UIM self-check (see :meth:`TableClassifier.search_category`).
    Every category is invariant under renaming, so a representative using
    r values counts for its b!/(b-r)! renamings, and an OTHER representative
    adds each renaming to the witnesses under its own ``table_index``;
    ``classified`` counts the tables covered.  Sampled mode draws
    ``samples`` indices via :func:`sample_index` and classifies each, in a
    space whose size the report can print (see :func:`_space_size`).

    ``threads`` worker processes, at most one per CPU, share the groups
    round-robin: of W workers, worker w takes groups w, w + W, w + 2W, ...
    in the order of the restricted-growth g, or of the sample slots.  One
    worker runs in this process, with no pool.  Witnesses are sorted by
    table index, so reports are identical for any thread count.
    """
    k, b, n = domain_size, codomain_size, arity
    if mode == "sampled":
        if samples is None or samples < 1:
            raise ValueError("sampled mode needs a positive sample count")
        if seed is None:
            seed = 0
    elif mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    elif samples is not None:
        raise ValueError(f"exhaustive mode takes no samples, got samples={samples}")
    if threads < 1:
        raise ValueError(f"threads needs a positive worker count, got {threads}")
    workers = min(threads, os.cpu_count() or 1)
    total = _space_size(k, b, n, mode)
    slots = total if mode == "exhaustive" else samples
    started = time.perf_counter()
    # Built before the pool forks, so every worker inherits it.
    ctx = _classifier(k, b, n)
    # 100 seeded (slot, permutation) pairs for the invariance spot check.
    # Each drawn table's permuted copy is keyed by the vector the main loop
    # classifies for it, grouped by that vector's minor for {0, 1}: in
    # exhaustive mode the table's representative, taken back to table order.
    rng = random.Random(f"{0 if seed is None else seed}:invariance-spot-check")
    spot_checks = {}
    for _ in range(100):
        slot = rng.randrange(slots)
        remap = ctx.perm_remaps[rng.randrange(math.factorial(n))]
        index = slot if mode == "exhaustive" else sample_index(seed, slot, total)
        values = decode(index, ctx.size, b)
        key = values
        if mode == "exhaustive":
            key = ctx.scatter(_representative(values[i] for i in ctx.g_first))
        spot_checks.setdefault(ctx.minors[0](key), {}).setdefault(key, []).append(
            (index, tuple(values[j] for j in remap)))
    jobs = [(k, b, n, mode, seed, total, slots, spot_checks, w, workers)
            for w in range(workers)]
    if workers == 1:
        results = [_search_chunk(jobs[0])]
    else:
        with get_context("fork").Pool(workers) as pool:
            results = pool.map(_search_chunk, jobs)

    counts = Counter()
    witnesses = {}  # a table drawn twice is one witness
    for part_counts, part_witnesses in results:
        counts.update(part_counts)
        witnesses.update((w["table_index"], w) for w in part_witnesses)

    return SearchReport(
        domain_size=k,
        codomain_size=b,
        arity=n,
        mode=mode,
        seed=seed,
        sample_count=samples if mode == "sampled" else None,
        total_space=total,
        classified=slots,
        counts={cat: counts.get(cat, 0) for cat in CATEGORIES},
        other_witnesses=[witnesses[i] for i in sorted(witnesses)],
        flagged_counterexamples=bool(witnesses) and n > k + 1,
        elapsed_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Verification suites: each replays one of the library's exhaustive
# identities and reports the first counterexample, if any.

@dataclass
class SuiteReport:
    suite: str
    params: dict
    checked: int
    passed: bool
    counterexample: str | None
    elapsed_seconds: float

    def to_json_obj(self) -> dict:
        return asdict(self)


def _guard_suite(name, terms):
    """Reject a suite run whose checks, the sum of ``terms``, exceed
    ``SUITE_GUARD``.  The sum stops at the first partial sum above it, so a
    generator of terms is never run to the end of an out-of-reach range."""
    if any(total > SUITE_GUARD for total in accumulate(terms)):
        raise ValueError(
            f"{name}: these parameters need more checks than the suite guard "
            f"{SUITE_GUARD}; shrink them"
        )


def _whole_space(k, b, n):
    """Every table of shape ``(k, b, n)`` as ``(index, values)``, in index
    order; a space above ``EXHAUSTIVE_GUARD`` is rejected before the first.
    ``product`` varies the last entry fastest, as :func:`decode` does."""
    _space_size(k, b, n)
    return enumerate(product(range(b), repeat=k**n))


def _first_difference(left, right):
    """The index of the first unequal entry of ``left`` and ``right``, or
    ``None`` if there is none; a side that runs out first is a
    ``ValueError``."""
    return next(compress(count(), starmap(ne, zip(left, right, strict=True))), None)


class _OfoImages:
    """``ofo`` of every string over ``range(k)`` of length up to ``top``,
    each string sent through ``ofo`` once, kept as one list of int keys.

    A string's code is its position among them, shortest first and
    lexicographic within a length: ``offsets[l] + index``.  ``images[c]`` is
    the code of ``ofo`` of the string coded ``c``, or, for an image that is
    not such a string, a negative number of its own; so two keys are equal
    exactly when the images are, and the strings ``p + x + w`` for a fixed
    ``p`` and lengths of ``x`` and ``w`` are one slice of ``images``."""

    def __init__(self, k, top):
        self.counts = [k**length for length in range(top + 1)]
        self.offsets = list(accumulate(self.counts, initial=0))
        codes = dict(zip(chain.from_iterable(
            product(range(k), repeat=length) for length in range(top + 1)), count()))
        others = {}

        def key(image):
            code = codes.get(image)
            return others.setdefault(image, -1 - len(others)) if code is None else code

        self.images = list(map(key, map(ofo, codes)))

    def middles(self, length):
        """The keys of ``ofo(v)`` for every ``v`` of ``length`` and the
        length of the longest image, or ``None`` unless each image is a
        string no longer than ``length``."""
        keys = self.images[self.offsets[length]:self.offsets[length + 1]]
        if 0 <= min(keys) and max(keys) < self.offsets[length + 1]:
            return keys, bisect_right(self.offsets, max(keys)) - 1
        return None

    def spliced(self, length, index, reads, most, last):
        """The keys of ``ofo(p + x + w)``, ``x``-major: ``p`` is the string of
        ``length`` and ``index``, ``x`` runs over the strings read by
        ``reads`` (see :func:`_cuts`), none longer than ``most``, and ``w``
        over the strings of length ``last``.  Needs ``length + most + last``
        at most ``top``."""
        counts, offsets, images = self.counts, self.offsets, self.images
        # spliced[code(x) * counts[last] + index(w)] is the key of p + x + w
        spliced = []
        for mid in range(most + 1):
            size = counts[mid + last]
            start = offsets[length + mid + last] + index * size
            spliced += images[start:start + size]
        if counts[last] == 1:
            return list(map(spliced.__getitem__, reads))
        return list(chain.from_iterable(map(spliced.__getitem__, reads)))


def _cuts(codes, width):
    """What :meth:`_OfoImages.spliced` reads for the strings ``x`` coded
    ``codes``, each followed by the ``width`` strings ``w`` of one length."""
    if width == 1:
        return codes
    return [slice(c * width, c * width + width) for c in codes]


def _suite_ofo_identities(k=3, max_len=4, triple_total=6):
    """ofo is idempotent, an associative string function, and a homomorphism
    onto first-occurrence products: checked over all short strings.

    The idempotence loop streams its strings and forms each ofo image once.
    The product and associativity loops send each string up to
    ``triple_total`` through ``ofo`` once (:class:`_OfoImages`) and compare
    a row at a time: for one ``u``, the keys of ``ofo(ofo(u) + ofo(v))``
    over every ``v``, or of ``ofo(u + ofo(v) + w)`` over every ``(v, w)``,
    as one list against a slice of the keys of ``ofo(u + v)`` or
    ``ofo(u + v + w)``.  At ``v = ()`` one row covers every ``u``.  A row
    that runs outside the coded strings is built from the ``ofo`` images
    themselves, with ``ofo(u)`` and each ``ofo(v)`` formed once per row; only
    a faulty ``ofo`` reaches such a row.  A row holds its checks in loop order, and two keys are
    equal exactly when their images are, so the first unequal entry of a
    row that differs names the first counterexample and the checks made."""
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    for name, length in (("max_len", max_len), ("triple_total", triple_total)):
        if length < 0:
            raise ValueError(f"{name} must be >= 0, got {length}")
    # One check per string of each loop: up to max_len, then each split of a
    # total length s <= triple_total into two parts and into three.  Every
    # term is at least 1, so the loops' lengths bound the checks from below
    # and refuse a long range before any term is summed.
    _guard_suite("ofo-identities", [max_len + 1 + 2 * (triple_total + 1)])
    _guard_suite("ofo-identities", chain(
        (k**length for length in range(max_len + 1)),
        ((s + 1) * k**s for s in range(triple_total + 1)),
        (math.comb(s + 2, 2) * k**s for s in range(triple_total + 1)),
    ))
    checked = 0
    for length in range(max_len + 1):
        for t in product(range(k), repeat=length):
            checked += 1
            image = ofo(t)
            if ofo(image) != image:
                return checked, f"idempotence fails at {render_tuple(t)}"
    top = triple_total
    coded = _OfoImages(k, top)
    images, offsets, counts = coded.images, coded.offsets, coded.counts
    # ofo(()) is (): at v = () the rows of every u are one row
    empty_fixed = images[0] == 0
    for la in range(top + 1):
        ous = images[offsets[la]:offsets[la + 1]]
        for lb in range(top - la + 1):
            width, base = counts[lb], offsets[la + lb]
            if (lb == 0 and empty_fixed and 0 <= min(ous) and max(ous) < offsets[la + 1]
                    and coded.spliced(0, 0, ous, la, 0) == images[base:base + counts[la]]):
                checked += counts[la]
                continue
            middles, most = coded.middles(lb) or (None, None)
            for iu, ou in enumerate(ous):
                lo = bisect_right(offsets, ou) - 1
                if middles is not None and ou >= 0 and lo + most <= top:
                    left = coded.spliced(lo, ou - offsets[lo], middles, most, 0)
                    right = images[base + iu * width:base + iu * width + width]
                else:
                    u, vs = decode(iu, la, k), list(all_tuples(k, lb))
                    ou_t = ofo(u)
                    left = [ofo(ou_t + ov) for ov in map(ofo, vs)]
                    right = [ofo(u + v) for v in vs]
                if left != right:
                    at = _first_difference(left, right)
                    return checked + at + 1, (
                        f"product identity fails at u={render_tuple(decode(iu, la, k))}, "
                        f"v={render_tuple(decode(at, lb, k))}"
                    )
                checked += width
    for la in range(top + 1):
        for lb in range(top - la + 1):
            middles, most = coded.middles(lb) or (None, None)
            for lc in range(top - la - lb + 1):
                width, base = counts[lb] * counts[lc], offsets[la + lb + lc]
                if lb == 0 and empty_fixed and coded.spliced(
                        0, 0, _cuts(range(offsets[la], offsets[la + 1]), counts[lc]), la, lc
                ) == images[base:base + counts[la] * width]:
                    checked += counts[la] * width
                    continue
                reads = None if middles is None else _cuts(middles, counts[lc])
                for iu in range(counts[la]):
                    if reads is not None:
                        left = coded.spliced(la, iu, reads, most, lc)
                        right = images[base + iu * width:base + iu * width + width]
                    else:
                        u = decode(iu, la, k)
                        vs, ws = list(all_tuples(k, lb)), list(all_tuples(k, lc))
                        left = [ofo(u + ov + w) for ov in map(ofo, vs) for w in ws]
                        right = [ofo(u + v + w) for v in vs for w in ws]
                    if left != right:
                        at = _first_difference(left, right)
                        v, w = divmod(at, counts[lc])
                        return checked + at + 1, (
                            f"associativity fails at u={render_tuple(decode(iu, la, k))}, "
                            f"v={render_tuple(decode(v, lb, k))}, "
                            f"w={render_tuple(decode(w, lc, k))}"
                        )
                    checked += width
    return checked, None


def _suite_collapse_insertion(k=3, n=5):
    """Collapsing inserts a repeat after a first occurrence, so it never
    changes the ofo image; over every domain size up to ``k`` and arity up
    to ``n``.

    Each pair is one compare over the shorter tuples ``t``: the words of
    ``t`` collapsed along the pair against the words of ``t``, stopped at
    the first unequal entry, which names the counterexample and the checks
    made up to it.  Where the longer tuples are no more than the checks of
    their arity and domain size, and at most 2**16, their words are formed
    once for all pairs, as one int per distinct word, and each pair reads
    them through the collapse's pull-back; otherwise each pair forms the
    words it compares as it goes, and nothing is held."""
    _guard_suite("lemma-ofodeltaI", (
        math.comb(arity, 2) * domain_size ** (arity - 1)
        for arity in range(2, n + 1)
        for domain_size in range(1, k + 1)
    ))
    checked = 0
    for arity in range(2, n + 1):
        for domain_size in range(1, k + 1):
            held = (domain_size <= math.comb(arity, 2)
                    and domain_size**arity <= 1 << 16)
            if held:
                code = defaultdict(count().__next__)
                words = list(map(code.__getitem__, map(ofo, all_tuples(domain_size, arity))))
                expected = list(map(code.__getitem__,
                                    map(ofo, all_tuples(domain_size, arity - 1))))
            for pair in IndexPair.all_pairs(arity):
                images = collapse_map(pair, arity).images
                if held:
                    collapsed = map(words.__getitem__,
                                    pullback_remap(domain_size, images, arity - 1))
                    shorter = expected
                else:
                    collapsed = map(ofo, map(itemgetter(*images),
                                             all_tuples(domain_size, arity - 1)))
                    shorter = map(ofo, all_tuples(domain_size, arity - 1))
                at = _first_difference(collapsed, shorter)
                if at is not None:
                    return checked + at + 1, (
                        f"k={domain_size}, n={arity}, pair={pair.render()}, "
                        f"t={render_tuple(decode(at, arity - 1, domain_size))}"
                    )
                checked += domain_size ** (arity - 1)
    return checked, None


def _suite_ofo_factor_minors(k=2, b=2, n=4):
    """Every identification minor of an ofo-determined table is the same
    table one arity down: exact equality, over every factor table of every
    arity from 3 to ``n``."""
    # A factor table has a value for each repeat-free key of length 1..min(n, k).
    # At the guard's bit length or more keys, b ** keys exceeds the guard for
    # any b >= 2, so keys are counted only that far.
    cap = SUITE_GUARD.bit_length()
    _guard_suite("prop-ofominor", (
        math.comb(arity, 2)
        * b ** min(sum(math.perm(k, i) for i in range(1, min(arity, k, cap) + 1)), cap)
        for arity in range(3, n + 1)
    ))
    if n >= 3:
        _classifier(k, b, n)  # reach of the largest case, decided first
    checked = 0
    for arity in range(3, n + 1):
        ctx = _classifier(k, b, arity)
        max_len = min(arity, k)
        keys = decomp._ofo_domain(k, max_len)
        for assignment in product(range(b), repeat=len(keys)):
            f_star = decomp.OfoTable.from_values(k, b, max_len, assignment)
            values = decomp.compose_ofo(f_star, arity).values
            expected = decomp.compose_ofo(f_star, arity - 1).values
            for pair, minor in zip(ctx.pairs, ctx.minors):
                checked += 1
                if minor(values) != expected:
                    return checked, (
                        f"n={arity}, pair={pair.render()}, factor values={assignment}"
                    )
    return checked, None


def _suite_collapse_permutation(n=6):
    """The induced permutation on collapsed positions satisfies both of its
    defining identities, for every (permutation, pair) up to arity ``n``.

    Each permutation is checked a row at a time: ``symmetry._collapse_taus``
    gives its tau, as a plain tuple, and its preimage for every pair, and
    both sides of each identity are compared as one list over the pairs,
    read through getters built once per arity.  No tau is validated as a
    permutation: where tau ∘ collapse(preimage) equals collapse(pair) ∘ sigma,
    which maps onto all n - 1 positions, the n - 1 entries of tau take all
    n - 1 values.  The first pair at which a row that differs is unequal
    names the counterexample and the checks made; a row of the wrong length
    is a ``ValueError``."""
    _guard_suite("lemma-hatsigma", (
        math.factorial(arity) * math.comb(arity, 2) for arity in range(2, n + 1)
    ))
    checked = 0
    for arity in range(2, n + 1):
        pairs = list(IndexPair.all_pairs(arity))
        collapse = [collapse_map(pair, arity).images for pair in pairs]
        rows = [(pair.lo, pair.hi, d_pair) for pair, d_pair in zip(pairs, collapse)]
        merged = [pair.lo for pair in pairs]
        sections = [_tuple_getter(_collapse_section(hi, arity)) for hi in range(arity)]
        # tau ∘ collapse[pre], looked up at [pre.lo][pre.hi]
        after_pre = [[None] * arity for _ in range(arity)]
        for pair, d_pair in zip(pairs, collapse):
            after_pre[pair.lo][pair.hi] = itemgetter(*d_pair)
        for sigma in permutations(range(arity)):
            row = symmetry._collapse_taus(sigma, rows, sections)
            lhs = [after_pre[a][b](tau) for tau, a, b in row]
            lands = [tau[a] for tau, a, _ in row]
            rhs = list(map(itemgetter(*sigma), collapse))
            if lhs != rhs or lands != merged:
                at = _first_difference(zip(lhs, lands, strict=True),
                                       zip(rhs, merged, strict=True))
                return checked + at + 1, (
                    f"n={arity}, sigma={Permutation(sigma).one_line()}, "
                    f"pair={pairs[at].render()}"
                )
            checked += len(pairs)
    return checked, None


def _suite_support_equivalences(k=2, b=2, n=4):
    """Above arity domain_size + 1, three table classes coincide: totally
    symmetric ofo-determined, 2-set-transitive ofo-determined, and
    supp-determined; and members admit anchored minor equivalences for every
    pair of pairs.

    The ofo- and the supp-determined tables are formed directly, as the
    tables constant on the fibers of ``ofo`` and of the support (see
    :func:`_block_tables`), so every table of the space is decided and
    counts as one check.  Only the ofo-determined tables get
    :meth:`TableClassifier.invariance_summary`."""
    if n <= k + 1:
        raise ValueError(f"requires arity > domain_size + 1, got n={n}, k={k}")
    checked = _space_size(k, b, n)
    ctx = _classifier(k, b, n)
    words = list(all_tuples(k, n))
    ofo_det = _block_tables(_representative(map(ofo, words)), b)
    supp_det = list(_block_tables(_representative(map(frozenset, words)), b))
    ts_ofo = []
    tst_ofo = []
    for vals in ofo_det:
        order, two_set = ctx.invariance_summary(vals)
        if order == len(ctx.perms):
            ts_ofo.append(vals)
        if two_set:
            tst_ofo.append(vals)
    if not (ts_ofo == tst_ofo == supp_det):
        return checked, (
            f"class sizes differ: ts&ofo={len(ts_ofo)}, 2st&ofo={len(tst_ofo)}, "
            f"supp={len(supp_det)}"
        )
    for vals in supp_det:
        f = FunctionTable(k, b, n, vals)
        for pair_i in IndexPair.all_pairs(n):
            for pair_j in IndexPair.all_pairs(n):
                checked += 1
                if decomp.anchored_minor_equivalence(f, pair_i, pair_j) is None:
                    return checked, (
                        f"table {encode(vals, b)}: no anchored witness for "
                        f"{pair_i.render()}, {pair_j.render()}"
                    )
    return checked, None


def _suite_sporadic_total(k=4, alpha=1, beta=0):
    """The total sporadic family: value alpha exactly on the marked tuples,
    unique identification minor, no equivalence to an ofo-determined table,
    and (for domain size > 2) trivial invariance group; for every domain
    size from 2 to ``k``."""
    b = max(alpha, beta) + 1
    if k >= 2:
        _classifier(k, b, k + 1)  # reach of the largest case, decided first
    checked = 0
    for size in range(2, k + 1):
        ctx = _classifier(size, b, size + 1)
        f = construct.sporadic_function(size, alpha, beta)
        marked = {construct.marked_tuple(size, p) for p in IndexPair.all_pairs(size + 1)}
        for t, v in zip(all_tuples(size, size + 1), f.values):
            checked += 1
            want = alpha if t in marked else beta
            if v != want:
                return checked, f"k={size}: wrong value at {render_tuple(t)}"
        checked += 1
        if not ctx.has_uim(f.values):
            return checked, f"k={size}: identification minors are not all equivalent"
        checked += 1
        if ctx.equiv_ofo_determined(f.values):
            return checked, f"k={size}: unexpectedly equivalent to an ofo-determined table"
        if size >= 3:
            checked += 1
            if ctx.invariance_summary(f.values)[0] != 1:
                return checked, f"k={size}: invariance group is not trivial"
    return checked, None


def _suite_sporadic_partial(k=4, m=3, alpha=1, beta=0):
    """The partial sporadic family on repeat tuples: every identification
    minor equivalent to the ofo-determined indicator, no equivalence to a
    partial ofo-determined table, and no 2-set-transitivity once the base
    arity reaches 3; for every domain size k' <= ``k`` and base arity
    2 <= m' <= min(``m``, k' - 1).  Base arity k' is the total family."""
    b = max(alpha, beta) + 1
    if min(m, k - 1) >= 2:
        _classifier(k, b, min(m, k - 1) + 1)  # reach of the largest case, decided first
    checked = 0
    for size in range(2, k + 1):
        for base in range(2, min(m, size - 1) + 1):
            ctx = _classifier(size, b, base + 1)
            pf = construct.sporadic_partial_function(size, base, alpha, beta)
            keys = decomp._ofo_domain(size, base)
            target_star = decomp.OfoTable(
                size, b, base,
                {key: (alpha if key == tuple(range(base)) else beta) for key in keys},
            )
            expected = decomp.compose_ofo(target_star, base).values
            orbit = ctx.orbit(expected)
            for pair, minor in zip(ctx.pairs, ctx.minors):
                checked += 1
                if minor(pf.values) not in orbit:
                    return checked, f"k={size}, m={base}: minor for {pair.render()} is off"
            checked += 1
            if ctx.equiv_ofo_determined(pf.values):
                return checked, (
                    f"k={size}, m={base}: unexpectedly equivalent to a partial "
                    f"ofo-determined table"
                )
            if base >= 3:
                checked += 1
                if ctx.invariance_summary(pf.values)[1]:
                    return checked, f"k={size}, m={base}: restriction is 2-set-transitive"
    return checked, None


def _suite_two_set_transitive_uim(k=2, b=2, n=4):
    """Every 2-set-transitive table has a unique identification minor; over
    every arity from 3 to ``n`` (at arity 2 the single pair makes every table
    2-set-transitive).  The 2ST tables are built from orbit partitions by
    :meth:`TableClassifier.two_set_transitive_tables`, and each is tested
    again on its own to be 2ST as well as to have a unique minor; the
    spaces are bounded as if every table were tested."""
    if n >= 3:
        _space_size(k, b, n)  # reach of the largest case, decided first
        _classifier(k, b, n)
    checked = 0
    for arity in range(3, n + 1):
        ctx = _classifier(k, b, arity)
        for vals in ctx.two_set_transitive_tables():
            checked += 1
            if not (ctx.invariance_summary(vals)[1] and ctx.has_uim(vals)):
                return checked, f"n={arity}, table {encode(vals, b)}"
    return checked, None


def _suite_renaming_invariance(k=2, b=3, n=3):
    """Classification is unchanged when the output values are renamed or the
    domain symbols are renamed in every argument, over a whole table space:
    exhaustive search classifies one table per output renaming."""
    # Each table is checked once per renaming other than the identity; b! or
    # k! is not formed beyond the guard's bit length, where it exceeds it.
    cap = SUITE_GUARD.bit_length()
    _guard_suite("renaming-invariance", [
        _space_size(k, b, n)
        * (math.factorial(min(b, cap)) - 1 + math.factorial(min(k, cap)) - 1)
    ])
    tables = _whole_space(k, b, n)
    ctx = _classifier(k, b, n)
    renamings = list(permutations(range(b)))[1:]
    # Pulling a table back along one of these is renaming domain symbols.
    symbol_remaps = {
        pi: [encode([pi[x] for x in t], k) for t in all_tuples(k, n)]
        for pi in list(permutations(range(k)))[1:]
    }
    checked = 0
    for index, vals in tables:
        c = ctx.classify_values(vals)
        for names in renamings:
            checked += 1
            if ctx.classify_values(tuple(names[v] for v in vals)) != c:
                return checked, f"table {index}: output renaming {names}"
        for pi, remap in symbol_remaps.items():
            checked += 1
            if ctx.classify_values(tuple(vals[j] for j in remap)) != c:
                return checked, f"table {index}: symbol renaming {pi}"
    return checked, None


_SUITES = {
    "ofo-identities": _suite_ofo_identities,
    "lemma-ofodeltaI": _suite_collapse_insertion,
    "prop-ofominor": _suite_ofo_factor_minors,
    "lemma-hatsigma": _suite_collapse_permutation,
    "prop-suppord": _suite_support_equivalences,
    "prop-42": _suite_sporadic_total,
    "prop-52": _suite_sporadic_partial,
    "uim-2st": _suite_two_set_transitive_uim,
    "renaming-invariance": _suite_renaming_invariance,
}


def suite_names():
    return sorted(_SUITES)


def suite_parameters(name: str) -> tuple:
    """The names of the parameters suite ``name`` takes."""
    fn = _SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    return tuple(inspect.signature(fn).parameters)


def verify_suite(name: str, **params) -> SuiteReport:
    """Run one verification suite; ``passed`` means zero counterexamples.

    ``params`` override the suite's defaults (see :func:`suite_parameters`)
    and are reported as given; a name the suite does not take is rejected,
    and so is a run that makes no check.
    """
    accepted = suite_parameters(name)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"suite {name!r} takes no parameter {', '.join(unknown)}; "
            f"it accepts {', '.join(accepted)}"
        )
    started = time.perf_counter()
    checked, counterexample = _SUITES[name](**params)
    if checked == 0:
        raise ValueError(f"suite {name!r} made no checks with these parameters")
    return SuiteReport(
        suite=name,
        params=params,
        checked=checked,
        passed=counterexample is None,
        counterexample=counterexample,
        elapsed_seconds=time.perf_counter() - started,
    )
