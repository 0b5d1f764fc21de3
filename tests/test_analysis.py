import math
import os
import random
import sys
import time
import tracemalloc
from dataclasses import replace
from itertools import permutations, product

import pytest

import brute
from uimlab import analysis, cli, construct, decomp, symmetry
from uimlab.analysis import (
    RestrictionSummary,
    TableClassifier,
    classify,
    equiv_to_ofo_determined,
    has_uim,
    invariance_group,
    sample_index,
    search,
    verify_suite,
)
from uimlab.construct import sporadic_function
from uimlab.decomp import (
    OfoTable,
    SuppTable,
    _ofo_domain,
    compose_ofo,
    compose_supp,
    ofo_decompose,
    supp_decompose,
)
from uimlab.construct import sporadic_partial_function
from uimlab.ftable import FunctionTable, restrict_to_repeats
from uimlab.symmetry import is_2_set_transitive
from uimlab.tuples import (
    IndexPair,
    Permutation,
    all_tuples,
    apply_index_map,
    decode,
    encode,
    ofo,
    pullback_remap,
)

MAJ3 = FunctionTable(2, 2, 3, (0, 0, 0, 1, 0, 1, 1, 1))
AND3 = FunctionTable(2, 2, 3, (0, 0, 0, 0, 0, 0, 1, 1))


def test_every_binary_table_has_uim():
    for vals in product(range(2), repeat=4):
        assert has_uim(FunctionTable(2, 2, 2, vals))


def test_and3_does_not_have_uim():
    # identifying the first two arguments gives a projection, identifying the
    # outer two gives the binary meet; those are not equivalent
    assert not has_uim(AND3)


def test_sporadic_has_uim():
    assert has_uim(sporadic_function(3))


def test_has_uim_rejects_unary():
    with pytest.raises(ValueError):
        has_uim(FunctionTable(2, 2, 1, (0, 1)))


def test_has_uim_rejects_a_partial_table_undefined_at_a_repeat_tuple():
    # undefined at (1, 1, 0), which the minor for {1,2} reads
    vals = list(MAJ3.values)
    vals[encode((1, 1, 0), 2)] = None
    with pytest.raises(ValueError, match="undefined at a repeat tuple.*minor for {1,2}"):
        has_uim(FunctionTable(2, 2, 3, vals))


@pytest.mark.parametrize("case", [(3, 2), (4, 3), (4, 2)], ids=["k3m2", "k4m3", "k4m2"])
def test_classifier_agrees_with_the_brute_force_on_the_partial_sporadic_tables(case):
    # the default prop-52 cases, defined exactly on the repeat tuples
    pf = sporadic_partial_function(*case)
    ctx = TableClassifier(pf.domain_size, pf.codomain_size, pf.arity)
    group = brute.invariance_group(pf)
    assert has_uim(pf) == ctx.has_uim(pf.values) == brute.has_uim(pf)
    assert ctx.equiv_ofo_determined(pf.values) == (equiv_to_ofo_determined(pf) is not None)
    assert ctx.invariance_summary(pf.values) == (group.order, is_2_set_transitive(group))
    assert invariance_group(pf) == group


def test_classify_majority():
    c = classify(MAJ3)
    assert c.category == "2ST"
    assert c.has_uim and c.totally_symmetric and c.two_set_transitive
    assert not c.ofo_determined and not c.supp_determined
    assert c.inv_group_order == 6
    assert c.restriction is None  # arity exceeds the alphabet


def test_classify_ofo_built_table():
    f_star = OfoTable.from_values(2, 2, 2, (0, 1, 0, 1))
    c = classify(compose_ofo(f_star, 4))
    assert c.has_uim
    assert c.ofo_determined and c.equiv_ofo_determined
    assert c.category in ("2ST", "OFO-EQ")


def test_classify_sporadic():
    c = classify(sporadic_function(3))
    assert c.category == "OTHER"
    assert c.has_uim and c.inv_group_order == 1
    assert not c.equiv_ofo_determined and not c.two_set_transitive


def test_classify_attaches_restriction_at_small_arity():
    f = FunctionTable.from_callable(3, 2, 2, lambda t: int(t[0] == t[1]))
    c = classify(f)
    assert c.two_set_transitive_degenerate
    assert c.restriction is not None
    assert c.restriction.inv_group_order == 2
    assert c.restriction.ofo_determined  # constant on the defined diagonal


def test_classify_refuses_a_partial_table():
    # the partial sporadic table, defined exactly on the repeat tuples, and
    # a (2,2,3) table undefined at a repeat tuple
    vals = list(MAJ3.values)
    vals[encode((1, 1, 0), 2)] = None
    for pf in (sporadic_partial_function(3, 2), FunctionTable(2, 2, 3, vals)):
        with pytest.raises(ValueError, match="classify expects a total table"):
            classify(pf)


@pytest.mark.parametrize("shape", [(2, 3, 4), (2, 3, 6), (3, 3, 4)],
                         ids=["k2b3n4", "k2b3n6", "k3b3n4"])
def test_2st_and_ofo_equivalence_survive_every_coarsening(shape):
    # phi ∘ T is invariant under each permutation that T is, and a group
    # holding a 2-set-transitive group is one; phi ∘ F ∘ ofo is again
    # ofo-determined, after the same sigma
    k, b, n = shape
    ctx = TableClassifier(*shape)
    rng = random.Random(f"coarsen:{shape}")
    two_set = rng.sample(list(ctx.two_set_transitive_tables()), 20) if k == 2 else []
    keys = _ofo_domain(k, min(k, n))
    perms = list(Permutation.all_perms(n))
    ofo_eq = [
        compose_ofo(OfoTable.from_values(k, b, min(k, n), [rng.randrange(b) for _ in keys]),
                    n).minor_by(rng.choice(perms)).values
        for _ in range(15)
    ]
    def is_2st(vals):
        return ctx.invariance_summary(vals)[1]

    everything = list(enumerate(ctx.perm_remaps))
    cases = [(vals, is_2st) for vals in two_set]
    cases += [(vals, ctx.equiv_ofo_determined) for vals in ofo_eq]
    for vals, holds in cases:
        assert holds(vals)
        group = set(ctx.invariant_perm_ids(vals, everything))
        for phi in product(range(b), repeat=b):
            coarse = tuple(phi[v] for v in vals)
            assert holds(coarse)
            coarse_group = set(ctx.invariant_perm_ids(coarse, everything))
            assert group <= coarse_group and len(coarse_group) % len(group) == 0


def _agreement_tables(k, b, n):
    """Every table at (2,2,3), (1,2,3), (2,2,2) and (3,2,2); elsewhere, as at
    (3,2,4), where all 24 permuted ofo fiber systems differ, seeded random
    tables plus argument-permuted ofo-determined ones."""
    if (k, b, n) in ((2, 2, 3), (1, 2, 3), (2, 2, 2), (3, 2, 2)):
        return [decode(index, k**n, b) for index in range(b ** (k**n))]
    rng = random.Random(11)
    tables = [tuple(rng.randrange(b) for _ in range(k**n)) for _ in range(30)]
    keys = _ofo_domain(k, min(k, n))
    perms = list(Permutation.all_perms(n))
    for _ in range(20):
        f_star = OfoTable.from_values(k, b, min(k, n), [rng.randrange(b) for _ in keys])
        f = compose_ofo(f_star, n)
        sigma = rng.choice(perms)
        permuted = FunctionTable.from_callable(
            k, b, n, lambda t: f(apply_index_map(t, sigma))
        )
        tables.append(permuted.values)
    return tables


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 3), (3, 2, 4), (2, 3, 3), (1, 2, 3)],
    ids=["k2b2n3", "k3b2n4", "k2b3n3", "k1b2n3"],
)
def test_classifier_agrees_with_the_direct_operations(shape):
    ctx = TableClassifier(*shape)
    seen_equiv_ofo = set()
    for vals in _agreement_tables(*shape):
        f = FunctionTable(*shape, vals)
        c = ctx.classify_values(vals)
        assert c.has_uim == brute.has_uim(f) == has_uim(f)
        assert c.totally_symmetric == brute.is_totally_symmetric(f)
        assert c.two_set_transitive == brute.is_2_set_transitive_fn(f)
        assert c.ofo_determined == (ofo_decompose(f) is not None)
        assert c.supp_determined == (supp_decompose(f) is not None)
        assert c.equiv_ofo_determined == (equiv_to_ofo_determined(f) is not None)
        seen_equiv_ofo.add(c.equiv_ofo_determined)
    # at k = 1 every table has one entry, so every table is ofo-determined
    assert seen_equiv_ofo == ({True} if shape[0] == 1 else {True, False})


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 2), (3, 2, 2), (3, 2, 3), (4, 2, 3)],
    ids=["k2b2n2", "k3b2n2", "k3b2n3", "k4b2n3"],
)
def test_restriction_record_agrees_with_the_direct_operations(shape):
    seen_equiv_ofo = set()
    for vals in _agreement_tables(*shape):
        f = FunctionTable(*shape, vals)
        pf = restrict_to_repeats(f)
        group = brute.invariance_group(pf)
        assert invariance_group(pf) == group
        r = classify(f).restriction
        assert r == RestrictionSummary(
            ofo_determined=ofo_decompose(pf) is not None,
            equiv_ofo_determined=equiv_to_ofo_determined(pf) is not None,
            two_set_transitive=is_2_set_transitive(group),
            two_set_transitive_degenerate=pf.arity == 2,
            inv_group_order=group.order,
        )
        seen_equiv_ofo.add(r.equiv_ofo_determined)
    # at arity 2 the repeat tuples are the constant ones, each its own ofo fiber
    assert seen_equiv_ofo == ({True} if shape[2] == 2 else {True, False})


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 2, 4), (4, 2, 3), (2, 2, 6)],
    ids=["k2b2n3", "k2b3n3", "k3b2n2", "k3b2n4", "k4b2n3", "k2b2n6"],
)
def test_fiber_tests_agree_with_their_definitions(shape):
    # every table of the three small spaces; elsewhere seeded random and
    # argument-permuted ofo-determined tables; at n <= k also each table's
    # None-padded restriction to the repeat tuples
    k, b, n = shape
    if b ** (k**n) <= 3**8:
        tables = [decode(index, k**n, b) for index in range(b ** (k**n))]
    else:
        tables = _agreement_tables(*shape)
    ctx = TableClassifier(*shape)
    seen_equiv_ofo = set()
    for vals in tables:
        f = FunctionTable(*shape, vals)
        for g in (f, restrict_to_repeats(f)) if n <= k else (f,):
            answers = (
                ctx.ofo_determined(g.values),
                ctx.supp_determined(g.values),
                ctx.equiv_ofo_determined(g.values),
            )
            assert answers == (
                brute.ofo_determined(g),
                brute.supp_determined(g),
                brute.equiv_ofo_determined(g),
            )
            seen_equiv_ofo.add(answers[2])
    # at (3,2,2) every 2-tuple has its own ofo word, so there is no edge
    assert seen_equiv_ofo == ({True, False} if ctx.ofo_edges else {True})


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (3, 2, 3), (3, 2, 4), (4, 2, 3),
     (3, 2, 5)],
    ids=["k2n2", "k2n3", "k2n4", "k2n5", "k3n3", "k3n4", "k4n3", "k3n5"],
)
def test_one_ofo_system_per_distinct_permuted_ofo_partition(shape):
    k, _, n = shape
    partitions = set()
    for sigma in Permutation.all_perms(n):
        fibers = {}
        for t in all_tuples(k, n):
            fibers.setdefault(ofo(apply_index_map(t, sigma)), set()).add(t)
        partitions.add(frozenset(map(frozenset, fibers.values())))
    ctx = TableClassifier(*shape)
    assert len(ctx.ofo_systems) == len(partitions)
    if k == 2 and n >= 3:
        # over {0, 1} a non-constant tuple's ofo word is fixed by its first
        # symbol, so a system is fixed by the position read first
        assert len(partitions) == n
    # the systems are the perm_remaps entries themselves, identity first
    assert ctx.ofo_systems[0] == list(range(k**n))
    assert all(any(r is remap for remap in ctx.perm_remaps) for r in ctx.ofo_systems)


# Arity 2 (one swap), domain size 1 (every remap the same one entry), no ofo
# edge at (3,2,2), and the largest remaps the tests build.
REMAP_SHAPES = [(1, 2, 2), (1, 2, 4), (2, 2, 2), (3, 2, 2), (2, 2, 6), (3, 2, 5), (4, 2, 5)]


@pytest.mark.parametrize("shape", REMAP_SHAPES, ids=lambda s: "k{}b{}n{}".format(*s))
def test_perm_remaps_built_by_composition_are_the_pullbacks(shape):
    k, _, n = shape
    ctx = TableClassifier(*shape)
    assert ctx.perms == list(permutations(range(n)))
    for s, sigma in enumerate(ctx.perms):
        assert ctx.perm_remaps[s] == pullback_remap(k, sigma, n)
    positions = tuple(range(k ** (n - 1)))
    assert [perm(positions) for perm in ctx.sub_perms] == [
        tuple(pullback_remap(k, sigma, n - 1)) for sigma in permutations(range(n - 1))
    ]


@pytest.mark.parametrize("shape", REMAP_SHAPES, ids=lambda s: "k{}b{}n{}".format(*s))
def test_ofo_systems_by_coset_are_those_of_the_sorted_key_dict(shape):
    k, _, n = shape
    ctx = TableClassifier(*shape)
    # the least sigma of each witness partition, and the remap of its inverse
    expected = brute.ofo_systems(k, n, ctx.perm_remaps)
    assert len(ctx.ofo_system_ids) == len(ctx.ofo_systems) == len(expected)
    assert all(ctx.perm_remaps[s] is want for s, want in zip(ctx.ofo_system_ids, expected))
    for s, remap in zip(ctx.ofo_system_ids, ctx.ofo_systems):
        inverse = Permutation(ctx.perms[s]).inverse().images
        assert remap is ctx.perm_remaps[ctx.perms.index(inverse)]


def test_classifier_build_peaks_below_3_mib():
    # 5! remaps of 4**5 entries, each composed from its predecessor's and a
    # step's remap and sharing the identity's int objects; the distinct ofo
    # systems are found by coset, with no key per permutation (measured
    # about 1.4 MiB)
    tracemalloc.start()
    try:
        TableClassifier(4, 2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_remap_entries_share_int_objects():
    # each entry is one of the identity remap's k**n ints, not one of
    # n! * k**n fresh ints
    k, n = 4, 5
    ctx = TableClassifier(k, 2, n)
    entries = [x for remap in ctx.perm_remaps for x in remap]
    assert len(entries) == math.factorial(n) * k**n
    assert len({id(x) for x in entries}) <= k**n


def test_refuters_of_every_pair_peak_below_8_mib():
    # at (4,2,5) one refuter per permutation, of moved positions only, and
    # one per ofo system, built once and shared by every pair
    ctx = TableClassifier(4, 2, 5)
    tracemalloc.start()
    try:
        for p in range(1, len(ctx.pairs)):
            ctx.refuters(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    systems = len(ctx.ofo_systems)
    assert all(a is b for a, b in zip(ctx.refuters(1)[-systems:], ctx.refuters(2)[-systems:]))


def _staged_tables(k, b, n):
    """Every table of a space of at most 2**16; beyond, the seeded random and
    argument-permuted ofo-determined tables of :func:`_agreement_tables`
    plus seeded supp-determined tables."""
    if b ** (k**n) <= 1 << 16:
        return [decode(index, k**n, b) for index in range(b ** (k**n))]
    rng = random.Random(23)
    supp = [
        compose_supp(
            SuppTable.from_values(k, b, k, [rng.randrange(b) for _ in range(2**k - 1)]), n
        ).values
        for _ in range(10)
    ]
    return _agreement_tables(k, b, n) + supp


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 3), (2, 2, 4), (2, 3, 3), (3, 2, 2), (2, 2, 6)],
    ids=["k2b2n3", "k2b2n4", "k2b3n3", "k3b2n2", "k2b2n6"],
)
def test_search_category_agrees_with_classify_values(shape):
    ctx = TableClassifier(*shape)
    seen = set()
    for vals in _staged_tables(*shape):
        c = ctx.classify_values(vals)
        assert ctx.search_category(vals, ctx.group(ctx.minors[0](vals))) == c.category
        seen.add(c.category)
    if shape[2] == 2:
        # a single pair: every table is 2ST and takes the full path
        assert seen == {"2ST"}
    else:
        # both the staged path and the full one are taken
        assert "NOT-UIM" in seen and len(seen) > 1


def _g_groups(ctx):
    """The tables of each group exhaustive search walks: the restricted-growth
    completions of each restricted-growth minor g for {0, 1}, in table order."""
    b = ctx.codomain_size
    for g in analysis._restricted_growth(ctx.size // ctx.domain_size, b):
        yield [ctx.scatter(c) for c in analysis._restricted_growth(ctx.size, b, g)]


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 3), (2, 3, 3), (2, 2, 4), (2, 2, 6)],
    ids=["k2b2n3", "k2b3n3", "k2b2n4", "k2b2n6"],
)
def test_refuters_live_for_another_table_of_the_group_decide_the_check(shape):
    # the shared check equals the per-table one at every pair p >= 1, with
    # the live refuters built from another table with the same minor g: at
    # n = 6 the seeded tables with their entries outside g drawn again, else
    # every representative with the one before it in its group
    ctx = TableClassifier(*shape)
    if shape[2] == 6:
        rng = random.Random(31)
        in_g = set(ctx.g_first[:ctx.size // ctx.domain_size])
        cases = [
            (vals, tuple(v if x in in_g else rng.randrange(2) for x, v in enumerate(vals)))
            for vals in _agreement_tables(*shape)
        ]
    else:
        cases = [(vals, tables[i - 1]) for tables in _g_groups(ctx)
                 for i, vals in enumerate(tables)]
    seen = set()
    for vals, other in cases:
        assert other != vals and ctx.minors[0](other) == ctx.minors[0](vals)
        for p, entries in enumerate(ctx.pair_perm_entries[1:], 1):
            refuted = not (ctx.invariant_perm_ids(vals, entries)
                           or ctx.equiv_ofo_determined(vals))
            assert ctx.refutes(vals, ctx.live_refuters(other, p)) == refuted
            seen.add(refuted)
    assert seen == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_candidates_partition_the_permutations(n):
    ctx = TableClassifier(2, 2, n)
    ids = [s for entries in ctx.pair_perm_entries for s, _ in entries]
    assert sorted(ids) == list(range(math.factorial(n)))
    for pair, entries in zip(ctx.pairs, ctx.pair_perm_entries):
        assert len(entries) == 2 * math.factorial(n - 2)
        for s, remap in entries:
            assert {ctx.perms[s][0], ctx.perms[s][1]} == {pair.lo, pair.hi}
            assert remap is ctx.perm_remaps[s]


def _design_table():
    """The (2,2,6) table that is 1 exactly where the positions holding 1 form
    a block of the 2-(6,3,2) design: the orbit of {0, 1, 5} under the
    projective special linear group PSL(2,5) acting on the projective line
    0..4, 5 = infinity.  That group sends any pair onto any other, yet
    leaves only 60 of the 720 permutations invariant."""
    translate = (1, 2, 3, 4, 0, 5)  # x -> x + 1
    invert = (5, 4, 2, 3, 1, 0)  # x -> -1/x
    blocks = {frozenset({0, 1, 5})}
    frontier = list(blocks)
    while frontier:
        block = frontier.pop()
        for g in (translate, invert):
            image = frozenset(g[x] for x in block)
            if image not in blocks:
                blocks.add(image)
                frontier.append(image)
    assert len(blocks) == 10
    return tuple(
        int(frozenset(i for i, x in enumerate(t) if x) in blocks)
        for t in product(range(2), repeat=6)
    )


def _two_set_tables(k, b, n):
    """Every table of a space of at most 2**13; beyond, seeded random tables,
    fewer as the brute force's n! permutations grow, seeded supp-determined
    ones (2ST, being totally symmetric) at arity 5 or less, and at (2,2,6)
    :func:`_design_table`.  The brute force pulls every table back along
    all n! permutations."""
    if b ** (k**n) <= 1 << 13:
        return [decode(index, k**n, b) for index in range(b ** (k**n))]
    rng = random.Random(29)
    count = 6000 // math.factorial(n)
    tables = [tuple(rng.randrange(b) for _ in range(k**n)) for _ in range(count)]
    if n == 6:
        return tables + [_design_table()]
    subsets = 2**k - 1
    return tables + [
        compose_supp(
            SuppTable.from_values(k, b, k, [rng.randrange(b) for _ in range(subsets)]), n
        ).values
        for _ in range(3)
    ]


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 3), (2, 3, 3), (3, 2, 2), (2, 2, 4), (3, 2, 3), (2, 2, 5), (2, 2, 6)],
    ids=["k2b2n3", "k2b3n3", "k3b2n2", "k2b2n4", "k3b2n3", "k2b2n5", "k2b2n6"],
)
def test_two_set_transitive_agrees_with_the_brute_force(shape):
    # the brute force is brute.is_2_set_transitive_fn, spelled out so that
    # the group it builds also checks the invariance group order
    ctx = TableClassifier(*shape)
    seen = set()
    for vals in _two_set_tables(*shape):
        group = brute.invariance_group(FunctionTable(*shape, vals))
        two_set = is_2_set_transitive(group)
        assert ctx.invariance_summary(vals) == (group.order, two_set)
        seen.add(two_set)
    assert seen == ({True} if shape[2] == 2 else {True, False})


def test_design_table_is_2st_without_being_totally_symmetric():
    ctx = TableClassifier(2, 2, 6)
    assert ctx.invariance_summary(_design_table()) == (60, True)


@pytest.mark.parametrize(
    "shape, by_brute_force",
    [
        ((2, 2, 3), True), ((2, 3, 3), True), ((3, 2, 2), True), ((1, 3, 3), True),
        ((2, 2, 4), False), ((2, 4, 3), False),
    ],
    ids=["k2b2n3", "k2b3n3", "k3b2n2", "k1b3n3", "k2b2n4", "k2b4n3"],
)
def test_two_set_transitive_tables_filter_the_whole_space(shape, by_brute_force):
    # the orbit-partition build gives exactly the 2ST tables, in index order;
    # the filter is the brute force where it runs in seconds, else the
    # classifier's own per-table test
    ctx = TableClassifier(*shape)
    if by_brute_force:
        def is_2st(vals):
            return brute.is_2_set_transitive_fn(FunctionTable(*shape, vals))
    else:
        def is_2st(vals):
            return ctx.invariance_summary(vals)[1]
    k, b, n = shape
    expected = [vals for vals in product(range(b), repeat=k**n) if is_2st(vals)]
    assert list(ctx.two_set_transitive_tables()) == expected


@pytest.mark.parametrize(
    "shape, count",
    [
        # at k = 2 and n <= 5 a 2-homogeneous group is transitive on the
        # subsets of every size: the totally symmetric tables, b**(n+1)
        *(((2, b, n), b ** (n + 1)) for n in (3, 4, 5) for b in (2, 3)),
        # at n = 6 the union over the six PSL(2,5) conjugates, 8 orbits each
        # on binary 6-tuples, any two of which generate A_6 with 7 orbits
        ((2, 2, 6), 6 * 2**8 - 5 * 2**7),
        ((2, 3, 6), 6 * 3**8 - 5 * 3**7),
        # every ternary 4-tuple repeats a symbol, so A_4 has the orbits of S_4:
        # the 15 multisets of size 4 over 3 symbols
        ((3, 2, 4), 2**15),
    ],
    ids=["k2b2n3", "k2b3n3", "k2b2n4", "k2b3n4", "k2b2n5", "k2b3n5", "k2b2n6",
         "k2b3n6", "k3b2n4"],
)
def test_two_set_transitive_counts_take_their_closed_forms(shape, count):
    assert sum(1 for _ in TableClassifier(*shape).two_set_transitive_tables()) == count


def test_two_set_transitive_tables_keep_a_partition_a_candidate_fixes(monkeypatch):
    # a kept partition that some candidate leaves unchanged is not joined
    # with the pair's other candidates, whose joins are coarser
    calls = []
    join = analysis._join

    def counting_join(labels, remap):
        calls.append(remap)
        return join(labels, remap)

    monkeypatch.setattr(analysis, "_join", counting_join)
    assert sum(1 for _ in TableClassifier(2, 2, 6).two_set_transitive_tables()) == 896
    assert len(calls) <= 4032


def test_join_takes_any_map_of_the_positions():
    # against merging the blocks of x and remap[x] one x at a time, on maps
    # that are mostly not permutations
    rng = random.Random("join")
    for _ in range(200):
        size = rng.randint(1, 12)
        labels = analysis._representative(rng.randrange(size) for _ in range(size))
        remap = [rng.randrange(size) for _ in range(size)]
        blocks = list(labels)
        for x, y in enumerate(remap):
            old, new = blocks[y], blocks[x]
            blocks = [new if v == old else v for v in blocks]
        assert analysis._join(labels, remap) == analysis._representative(blocks)


def test_two_set_transitive_tables_refuse_more_than_the_guard_at_once():
    # one partition of 24 blocks per AGL(1,5) conjugate, six in all, so more
    # than 6 * 2**24 tables: refused before any is built
    ctx = TableClassifier(3, 2, 5)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceed the exhaustive guard {2**24}"):
        ctx.two_set_transitive_tables()
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("shape", [(2, 2, 3), (2, 3, 2)], ids=["k2b2n3", "k2b3n2"])
def test_whole_space_yields_every_table_in_index_order(shape):
    k, b, n = shape
    assert list(analysis._whole_space(k, b, n)) == [
        (index, decode(index, k**n, b)) for index in range(b ** (k**n))
    ]


def test_whole_space_guard_names_the_space_and_the_guard():
    with pytest.raises(ValueError, match=rf"2\*\*32 tables .* guard {2**24}"):
        analysis._whole_space(2, 2, 5)


@pytest.mark.parametrize(
    "call, message, digit_limit",
    [
        (lambda: verify_suite("prop-suppord", n=33), "space of 2**8589934592 tables", None),
        (lambda: analysis._whole_space(2, 2, 40), f"space of 2**{2**40} tables", None),
        (lambda: search(2, 2, 14, mode="exhaustive"), "space of 2**16384 tables", None),
        (lambda: search(5, 2, 6, mode="sampled", samples=1), "space of 2**15625 tables",
         None),
        (lambda: search(1024, 2, 2, mode="sampled", samples=1),
         f"space of 2**{2**20} tables", None),
        # with no limit on printed digits, a sampled run still builds a table
        (lambda: search(5, 2, 40, mode="sampled", samples=1),
         f"a table of 5**40 entries exceeds the table size guard {2**20}", 0),
    ],
    ids=["prop-suppord-n33", "whole-space-n40", "exhaustive-n14",
         "sampled-k5-n6", "sampled-k1024-n2", "sampled-k5-n40-no-digit-limit"],
)
def test_an_out_of_reach_space_is_refused_at_once(monkeypatch, call, message, digit_limit):
    # The size is compared without being formed, and the message names the
    # space as a power instead of printing its digits.
    if digit_limit is not None:
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digit_limit)
    started = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the") as err:
        call()
    assert time.perf_counter() - started < 1
    assert message in str(err.value)


def test_sampled_space_size_is_unbounded_when_the_interpreter_prints_any_integer(
        monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert analysis._space_size(5, 2, 6, "sampled") == 2**15625


def _permuted_ofo_eq_table():
    """An OFO-EQ table at (2,2,3) that is not ofo-determined itself and that
    no permutation sending {0, 1} onto {0, 2} leaves unchanged."""
    f = compose_ofo(OfoTable.from_values(2, 2, 2, (0, 1, 1, 0)), 3)
    sigma = Permutation((2, 0, 1))
    return FunctionTable.from_callable(2, 2, 3, lambda t: f(apply_index_map(t, sigma))).values


@pytest.mark.parametrize(
    "target, two_set, equiv_ofo",
    [
        ((0,) * 8, True, True),
        (MAJ3.values, True, False),
        (_permuted_ofo_eq_table(), False, True),
    ],
    ids=["constant", "majority", "permuted-ofo"],
)
def test_search_rejects_a_planted_inconsistency(monkeypatch, target, two_set, equiv_ofo):
    # the target is a restricted-growth representative, so the main loop sees
    # it; flagging it as failing at the pair {0, 2} contradicts what it is
    ctx = TableClassifier(2, 2, 3)
    assert bool(ctx.invariant_perm_ids(target, ctx.pair_perm_entries[1])) == two_set
    assert ctx.equiv_ofo_determined(target) == equiv_ofo
    first_failing_pair = TableClassifier.first_failing_pair

    def planted(self, vals, orbit):
        return 1 if vals == target else first_failing_pair(self, vals, orbit)

    monkeypatch.setattr(TableClassifier, "first_failing_pair", planted)
    with pytest.raises(RuntimeError, match="classification inconsistency"):
        search(2, 2, 3, threads=1)


def _permuted_ofo_eq_table_at_arity_4():
    """An OFO-EQ table at (2,2,4) that is not ofo-determined itself and that
    no permutation sending {0, 1} onto {0, 2} leaves unchanged."""
    f = compose_ofo(OfoTable.from_values(2, 2, 2, (0, 1, 1, 0)), 4)
    sigma = Permutation((2, 0, 1, 3))
    return FunctionTable.from_callable(2, 2, 4, lambda t: f(apply_index_map(t, sigma))).values


@pytest.mark.parametrize(
    "target, two_set",
    [
        # supp-determined, 1 exactly off the diagonal
        (compose_supp(SuppTable.from_values(2, 2, 2, (0, 0, 1)), 4).values, True),
        (_permuted_ofo_eq_table_at_arity_4(), False),
    ],
    ids=["supp", "permuted-ofo"],
)
def test_search_rejects_a_planted_inconsistency_on_shared_refuters(
        monkeypatch, target, two_set):
    # the target is a restricted-growth representative, and an earlier table
    # of its group fails at the pair {0, 2} on its own, so the refuters that
    # g leaves live there are built from that table, not from the target
    ctx = TableClassifier(2, 2, 4)
    assert ctx.classify_values(target).category == ("2ST" if two_set else "OFO-EQ")
    assert bool(ctx.invariant_perm_ids(target, ctx.pair_perm_entries[1])) == two_set
    orbit = ctx.orbit(ctx.minors[0](target))
    (tables,) = (tables for tables in _g_groups(ctx) if target in tables)
    earlier = tables[:tables.index(target)]
    assert any(ctx.first_failing_pair(u, orbit) == 1 for u in earlier)
    first_failing_pair = TableClassifier.first_failing_pair

    def planted(self, vals, orbit):
        return 1 if vals == target else first_failing_pair(self, vals, orbit)

    monkeypatch.setattr(TableClassifier, "first_failing_pair", planted)
    with pytest.raises(RuntimeError, match="classification inconsistency"):
        search(2, 2, 4, threads=1)


def test_uim_2st_suite_rejects_a_planted_fault(monkeypatch):
    # a supp-determined (2,2,4) table, 1 exactly off the diagonal, is 2ST;
    # flagging it as failing at the pair {0, 2} must fail the suite there
    target = compose_supp(SuppTable.from_values(2, 2, 2, (0, 0, 1)), 4).values
    assert TableClassifier(2, 2, 4).invariance_summary(target)[1]
    first_failing_pair = TableClassifier.first_failing_pair

    def planted(self, vals, orbit):
        return 1 if vals == target else first_failing_pair(self, vals, orbit)

    monkeypatch.setattr(TableClassifier, "first_failing_pair", planted)
    report = verify_suite("uim-2st")
    assert not report.passed
    assert report.counterexample == f"n=4, table {encode(target, 2)}"


def test_uim_2st_suite_tests_each_built_table_for_2st_again(monkeypatch):
    # a built table that the per-table test rejects fails the suite there,
    # after the 16 tables of arity 3 and those before it at arity 4
    built = list(TableClassifier(2, 2, 4).two_set_transitive_tables())
    target = built[5]
    invariance_summary = TableClassifier.invariance_summary

    def planted(self, vals):
        order, two_set = invariance_summary(self, vals)
        return order, vals != target and two_set

    monkeypatch.setattr(TableClassifier, "invariance_summary", planted)
    report = verify_suite("uim-2st")
    assert (report.passed, report.checked) == (False, 16 + 6)
    assert report.counterexample == f"n=4, table {encode(target, 2)}"


def test_uim_2st_suite_tests_only_the_2st_tables(monkeypatch):
    # 16 tables at arity 3 and 32 at arity 4, not every table of both spaces
    calls = []
    invariance_summary = TableClassifier.invariance_summary

    def counted(self, vals):
        calls.append(vals)
        return invariance_summary(self, vals)

    monkeypatch.setattr(TableClassifier, "invariance_summary", counted)
    assert verify_suite("uim-2st").passed
    assert len(calls) == 48


def test_prop_52_suite_rejects_a_minor_outside_the_orbit(monkeypatch):
    # beta becomes alpha at (1, 1, 1): every minor then takes alpha twice,
    # and the first pair checked must fail the suite
    sporadic_partial = construct.sporadic_partial_function

    def planted(k, m, alpha, beta):
        vals = list(sporadic_partial(k, m, alpha, beta).values)
        vals[encode((1,) * (m + 1), k)] = alpha
        return FunctionTable(k, max(alpha, beta) + 1, m + 1, vals)

    monkeypatch.setattr(construct, "sporadic_partial_function", planted)
    report = verify_suite("prop-52", k=3, m=2)
    assert (report.passed, report.checked) == (False, 1)
    assert report.counterexample == "k=3, m=2: minor for {1,2} is off"


def _planted_kernel(planted):
    """A stand-in for ``symmetry._collapse_taus`` that passes each row's
    ``(tau, preimage)`` through ``planted(sigma, pair, tau, preimage)``.  The
    rows come from the kernel captured here, before the stand-in is patched
    in, so it does not call itself."""
    kernel = symmetry._collapse_taus

    def planted_kernel(images, rows, sections):
        sigma = Permutation(images)
        out = []
        for (lo, hi, _), (tau, a, b) in zip(rows, kernel(images, rows, sections), strict=True):
            tau, pre = planted(sigma, IndexPair(lo, hi), tau, IndexPair(a, b))
            out.append((tau, pre.lo, pre.hi))
        return out
    return planted_kernel


def _per_pair(planted):
    """``collapse_permutation`` with ``planted`` applied to each result, as
    the brute-force loop takes it; to be run before the kernel is patched."""
    def one(sigma, pair):
        tau, pre = symmetry.collapse_permutation(sigma, pair)
        tau, pre = planted(sigma, pair, tau.images, pre)
        return Permutation(tau), pre
    return one


def _reversed_tau_at(sigma_images, pair):
    def planted(sigma, p, tau, pre):
        if (sigma.images, p) == (sigma_images, pair):
            tau = tau[::-1]
        return tau, pre
    return planted


def _preimage_01_at_degree_4():
    def planted(sigma, p, tau, pre):
        if sigma.degree == 4 and sigma.images[0] == 0:
            pre = IndexPair(0, 1)
        return tau, pre
    return planted


def _unplanted(sigma, pair, tau, pre):
    return tau, pre


def test_lemma_hatsigma_suite_rejects_a_wrong_collapse_permutation(monkeypatch):
    # a valid but wrong tau for sigma = [2,1,3] and the pair {1,3}
    # must fail the suite there, not escape it
    monkeypatch.setattr(symmetry, "_collapse_taus",
                        _planted_kernel(_reversed_tau_at((1, 0, 2), IndexPair(0, 2))))
    report = verify_suite("lemma-hatsigma", n=4)
    assert not report.passed
    assert report.counterexample == "n=3, sigma=[2,1,3], pair={1,3}"


def test_lemma_hatsigma_suite_rejects_a_tau_that_is_not_a_permutation(monkeypatch):
    # at sigma = [2,1,4,3] and the pair {2,3}, whose preimage is {1,4}, tau
    # is [2,1,3]; [2,1,1] still sends the merged position 1 to 2, so only
    # the first identity can see that it repeats an entry
    def planted(sigma, p, tau, pre):
        if (sigma.images, p) == ((1, 0, 3, 2), IndexPair(1, 2)):
            assert (tau, pre) == ((1, 0, 2), IndexPair(0, 3))
            tau = (1, 0, 0)
        return tau, pre

    monkeypatch.setattr(symmetry, "_collapse_taus", _planted_kernel(planted))
    report = verify_suite("lemma-hatsigma", n=4)
    assert (report.checked, report.counterexample) == (
        2 + 6 * 3 + 7 * 6 + 4, "n=4, sigma=[2,1,4,3], pair={2,3}")


@pytest.mark.parametrize("resize", [lambda row: row[:-1], lambda row: row + row[:1]],
                         ids=["short", "long"])
def test_lemma_hatsigma_suite_rejects_a_row_of_the_wrong_length(monkeypatch, capsys, resize):
    # every entry the row has is right, so only its length is wrong
    kernel = symmetry._collapse_taus
    monkeypatch.setattr(symmetry, "_collapse_taus",
                        lambda images, rows, sections: resize(kernel(images, rows, sections)))
    with pytest.raises(ValueError):
        verify_suite("lemma-hatsigma", n=4)
    assert cli.main(["verify", "--suite", "lemma-hatsigma", "--n", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: zip() argument")


# The first counterexample, and the checks made up to it, are those of the
# loops as first written, before each check's fixed work was hoisted.
@pytest.mark.parametrize("planted, checked, counterexample", [
    (_reversed_tau_at((3, 0, 4, 1, 2), IndexPair(1, 3)), 930,
     "n=5, sigma=[4,1,5,2,3], pair={2,4}"),
    (_reversed_tau_at((5, 4, 3, 2, 1, 0), IndexPair(0, 5)), 12154,
     "n=6, sigma=[6,5,4,3,2,1], pair={1,6}"),
    (_preimage_01_at_degree_4(), 22, "n=4, sigma=[1,2,3,4], pair={1,3}"),
])
def test_lemma_hatsigma_suite_reports_its_first_counterexample(
        monkeypatch, planted, checked, counterexample):
    monkeypatch.setattr(symmetry, "_collapse_taus", _planted_kernel(planted))
    report = verify_suite("lemma-hatsigma")
    assert (report.checked, report.counterexample) == (checked, counterexample)


def _constant_images(lengths):
    """``ofo`` with ``(0,) * lengths[len(t)]`` in place of the image of each
    ``t`` no longer than 4."""
    return lambda t: (0,) * lengths[len(t)] if len(t) <= 4 else ofo(t)


@pytest.mark.parametrize("planted, params, checked, counterexample", [
    (lambda t: (1, 0) if tuple(t) == (0, 1, 0) else ofo(t), {}, 1257,
     "product identity fails at u=(1), v=(1,2,1)"),
    (lambda t: ofo(tuple(t)[::-1]) if len(t) == 5 else ofo(t), {}, 1336,
     "product identity fails at u=(1), v=(1,1,1,2)"),
    (lambda t: (2,) if tuple(t) == (2, 1) else ofo(t), {"max_len": 1}, 40,
     "product identity fails at u=(), v=(3,2,2)"),
    (lambda t: ofo(t) + (0,) if len(t) == 3 else ofo(t), {}, 14,
     "idempotence fails at (1,1,1)"),
    (_constant_images((0, 2, 2, 2, 2)), {"k": 1, "max_len": 0, "triple_total": 4}, 25,
     "associativity fails at u=(), v=(1), w=(1,1,1)"),
    (_constant_images((2, 2, 2, 2, 2)), {"k": 1, "max_len": 0, "triple_total": 4}, 20,
     "associativity fails at u=(), v=(), w=(1,1,1)"),
    (_constant_images((2, 1, 2, 1, 2)), {"k": 1, "max_len": 0, "triple_total": 4}, 21,
     "associativity fails at u=(), v=(), w=(1,1,1,1)"),
])
def test_ofo_identities_suite_reports_its_first_counterexample(
        monkeypatch, planted, params, checked, counterexample):
    monkeypatch.setattr(analysis, "ofo", planted)
    report = verify_suite("ofo-identities", **params)
    assert (report.checked, report.counterexample) == (checked, counterexample)


def test_ofo_identities_suite_sends_each_string_through_ofo_once(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return ofo(t)

    monkeypatch.setattr(analysis, "ofo", counted)
    assert verify_suite("ofo-identities").passed
    # two calls per string of length up to 4 in the idempotence loop (121),
    # then one per string of length up to 6 (1,093): every product and
    # associativity operand is such a string
    assert len(calls) == 2 * 121 + 1093


def test_ofo_identities_suite_streams_its_idempotence_loop():
    tracemalloc.start()
    try:
        report = verify_suite("ofo-identities", k=2, max_len=16, triple_total=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2**17 - 1 strings up to length 16, then the empty string's
    # product and associativity checks
    assert report.passed and report.checked == 2**17 + 1
    assert peak < 2**20


# Planted faults early in a suite, in its last block, and, for
# ofo-identities, images outside the strings the suite codes and faults
# first caught by associativity: each row-at-a-time suite reports what its
# one-check-at-a-time loop in brute.py reports.
@pytest.mark.parametrize("planted, params", [
    (lambda t: (1, 0) if tuple(t) == (0, 1, 0) else ofo(t), {}),
    (lambda t: (0,) if tuple(t) == () else ofo(t), {"max_len": 0}),
    (lambda t: ofo(tuple(t)[::-1]) if len(t) == 6 else ofo(t), {}),
    (lambda t: (1,) if tuple(t) == (2,) * 6 else ofo(t), {}),
    (lambda t: (3,) if tuple(t) == (1, 2) else ofo(t), {"max_len": 1}),
    (lambda t: (0,) * 8 if tuple(t) == (0, 0) else ofo(t), {"max_len": 1}),
    (lambda t: tuple(x + 5 for x in ofo(t)) if len(t) == 4 else ofo(t), {"max_len": 3}),
    (lambda t: (0, 1, 2, 0, 1, 2) if tuple(t) == (0,) else ofo(t), {"max_len": 0}),
    (lambda t: ofo(t) + (0,) if len(t) == 3 else ofo(t), {}),
    # ofo(()) is (0,) and ofo(t) is ofo((0,) + t), except at (0, 1, 0): the
    # product identity first fails at v = (), u = (1,)
    (lambda t: (0,) if not t else (1, 0) if tuple(t) == (0, 1, 0) else ofo((0,) + tuple(t)),
     {"k": 2, "max_len": 2}),
    # ofo(()) and ofo((0,)) are (0,), and a leading 0 is dropped: every
    # check with u = () holds, and the first to fail is u = (2), v = ()
    (lambda t: (0,) if tuple(t) in ((), (0,)) else ofo(tuple(t)[1:]) if t[0] == 0 else ofo(t),
     {"k": 2, "max_len": 2}),
    (lambda t: (0, 1, 2) if tuple(t) == (0, 0) else ofo(t),
     {"k": 4, "max_len": 0, "triple_total": 4}),
    (_constant_images((0, 2, 2, 2, 2)), {"k": 1, "max_len": 0, "triple_total": 4}),
    (_constant_images((2, 2, 2, 2, 2)), {"k": 1, "max_len": 0, "triple_total": 4}),
    (_constant_images((2, 1, 2, 1, 2)), {"k": 1, "max_len": 0, "triple_total": 4}),
    # ofo((0,) + t), which satisfies every identity, changed at one string
    # longer than triple_total: associativity first fails inside the row of
    # u = v = (), at its 14th w
    (lambda t: (1,) if tuple(t) == (0, 1, 1, 0, 1) else ofo((0,) + tuple(t)),
     {"k": 2, "max_len": 0, "triple_total": 4}),
    (ofo, {"k": 2, "max_len": 3, "triple_total": 4}),
], ids=["early", "empty-image", "length-6", "last-string", "symbol-k", "long-image",
        "shifted-symbols", "lengthened", "idempotence", "nonempty-empty-image",
        "leading-zero", "lengthened-k4", "associativity-v", "associativity-w3",
        "associativity-w4", "associativity-long-image", "pass"])
def test_ofo_identities_suite_equals_its_per_check_loop(monkeypatch, planted, params):
    monkeypatch.setattr(analysis, "ofo", planted)
    report = verify_suite("ofo-identities", **params)
    args = {"k": 3, "max_len": 4, "triple_total": 6, **params}
    assert (report.checked, report.counterexample) == brute.ofo_identities(ofo=planted, **args)
    assert report.passed == (planted is ofo)


@pytest.mark.parametrize("planted, params", [
    (lambda t: (1,) if tuple(t) == (0, 0) else ofo(t), {}),
    (lambda t: ofo(t)[::-1] if tuple(t) == (2,) * 5 else ofo(t), {}),
    (lambda t: ofo(t)[::-1] if tuple(t) == (0, 1, 2, 3, 3) else ofo(t), {"k": 4}),
    (lambda t: ofo(t)[::-1] if tuple(t) == (0, 1, 2) else ofo(t), {}),
    (ofo, {"k": 2, "n": 6}),
], ids=["early", "last-block", "last-pair", "repeat-free", "pass"])
def test_lemma_ofodeltai_suite_equals_its_per_check_loop(monkeypatch, planted, params):
    monkeypatch.setattr(analysis, "ofo", planted)
    report = verify_suite("lemma-ofodeltaI", **params)
    args = {"k": 3, "n": 5, **params}
    assert (report.checked, report.counterexample) == brute.collapse_insertion(ofo=planted, **args)


@pytest.mark.parametrize("planted", [
    _reversed_tau_at((1, 0, 2), IndexPair(0, 2)),
    _reversed_tau_at((5, 4, 3, 2, 1, 0), IndexPair(0, 5)),
    _reversed_tau_at((5, 4, 3, 2, 1, 0), IndexPair(4, 5)),
    _preimage_01_at_degree_4(),
    _unplanted,
], ids=["early", "last-permutation", "last-check", "preimage", "pass"])
def test_lemma_hatsigma_suite_equals_its_per_pair_loop(monkeypatch, planted):
    expected = brute.lemma_hatsigma(6, _per_pair(planted))
    monkeypatch.setattr(symmetry, "_collapse_taus", _planted_kernel(planted))
    report = verify_suite("lemma-hatsigma")
    assert (report.checked, report.counterexample) == expected


def test_classifier_guards_its_remap_size(monkeypatch):
    # 4! * 2**4 = 384 permutation remap entries
    monkeypatch.setattr(analysis, "REMAP_GUARD", 100)
    with pytest.raises(ValueError, match="384"):
        TableClassifier(2, 2, 4)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for a pool")
def test_search_builds_the_classifier_once_before_the_pool(monkeypatch):
    pid = os.getpid()

    class ParentOnlyClassifier(TableClassifier):
        def __init__(self, *args):
            if os.getpid() != pid:
                raise RuntimeError("classifier built in a pool worker")
            super().__init__(*args)

    monkeypatch.setattr(analysis, "_classifiers", {})
    monkeypatch.setattr(analysis, "TableClassifier", ParentOnlyClassifier)
    report = search(2, 2, 3, threads=2)
    assert report.classified == 256


def test_search_spot_checks_100_permuted_tables(monkeypatch):
    main_loop, full = [], []
    search_category = TableClassifier.search_category
    classify_values = TableClassifier.classify_values

    def counting_main_loop(self, values, group):
        main_loop.append(values)
        return search_category(self, values, group)

    def counting_full(self, values):
        full.append(values)
        return classify_values(self, values)

    monkeypatch.setattr(TableClassifier, "search_category", counting_main_loop)
    monkeypatch.setattr(TableClassifier, "classify_values", counting_full)
    search(2, 2, 3, threads=1)
    # one main-loop call per restricted-growth vector (a 0 followed by any 7
    # binary values); a full classification for each of the 20 of them with
    # a unique identification minor and for each spot-checked copy
    assert len(main_loop) == 2**7
    assert len(full) == 20 + 100


def test_search_builds_each_orbit_of_the_first_minor_once(monkeypatch):
    orbits = []
    orbit = TableClassifier.orbit

    def counting_orbit(self, g):
        orbits.append(g)
        return orbit(self, g)

    monkeypatch.setattr(TableClassifier, "orbit", counting_orbit)
    search(2, 2, 3, threads=1)
    # one orbit per restricted-growth minor for {0, 1} (a 0 followed by any 3
    # binary values), and one per full classification: the 20 tables with a
    # unique identification minor and the 100 spot-checked copies
    assert len(orbits) == 2**3 + 20 + 100
    assert set(analysis._restricted_growth(4, 2)) <= set(orbits)


def test_search_builds_each_pairs_refuters_once(monkeypatch):
    built = []
    build = TableClassifier._build_refuters

    def counting_build(self, p):
        built.append((self, p))
        return build(self, p)

    monkeypatch.setattr(TableClassifier, "_build_refuters", counting_build)
    monkeypatch.setattr(analysis, "_classifiers", {})
    TableClassifier(2, 2, 6)
    assert built == []  # not at construction, but on first use
    search(2, 2, 4, threads=1)
    search(2, 2, 4, threads=1)
    # tables fail at each of the five pairs after {0, 1}; the second search
    # reuses the classifier and its refuters
    ctx = analysis._classifier(2, 2, 4)
    assert sorted(p for _, p in built) == [1, 2, 3, 4, 5]
    assert all(c is ctx for c, _ in built)


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 3), (2, 3, 3), (2, 4, 3), (2, 5, 3), (2, 2, 4)],
    ids=["k2b2n3", "k2b3n3", "k2b4n3", "k2b5n3", "k2b2n4"],
)
def test_search_counts_take_their_closed_forms_at_k2(shape):
    # an ofo-determined table has four keys: the two constant tuples and
    # "first symbol 0" and "first symbol 1"; it is 2ST exactly when the last
    # two share a value, so the OFO-EQ tables are n leading positions times
    # b**2 constant values times b(b-1) distinct non-constant values.  At
    # n <= 5 the 2ST tables are the totally symmetric ones, b**(n+1).
    _, b, n = shape
    counts = search(*shape, threads=1).counts
    assert counts["OFO-EQ"] == n * (b - 1) * b**3
    assert counts["2ST"] == b ** (n + 1)


class _FullClassifier(TableClassifier):
    """Answers the search's main loop from :meth:`classify_values`, so a
    fault planted there reaches the main loop and the spot check alike."""

    def search_category(self, values, group):
        return self.classify_values(values).category


def test_search_rejects_a_classification_that_is_not_permutation_invariant(
    monkeypatch,
):
    class PositionalClassifier(_FullClassifier):
        # depends on the value at input (0, 0, 1), which permutations move
        def classify_values(self, values):
            uim = bool(values[1])
            return replace(
                super().classify_values(values),
                has_uim=uim,
                two_set_transitive=False,
                equiv_ofo_determined=False,
                category="OTHER" if uim else "NOT-UIM",
            )

    monkeypatch.setattr(analysis, "_classifiers", {})
    monkeypatch.setattr(analysis, "TableClassifier", PositionalClassifier)
    with pytest.raises(RuntimeError, match="not permutation-invariant"):
        search(2, 2, 3, threads=1)


def test_search_rejects_a_classification_that_depends_on_output_names(monkeypatch):
    class ValueZeroClassifier(_FullClassifier):
        # reads the value at input (0, 0, 0), which argument permutations fix
        # and output renamings change; a representative always has 0 there
        def classify_values(self, values):
            uim = values[0] == 0
            return replace(
                super().classify_values(values),
                has_uim=uim,
                two_set_transitive=False,
                equiv_ofo_determined=False,
                category="OTHER" if uim else "NOT-UIM",
            )

    monkeypatch.setattr(analysis, "_classifiers", {})
    monkeypatch.setattr(analysis, "TableClassifier", ValueZeroClassifier)
    with pytest.raises(RuntimeError, match="not permutation-invariant"):
        search(2, 2, 3, threads=1)


def _search_by_index(k, b, n):
    """Counts and OTHER witnesses from classifying every table index."""
    ctx = analysis._classifier(k, b, n)
    counts = dict.fromkeys(analysis.CATEGORIES, 0)
    witnesses = []
    for index in range(b ** (k**n)):
        values = decode(index, k**n, b)
        category = ctx.classify_values(values).category
        counts[category] += 1
        if category == "OTHER":
            witnesses.append({"table_index": index, "values": list(values)})
    return counts, witnesses


@pytest.mark.parametrize(
    "shape", [(2, 2, 3), (2, 3, 3), (3, 2, 2), (1, 3, 3), (3, 3, 2)],
    ids=["k2b2n3", "k2b3n3", "k3b2n2", "k1b3n3", "k3b3n2"],
)
def test_search_counts_match_classifying_every_table(shape):
    # at n <= k the repeat-free entries after the minor for {0, 1} lie in no
    # minor at all
    report = search(*shape, threads=1)
    counts, witnesses = _search_by_index(*shape)
    assert report.counts == counts
    assert report.other_witnesses == witnesses
    assert report.classified == report.total_space == sum(counts.values())


@pytest.mark.parametrize("threads", [1, 2])
def test_search_expands_other_representatives_to_every_renaming(monkeypatch, threads):
    class OtherHeavyClassifier(_FullClassifier):
        # every NOT-UIM table becomes OTHER: still invariant under argument
        # permutation and output renaming
        def classify_values(self, values):
            c = super().classify_values(values)
            if c.has_uim:
                return c
            return replace(c, has_uim=True, category="OTHER")

    monkeypatch.setattr(analysis, "_classifiers", {})
    monkeypatch.setattr(analysis, "TableClassifier", OtherHeavyClassifier)
    report = search(2, 3, 3, threads=threads)
    counts, witnesses = _search_by_index(2, 3, 3)
    assert counts["OTHER"] == 6318
    assert report.counts == counts
    assert report.other_witnesses == witnesses


@pytest.mark.parametrize(
    "args, kwargs, fingerprint",
    [
        ((2, 2, 3), {},
         "06cd5be3dd7a92299ee8f242ca0ed59d2ed831c895e37acd37e7ae72ea11e33e"),
        ((3, 3, 2), {},
         "8cfa061e37e8451570051e097881f1d1f8bd1e11ba66699ea50704d260f7ec7f"),
        ((2, 4, 3), {},
         "a820f32ded774236da499ae9bd9c559f1cdce7d195d7806e7e748d8ed46c61a7"),
        ((2, 3, 3), {},
         "aac14372d5b49118db67eabc2edc0e165a70e13cc9ee862434f2e32acbd9c6d5"),
        ((2, 5, 3), {},
         "8e716ffd55e2993d149bc1b943116fbbb71759b6ad78dea4c6b0057c63baa020"),
        ((2, 2, 4), {},
         "9b5f0c7bf602583bf3fc98b845811152b1e567cfbabdfdc7aa78c69f99d7f35e"),
        ((2, 2, 5), {"mode": "sampled", "seed": 3, "samples": 25},
         "5acdd7838fb4dbc7923264a2db52cd5736c997d0678bf93cd94400864afc35f5"),
        ((2, 2, 6), {"mode": "sampled", "seed": 0, "samples": 150},
         "bb4da78ebde7e16238e47ac826290c9aa8bea5468b44dd51240ec5ebe04f77ad"),
    ],
    ids=["k2b2n3-exhaustive", "k3b3n2-exhaustive", "k2b4n3-exhaustive",
         "k2b3n3-exhaustive", "k2b5n3-exhaustive", "k2b2n4-exhaustive",
         "k2b2n5-sampled", "k2b2n6-sampled"],
)
def test_search_fingerprints_are_pinned(args, kwargs, fingerprint):
    assert search(*args, **kwargs).fingerprint() == fingerprint


def test_category_assignment():
    assert analysis._categorize(False, True, True) == "NOT-UIM"
    assert analysis._categorize(True, True, True) == "2ST"
    assert analysis._categorize(True, False, True) == "OFO-EQ"
    assert analysis._categorize(True, False, False) == "OTHER"


def test_search_exhaustive_small():
    report = search(2, 2, 3, mode="exhaustive")
    assert report.classified == 256
    assert sum(report.counts.values()) == 256
    assert report.counts["OTHER"] == len(report.other_witnesses)
    assert not report.flagged_counterexamples
    # the sporadic table of this shape lands in a unique-minor category
    c = classify(sporadic_function(2))
    assert c.category in ("2ST", "OFO-EQ", "OTHER")
    assert c.has_uim


def test_search_reports_are_reproducible():
    a = search(2, 2, 3, mode="exhaustive")
    b = search(2, 2, 3, mode="exhaustive")
    assert a.fingerprint() == b.fingerprint()
    assert a.to_json_obj(include_timing=False) == b.to_json_obj(include_timing=False)


def test_search_parallel_matches_serial(monkeypatch):
    # at (2, 3, 2) the minor for {0, 1} has only 2 entries and 2
    # restricted-growth values, fewer than four workers; the CPU count is
    # raised so that every split runs with the workers it asks for
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for shape, threads in (((2, 2, 3), 4), ((2, 3, 3), 2), ((2, 2, 4), 2), ((2, 3, 2), 4)):
        serial = search(*shape, mode="exhaustive", threads=1)
        parallel = search(*shape, mode="exhaustive", threads=threads)
        assert serial.fingerprint() == parallel.fingerprint()


def test_search_sampled_determinism(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # three workers on any host
    a = search(2, 2, 5, mode="sampled", seed=3, samples=25)
    b = search(2, 2, 5, mode="sampled", seed=3, samples=25, threads=3)
    other = search(2, 2, 5, mode="sampled", seed=4, samples=25)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != other.fingerprint()
    assert a.classified == 25


def test_search_guards():
    with pytest.raises(ValueError):
        search(2, 2, 5, mode="exhaustive")
    with pytest.raises(ValueError):
        search(2, 2, 3, mode="sampled")
    with pytest.raises(ValueError):
        search(2, 2, 3, mode="unknown")
    with pytest.raises(ValueError):
        search(2, 2, 1, mode="exhaustive")


@pytest.mark.parametrize("threads", [0, -5])
def test_search_rejects_a_bad_worker_count(threads):
    with pytest.raises(ValueError, match=f"positive worker count, got {threads}"):
        search(2, 2, 3, threads=threads)


def test_search_rejects_samples_in_exhaustive_mode():
    with pytest.raises(ValueError, match="exhaustive mode takes no samples, got samples=5"):
        search(2, 2, 3, mode="exhaustive", samples=5)


def test_search_runs_in_process_by_default(monkeypatch):
    def no_pool(method):
        raise AssertionError("search built a worker pool")

    monkeypatch.setattr(analysis, "get_context", no_pool)
    assert search(2, 2, 3).classified == 256
    assert search(2, 2, 5, mode="sampled", seed=3, samples=25).classified == 25


def test_search_worker_with_an_empty_share():
    # (1, 3, 3) has one restricted-growth minor for {0, 1}, and a sampled run
    # of one sample has one slot: the second worker of two gets no group
    total = analysis._space_size(1, 3, 3)
    for mode, seed, slots in (("exhaustive", None, total), ("sampled", 0, 1)):
        def share(worker, workers):
            return analysis._search_chunk(
                (1, 3, 3, mode, seed, total, slots, {}, worker, workers))

        assert share(1, 2) == ({}, [])
        assert share(0, 2) == share(0, 1)
        assert sum(share(0, 2)[0].values()) == slots


def test_search_witnesses_sorted_unique():
    report = search(2, 2, 3, mode="exhaustive")
    indices = [w["table_index"] for w in report.other_witnesses]
    assert indices == sorted(set(indices))


def test_sample_index_is_counter_based():
    first = [sample_index(7, j, 512) for j in range(5)]
    assert first == [sample_index(7, j, 512) for j in range(5)]
    assert all(0 <= v < 512 for v in first)
    assert sample_index(7, 0, 1) == 0


def test_sample_index_rejects_an_empty_space():
    with pytest.raises(ValueError, match="empty space"):
        sample_index(0, 0, 0)


def test_report_json_shape():
    report = search(2, 2, 3, mode="exhaustive")
    obj = report.to_json_obj()
    assert set(obj["counts"]) == set(analysis.CATEGORIES)
    assert obj["parameters"]["mode"] == "exhaustive"
    assert "elapsed_seconds" in obj
    assert "elapsed_seconds" not in report.to_json_obj(include_timing=False)


def test_verify_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        verify_suite("nope")


def test_verify_suite_small_runs():
    assert verify_suite("lemma-ofodeltaI", k=2, n=3).passed
    assert verify_suite("lemma-hatsigma", n=4).passed
    assert verify_suite("prop-ofominor", n=3).passed
    assert verify_suite("ofo-identities", k=2, max_len=3, triple_total=4).passed
    assert verify_suite("prop-42", k=3).passed
    assert verify_suite("prop-52", k=3, m=2).passed
    assert verify_suite("uim-2st", n=3).passed
    assert verify_suite("renaming-invariance", k=3, b=2, n=2).passed


# Checks each suite makes at its defaults, as counted before the suites took
# keyword defaults; each suite runs in under a second.
DEFAULT_CHECKS = {
    "ofo-identities": 34293,
    "lemma-ofodeltaI": 1244,
    "prop-ofominor": 144,
    "lemma-hatsigma": 12164,
    "prop-suppord": 65824,
    "prop-42": 1121,
    "prop-52": 16,
    "uim-2st": 48,
    "renaming-invariance": 39366,
}


def test_suite_defaults_are_pinned():
    assert sorted(DEFAULT_CHECKS) == analysis.suite_names()
    for name, checks in DEFAULT_CHECKS.items():
        report = verify_suite(name)
        assert (report.passed, report.checked, report.params) == (True, checks, {})


@pytest.mark.parametrize(
    "name",
    ["ofo-identities", "lemma-ofodeltaI", "prop-ofominor", "lemma-hatsigma",
     "renaming-invariance"],
)
def test_suite_guard_counts_the_checks_exactly(name, monkeypatch):
    # a run of exactly SUITE_GUARD checks is allowed, and refused below it
    monkeypatch.setattr(analysis, "SUITE_GUARD", DEFAULT_CHECKS[name])
    assert verify_suite(name).checked == DEFAULT_CHECKS[name]
    monkeypatch.setattr(analysis, "SUITE_GUARD", DEFAULT_CHECKS[name] - 1)
    with pytest.raises(ValueError, match="suite guard"):
        verify_suite(name)


def _two_set_transitive_count(k, b, n):
    return sum(brute.is_2_set_transitive_fn(FunctionTable(k, b, n, vals))
               for vals in product(range(b), repeat=k**n))


@pytest.mark.parametrize(
    "name, params, checks",
    [
        # domain sizes 2 and 3: each value, UIM, no ofo route; trivial group at 3
        ("prop-42", {"k": 3}, (2**3 + 2) + (3**4 + 3)),
        # (k, m) = (3, 2) and (4, 2): each minor, then no ofo route
        ("prop-52", {"k": 4, "m": 2}, 2 * (3 + 1)),
        # m = k is the total family, which prop-42 checks
        ("prop-52", {"k": 4, "m": 4}, DEFAULT_CHECKS["prop-52"]),
        # 2**4 factor tables, each with 3 minors
        ("prop-ofominor", {"n": 3}, 2**4 * 3),
        ("uim-2st", {"n": 3}, _two_set_transitive_count(2, 2, 3)),
    ],
)
def test_a_suite_bound_runs_every_case_up_to_it(name, params, checks):
    report = verify_suite(name, **params)
    assert (report.passed, report.checked, report.params) == (True, checks, params)


def test_verify_suite_rejects_a_parameter_it_does_not_take():
    with pytest.raises(ValueError, match="'prop-ofominor' takes no parameter arity; "
                                         "it accepts k, b, n"):
        verify_suite("prop-ofominor", arity=3)


def test_verify_suite_requires_large_arity_for_support_equivalences():
    with pytest.raises(ValueError):
        verify_suite("prop-suppord", k=3, b=2, n=4)


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 3), (2, 2, 4), (2, 3, 3), (3, 2, 2), (3, 3, 2), (1, 3, 3)],
    ids=lambda s: "k{}b{}n{}".format(*s),
)
def test_block_tables_of_the_fibers_are_the_tables_a_per_table_scan_finds(shape):
    # prop-suppord forms its classes as the tables constant on the fibers of
    # ofo and of the support, and counts every table of the space as checked
    k, b, n = shape
    ctx = TableClassifier(*shape)
    words = list(all_tuples(k, n))
    tables = list(product(range(b), repeat=k**n))
    for fiber, determined in ((ofo, ctx.ofo_determined), (frozenset, ctx.supp_determined)):
        labels = analysis._representative(map(fiber, words))
        assert list(analysis._block_tables(labels, b)) == [t for t in tables if determined(t)]


def test_support_equivalences_walk_a_table_deeper_than_the_recursion_limit():
    # 4**6 positions; the one table is supp-determined, so 15**2 pairs of
    # pairs follow it
    assert 4**6 > sys.getrecursionlimit()
    report = verify_suite("prop-suppord", k=4, b=1, n=6)
    assert (report.passed, report.checked) == (True, 1 + math.comb(6, 2) ** 2)


def _anchored_witness_fails_on(pair_i, pair_j, last_value):
    real = decomp.anchored_minor_equivalence

    def fake(f, p, q):
        if (p.render(), q.render()) == (pair_i, pair_j) and f.values[-1] == last_value:
            return None
        return real(f, p, q)

    return fake


def _two_set_transitive_only_if_ends_agree():
    real = TableClassifier.invariance_summary

    def fake(ctx, vals):
        order, two_set = real(ctx, vals)
        return order, two_set and vals[0] == vals[-1]

    return fake


@pytest.mark.parametrize(
    "target, fake, checked, counterexample",
    [
        (
            (decomp, "anchored_minor_equivalence"),
            lambda f, p, q: None,
            2**16 + 1,
            "table 0: no anchored witness for {1,2}, {1,2}",
        ),
        (
            (decomp, "anchored_minor_equivalence"),
            _anchored_witness_fails_on("{2,4}", "{1,3}", 1),
            65598,
            "table 1: no anchored witness for {2,4}, {1,3}",
        ),
        (
            (TableClassifier, "invariance_summary"),
            _two_set_transitive_only_if_ends_agree(),
            2**16,
            "class sizes differ: ts&ofo=8, 2st&ofo=4, supp=8",
        ),
    ],
    ids=["no-witness", "one-witness-missing", "2st-misread"],
)
def test_support_equivalences_report_a_planted_fault(monkeypatch, target, fake, checked,
                                                     counterexample):
    monkeypatch.setattr(*target, fake)
    report = verify_suite("prop-suppord")
    assert (report.passed, report.checked, report.counterexample) == (
        False, checked, counterexample)


def test_suite_report_shape():
    report = verify_suite("lemma-hatsigma", n=3)
    obj = report.to_json_obj()
    assert obj["suite"] == "lemma-hatsigma"
    assert obj["passed"] is True
    assert obj["counterexample"] is None
    assert obj["checked"] > 0


def test_classifier_rejects_unary():
    with pytest.raises(ValueError):
        TableClassifier(2, 2, 1)


def test_uim_depends_only_on_repeat_entries():
    # at arity <= alphabet size, values on repeat-free tuples cannot matter
    rng = random.Random(17)
    for _ in range(20):
        vals = [rng.randrange(2) for _ in range(9)]
        f = FunctionTable(3, 2, 2, tuple(vals))
        mutated = list(vals)
        for i, t in enumerate(product(range(3), repeat=2)):
            if t[0] != t[1]:
                mutated[i] ^= 1
        g = FunctionTable(3, 2, 2, tuple(mutated))
        assert classify(f).has_uim == classify(g).has_uim


def test_classification_is_permutation_invariant_sample():
    ctx = TableClassifier(2, 2, 3)
    rng = random.Random(5)
    for _ in range(50):
        vals = tuple(rng.randrange(2) for _ in range(8))
        c1 = ctx.classify_values(vals)
        remap = ctx.perm_remaps[rng.randrange(6)]
        c2 = ctx.classify_values(tuple(vals[j] for j in remap))
        assert (c1.category, c1.has_uim) == (c2.category, c2.has_uim)
