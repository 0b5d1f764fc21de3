import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from uimlab import symmetry
from uimlab.analysis import invariance_group
from uimlab.decomp import SuppTable, compose_supp
from uimlab.ftable import FunctionTable, restrict_to_repeats
from uimlab.symmetry import PermutationGroup, collapse_permutation, is_2_set_transitive
from uimlab.tuples import IndexPair, Permutation, _collapse_section, _tuple_getter, collapse_map

MAJ3 = FunctionTable(2, 2, 3, (0, 0, 0, 1, 0, 1, 1, 1))
PROJ1_2 = FunctionTable(2, 2, 2, (0, 0, 1, 1))


def test_group_validation_accepts_symmetric():
    assert PermutationGroup.symmetric(3).order == 6
    assert PermutationGroup.trivial(4).order == 1


def test_group_validation_rejects_broken_sets():
    ident = Permutation.identity(3)
    cycle = Permutation((1, 2, 0))
    with pytest.raises(ValueError, match="identity"):
        PermutationGroup(3, frozenset({cycle}))
    with pytest.raises(ValueError):
        PermutationGroup(3, frozenset({ident, cycle}))  # inverse missing
    with pytest.raises(ValueError):
        PermutationGroup(3, frozenset())


def test_group_validation_rejects_two_transpositions_without_their_product():
    swaps = {Permutation((1, 0, 2)), Permutation((0, 2, 1))}
    with pytest.raises(ValueError, match="not closed under composition"):
        PermutationGroup(3, frozenset({Permutation.identity(3)} | swaps))


def test_symmetric_group_of_degree_8_is_validated():
    assert PermutationGroup.symmetric(8).order == 40320


def test_invariance_group_of_majority_is_full():
    assert invariance_group(MAJ3) == brute.invariance_group(MAJ3) == PermutationGroup.symmetric(3)


def test_invariance_group_of_projection_is_trivial():
    assert invariance_group(PROJ1_2) == brute.invariance_group(PROJ1_2)
    assert invariance_group(PROJ1_2) == PermutationGroup.trivial(2)


def test_invariance_group_of_unary_table_is_trivial():
    assert invariance_group(FunctionTable(2, 2, 1, (0, 1))) == PermutationGroup.trivial(1)


def test_invariance_group_of_partial_table():
    # defined on the diagonal only; any argument swap preserves it
    vals = tuple(0 if i in (0, 4, 8) else None for i in range(9))
    pf = FunctionTable(3, 2, 2, vals)
    assert invariance_group(pf) == brute.invariance_group(pf)
    assert invariance_group(pf).order == 2


def test_invariance_group_checks_domain():
    # defined at (0,1) but not (1,0): the swap moves the domain
    pf = FunctionTable(2, 2, 2, (None, 0, None, None))
    assert invariance_group(pf) == brute.invariance_group(pf)
    assert invariance_group(pf).order == 1


def test_invariance_group_of_a_totally_symmetric_arity_7_table():
    f = compose_supp(SuppTable.from_values(2, 2, 2, (0, 1, 1)), 7)
    assert invariance_group(f).order == 5040


def test_totally_symmetric():
    assert invariance_group(MAJ3).order == 6 and brute.is_totally_symmetric(MAJ3)
    assert invariance_group(PROJ1_2).order == 1 and not brute.is_totally_symmetric(PROJ1_2)


def test_supp_built_tables_are_totally_symmetric():
    # every table factoring through the symbol set, over 2 symbols at arity 3
    for index in range(8):
        entries = dict(
            zip(
                [frozenset({0}), frozenset({1}), frozenset({0, 1})],
                [(index >> i) & 1 for i in range(3)],
            )
        )
        f = compose_supp(SuppTable(2, 2, 2, entries), 3)
        assert invariance_group(f).order == 6
        assert brute.is_totally_symmetric(f)


def test_two_set_transitivity_of_groups():
    assert is_2_set_transitive(PermutationGroup.symmetric(4))
    assert not is_2_set_transitive(PermutationGroup.trivial(3))
    cyclic = PermutationGroup(
        3, frozenset({Permutation((0, 1, 2)), Permutation((1, 2, 0)),
                      Permutation((2, 0, 1))})
    )
    assert is_2_set_transitive(cyclic)
    with pytest.raises(ValueError):
        is_2_set_transitive(PermutationGroup.trivial(1))


def test_two_set_transitivity_of_tables():
    proj3 = FunctionTable.from_callable(2, 2, 3, lambda t: t[0])
    # at arity 2 there is a single pair, so even a trivial group acts
    # transitively on it
    for f, two_set in ((MAJ3, True), (PROJ1_2, True), (proj3, False)):
        assert is_2_set_transitive(invariance_group(f)) == two_set
        assert brute.is_2_set_transitive_fn(f) == two_set


def test_collapse_permutation_identity():
    for n in (2, 3, 4):
        for pair in IndexPair.all_pairs(n):
            tau, pre = collapse_permutation(Permutation.identity(n), pair)
            assert tau == Permutation.identity(n - 1)
            assert pre == pair


def test_collapse_permutation_example():
    tau, pre = collapse_permutation(Permutation((1, 2, 0)), IndexPair(0, 1))
    assert (pre.lo, pre.hi) == (0, 2)
    assert tau == Permutation.identity(2)


@pytest.mark.parametrize("n", range(2, 6))
def test_collapse_permutation_identities_exhaustive(n):
    for sigma in Permutation.all_perms(n):
        for pair in IndexPair.all_pairs(n):
            tau, pre = collapse_permutation(sigma, pair)
            lhs = tau.as_index_map().after(collapse_map(pre, n))
            rhs = collapse_map(pair, n).after(sigma.as_index_map())
            assert lhs.images == rhs.images
            assert tau.images[pre.lo] == pair.lo


@pytest.mark.parametrize("n", range(2, 8))
def test_collapse_permutation_equals_the_brute_force_loop(n):
    for sigma in Permutation.all_perms(n):
        for pair in IndexPair.all_pairs(n):
            tau, pre = collapse_permutation(sigma, pair)
            assert type(tau) is Permutation and type(pre) is IndexPair
            assert (tau.images, pre) == brute.collapse_permutation(sigma, pair)


@pytest.mark.parametrize("n", range(2, 8))
def test_collapse_taus_equals_the_per_pair_calls(n):
    pairs = list(IndexPair.all_pairs(n))
    rows = [(pair.lo, pair.hi, collapse_map(pair, n).images) for pair in pairs]
    sections = [_tuple_getter(_collapse_section(hi, n)) for hi in range(n)]
    for sigma in Permutation.all_perms(n):
        row = symmetry._collapse_taus(sigma.images, rows, sections)
        assert len(row) == len(pairs)
        for (tau, a, b), pair in zip(row, pairs):
            assert type(tau) is tuple and a < b
            assert (Permutation(tau), IndexPair(a, b)) == collapse_permutation(sigma, pair)


def test_collapse_permutation_rejects_a_degree_below_2_or_a_pair_beyond_it():
    with pytest.raises(ValueError, match="degree >= 2"):
        collapse_permutation(Permutation.identity(1), IndexPair(0, 1))
    with pytest.raises(ValueError, match="out of range"):
        collapse_permutation(Permutation.identity(3), IndexPair(1, 3))


def test_collapse_permutation_validates_a_tau_it_has_not_seen(monkeypatch):
    monkeypatch.setattr(symmetry, "_collapse_section", lambda hi, n: (0,) * (n - 1))
    with pytest.raises(ValueError, match="not a permutation"):
        collapse_permutation(Permutation((1, 2, 0)), IndexPair(0, 1))


@given(st.permutations(list(range(6))), st.data())
def test_collapse_permutation_random(images, data):
    sigma = Permutation(tuple(images))
    lo = data.draw(st.integers(0, 4))
    hi = data.draw(st.integers(lo + 1, 5))
    pair = IndexPair(lo, hi)
    tau, pre = collapse_permutation(sigma, pair)
    lhs = tau.as_index_map().after(collapse_map(pre, 6))
    rhs = collapse_map(pair, 6).after(sigma.as_index_map())
    assert lhs.images == rhs.images
    assert tau.images[pre.lo] == pair.lo


def test_restriction_of_symmetric_table_stays_symmetric():
    pf = restrict_to_repeats(compose_supp(SuppTable.constant(3, 2, 2, 1), 2))
    assert invariance_group(pf) == brute.invariance_group(pf)
    assert invariance_group(pf).order == 2
