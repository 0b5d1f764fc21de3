import random
import tracemalloc
from itertools import product

import pytest

import brute
from uimlab import analysis
from uimlab.analysis import _block_tables, _representative, classify, equiv_to_ofo_determined
from uimlab.construct import sporadic_function, sporadic_partial_function
from uimlab.decomp import (
    OfoTable,
    SuppTable,
    _ofo_domain,
    anchored_minor_equivalence,
    compose_ofo,
    compose_supp,
    ofo_decompose,
    supp_decompose,
    supp_table_from_json_obj,
    supp_table_to_json_obj,
)
from uimlab.ftable import FunctionTable, restrict_to_repeats
from uimlab.tuples import IndexPair, Permutation, all_tuples, ofo

MAJ3 = FunctionTable(2, 2, 3, (0, 0, 0, 1, 0, 1, 1, 1))
MAJ4 = FunctionTable.from_callable(2, 2, 4, lambda t: int(sum(t) >= 2))


def first_letter_table(k, b, max_len):
    keys = _ofo_domain(k, max_len)
    return OfoTable(k, b, max_len, {r: r[0] % b for r in keys})


def test_ofo_table_validation():
    with pytest.raises(ValueError):
        OfoTable(2, 2, 3, {})
    with pytest.raises(ValueError):
        OfoTable(2, 2, 2, {(0,): 0})
    keys = _ofo_domain(2, 2)
    with pytest.raises(ValueError):
        OfoTable(2, 2, 2, {r: 5 for r in keys})


def test_compose_ofo_first_letter_is_projection():
    f = compose_ofo(first_letter_table(2, 2, 2), 3)
    assert f.values == tuple(t[0] for t in all_tuples(2, 3))


def test_compose_ofo_constant():
    keys = _ofo_domain(2, 2)
    f = compose_ofo(OfoTable(2, 2, 2, {r: 1 for r in keys}), 3)
    assert set(f.values) == {1}


def test_compose_ofo_merges_fibers():
    f_star = OfoTable.from_values(2, 2, 2, (0, 1, 1, 0))
    f = compose_ofo(f_star, 3)
    assert f((0, 1, 0)) == f((0, 1, 1)) == f_star((0, 1))


def test_every_binary_table_is_ofo_determined():
    # over 2 symbols, the four binary inputs have distinct first-occurrence
    # images, so the fibers are singletons
    for vals in product(range(2), repeat=4):
        f = FunctionTable(2, 2, 2, vals)
        f_star = ofo_decompose(f)
        assert f_star is not None
        assert compose_ofo(f_star, 2).values == f.values


def test_majority_is_not_ofo_determined():
    assert MAJ3((0, 1, 0)) != MAJ3((0, 1, 1))
    assert ofo_decompose(MAJ3) is None


def test_ofo_round_trip_small_exhaustive():
    for k, arities in ((1, (1, 2, 3, 4)), (2, (1, 2, 3, 4)), (3, (3,))):
        for n in arities:
            max_len = min(n, k)
            keys = _ofo_domain(k, max_len)
            for assignment in product(range(2), repeat=len(keys)):
                f_star = OfoTable.from_values(k, 2, max_len, assignment)
                f = compose_ofo(f_star, n)
                recovered = ofo_decompose(f)
                assert recovered is not None
                assert not recovered.unconstrained
                assert recovered.entries == f_star.entries
                assert compose_ofo(recovered, n).values == f.values


def test_ofo_round_trip_k3_sampled():
    rng = random.Random(991)
    keys = _ofo_domain(3, 3)
    for n in (1, 2, 4):
        max_len = min(n, 3)
        short = _ofo_domain(3, max_len)
        for _ in range(300):
            f_star = OfoTable.from_values(
                3, 2, max_len, [rng.randrange(2) for _ in short]
            )
            f = compose_ofo(f_star, n)
            recovered = ofo_decompose(f)
            assert recovered is not None
            assert recovered.entries == f_star.entries
    assert len(keys) == 15


def test_partial_decompose_flags_unconstrained():
    f_star = first_letter_table(3, 2, 2)
    pf = restrict_to_repeats(compose_ofo(f_star, 2))
    recovered = ofo_decompose(pf)
    assert recovered is not None
    # only the diagonal tuples are defined, so every length-2 key is free
    assert recovered.unconstrained == frozenset(
        r for r in _ofo_domain(3, 2) if len(r) == 2
    )
    for r in recovered.unconstrained:
        assert recovered.entries[r] == 0
    for r in _ofo_domain(3, 1):
        assert recovered.entries[r] == f_star.entries[r]


def test_supp_decompose_examples():
    constant = FunctionTable(2, 2, 3, (1,) * 8)
    table = supp_decompose(constant)
    assert table is not None and set(table.entries.values()) == {1}
    occurs1 = FunctionTable.from_callable(2, 2, 3, lambda t: int(1 in t))
    assert supp_decompose(occurs1) is not None
    assert supp_decompose(MAJ3) is None


def test_supp_compose_decompose_round_trip():
    for vals in product(range(2), repeat=3):
        f_prime = SuppTable.from_values(2, 2, 2, vals)
        f = compose_supp(f_prime, 4)
        recovered = supp_decompose(f)
        assert recovered is not None
        assert recovered.entries == f_prime.entries


def test_equiv_to_ofo_determined_identity_witness():
    f = compose_ofo(first_letter_table(2, 2, 2), 3)
    witness = equiv_to_ofo_determined(f)
    assert witness is not None
    sigma, f_star = witness
    assert sigma.images == (0, 1, 2)
    assert compose_ofo(f_star, 3).values == f.values


def test_equiv_to_ofo_determined_reversal():
    f_star = OfoTable.from_values(2, 2, 2, (0, 1, 0, 1))
    g = compose_ofo(f_star, 3)
    f = g.minor_by(Permutation((2, 1, 0)))
    witness = equiv_to_ofo_determined(f)
    assert witness is not None
    sigma, star = witness
    assert compose_ofo(star, 3).minor_by(sigma).values == f.values


def test_majority_not_equiv_to_ofo_determined():
    assert equiv_to_ofo_determined(MAJ3) is None


def test_equiv_to_ofo_determined_partial():
    pf = restrict_to_repeats(compose_ofo(first_letter_table(3, 2, 3), 3))
    witness = equiv_to_ofo_determined(pf)
    assert witness is not None
    sigma, star = witness
    composed = compose_ofo(star, 3).minor_by(sigma)
    for i, v in enumerate(pf.values):
        if v is not None:
            assert composed.values[i] == v


def _permuted_ofo_table(rng, k, b, n):
    """A seeded ofo-determined table with its arguments permuted."""
    f_star = OfoTable.from_values(
        k, b, min(n, k), [rng.randrange(b) for _ in _ofo_domain(k, min(n, k))])
    return compose_ofo(f_star, n).minor_by(Permutation(rng.sample(range(n), n)))


def _shown(witness):
    if witness is None:
        return None
    sigma, f_star = witness
    return sigma.images, f_star.entries, f_star.unconstrained


@pytest.mark.parametrize("shape", [(2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 2, 4), (3, 2, 4),
                                   (1, 2, 3), (2, 2, 1), (4, 2, 3), (2, 2, 5), (3, 2, 5)])
def test_equiv_to_ofo_determined_returns_the_brute_force_witness(shape):
    k, b, n = shape
    rng = random.Random(f"witness:{shape}")
    tables = []
    for _ in range(8):
        tables.append(_permuted_ofo_table(rng, k, b, n))
        tables.append(FunctionTable(k, b, n, tuple(rng.randrange(b) for _ in range(k**n))))
    for f in list(tables):
        if n >= 2:  # arity 1 has no repeat tuples to restrict to
            tables.append(restrict_to_repeats(f))
        holes = list(f.values)
        for i in rng.sample(range(k**n), k**n // 3):
            holes[i] = None
        tables.append(FunctionTable(k, b, n, tuple(holes)))
    witnesses = [_shown(equiv_to_ofo_determined(f)) for f in tables]
    assert witnesses == [_shown(brute.ofo_witness(f)) for f in tables]
    # every table built from a permuted ofo table has a witness
    assert sum(w is not None for w in witnesses) >= len(tables) // 2


@pytest.mark.parametrize("f", [sporadic_function(k) for k in (2, 3, 4)]
                         + [sporadic_partial_function(k, m) for k, m in ((3, 2), (4, 3), (4, 2))],
                         ids=["total2", "total3", "total4", "partial3-2", "partial4-3", "partial4-2"])
def test_equiv_to_ofo_determined_on_the_sporadic_tables_is_the_brute_force_witness(f):
    assert _shown(equiv_to_ofo_determined(f)) == _shown(brute.ofo_witness(f))


def test_equiv_to_ofo_determined_peaks_below_half_a_mib():
    # with the shape's classifier built (by classify here), the words and
    # one fiber dict per ofo system tried (measured about 0.07 MiB at (4,2,5))
    f = sporadic_function(4)
    classify(f)
    tracemalloc.start()
    try:
        equiv_to_ofo_determined(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_equiv_to_ofo_determined_refuses_a_shape_past_the_remap_guard(monkeypatch):
    # 9! * 2**9 remap entries exceed the guard; the refusal comes before any
    # permutation is walked
    def walk(*args):
        raise AssertionError("walked the permutations")

    monkeypatch.setattr(analysis, "perm_remaps", walk)
    rng = random.Random(9)
    f = FunctionTable(2, 2, 9, tuple(rng.randrange(2) for _ in range(2**9)))
    with pytest.raises(ValueError, match="permutation remap entries .* exceed guard"):
        equiv_to_ofo_determined(f)


def test_anchored_equivalence_same_pair_is_identity():
    for pair in IndexPair.all_pairs(4):
        pi = anchored_minor_equivalence(MAJ4, pair, pair)
        assert pi is not None
        assert pi.images == (0, 1, 2)


def test_anchored_equivalence_on_supp_built_table():
    f = compose_supp(SuppTable.from_values(2, 2, 2, (0, 1, 0)), 4)
    for pair_i in IndexPair.all_pairs(4):
        for pair_j in IndexPair.all_pairs(4):
            pi = anchored_minor_equivalence(f, pair_i, pair_j)
            assert pi is not None
            assert pi.images[pair_j.lo] == pair_i.lo


def test_anchored_equivalence_probe_can_fail():
    proj = FunctionTable.from_callable(2, 2, 3, lambda t: t[0])
    # collapsing {1,2} keeps the projection; collapsing {2,3} does not align
    assert anchored_minor_equivalence(proj, IndexPair(0, 1), IndexPair(1, 2)) is None


def _anchored_cases():
    """The tables ``prop-suppord`` asks for anchored witnesses at (2,2,4) and
    (2,3,4), the ofo-determined ones at (2,2,4), the sporadic table of
    domain size 3, where some pairs of pairs have none, seeded tables
    symmetric in their first two positions, where some witnesses are not
    the first candidate, and seeded tables at (2,2,4)."""
    for k, b, n, key in ((2, 2, 4, frozenset), (2, 3, 4, frozenset), (2, 2, 4, ofo)):
        for vals in _block_tables(_representative(map(key, all_tuples(k, n))), b):
            yield FunctionTable(k, b, n, vals)
    yield sporadic_function(3)
    rng = random.Random(7)
    for k, b, n in ((2, 2, 5), (3, 2, 4)):
        values = {}
        yield FunctionTable(k, b, n, tuple(
            values.setdefault(tuple(sorted(t[:2])) + t[2:], rng.randrange(b))
            for t in all_tuples(k, n)))
    for _ in range(24):
        yield FunctionTable(2, 2, 4, tuple(rng.randrange(2) for _ in range(16)))


def test_anchored_equivalence_equals_the_per_candidate_pullbacks():
    answers = []
    for f in _anchored_cases():
        for pair_i in IndexPair.all_pairs(f.arity):
            for pair_j in IndexPair.all_pairs(f.arity):
                pi = anchored_minor_equivalence(f, pair_i, pair_j)
                assert pi == brute.anchored_minor_equivalence(f, pair_i, pair_j)
                answers.append(pi)
    assert None in answers
    assert any(pi is not None and pi.images != tuple(range(len(pi.images))) for pi in answers)


def test_supp_table_json_round_trip():
    table = SuppTable.from_values(3, 2, 2, (1, 0, 1, 0, 0, 1))
    assert supp_table_from_json_obj(supp_table_to_json_obj(table)) == table
