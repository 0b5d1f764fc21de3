import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uimlab.ftable import (
    FunctionTable,
    TableFormatError,
    are_equivalent,
    are_equivalent_same_arity,
    canonical_dumps,
    essential_args,
    identification_minor,
    is_minor_of,
    load_table,
    restrict_to_repeats,
    save_table,
    table_from_json_obj,
    table_to_json_obj,
)
from uimlab.tuples import IndexPair, Permutation, all_tuples, has_repeat

MAJ3 = FunctionTable(2, 2, 3, (0, 0, 0, 1, 0, 1, 1, 1))
AND3 = FunctionTable(2, 2, 3, (0, 0, 0, 0, 0, 0, 1, 1))  # first two args only
AND2 = FunctionTable(2, 2, 2, (0, 0, 0, 1))
OR2 = FunctionTable(2, 2, 2, (0, 1, 1, 1))
PROJ1_2 = FunctionTable(2, 2, 2, (0, 0, 1, 1))
PROJ2_2 = FunctionTable(2, 2, 2, (0, 1, 0, 1))
ID1 = FunctionTable(2, 2, 1, (0, 1))


def test_table_validation():
    with pytest.raises(ValueError):
        FunctionTable(2, 2, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        FunctionTable(2, 2, 2, (0, 0, 0, 2))
    with pytest.raises(ValueError):
        FunctionTable(2, 2, 0, ())


def test_table_call():
    assert MAJ3((0, 1, 1)) == 1
    assert MAJ3((1, 0, 0)) == 0


@pytest.mark.parametrize("t", [(1,), (0, 1, 1)], ids=["short", "long"])
def test_table_call_rejects_a_tuple_of_another_length(t):
    with pytest.raises(ValueError, match=f"expected a tuple of length 2, got length {len(t)}"):
        FunctionTable(2, 2, 2, (0, 1, 1, 0))(t)


def test_table_holds_none_at_undefined_inputs():
    pf = FunctionTable(2, 2, 2, (0, None, None, 1))
    assert pf((0, 0)) == 0 and pf((1, 1)) == 1
    with pytest.raises(ValueError, match=r"table is undefined at \(1,2\)"):
        pf((0, 1))


@pytest.mark.parametrize("bad", [2, "x"])
def test_table_with_none_still_rejects_bad_values(bad):
    with pytest.raises(ValueError, match="out of range"):
        FunctionTable(2, 2, 2, (0, None, bad, 1))


@pytest.mark.parametrize("bad", [True, False])
def test_table_rejects_a_bool_value(bad):
    with pytest.raises(ValueError, match=f"value {bad} is a bool, not an integer"):
        FunctionTable(2, 2, 2, (0, None, bad, 1))


def test_minor_by_of_partial_table_is_partial():
    pf = FunctionTable(2, 2, 2, (0, None, 1, 1))
    assert pf.minor_by(Permutation((1, 0))).values == (0, 1, None, 1)


def test_from_callable():
    f = FunctionTable.from_callable(2, 2, 3, lambda t: max(t))
    assert f.values == (0, 1, 1, 1, 1, 1, 1, 1)


def test_minor_of_majority_collapses_to_projection():
    # identifying the outer pair gives maj(a, b, a) = a
    minor = identification_minor(MAJ3, IndexPair(0, 2))
    assert minor.values == PROJ1_2.values


def test_minors_of_and3():
    assert identification_minor(AND3, IndexPair(0, 1)).values == (0, 0, 1, 1)
    # all four inputs of f(a, b, a) = a and b
    assert identification_minor(AND3, IndexPair(0, 2)).values == (0, 0, 0, 1)


def test_minor_needs_arity_two():
    with pytest.raises(ValueError):
        identification_minor(ID1, IndexPair(0, 1))


def test_minor_of_partial_table_is_total():
    pf = restrict_to_repeats(MAJ3)
    for pair in IndexPair.all_pairs(3):
        total = identification_minor(MAJ3, pair)
        assert identification_minor(pf, pair).values == total.values


def test_minor_of_underdefined_partial_rejected():
    # undefined on a repeat tuple the minor needs
    vals = [None] * 9
    vals[0] = 1  # only (0,0) defined
    pf = FunctionTable(3, 2, 2, tuple(vals))
    with pytest.raises(ValueError):
        identification_minor(pf, IndexPair(0, 1))


def test_is_minor_of_reflexive():
    for f in (MAJ3, AND2, OR2):
        tau = is_minor_of(f, f)
        assert tau is not None
        assert f.minor_by(tau).values == f.values


def test_and2_is_minor_of_ternary_meet():
    meet3 = FunctionTable(2, 2, 3, (0, 0, 0, 0, 0, 0, 0, 1))
    tau = is_minor_of(AND2, meet3)
    # least witness feeds (a1, a1, a2) into the ternary meet
    assert tau.images == (0, 0, 1)
    assert meet3.minor_by(tau).values == AND2.values
    # the two-argument variant leaves the third slot free instead
    assert is_minor_of(AND2, AND3).images == (0, 1, 0)


def test_or_is_not_minor_of_and():
    assert is_minor_of(OR2, AND2) is None


def test_is_minor_of_alphabet_mismatch():
    with pytest.raises(ValueError):
        is_minor_of(AND2, FunctionTable(3, 2, 2, (0,) * 9))


def test_equivalence_same_arity():
    sigma = are_equivalent_same_arity(PROJ1_2, PROJ2_2)
    assert sigma is not None
    assert sigma.images == (1, 0)
    assert PROJ2_2.minor_by(sigma).values == PROJ1_2.values
    assert are_equivalent_same_arity(AND2, OR2) is None


def test_equivalence_witness_is_least():
    # a symmetric pair admits the identity, which precedes the swap
    sigma = are_equivalent_same_arity(AND2, AND2)
    assert sigma.images == (0, 1)


def test_equivalence_arity_mismatch():
    with pytest.raises(ValueError):
        are_equivalent_same_arity(AND2, AND3)


def test_are_equivalent_drops_inessential_argument():
    assert are_equivalent(PROJ1_2, ID1)


def test_are_equivalent_under_permutation():
    sigma = are_equivalent_same_arity(MAJ3, MAJ3)
    permuted = MAJ3.minor_by(sigma)
    assert are_equivalent(MAJ3, permuted)


def test_and_or_not_equivalent():
    assert not are_equivalent(AND2, OR2)


def test_essential_args():
    proj = FunctionTable.from_callable(2, 2, 3, lambda t: t[0])
    assert essential_args(proj) == frozenset({0})
    assert essential_args(MAJ3) == frozenset({0, 1, 2})
    assert essential_args(FunctionTable(2, 2, 3, (1,) * 8)) == frozenset()


def test_restrict_to_repeats_small():
    f = FunctionTable(2, 2, 2, (1, 0, 0, 1))
    pf = restrict_to_repeats(f)
    assert pf.values == (1, None, None, 1)


def test_restrict_to_repeats_covers_everything_above_alphabet():
    # arity 3 over 2 symbols: no repeat-free tuples
    assert restrict_to_repeats(MAJ3) == MAJ3


def test_binary_minor_reads_only_the_diagonal():
    # over 3 symbols the only repeat tuples of a pair are the diagonal ones
    for index in range(2**9):
        vals = tuple((index >> i) & 1 for i in range(9))
        f = FunctionTable(3, 2, 2, vals)
        minor = identification_minor(f, IndexPair(0, 1))
        assert minor.values == (f((0, 0)), f((1, 1)), f((2, 2)))


def test_minors_ignore_repeat_free_values():
    rng = random.Random(20240)
    base = FunctionTable(3, 2, 3, tuple(rng.randrange(2) for _ in range(27)))
    free = [i for i, t in enumerate(all_tuples(3, 3)) if not has_repeat(t)]
    assert len(free) == 6
    reference = [identification_minor(base, p).values for p in IndexPair.all_pairs(3)]
    for mask in range(2**6):
        vals = list(base.values)
        for bit, i in enumerate(free):
            vals[i] ^= (mask >> bit) & 1
        variant = FunctionTable(3, 2, 3, tuple(vals))
        got = [identification_minor(variant, p).values for p in IndexPair.all_pairs(3)]
        assert got == reference


def test_minor_relation_is_a_quasiorder():
    tables = [
        FunctionTable(2, 2, n, vals)
        for n in (1, 2, 3)
        for vals in product(range(2), repeat=2**n)
    ]
    below = []
    for f in tables:
        row = 0
        for j, g in enumerate(tables):
            if is_minor_of(f, g) is not None:
                row |= 1 << j
        below.append(row)
    for i, row in enumerate(below):
        assert row >> i & 1  # reflexive
        rest, j = row, 0
        while rest:
            if rest & 1:
                # f <= g and g <= h imply f <= h
                assert below[j] | row == row
            rest >>= 1
            j += 1


@given(
    st.lists(st.integers(0, 1), min_size=4, max_size=4),
    st.lists(st.integers(0, 1), min_size=4, max_size=4),
)
def test_minor_witnesses_replay(fv, gv):
    f = FunctionTable(2, 2, 2, tuple(fv))
    g = FunctionTable(2, 2, 2, tuple(gv))
    tau = is_minor_of(f, g)
    if tau is not None:
        assert g.minor_by(tau).values == f.values
    sigma = are_equivalent_same_arity(f, g)
    if sigma is not None:
        assert g.minor_by(sigma).values == f.values
        assert are_equivalent(f, g)


def test_json_round_trip_bytes(tmp_path):
    path = tmp_path / "f.json"
    save_table(MAJ3, path)
    first = path.read_bytes()
    again = load_table(path)
    assert again == MAJ3
    save_table(again, path)
    assert path.read_bytes() == first


def test_json_partial_round_trip(tmp_path):
    pf = restrict_to_repeats(FunctionTable(3, 2, 2, (1, 0, 0, 0, 1, 0, 0, 0, 1)))
    path = tmp_path / "p.json"
    save_table(pf, path)
    assert load_table(path) == pf
    assert b"null" in path.read_bytes()


def test_json_null_loads_as_function_table(tmp_path):
    obj = {"domain_size": 2, "codomain_size": 2, "arity": 2, "values": [0, None, None, 1]}
    pf = table_from_json_obj(obj)
    assert type(pf) is FunctionTable
    assert pf.values == (0, None, None, 1)
    path = tmp_path / "p.json"
    save_table(pf, path)
    first = path.read_bytes()
    assert first == canonical_dumps(obj).encode()
    save_table(load_table(path), path)
    assert path.read_bytes() == first


def test_canonical_dumps_is_stable():
    assert canonical_dumps({"b": 1, "a": [2, None]}) == '{"a":[2,null],"b":1}\n'


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"domain_size": 2, "codomain_size": 2, "arity": 2},
        {"domain_size": 2, "codomain_size": 2, "arity": 2, "values": [0, 0, 0]},
        {"domain_size": 2, "codomain_size": 2, "arity": 2, "values": [0, 0, 0, 9]},
        {"domain_size": 2, "codomain_size": 2, "arity": "2", "values": [0, 0, 0, 0]},
        {"domain_size": 2, "codomain_size": 2, "arity": 2, "values": [0, 0, 0, "x"]},
        {"domain_size": 2, "codomain_size": 2, "arity": 2, "values": [True, 0, 0, 1]},
        {"domain_size": 2, "codomain_size": 2, "arity": 2, "values": [0, False, 0, 1]},
        {"domain_size": True, "codomain_size": 2, "arity": 2, "values": [0]},
        {"domain_size": 2, "codomain_size": True, "arity": 2, "values": [0, 0, 0, 0]},
        {"domain_size": 2, "codomain_size": 2, "arity": True, "values": [0, 0]},
    ],
)
def test_table_from_json_obj_rejects(obj):
    with pytest.raises(TableFormatError):
        table_from_json_obj(obj)


def test_load_table_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"domain_size": 2,\n  broken\n}')
    with pytest.raises(TableFormatError, match="line 2"):
        load_table(path)


def test_table_to_json_obj_shape():
    obj = table_to_json_obj(AND2)
    assert obj == {
        "domain_size": 2,
        "codomain_size": 2,
        "arity": 2,
        "values": [0, 0, 0, 1],
    }
