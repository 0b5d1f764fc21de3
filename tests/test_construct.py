import random
from dataclasses import replace

import pytest

from uimlab import construct
from uimlab.construct import (
    GluingSpec,
    build,
    load_spec,
    marked_tuple,
    save_spec,
    spec_from_json_obj,
    spec_to_json_obj,
    sporadic_function,
    sporadic_partial_function,
    sporadic_partial_spec,
    sporadic_spec,
    validate,
)
from uimlab.decomp import SuppTable, compose_supp, supp_decompose
from uimlab.ftable import (
    FunctionTable,
    are_equivalent_same_arity,
    identification_minor,
    restrict_to_repeats,
)
from uimlab.tuples import IndexPair, Permutation, all_tuples, has_repeat

# reference display of the ten marked tuples for domain size 4 (1-based)
MARKED_4 = {
    (0, 1): (1, 1, 2, 3, 4),
    (0, 2): (1, 2, 1, 3, 4),
    (0, 3): (1, 2, 3, 1, 4),
    (0, 4): (1, 2, 3, 4, 1),
    (1, 2): (4, 1, 1, 2, 3),
    (1, 3): (4, 1, 2, 1, 3),
    (1, 4): (4, 1, 2, 3, 1),
    (2, 3): (3, 4, 1, 1, 2),
    (2, 4): (3, 4, 1, 2, 1),
    (3, 4): (2, 3, 4, 1, 1),
}


def test_marked_tuples_reference_table():
    for (lo, hi), display in MARKED_4.items():
        expected = tuple(x - 1 for x in display)
        assert marked_tuple(4, IndexPair(lo, hi)) == expected


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_marked_tuple_repeat_structure(m):
    for pair in IndexPair.all_pairs(m + 1):
        d = marked_tuple(m, pair)
        assert len(d) == m + 1
        assert sorted(set(d)) == list(range(m))
        assert [i for i, x in enumerate(d) if x == 0] == [pair.lo, pair.hi]


def test_marked_tuple_rejects_small_arity():
    with pytest.raises(ValueError):
        marked_tuple(1, IndexPair(0, 1))


def _uniform_spec(k, value=0, entries=None):
    """All prescribed minors equal to the support-determined base."""
    base = SuppTable.constant(k, 2, k, value)
    if entries:
        base.entries.update(entries)
    g = compose_supp(base, k)
    pairs = list(IndexPair.all_pairs(k + 1))
    return GluingSpec(
        mode="total",
        domain_size=k,
        codomain_size=2,
        base_arity=k,
        base=base,
        minors={p: g for p in pairs},
        twists={p: Permutation.rotation(k, p.lo) for p in pairs},
        pairing={p: p for p in pairs},
    )


def test_validate_accepts_uniform_spec():
    assert validate(_uniform_spec(3)) == []


def test_validate_rejects_base_disagreement():
    spec = _uniform_spec(3)
    bad = list(spec.minors[IndexPair(0, 1)].values)
    bad[0] ^= 1  # (0,0,0) has small support, so this breaks the constraint
    spec.minors[IndexPair(0, 1)] = FunctionTable(3, 2, 3, tuple(bad))
    problems = validate(spec)
    assert len(problems) == 1
    assert "{1,2}" in problems[0] and "(1,1,1)" in problems[0]


def test_validate_rejects_broken_pairing():
    spec = _uniform_spec(3)
    first, second, *_ = spec.pairing
    spec.pairing[first] = spec.pairing[second]
    assert any("bijection" in p for p in validate(spec))


def test_validate_rejects_bad_mode_and_shape():
    spec = _uniform_spec(3)
    spec.mode = "weird"
    assert validate(spec) == ["unknown mode 'weird'"]
    spec.mode = "total"
    spec.base_arity = 2
    assert any("total mode" in p for p in validate(spec))


def test_build_uniform_spec_is_supp_determined():
    spec = _uniform_spec(2, entries={frozenset({0}): 1})
    f = build(spec)
    assert isinstance(f, FunctionTable)
    assert f.values == compose_supp(spec.base, 3).values
    assert supp_decompose(f) is not None


def test_build_rejects_invalid_spec():
    spec = _uniform_spec(3)
    spec.base_arity = 2
    with pytest.raises(ValueError, match="invalid gluing spec"):
        build(spec)


def test_partial_build_domain_is_exactly_the_repeat_tuples():
    pf = sporadic_partial_function(4, 2)
    for t, v in zip(all_tuples(4, 3), pf.values):
        assert (v is not None) == has_repeat(t)


def test_sporadic_values_k2():
    assert sporadic_function(2).values == (0, 1, 1, 0, 1, 0, 0, 0)


@pytest.mark.parametrize("k", [2, 3])
def test_sporadic_alpha_exactly_on_marked_tuples(k):
    f = sporadic_function(k, alpha=1, beta=0)
    marked = {marked_tuple(k, p) for p in IndexPair.all_pairs(k + 1)}
    for t, v in zip(all_tuples(k, k + 1), f.values):
        assert v == (1 if t in marked else 0)


def test_sporadic_custom_symbols():
    f = sporadic_function(2, alpha=0, beta=2)
    assert f.codomain_size == 3
    assert f.values.count(0) == 3
    with pytest.raises(ValueError):
        sporadic_function(2, alpha=1, beta=1)


def test_sporadic_partial_range_checks():
    with pytest.raises(ValueError):
        sporadic_partial_function(3, 1)
    with pytest.raises(ValueError):
        sporadic_partial_function(3, 4)


@pytest.mark.parametrize("k", [2, 3])
def test_partial_with_full_base_arity_matches_total_restriction(k):
    total = restrict_to_repeats(sporadic_function(k))
    partial = sporadic_partial_function(k, k)
    assert partial.values == total.values


def _random_valid_spec(k, m, mode, seed):
    rng = random.Random(seed)
    b = 2
    base = SuppTable.constant(k, b, min(m, k), 0)
    for key in base.entries:
        base.entries[key] = rng.randrange(b)
    g = compose_supp(base, m)
    pairs = list(IndexPair.all_pairs(m + 1))
    minors = {}
    for p in pairs:
        vals = list(g.values)
        for i, t in enumerate(all_tuples(k, m)):
            if len(set(t)) == m:
                vals[i] = rng.randrange(b)
        minors[p] = FunctionTable(k, b, m, tuple(vals))
    twist_images = [list(range(m)) for _ in pairs]
    for images in twist_images:
        rng.shuffle(images)
    targets = pairs[:]
    rng.shuffle(targets)
    return GluingSpec(
        mode=mode,
        domain_size=k,
        codomain_size=b,
        base_arity=m,
        base=base,
        minors=minors,
        twists={p: Permutation(tuple(im)) for p, im in zip(pairs, twist_images)},
        pairing=dict(zip(pairs, targets)),
    )


@pytest.mark.parametrize("k,seed", [(3, 11), (3, 12), (3, 13), (4, 14)])
def test_build_minors_match_the_prescription_total(k, seed):
    spec = _random_valid_spec(k, k, "total", seed)
    assert validate(spec) == []
    f = build(spec)
    for pair in IndexPair.all_pairs(k + 1):
        minor = identification_minor(f, pair)
        prescribed = spec.minors[spec.pairing[pair]]
        assert are_equivalent_same_arity(minor, prescribed) is not None


@pytest.mark.parametrize("seed", [21, 22])
def test_build_minors_match_the_prescription_partial(seed):
    spec = _random_valid_spec(4, 2, "partial", seed)
    assert validate(spec) == []
    f = build(spec)
    for pair in IndexPair.all_pairs(3):
        minor = identification_minor(f, pair)
        prescribed = spec.minors[spec.pairing[pair]]
        assert are_equivalent_same_arity(minor, prescribed) is not None


def test_build_rejects_an_inconsistent_gluing(monkeypatch):
    # One prescribed minor disagrees with the base at (0, 0, 0), so validate
    # rejects the spec; with validate bypassed, build's own comparison of
    # every decomposition must still catch it.
    spec = sporadic_spec(3)
    pair = IndexPair(0, 1)
    vals = list(spec.minors[pair].values)
    vals[0] = 1 - vals[0]
    minors = {**spec.minors, pair: FunctionTable(3, 2, 3, vals)}
    spec = replace(spec, minors=minors)
    assert validate(spec)
    monkeypatch.setattr(construct, "validate", lambda spec: [])
    with pytest.raises(RuntimeError, match="inconsistent gluing"):
        build(spec)


def test_spec_json_round_trip(tmp_path):
    spec = sporadic_spec(3)
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    loaded = load_spec(path)
    assert spec_to_json_obj(loaded) == spec_to_json_obj(spec)
    assert build(loaded).values == build(spec).values


def test_validate_rejects_undefined_minor_entry():
    spec = sporadic_spec(3)
    pair = IndexPair(0, 1)
    vals = list(spec.minors[pair].values)
    vals[-1] = None
    spec.minors[pair] = FunctionTable(3, 2, 3, vals)
    assert validate(spec) == ["minor for {1,2} has an undefined entry"]


def test_spec_json_round_trip_partial():
    spec = sporadic_partial_spec(4, 2)
    obj = spec_to_json_obj(spec)
    assert build(spec_from_json_obj(obj)).values == build(spec).values
