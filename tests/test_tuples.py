import doctest
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uimlab import tuples
from uimlab.tuples import (
    IndexMap,
    IndexPair,
    Permutation,
    all_tuples,
    apply_index_map,
    collapse_map,
    decode,
    encode,
    enumerate_repeat_free,
    has_repeat,
    ofo,
    parse_tuple,
    perm_remaps,
    pullback_remap,
    render_tuple,
    supp,
)


def test_encode_examples():
    assert encode((0, 0, 0), 2) == 0
    assert encode((1, 0), 2) == 2
    assert encode((), 7) == 0


def test_decode_examples():
    assert decode(0, 3, 2) == (0, 0, 0)
    assert decode(2, 2, 2) == (1, 0)
    assert decode(2**4 - 1, 4, 2) == (1, 1, 1, 1)
    assert decode(3**3 - 1, 3, 3) == (2, 2, 2)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_encode_is_lexicographic_rank(k, n):
    for index, t in enumerate(all_tuples(k, n)):
        assert encode(t, k) == index
        assert decode(index, n, k) == t


@given(st.integers(1, 5), st.data())
def test_encode_decode_roundtrip_random(k, data):
    n = data.draw(st.integers(0, 6))
    t = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    assert decode(encode(t, k), n, k) == t


def test_encode_decode_range_errors():
    with pytest.raises(ValueError):
        encode((2,), 2)
    with pytest.raises(ValueError):
        decode(-1, 2, 2)
    with pytest.raises(ValueError):
        decode(4, 2, 2)


def test_apply_index_map_examples():
    assert apply_index_map(("x", "y"), IndexMap(2, 2, (1, 0))) == ("y", "x")
    assert apply_index_map(("a", "b"), IndexMap(3, 2, (0, 1, 1))) == ("a", "b", "b")
    # collapsing {2,4} of five positions duplicates the second entry
    assert apply_index_map((0, 1, 2, 3), collapse_map(IndexPair(1, 3), 5)) == (
        0, 1, 2, 1, 3,
    )


def test_apply_index_map_arity_mismatch():
    with pytest.raises(ValueError):
        apply_index_map((0, 1, 2), IndexMap(2, 2, (0, 1)))


def test_index_map_validation_and_composition():
    with pytest.raises(ValueError):
        IndexMap(2, 2, (0, 2))
    with pytest.raises(ValueError):
        IndexMap(2, 2, (0,))
    outer = IndexMap(2, 3, (2, 0))
    inner = IndexMap(3, 2, (1, 1, 0))
    assert outer.after(inner).images == (0, 0, 2)
    with pytest.raises(ValueError):
        inner.after(inner)


@given(st.integers(1, 4), st.integers(0, 4), st.data())
def test_pullback_remap_matches_apply_index_map(k, target, data):
    images = data.draw(
        st.lists(st.integers(0, target - 1), max_size=5) if target else st.just([])
    )
    m = IndexMap(len(images), target, images)
    remap = pullback_remap(k, images, target)
    assert len(remap) == k**target
    for a in all_tuples(k, target):
        assert remap[encode(a, k)] == encode(apply_index_map(a, m), k)


def test_pullback_remap_examples():
    # identifying both positions of a pair: (a0, a0)
    assert pullback_remap(2, (0, 0), 1) == [0, 3]
    # the transposition of two binary positions swaps indices 1 and 2
    assert pullback_remap(2, (1, 0), 2) == [0, 2, 1, 3]
    with pytest.raises(ValueError):
        pullback_remap(2, (0, 2), 2)


@pytest.mark.parametrize("k, n", [(1, 3), (2, 1), (2, 2), (3, 3), (4, 3), (2, 5), (3, 4)])
def test_perm_remaps_are_the_pullbacks_in_lexicographic_order(k, n):
    assert list(perm_remaps(k, n)) == [
        (sigma, pullback_remap(k, sigma, n)) for sigma in permutations(range(n))
    ]


def test_perm_remaps_builds_no_step_before_its_second_item(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return pullback_remap(*args)

    monkeypatch.setattr(tuples, "pullback_remap", counted)
    remaps = perm_remaps(3, 4)
    assert next(remaps) == ((0, 1, 2, 3), list(range(3**4)))
    assert calls == []
    # the step from (0,1,2,3) to (0,1,3,2) swaps the last two positions
    assert next(remaps) == ((0, 1, 3, 2), pullback_remap(3, (0, 1, 3, 2), 4))
    assert calls == [(3, [0, 1, 3, 2], 4)]
    # each distinct step is pulled back once: at most n(n-1)/2 of them
    for _ in remaps:
        pass
    assert len(calls) <= 4 * 3 // 2
    assert len(set(map(repr, calls))) == len(calls)


def test_collapse_map_examples():
    assert collapse_map(IndexPair(0, 1), 3).images == (0, 0, 1)
    assert collapse_map(IndexPair(0, 2), 3).images == (0, 1, 0)
    assert collapse_map(IndexPair(1, 3), 5).images == (0, 1, 2, 1, 3)


@pytest.mark.parametrize("n", range(2, 7))
def test_collapse_map_fibers(n):
    for pair in IndexPair.all_pairs(n):
        images = collapse_map(pair, n).images
        fibers = {}
        for i, v in enumerate(images):
            fibers.setdefault(v, []).append(i)
        assert set(fibers) == set(range(n - 1))
        assert fibers[pair.lo] == [pair.lo, pair.hi]
        for v, fiber in fibers.items():
            if v != pair.lo:
                assert len(fiber) == 1


def test_collapse_map_range_errors():
    with pytest.raises(ValueError):
        collapse_map(IndexPair(0, 1), 1)
    with pytest.raises(ValueError):
        collapse_map(IndexPair(0, 3), 3)


@pytest.mark.parametrize(
    "word,expected",
    [
        ("balloon", "balon"),
        ("kayak", "kay"),
        ("motorcycle", "motrcyle"),
        ("seaplane", "seapln"),
        ("sleigh", "sleigh"),
        ("submarine", "submarine"),
    ],
)
def test_ofo_words(word, expected):
    assert "".join(ofo(word)) == expected


def test_ofo_basics():
    assert ofo(()) == ()
    assert ofo((0, 1, 0, 2)) == (0, 1, 2)


@given(st.lists(st.integers(0, 4), max_size=10))
def test_ofo_properties(xs):
    t = tuple(xs)
    image = ofo(t)
    assert ofo(image) == image
    assert len(set(image)) == len(image)
    if t:
        assert supp(image) == supp(t)
    # the image is a subsequence of the input
    it = iter(t)
    assert all(any(x == y for y in it) for x in image)


@given(
    st.lists(st.integers(0, 3), max_size=6),
    st.lists(st.integers(0, 3), max_size=6),
    st.lists(st.integers(0, 3), max_size=6),
)
def test_ofo_string_identities(u, v, w):
    u, v, w = tuple(u), tuple(v), tuple(w)
    assert ofo(u + ofo(v) + w) == ofo(u + v + w)
    assert ofo(ofo(u) + ofo(v)) == ofo(u + v)


def test_supp():
    assert supp((0, 1, 0)) == frozenset({0, 1})
    assert supp((5,)) == frozenset({5})
    with pytest.raises(ValueError):
        supp(())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_supp_of_ofo_exhaustive(k):
    for n in range(1, 6):
        for t in all_tuples(k, n):
            assert supp(ofo(t)) == supp(t)


def test_enumerate_repeat_free():
    assert enumerate_repeat_free(2, 2) == [(), (0,), (1,), (0, 1), (1, 0)]
    assert len(enumerate_repeat_free(3, 3)) == 1 + 3 + 6 + 6
    # no repeat-free tuples longer than the alphabet
    assert enumerate_repeat_free(2, 5) == enumerate_repeat_free(2, 2)
    for t in enumerate_repeat_free(3, 3):
        assert not has_repeat(t)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0))
    with pytest.raises(ValueError):
        Permutation((1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 2, 1, 1))


def test_permutation_stores_its_images_as_a_validated_tuple():
    assert type(Permutation([2, 0, 1]).images) is tuple
    assert Permutation([2, 0, 1]) == Permutation((2, 0, 1))
    sigma = Permutation((2, 0, 3, 1))
    for tau in (sigma.after(sigma), sigma.inverse()):
        assert type(tau.images) is tuple
        assert sorted(tau.images) == [0, 1, 2, 3]
    assert sigma.after(sigma).images == (3, 2, 1, 0)
    assert sigma.inverse().images == (1, 3, 0, 2)


def test_permutation_rotation():
    assert Permutation.rotation(4, 0) == Permutation.identity(4)
    assert Permutation.rotation(4, 1).images == (1, 2, 3, 0)
    assert Permutation.rotation(4, 3).images == (3, 0, 1, 2)


def test_permutation_rendering():
    assert Permutation((1, 2, 0)).one_line() == "[2,3,1]"


def test_permutation_pair_image():
    sigma = Permutation((2, 0, 1))
    image = sigma.pair_image(IndexPair(0, 1))
    assert (image.lo, image.hi) == (0, 2)


def test_all_perms_lexicographic():
    perms = [p.images for p in Permutation.all_perms(3)]
    assert perms == sorted(perms)
    assert len(perms) == 6


@given(st.permutations(list(range(5))))
def test_permutation_group_laws(images):
    sigma = Permutation(tuple(images))
    ident = Permutation.identity(5)
    assert sigma.after(sigma.inverse()) == ident
    assert sigma.inverse().after(sigma) == ident
    assert sigma.after(ident) == sigma


def test_index_pair_parse_render():
    pair = IndexPair.parse("2,4")
    assert (pair.lo, pair.hi) == (1, 3)
    assert pair.render() == "{2,4}"
    assert IndexPair.parse("{4,2}") == pair
    with pytest.raises(ValueError):
        IndexPair.parse("3,3")
    with pytest.raises(ValueError):
        IndexPair.parse("1")


def test_index_pair_parse_names_a_non_integer_and_the_1_based_form():
    with pytest.raises(ValueError, match="expected two 1-based positions like 2,4, got 'a,2'"):
        IndexPair.parse("a,2")


def test_index_pair_parse_rejects_position_below_one():
    with pytest.raises(ValueError, match="positions are 1-based, got '0,2'"):
        IndexPair.parse("0,2")


def test_all_pairs_lexicographic():
    pairs = [(p.lo, p.hi) for p in IndexPair.all_pairs(4)]
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_render_parse_tuple():
    assert render_tuple((0, 0, 1, 2, 3)) == "(1,1,2,3,4)"
    assert parse_tuple("(1,1,2,3,4)") == (0, 0, 1, 2, 3)
    assert parse_tuple("") == ()
    assert parse_tuple("( )") == ()
    with pytest.raises(ValueError, match="symbols are 1-based"):
        parse_tuple("(0,1)")


def test_parse_tuple_names_a_non_integer_and_the_1_based_form():
    with pytest.raises(ValueError, match=r"1-based integers like \(1,1,2\), got '\(a\)'"):
        parse_tuple("(a)")


def test_tuples_doctests_pass():
    # The examples in the module's docstrings, run as part of the test suite.
    result = doctest.testmod(tuples)
    assert (result.attempted, result.failed) == (6, 0)
