"""A (3, 2, 5) table with a unique identification minor that is neither
2-set-transitive nor equivalent to an ofo-determined table: an OTHER table
of arity n = k + 2, above the range k + 1 where the sporadic family lives.

It is checked three ways: by the classifier, by the brute-force oracles in
``brute.py``, and by the checker below, which imports nothing from uimlab
and reads the table file with ``json`` alone.
"""

import json
import random
from itertools import permutations, product
from pathlib import Path

import pytest

import brute
from uimlab.analysis import classify
from uimlab.construct import sporadic_function
from uimlab.decomp import OfoTable, SuppTable, compose_ofo, compose_supp
from uimlab.ftable import FunctionTable, essential_args, load_table, save_table
from uimlab.tuples import Permutation

WITNESS = Path(__file__).parent / "data" / "other_k3b2n5.json"


# ---------------------------------------------------------------------------
# The independent checker.  A table is a dict from argument tuples to values.

def _read(path):
    obj = json.loads(Path(path).read_text())
    k, n = obj["domain_size"], obj["arity"]
    return k, n, dict(zip(product(range(k), repeat=n), obj["values"]))


def _permuted(f, k, n, sigma):
    """``x -> f(x[sigma[0]], ..., x[sigma[n-1]])``."""
    return {x: f[tuple(x[s] for s in sigma)] for x in product(range(k), repeat=n)}


def _minor(f, k, n, i, j):
    """Arguments i < j identified: the argument at i is read at j as well."""
    return {x: f[x[:j] + (x[i],) + x[j:]] for x in product(range(k), repeat=n - 1)}


def _first_occurrences(x):
    seen = []
    for v in x:
        if v not in seen:
            seen.append(v)
    return tuple(seen)


def _ofo_determined(f):
    value = {}
    return all(value.setdefault(_first_occurrences(x), v) == v for x, v in f.items())


def _independent_report(path):
    k, n, f = _read(path)
    minors = [_minor(f, k, n, i, j) for i in range(n) for j in range(i + 1, n)]
    sub_perms = list(permutations(range(n - 1)))
    unique_minor = all(
        any(_permuted(minors[0], k, n - 1, s) == m for s in sub_perms) for m in minors[1:]
    )
    group = [s for s in permutations(range(n)) if _permuted(f, k, n, s) == f]
    pair_orbit = {frozenset((s[0], s[1])) for s in group}
    essential = {
        i for i in range(n)
        if any(f[x] != f[x[:i] + (a,) + x[i + 1:]] for x in f for a in range(k))
    }
    return {
        "has_uim": unique_minor,
        "inv_group_order": len(group),
        "two_set_transitive": len(pair_orbit) == n * (n - 1) // 2,
        "equiv_ofo_determined": any(
            _ofo_determined(_permuted(f, k, n, s)) for s in permutations(range(n))
        ),
        "essential_args": essential,
    }


# ---------------------------------------------------------------------------

def test_other_witness_k3b2n5_is_other_three_ways():
    f = load_table(WITNESS)
    assert (f.domain_size, f.codomain_size, f.arity) == (3, 2, 5)

    c = classify(f)
    assert c.category == "OTHER"
    assert c.has_uim and not c.two_set_transitive and not c.equiv_ofo_determined
    assert c.inv_group_order == 1
    # every argument is essential, so equivalence up to adding or removing
    # inessential arguments is plain permutation equivalence here
    assert essential_args(f) == frozenset(range(5))

    assert brute.has_uim(f)
    assert brute.invariance_group(f).order == 1
    assert not brute.is_2_set_transitive_fn(f)
    assert not brute.equiv_ofo_determined(f)

    assert _independent_report(WITNESS) == {
        "has_uim": True,
        "inv_group_order": 1,
        "two_set_transitive": False,
        "equiv_ofo_determined": False,
        "essential_args": set(range(5)),
    }


def _seeded(k, b, n, seed):
    rng = random.Random(f"witness:{seed}")
    return FunctionTable(k, b, n, tuple(rng.randrange(b) for _ in range(k**n)))


@pytest.mark.parametrize("table", [
    sporadic_function(3),
    compose_supp(SuppTable.from_values(2, 2, 2, (0, 0, 1)), 4),
    compose_ofo(OfoTable.from_values(2, 2, 2, (0, 0, 1, 0)), 4).minor_by(Permutation((2, 0, 3, 1))),
    FunctionTable(2, 2, 3, (0, 0, 0, 0, 0, 0, 1, 1)),
    _seeded(2, 2, 4, 0),
    _seeded(3, 2, 4, 1),
], ids=["sporadic-k3", "supp-k2n4", "permuted-ofo-k2n4", "and-k2n3", "seeded-k2n4", "seeded-k3n4"])
def test_independent_checker_agrees_with_classify(tmp_path, table):
    # the checker must tell the categories apart, not only pass the witness:
    # OTHER, 2ST, OFO-EQ and NOT-UIM tables, in that order
    path = tmp_path / "table.json"
    save_table(table, path)
    c = classify(table)
    assert _independent_report(path) == {
        "has_uim": c.has_uim,
        "inv_group_order": c.inv_group_order,
        "two_set_transitive": c.two_set_transitive,
        "equiv_ofo_determined": c.equiv_ofo_determined,
        "essential_args": set(essential_args(table)),
    }
