"""An oracle for the benchmark's output checks, written from the definitions.

It imports nothing from uimlab.  A table of arity ``n`` over ``k`` symbols is
a tuple of ``k**n`` values in big-endian tuple order (first coordinate most
significant); a partial table holds ``None`` where it is undefined.

* The identification minor for positions ``i < j`` is the ``(n-1)``-ary
  table ``x -> f(x_0, .., x_{j-1}, x_i, x_j, .., x_{n-2})``.
* Two tables of one arity are equivalent when one is the other with its
  arguments permuted; the oracle searches all permutations.
* A table has a unique identification minor (UIM) when every minor is
  equivalent to the first.
* The invariance group is every argument permutation that leaves the table
  unchanged; the table is 2-set-transitive (2ST) when the group's orbit of
  the pair {0, 1} is every pair.
* A table is ofo-determined when it is constant on each set of inputs with
  the same first-occurrence word, supp-determined likewise for symbol sets,
  and equivalent to an ofo-determined table when some argument permutation
  of it is ofo-determined.
"""

from itertools import permutations, product
from math import factorial

CATEGORIES = ("2ST", "OFO-EQ", "OTHER", "NOT-UIM")


def first_occurrences(t) -> tuple:
    out = []
    for x in t:
        if x not in out:
            out.append(x)
    return tuple(out)


class Shape:
    """Position bookkeeping for all tables of ``n`` arguments over ``k``
    symbols."""

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        dom = list(product(range(k), repeat=n))
        pos = {t: i for i, t in enumerate(dom)}
        self.repeat_free = [len(set(t)) == n for t in dom]
        self.perms = list(permutations(range(n)))
        # (f o s)(t) = f(t[s[0]], .., t[s[n-1]]), as positions into f.
        self.pullbacks = [[pos[tuple(t[j] for j in s)] for t in dom] for s in self.perms]
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        sub = list(product(range(k), repeat=n - 1))
        sub_pos = {x: i for i, x in enumerate(sub)}
        self.minor_maps = [[pos[x[:j] + (x[i],) + x[j:]] for x in sub] for i, j in self.pairs]
        self.sub_pullbacks = [
            [sub_pos[tuple(x[j] for j in s)] for x in sub]
            for s in permutations(range(n - 1))
        ]
        self.ofo_fibers = self._fibers(dom, first_occurrences)
        self.supp_fibers = self._fibers(dom, frozenset)

    @staticmethod
    def _fibers(dom, key):
        groups = {}
        for i, t in enumerate(dom):
            groups.setdefault(key(t), []).append(i)
        return [g for g in groups.values() if len(g) > 1]


_shapes = {}


def shape(k: int, n: int) -> Shape:
    s = _shapes.get((k, n))
    if s is None:
        s = _shapes[(k, n)] = Shape(k, n)
    return s


def _pull(vals, positions) -> tuple:
    return tuple(map(vals.__getitem__, positions))


def minors(sh: Shape, vals) -> list:
    return [_pull(vals, m) for m in sh.minor_maps]


def equivalent(sh: Shape, g, h) -> bool:
    """Is ``h`` the ``(n-1)``-ary table ``g`` with its arguments permuted?"""
    return any(_pull(g, p) == h for p in sh.sub_pullbacks)


def has_uim(sh: Shape, vals) -> bool:
    first, *rest = minors(sh, vals)
    return all(equivalent(sh, first, m) for m in rest)


def invariance_group(sh: Shape, vals) -> list:
    vals = tuple(vals)
    return [s for s, p in zip(sh.perms, sh.pullbacks) if _pull(vals, p) == vals]


def two_set_transitive(sh: Shape, group) -> bool:
    orbit = {tuple(sorted((s[0], s[1]))) for s in group}
    return len(orbit) == len(sh.pairs)


def constant_on(vals, fibers) -> bool:
    return all(len({vals[i] for i in fiber}) == 1 for fiber in fibers)


def equiv_ofo_determined(sh: Shape, vals) -> bool:
    return any(constant_on(_pull(vals, p), sh.ofo_fibers) for p in sh.pullbacks)


def category(uim: bool, two_set: bool, equiv_ofo: bool) -> str:
    if not uim:
        return "NOT-UIM"
    if two_set:
        return "2ST"
    return "OFO-EQ" if equiv_ofo else "OTHER"


def table_category(sh: Shape, vals) -> str:
    """The category alone, testing the group and the ofo route only for UIM
    tables."""
    if not has_uim(sh, vals):
        return "NOT-UIM"
    if two_set_transitive(sh, invariance_group(sh, vals)):
        return "2ST"
    return "OFO-EQ" if equiv_ofo_determined(sh, vals) else "OTHER"


def classify(k: int, n: int, vals) -> dict:
    """Every property the program's ``classify`` reports, for a total table;
    at ``n <= k`` also the tests on its restriction to repeat tuples."""
    sh = shape(k, n)
    group = invariance_group(sh, vals)
    uim = has_uim(sh, vals)
    two_set = two_set_transitive(sh, group)
    equiv_ofo = equiv_ofo_determined(sh, vals)
    rec = {
        "has_uim": uim,
        "totally_symmetric": len(group) == factorial(n),
        "two_set_transitive": two_set,
        "ofo_determined": constant_on(vals, sh.ofo_fibers),
        "equiv_ofo_determined": equiv_ofo,
        "supp_determined": constant_on(vals, sh.supp_fibers),
        "inv_group_order": len(group),
        "category": category(uim, two_set, equiv_ofo),
    }
    if n <= k:
        part = restrict_to_repeats(sh, vals)
        part_group = invariance_group(sh, part)
        rec["restriction"] = {
            "ofo_determined": constant_on(part, sh.ofo_fibers),
            "equiv_ofo_determined": equiv_ofo_determined(sh, part),
            "two_set_transitive": two_set_transitive(sh, part_group),
            "inv_group_order": len(part_group),
        }
    return rec


def restrict_to_repeats(sh: Shape, vals) -> tuple:
    return tuple(None if free else v for free, v in zip(sh.repeat_free, vals))


def table_values(index: int, b: int, length: int) -> tuple:
    """Table number ``index`` of a space: its values are the base-``b``
    digits of ``index``, most significant first."""
    out = [0] * length
    for i in range(length - 1, -1, -1):
        index, out[i] = divmod(index, b)
    return tuple(out)


def space_counts(k: int, b: int, n: int, indices) -> tuple:
    """Category counts over the given table indices, and the OTHER tables."""
    sh = shape(k, n)
    counts = dict.fromkeys(CATEGORIES, 0)
    others = []
    for index in indices:
        vals = table_values(index, b, k**n)
        cat = table_category(sh, vals)
        counts[cat] += 1
        if cat == "OTHER":
            others.append({"table_index": index, "values": list(vals)})
    return counts, others


def count_two_set_transitive(k: int, b: int, n: int) -> int:
    sh = shape(k, n)
    return sum(
        two_set_transitive(sh, invariance_group(sh, table_values(i, b, k**n)))
        for i in range(b ** (k**n))
    )


def _expect(ok: bool, what) -> None:
    if not ok:
        raise RuntimeError(f"oracle self-check failed: {what}")


def self_check() -> None:
    """Hand-worked cases; raises RuntimeError if the oracle is wrong."""
    def table(k, n, fn):
        return tuple(fn(t) for t in product(range(k), repeat=n))

    m = classify(2, 3, table(2, 3, lambda t: int(sum(t) >= 2)))
    # Ternary majority: every minor is the projection onto the merged pair.
    _expect(m["has_uim"] and m["inv_group_order"] == 6 and m["category"] == "2ST", m)
    _expect(not m["ofo_determined"] and not m["equiv_ofo_determined"], m)

    f = classify(2, 3, table(2, 3, lambda t: t[0]))
    # Only the swap of the last two arguments fixes x0; x0 is the first
    # symbol of the ofo word, so the table is ofo-determined.
    _expect(f["has_uim"] and f["inv_group_order"] == 2 and f["category"] == "OFO-EQ", f)
    _expect(f["ofo_determined"] and not f["supp_determined"], f)

    s = classify(2, 3, table(2, 3, lambda t: t[1]))
    _expect(not s["ofo_determined"] and s["equiv_ofo_determined"], s)

    # x0 xor x1: identifying (0, 1) gives a constant minor, the other pairs
    # a parity, so the minors are not all equivalent.
    x = classify(2, 3, table(2, 3, lambda t: t[0] ^ t[1]))
    _expect(x["category"] == "NOT-UIM", x)

    p = classify(2, 3, table(2, 3, lambda t: sum(t) % 2))
    _expect(p["category"] == "2ST" and p["totally_symmetric"] and not p["supp_determined"], p)

    # At n = k the repeat-free inputs drop out of the restriction.
    d = classify(2, 2, table(2, 2, lambda t: int(t[0] != t[1])))
    _expect(d["supp_determined"] and d["restriction"]["inv_group_order"] == 2, d)

    # A3 and S3 have the same four orbits on {0,1}^3, so 2^4 tables are 2ST.
    _expect(count_two_set_transitive(2, 2, 3) == 16, "2ST tables at (2,2,3)")
