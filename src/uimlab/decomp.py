"""Factoring tables through the first-occurrence map (``ofo``) and through the
support map (``supp``), and the anchored equivalences between identification
minors.  Equivalence to an ofo-determined table is decided by
:func:`uimlab.analysis.equiv_to_ofo_determined`, through the classifier.

A table is *ofo-determined* when its value depends only on the order of first
occurrence of its input's symbols, i.e. it is constant on every ofo fiber; it
is *supp-determined* when the value depends only on the set of symbols.
"""

from dataclasses import dataclass, field
from itertools import combinations, permutations

from .ftable import FunctionTable, TableFormatError, _require_ints
from .tuples import (
    IndexPair,
    Permutation,
    _collapse_images,
    all_tuples,
    enumerate_repeat_free,
    ofo,
    pullback_remap,
    render_tuple,
)

__all__ = [
    "OfoTable",
    "SuppTable",
    "anchored_minor_equivalence",
    "compose_ofo",
    "compose_supp",
    "ofo_decompose",
    "supp_decompose",
    "supp_table_from_json_obj",
    "supp_table_to_json_obj",
]


def _ofo_domain(domain_size: int, max_len: int):
    """Repeat-free tuples of length 1..max_len, shortest first then lex."""
    return [t for t in enumerate_repeat_free(domain_size, max_len) if t]


def _supp_domain(domain_size: int, max_size: int):
    """Nonempty symbol subsets of size <= max_size, smallest first then lex."""
    out = []
    for size in range(1, min(max_size, domain_size) + 1):
        out.extend(frozenset(c) for c in combinations(range(domain_size), size))
    return out


@dataclass
class OfoTable:
    """A value for every repeat-free tuple of length ``1..max_len``.

    ``unconstrained`` lists the keys whose fiber missed the decomposed table's
    domain; they carry the canonical filler 0 and are excluded from equality.
    """

    domain_size: int
    codomain_size: int
    max_len: int
    entries: dict
    unconstrained: frozenset = field(default_factory=frozenset, compare=False)

    def __post_init__(self):
        if not 1 <= self.max_len <= self.domain_size:
            raise ValueError(
                f"max_len must be in 1..{self.domain_size}, got {self.max_len}"
            )
        expected = set(_ofo_domain(self.domain_size, self.max_len))
        if set(self.entries) != expected:
            raise ValueError("entries must cover exactly the repeat-free tuples")
        for key, v in self.entries.items():
            if not 0 <= v < self.codomain_size:
                raise ValueError(f"entry for {render_tuple(key)} out of range: {v}")

    def __call__(self, r):
        return self.entries[tuple(r)]

    @classmethod
    def from_values(cls, domain_size, codomain_size, max_len, values):
        """Build from values listed in canonical key order."""
        keys = _ofo_domain(domain_size, max_len)
        if len(values) != len(keys):
            raise ValueError(f"expected {len(keys)} values, got {len(values)}")
        return cls(domain_size, codomain_size, max_len, dict(zip(keys, values)))


@dataclass
class SuppTable:
    """A value for every nonempty symbol set of size ``1..max_size``."""

    domain_size: int
    codomain_size: int
    max_size: int
    entries: dict
    unconstrained: frozenset = field(default_factory=frozenset, compare=False)

    def __post_init__(self):
        if not 1 <= self.max_size <= self.domain_size:
            raise ValueError(
                f"max_size must be in 1..{self.domain_size}, got {self.max_size}"
            )
        expected = set(_supp_domain(self.domain_size, self.max_size))
        if set(self.entries) != expected:
            raise ValueError("entries must cover exactly the nonempty symbol sets")
        for key, v in self.entries.items():
            if not 0 <= v < self.codomain_size:
                raise ValueError(f"entry for {set(key)} out of range: {v}")

    def __call__(self, s):
        return self.entries[frozenset(s)]

    @classmethod
    def from_values(cls, domain_size, codomain_size, max_size, values):
        keys = _supp_domain(domain_size, max_size)
        if len(values) != len(keys):
            raise ValueError(f"expected {len(keys)} values, got {len(values)}")
        return cls(domain_size, codomain_size, max_size, dict(zip(keys, values)))

    @classmethod
    def constant(cls, domain_size, codomain_size, max_size, value):
        keys = _supp_domain(domain_size, max_size)
        return cls(domain_size, codomain_size, max_size, {s: value for s in keys})


def _compose(table, arity, key, covers, what) -> FunctionTable:
    """The arity-``arity`` table sending ``t`` to ``table`` at ``key(t)``;
    ``table`` covers keys of sizes up to ``covers``."""
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    k = table.domain_size
    if covers < min(arity, k):
        raise ValueError(f"{what} up to {covers}, need {min(arity, k)}")
    entries = table.entries
    vals = tuple(entries[key(t)] for t in all_tuples(k, arity))
    return FunctionTable(k, table.codomain_size, arity, vals)


def compose_ofo(f_star: OfoTable, arity: int) -> FunctionTable:
    """The arity-``arity`` table sending ``t`` to ``f_star(ofo(t))``."""
    return _compose(f_star, arity, ofo, f_star.max_len, "ofo table covers lengths")


def compose_supp(f_prime: SuppTable, arity: int) -> FunctionTable:
    """The arity-``arity`` table sending ``t`` to ``f_prime(supp(t))``."""
    return _compose(
        f_prime, arity, frozenset, f_prime.max_size, "supp table covers sizes"
    )


def _decompose(f, keys, values, domain, table_cls):
    """Factor a table of ``f``'s shape through its per-tuple ``keys`` into a
    ``table_cls`` over the keys ``domain(k, min(n, k))``, or ``None`` if
    ``values`` (``None`` where undefined) is not constant on a fiber.

    ``keys`` and ``values`` run over the tuples in index order.  The loop
    stops at the first fiber that takes a second value, and the table is
    built only for a factorization that holds."""
    k, b, n = f.domain_size, f.codomain_size, f.arity
    seen = {}
    for key, v in zip(keys, values):
        if v is None:
            continue
        if seen.setdefault(key, v) != v:
            return None
    max_size = min(n, k)
    entries = {}
    free = []
    for r in domain(k, max_size):
        if r in seen:
            entries[r] = seen[r]
        else:
            entries[r] = 0
            free.append(r)
    return table_cls(k, b, max_size, entries, frozenset(free))


def ofo_decompose(f):
    """Factor ``f`` through ``ofo`` if possible.

    Returns an :class:`OfoTable` ``f_star`` with ``f == f_star ∘ ofo`` on the
    domain of ``f`` iff ``f`` is constant on every ofo fiber that meets its
    domain, else ``None``.  Keys whose fiber misses the domain get value 0 and
    are flagged unconstrained.  Accepts total and partial tables.
    """
    return _decompose(f, map(ofo, all_tuples(f.domain_size, f.arity)), f.values,
                      _ofo_domain, OfoTable)


def supp_decompose(f):
    """Factor ``f`` through ``supp`` if possible (same contract as
    :func:`ofo_decompose`, with symbol sets for keys)."""
    return _decompose(f, map(frozenset, all_tuples(f.domain_size, f.arity)), f.values,
                      _supp_domain, SuppTable)


def anchored_minor_equivalence(f, pair_i: IndexPair, pair_j: IndexPair):
    """Equivalence witness between two identification minors that keeps the
    merged positions aligned.

    Searches bijections ``pi`` of the collapsed positions constrained by
    ``pi(pair_j.lo) == pair_i.lo`` and returns the lexicographically least one
    with ``f`` at ``a`` collapsed along ``pair_i`` equal to ``f`` at ``a``
    permuted by ``pi`` and collapsed along ``pair_j``, for every ``a``; or
    ``None``.

    Each candidate reads ``f`` through one pull-back, of ``pi`` after the
    collapse along ``pair_j``.  The collapse images come from the memo in
    :mod:`uimlab.tuples`, so a call builds no :class:`IndexMap`.
    """
    n, k = f.arity, f.domain_size
    if n < 2:
        raise ValueError("needs arity >= 2")
    for pair in (pair_j, pair_i):
        if pair.hi >= n:
            raise ValueError(f"pair {pair.render()} out of range for arity {n}")
    values = f.values

    def pulled_back(images):
        return tuple(map(values.__getitem__, pullback_remap(k, images, n - 1)))

    lhs = pulled_back(_collapse_images(pair_i.lo, pair_i.hi, n))
    d_j = _collapse_images(pair_j.lo, pair_j.hi, n)
    positions = [p for p in range(n - 1) if p != pair_j.lo]
    candidates = [v for v in range(n - 1) if v != pair_i.lo]
    for combo in permutations(candidates):
        im = [pair_i.lo] * (n - 1)
        for p, v in zip(positions, combo):
            im[p] = v
        if pulled_back([im[x] for x in d_j]) == lhs:
            return Permutation(tuple(im))
    return None


# ---------------------------------------------------------------------------
# JSON forms (keys are comma-joined 0-based symbols, matching the table files)

def supp_table_to_json_obj(t: SuppTable) -> dict:
    return {
        "kind": "supp_table",
        "domain_size": t.domain_size,
        "codomain_size": t.codomain_size,
        "max_size": t.max_size,
        "entries": {",".join(map(str, sorted(key))): v for key, v in t.entries.items()},
    }


def supp_table_from_json_obj(obj) -> SuppTable:
    if not isinstance(obj, dict):
        raise TableFormatError("supp table: expected a JSON object")
    _require_ints(obj, ("domain_size", "codomain_size", "max_size"), "supp table")
    entries = obj.get("entries")
    if not isinstance(entries, dict):
        raise TableFormatError("supp table: missing or non-object field 'entries'")
    for key, v in entries.items():
        if type(v) is not int:  # JSON's true and false load as bools
            raise TableFormatError(f"supp table: entry {key!r} is not an integer")
    try:
        return SuppTable(
            obj["domain_size"], obj["codomain_size"], obj["max_size"],
            {frozenset(int(p) for p in key.split(",")): v for key, v in entries.items()},
        )
    except (TypeError, ValueError, AttributeError) as exc:
        raise TableFormatError(f"bad supp table object: {exc}") from exc
