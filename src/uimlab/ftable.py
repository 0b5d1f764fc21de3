"""Dense function tables, identification minors, the minor quasi-order,
equivalence, essential arguments, and table file I/O.

A table stores the value vector of a function on k^n inputs in encode-index
order.  A partial table is the same type with ``None`` at each undefined
input; the distinguished domain of interest is the set of tuples containing a
repeat.

File format: a JSON object ``{"domain_size": k, "codomain_size": b,
"arity": n, "values": [...]}`` with ``values`` in encode-index order and
0-based symbols; partial tables mark undefined entries with ``null``.  Files
are written in canonical form (minified, sorted keys, trailing newline) so
that round trips are byte-identical.
"""

import json
from dataclasses import dataclass
from itertools import permutations, product
from pathlib import Path

from .tuples import (
    IndexMap,
    IndexPair,
    Permutation,
    all_tuples,
    collapse_map,
    encode,
    has_repeat,
    pullback_remap,
    render_tuple,
)

__all__ = [
    "FunctionTable",
    "TABLE_SIZE_GUARD",
    "TableFormatError",
    "are_equivalent",
    "are_equivalent_same_arity",
    "canonical_dumps",
    "essential_args",
    "identification_minor",
    "is_minor_of",
    "load_table",
    "restrict_to_repeats",
    "save_table",
    "table_from_json_obj",
    "table_to_json_obj",
]


# Largest single table (k**n entries) the library will build.
TABLE_SIZE_GUARD = 1 << 20


class TableFormatError(ValueError):
    """A table file or JSON object does not match the documented format."""


def _check_dims(domain_size, codomain_size, arity):
    if domain_size < 1:
        raise ValueError(f"domain alphabet size must be >= 1, got {domain_size}")
    if codomain_size < 1:
        raise ValueError(f"codomain size must be >= 1, got {codomain_size}")
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")


def _table_size(domain_size, arity) -> int:
    """``k**n`` table entries, or ``ValueError`` above ``TABLE_SIZE_GUARD``;
    the exponent is capped first, so a larger size is never formed."""
    size = domain_size ** min(arity, TABLE_SIZE_GUARD.bit_length())
    if size > TABLE_SIZE_GUARD:
        raise ValueError(f"a table of {domain_size}**{arity} entries exceeds the "
                         f"table size guard {TABLE_SIZE_GUARD}")
    return size


@dataclass(frozen=True)
class FunctionTable:
    """A function on k^n inputs as a dense value vector in encode-index
    order; ``None`` marks an input where a partial table is undefined."""

    domain_size: int
    codomain_size: int
    arity: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        _check_dims(self.domain_size, self.codomain_size, self.arity)
        expected = _table_size(self.domain_size, self.arity)
        if len(self.values) != expected:
            raise ValueError(f"expected {expected} values, got {len(self.values)}")
        for v in self.values:
            if isinstance(v, bool):
                raise ValueError(f"value {v!r} is a bool, not an integer")
            if v is not None and not (isinstance(v, int) and 0 <= v < self.codomain_size):
                raise ValueError(f"value {v!r} out of range 0..{self.codomain_size - 1}")

    def __call__(self, t):
        if len(t) != self.arity:
            raise ValueError(f"expected a tuple of length {self.arity}, got length {len(t)}")
        v = self.values[encode(t, self.domain_size)]
        if v is None:
            raise ValueError(f"table is undefined at {render_tuple(t)}")
        return v

    @classmethod
    def from_callable(cls, domain_size, codomain_size, arity, fn):
        vals = tuple(fn(t) for t in all_tuples(domain_size, arity))
        return cls(domain_size, codomain_size, arity, vals)

    def minor_by(self, tau) -> "FunctionTable":
        """The general minor along ``tau``: the arity-``tau.target`` table
        sending ``a`` to ``self(a pulled back along tau)``."""
        if tau.source != self.arity:
            raise ValueError(
                f"map source arity {tau.source} != table arity {self.arity}"
            )
        k = self.domain_size
        remap = pullback_remap(k, tau.images, tau.target)
        vals = tuple(map(self.values.__getitem__, remap))
        return FunctionTable(k, self.codomain_size, tau.target, vals)


def restrict_to_repeats(f: FunctionTable) -> FunctionTable:
    """``f`` with ``None`` on every repeat-free tuple.  Identification minors
    only ever read the remaining entries."""
    if f.arity < 2:
        raise ValueError("restriction to repeat tuples needs arity >= 2")
    vals = tuple(
        v if has_repeat(t) else None
        for t, v in zip(all_tuples(f.domain_size, f.arity), f.values)
    )
    return FunctionTable(f.domain_size, f.codomain_size, f.arity, vals)


def identification_minor(f, pair: IndexPair) -> FunctionTable:
    """Identify the two arguments in ``pair``: the (n-1)-ary table sending
    ``a`` to ``f`` at ``a`` pulled back along the collapse map.

    Accepts total tables and partial tables whose domain contains every tuple
    with a repeated entry; the collapsed input always has one, so the result
    is total either way.
    """
    if f.arity < 2:
        raise ValueError("identification minors need arity >= 2")
    minor = f.minor_by(collapse_map(pair, f.arity))
    if None in minor.values:
        raise ValueError(
            f"partial table undefined at a repeat tuple needed by the minor "
            f"for {pair.render()}"
        )
    return minor


def _check_same_alphabets(f, g):
    if (f.domain_size, f.codomain_size) != (g.domain_size, g.codomain_size):
        raise ValueError(
            f"alphabet mismatch: ({f.domain_size},{f.codomain_size}) vs "
            f"({g.domain_size},{g.codomain_size})"
        )


def is_minor_of(f: FunctionTable, g: FunctionTable):
    """Search all index maps for a witness that ``f`` is a minor of ``g``.

    Returns the lexicographically least map ``tau`` (from ``g``'s positions to
    ``f``'s) with ``f(a) == g(a pulled back along tau)`` for every ``a``, or
    ``None`` if there is none.
    """
    _check_same_alphabets(f, g)
    n, m, k = f.arity, g.arity, f.domain_size
    domain = list(all_tuples(k, n))
    # Lazy on purpose: most of the n**m maps fail within a few entries.
    for images in product(range(n), repeat=m):
        for a, fv in zip(domain, f.values):
            idx = 0
            for j in images:
                idx = idx * k + a[j]
            if g.values[idx] != fv:
                break
        else:
            return IndexMap(m, n, images)
    return None


def are_equivalent_same_arity(f, g):
    """Search all permutations for an equal-arity equivalence witness.

    Returns the lexicographically least ``sigma`` such that ``f`` equals ``g``
    precomposed with the pullback of ``sigma``, or ``None``.  For partial
    tables the pullback must also carry the domain of ``f`` onto the domain of
    ``g``; comparing ``None`` markers entrywise enforces exactly that.
    """
    _check_same_alphabets(f, g)
    if f.arity != g.arity:
        raise ValueError(f"arity mismatch: {f.arity} vs {g.arity}")
    n, k = f.arity, f.domain_size
    for sig in permutations(range(n)):
        if tuple(map(g.values.__getitem__, pullback_remap(k, sig, n))) == f.values:
            return Permutation(sig)
    return None


def are_equivalent(f: FunctionTable, g: FunctionTable) -> bool:
    """Mutual minors (arities may differ)."""
    return is_minor_of(f, g) is not None and is_minor_of(g, f) is not None


def essential_args(f: FunctionTable) -> frozenset:
    """Positions ``i`` such that two inputs differing only at ``i`` get
    different values."""
    k, n = f.domain_size, f.arity
    ess = set()
    for p in range(n):
        stride = k ** (n - 1 - p)
        block = stride * k
        if _position_essential(f.values, stride, block, k):
            ess.add(p)
    return frozenset(ess)


def _position_essential(values, stride, block, k) -> bool:
    for base in range(0, len(values), block):
        for off in range(stride):
            first = values[base + off]
            for v in range(1, k):
                if values[base + off + v * stride] != first:
                    return True
    return False


# ---------------------------------------------------------------------------
# JSON interchange

def canonical_dumps(obj) -> str:
    """Canonical JSON: minified, sorted keys, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def table_to_json_obj(table) -> dict:
    return {
        "domain_size": table.domain_size,
        "codomain_size": table.codomain_size,
        "arity": table.arity,
        "values": list(table.values),
    }


def _require_ints(obj, keys, where: str) -> None:
    """Refuse a JSON object whose field ``key`` is missing or not an integer,
    for each of ``keys``."""
    for key in keys:
        if type(obj.get(key)) is not int:  # JSON's true and false load as bools
            raise TableFormatError(f"{where}: missing or non-integer field {key!r}")


def table_from_json_obj(obj, where: str = "table"):
    """Parse a table object into a :class:`FunctionTable`; a ``null`` entry
    becomes ``None``, an undefined input."""
    if not isinstance(obj, dict):
        raise TableFormatError(f"{where}: expected a JSON object")
    _require_ints(obj, ("domain_size", "codomain_size", "arity"), where)
    values = obj.get("values")
    if not isinstance(values, list):
        raise TableFormatError(f"{where}: missing or non-list field 'values'")
    for i, v in enumerate(values):
        if v is not None and type(v) is not int:
            raise TableFormatError(f"{where}: values[{i}] is not an integer or null")
    try:
        return FunctionTable(
            obj["domain_size"], obj["codomain_size"], obj["arity"], tuple(values)
        )
    except ValueError as exc:
        raise TableFormatError(f"{where}: {exc}") from exc


def save_table(table, path) -> None:
    Path(path).write_text(canonical_dumps(table_to_json_obj(table)))


def _read_json(path):
    """The JSON object in file ``path``; a decode error is a ``TableFormatError``."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise TableFormatError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_table(path):
    return table_from_json_obj(_read_json(path), where=str(path))
