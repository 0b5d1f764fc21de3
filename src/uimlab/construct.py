"""Gluing a family of m-ary tables into an (m+1)-ary function with prescribed
identification minors, and the explicit sporadic family built this way.

The gluing data consists of a support-determined base ``g`` (given by a
:class:`~uimlab.decomp.SuppTable`), one m-ary table per position pair (the
prescribed minor for that pair, which must agree with ``g`` off the full-rank
tuples), one twisting permutation per pair, and a pairing bijection that says
which prescribed minor each pair receives.  In total mode (``m == k``) the
result is a total table of arity k+1; in partial mode (``2 <= m <= k``) it is
defined exactly on the arity-(m+1) tuples containing a repeat.

The sporadic family specializes this: the base is constant ``beta``, every
prescribed minor is the indicator table taking ``alpha`` exactly on the
ascending full-rank tuple, and the twists are cyclic shifts keyed to each
pair's lower position.  The result takes ``alpha`` exactly on one marked
tuple per pair, yet has a unique identification minor.
"""

from dataclasses import dataclass
from pathlib import Path

from .decomp import SuppTable, supp_table_from_json_obj, supp_table_to_json_obj
from .ftable import (
    FunctionTable,
    TableFormatError,
    _read_json,
    _require_ints,
    _table_size,
    canonical_dumps,
)
from .tuples import (
    IndexPair,
    Permutation,
    all_tuples,
    collapse_map,
    decode,
    pullback_remap,
    render_tuple,
)

__all__ = [
    "GluingSpec",
    "build",
    "load_spec",
    "marked_tuple",
    "save_spec",
    "spec_from_json_obj",
    "spec_to_json_obj",
    "sporadic_function",
    "sporadic_partial_function",
    "sporadic_partial_spec",
    "sporadic_spec",
    "validate",
]


@dataclass
class GluingSpec:
    """Data for the gluing construction.

    mode
        ``"total"`` (requires ``base_arity == domain_size``) or ``"partial"``.
    base
        The support table behind the reference function ``g``.
    minors, twists, pairing
        Maps keyed by every position pair over ``base_arity + 1`` positions:
        the prescribed minor tables, the twisting permutations, and the
        pairing bijection.
    """

    mode: str
    domain_size: int
    codomain_size: int
    base_arity: int
    base: SuppTable
    minors: dict
    twists: dict
    pairing: dict


def validate(spec: GluingSpec) -> list:
    """All constraint violations, as human-readable strings (empty if valid).

    The key constraint makes the gluing well defined: each prescribed minor
    must agree with the support-determined base on every tuple whose support
    has fewer than ``base_arity`` distinct symbols.
    """
    out = []
    k, b, m = spec.domain_size, spec.codomain_size, spec.base_arity
    if spec.mode not in ("total", "partial"):
        return [f"unknown mode {spec.mode!r}"]
    if k < 2:
        out.append(f"domain size must be >= 2, got {k}")
    if spec.mode == "total" and m != k:
        out.append(f"total mode needs base_arity == domain_size, got {m} != {k}")
    if spec.mode == "partial" and not 2 <= m <= k:
        out.append(f"partial mode needs 2 <= base_arity <= {k}, got {m}")
    if out:
        return out

    if (spec.base.domain_size, spec.base.codomain_size) != (k, b):
        out.append("base support table has mismatched alphabets")
    if spec.base.max_size < min(m, k):
        out.append(f"base support table must cover set sizes up to {min(m, k)}")
    pairs = set(IndexPair.all_pairs(m + 1))
    for name, family in (("minors", spec.minors), ("twists", spec.twists),
                         ("pairing", spec.pairing)):
        if set(family) != pairs:
            out.append(f"{name} must be keyed by every pair over {m + 1} positions")
    if out:
        return out

    for pair in sorted(pairs, key=lambda p: (p.lo, p.hi)):
        g_i = spec.minors[pair]
        if (g_i.domain_size, g_i.codomain_size, g_i.arity) != (k, b, m):
            out.append(f"minor for {pair.render()} has wrong shape")
            continue
        if None in g_i.values:
            out.append(f"minor for {pair.render()} has an undefined entry")
            continue
        if spec.twists[pair].degree != m:
            out.append(f"twist for {pair.render()} must have degree {m}")
        if spec.pairing[pair] not in pairs:
            out.append(f"pairing image of {pair.render()} is out of range")
        for a, v in zip(all_tuples(k, m), g_i.values):
            s = frozenset(a)
            if len(s) < m and v != spec.base.entries[s]:
                out.append(
                    f"minor for {pair.render()} disagrees with the base at "
                    f"{render_tuple(a)}"
                )
                break
    if len(set(spec.pairing.values())) != len(pairs):
        out.append("pairing is not a bijection on pairs")
    return out


def build(spec: GluingSpec):
    """Assemble the glued function; in partial mode its repeat-free tuples
    stay ``None``.

    Every domain tuple with a repeated pair of entries is the pullback of a
    unique shorter tuple along that pair's collapse map; its value is the
    paired minor evaluated at the twisted short tuple.  All decompositions of
    each tuple are evaluated and must agree (guaranteed once :func:`validate`
    passes, but cheap to confirm at these sizes).
    """
    _table_size(spec.domain_size, spec.base_arity + 1)  # before any check or entry
    problems = validate(spec)
    if problems:
        raise ValueError("invalid gluing spec: " + "; ".join(problems))
    k, b, m = spec.domain_size, spec.codomain_size, spec.base_arity
    n = m + 1
    vals = [None] * k**n
    for pair in IndexPair.all_pairs(n):
        minor_vals = spec.minors[spec.pairing[pair]].values
        twisted = pullback_remap(k, spec.twists[pair].images, m)
        collapsed = pullback_remap(k, collapse_map(pair, n).images, m)
        for i, j in zip(collapsed, twisted):
            v = minor_vals[j]
            if vals[i] is None:
                vals[i] = v
            elif v != vals[i]:
                raise RuntimeError(
                    f"inconsistent gluing at {render_tuple(decode(i, n, k))}"
                )
    return FunctionTable(k, b, n, tuple(vals))


def marked_tuple(base_arity: int, pair: IndexPair):
    """The length-(m+1) tuple on which the sporadic function takes its
    distinguished value for this pair.

    Collapse the ascending tuple ``(0, .., m-1)`` along the pair, then shift
    symbols down by ``pair.lo`` so the repeated symbol becomes 0.  The result
    contains every symbol below ``m``, with 0 repeated exactly at the pair's
    two positions.
    """
    m = base_arity
    if m < 2:
        raise ValueError(f"base arity must be >= 2, got {m}")
    dm = collapse_map(pair, m + 1)
    d = tuple((x - pair.lo) % m for x in dm.images)
    if [l for l, x in enumerate(d) if x == 0] != [pair.lo, pair.hi] or len(set(d)) != m:
        raise RuntimeError(f"marked tuple postcondition failed for {pair.render()}")
    return d


def _indicator_table(domain_size, codomain_size, arity, alpha, beta):
    """alpha exactly on the ascending tuple (0, 1, .., arity-1), else beta."""
    target = tuple(range(arity))
    vals = tuple(
        alpha if t == target else beta for t in all_tuples(domain_size, arity)
    )
    return FunctionTable(domain_size, codomain_size, arity, vals)


def _sporadic(mode, domain_size, base_arity, alpha, beta) -> GluingSpec:
    if alpha == beta:
        raise ValueError("alpha and beta must be distinct")
    if alpha < 0 or beta < 0:
        raise ValueError("codomain symbols are nonnegative")
    k, m = domain_size, base_arity
    _table_size(k, m + 1)  # before the k**m-entry prescribed minor is built
    b = max(alpha, beta) + 1
    pairs = list(IndexPair.all_pairs(m + 1))
    h = _indicator_table(k, b, m, alpha, beta)
    return GluingSpec(
        mode=mode,
        domain_size=k,
        codomain_size=b,
        base_arity=m,
        base=SuppTable.constant(k, b, min(m, k), beta),
        minors={p: h for p in pairs},
        twists={p: Permutation.rotation(m, p.lo) for p in pairs},
        pairing={p: p for p in pairs},
    )


def sporadic_spec(domain_size: int, alpha: int = 1, beta: int = 0) -> GluingSpec:
    """Gluing data for the total sporadic function of arity k+1."""
    if domain_size < 2:
        raise ValueError(f"domain size must be >= 2, got {domain_size}")
    return _sporadic("total", domain_size, domain_size, alpha, beta)


def sporadic_partial_spec(domain_size: int, base_arity: int,
                          alpha: int = 1, beta: int = 0) -> GluingSpec:
    """Gluing data for the partial sporadic function on the repeat tuples of
    arity m+1 (requires ``2 <= m <= k``)."""
    if not 2 <= base_arity <= domain_size:
        raise ValueError(
            f"need 2 <= base_arity <= {domain_size}, got {base_arity}"
        )
    return _sporadic("partial", domain_size, base_arity, alpha, beta)


def sporadic_function(domain_size: int, alpha: int = 1, beta: int = 0) -> FunctionTable:
    """The total sporadic example: arity k+1, value ``alpha`` exactly on the
    marked tuples, one per position pair."""
    return build(sporadic_spec(domain_size, alpha, beta))


def sporadic_partial_function(domain_size: int, base_arity: int,
                              alpha: int = 1, beta: int = 0) -> FunctionTable:
    """The partial sporadic example on the repeat tuples of arity m+1."""
    return build(sporadic_partial_spec(domain_size, base_arity, alpha, beta))


# ---------------------------------------------------------------------------
# JSON form (0-based symbols/positions; pair keys are "lo,hi")

def _pair_key(pair: IndexPair) -> str:
    return f"{pair.lo},{pair.hi}"


def _parse_pair_key(key: str) -> IndexPair:
    lo, hi = (int(p) for p in key.split(","))
    return IndexPair(lo, hi)


def spec_to_json_obj(spec: GluingSpec) -> dict:
    return {
        "kind": "gluing_spec",
        "mode": spec.mode,
        "domain_size": spec.domain_size,
        "codomain_size": spec.codomain_size,
        "base_arity": spec.base_arity,
        "base": supp_table_to_json_obj(spec.base),
        "minors": {_pair_key(p): list(t.values) for p, t in spec.minors.items()},
        "twists": {_pair_key(p): list(s.images) for p, s in spec.twists.items()},
        "pairing": {_pair_key(p): _pair_key(q) for p, q in spec.pairing.items()},
    }


def _int_tuple(values, what: str) -> tuple:
    """``values`` as a tuple, refused unless it is a list of integers."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise TableFormatError(f"gluing spec: {what} is not a list of integers")
    return tuple(values)


def spec_from_json_obj(obj) -> GluingSpec:
    if not isinstance(obj, dict):
        raise TableFormatError("gluing spec: expected a JSON object")
    _require_ints(obj, ("domain_size", "codomain_size", "base_arity"), "gluing spec")
    try:
        k = obj["domain_size"]
        b = obj["codomain_size"]
        m = obj["base_arity"]
        spec = GluingSpec(
            mode=obj["mode"],
            domain_size=k,
            codomain_size=b,
            base_arity=m,
            base=supp_table_from_json_obj(obj["base"]),
            minors={
                _parse_pair_key(key): FunctionTable(k, b, m, tuple(vals))
                for key, vals in obj["minors"].items()
            },
            twists={
                _parse_pair_key(key): Permutation(_int_tuple(images, f"twist {key!r}"))
                for key, images in obj["twists"].items()
            },
            pairing={
                _parse_pair_key(key): _parse_pair_key(val)
                for key, val in obj["pairing"].items()
            },
        )
    except TableFormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise TableFormatError(f"bad gluing spec object: {exc}") from exc
    return spec


def save_spec(spec: GluingSpec, path) -> None:
    Path(path).write_text(canonical_dumps(spec_to_json_obj(spec)))


def load_spec(path) -> GluingSpec:
    return spec_from_json_obj(_read_json(path))
