"""The benchmark's three workloads.

Each workload has four parts.  ``make_inputs(seed)`` builds the inputs in
plain Python, without the program.  ``prepare(m, inputs)`` is the rest of
set-up, given the freshly imported package ``m``.  ``run(m, inputs)`` is the
timed section; it returns the program's answers as plain data.
``check(inputs, outputs)`` compares the answers of every round with the
oracle, the paper's properties and closed-form counts, and returns the
mismatches.  Every call into the program goes through ``m`` at call time,
so the traced run sees it.
"""

import random
from itertools import permutations, product
from math import comb, factorial

import oracle

SUITES = (
    "lemma-hatsigma", "lemma-ofodeltaI", "ofo-identities", "prop-42",
    "prop-52", "prop-ofominor", "prop-suppord", "uim-2st",
)


def _search_summary(rep) -> dict:
    return {
        "total_space": rep.total_space,
        "classified": rep.classified,
        "counts": dict(rep.counts),
        "other_witnesses": rep.other_witnesses,
        "flagged": rep.flagged_counterexamples,
    }


def _check_search(shape, indices, expected_classified, outputs) -> list:
    k, b, n = shape
    counts, others = oracle.space_counts(k, b, n, indices)
    want = {
        "total_space": b ** (k**n),
        "classified": expected_classified,
        "counts": counts,
        "other_witnesses": others,
        "flagged": bool(others) and n > k + 1,
    }
    return [
        f"round {r}: {key} is {out[key]!r}, the oracle says {want[key]!r}"
        for r, out in enumerate(outputs)
        for key in want
        if out[key] != want[key]
    ]


class _Search:
    """A ``search`` call on one shape; set-up builds the shape's classifier
    by classifying the all-zero table."""

    def make_inputs(self, seed):
        return {"seed": seed}

    def ops(self, inputs):
        return 1

    def prepare(self, m, inputs):
        k, b, n = self.shape
        m.classify(m.FunctionTable(k, b, n, (0,) * k**n))

    def run(self, m, inputs):
        k, b, n = self.shape
        rep = m.search(k, b, n, seed=inputs["seed"], threads=1, **self.search_args)
        return _search_summary(rep)


class Sweep(_Search):
    """Exhaustive ``search(2,2,4)``: 65,536 tables, high memo reuse."""

    name = "sweep-k2b2n4"
    shape = (2, 2, 4)
    search_args = {"mode": "exhaustive"}

    def tables(self, inputs):
        return 2**16

    def check(self, inputs, outputs):
        return _check_search(self.shape, range(2**16), 2**16, outputs)


def sample_indices(seed: int, samples: int, total: int) -> list:
    """The sampled-search generator as the README documents it: sample ``j``
    seeds a Mersenne Twister with ``"{seed}:{j}"``, draws integers of
    ``bit_length(total - 1)`` bits and keeps the first one below ``total``."""
    nbits = max(1, (total - 1).bit_length())
    out = []
    for j in range(samples):
        rng = random.Random(f"{seed}:{j}")
        v = rng.getrandbits(nbits)
        while v >= total:
            v = rng.getrandbits(nbits)
        out.append(v)
    return out


SAMPLES = 150


class Sample(_Search):
    """Seeded sampled ``search(2,2,6)``: 64-entry tables, 720 argument
    permutations each, memos that almost never hit."""

    name = "sample-k2b2n6"
    shape = (2, 2, 6)
    search_args = {"mode": "sampled", "samples": SAMPLES}

    def tables(self, inputs):
        return SAMPLES

    def check(self, inputs, outputs):
        k, b, n = self.shape
        indices = sample_indices(inputs["seed"], SAMPLES, b ** (k**n))
        return _check_search(self.shape, indices, SAMPLES, outputs)


def _ofo_words(k, max_len):
    return [w for length in range(1, max_len + 1) for w in permutations(range(k), length)]


def _library_inputs(seed):
    rng = random.Random(f"library:{seed}")
    tables = []
    # Ofo-determined tables with their arguments permuted: f(t) = F(ofo(t o s)).
    for k, b, n in ((2, 2, 4), (2, 3, 4), (3, 2, 4)):
        for _ in range(3):
            factor = {w: rng.randrange(b) for w in _ofo_words(k, min(n, k))}
            sigma = rng.sample(range(n), n)
            vals = tuple(
                factor[oracle.first_occurrences([t[j] for j in sigma])]
                for t in product(range(k), repeat=n)
            )
            tables.append(("perm-ofo", k, b, n, vals))
    # Supp-determined tables above arity k + 1.
    for k, b, n in ((2, 2, 4), (2, 3, 4), (3, 2, 5)):
        for _ in range(2):
            factor = {}
            vals = tuple(
                factor.setdefault(frozenset(t), rng.randrange(b))
                for t in product(range(k), repeat=n)
            )
            tables.append(("supp", k, b, n, vals))
    # Arbitrary tables at n <= k, where classify adds the restriction record.
    for k, b, n in ((3, 2, 2), (3, 2, 3), (3, 3, 3), (4, 2, 3)):
        for _ in range(3):
            vals = tuple(rng.randrange(b) for _ in range(k**n))
            tables.append(("restrict", k, b, n, vals))
    return {"tables": tables}


_FIELDS = ("has_uim", "totally_symmetric", "two_set_transitive", "ofo_determined",
           "equiv_ofo_determined", "supp_determined", "inv_group_order", "category")
_RESTRICTION_FIELDS = ("ofo_determined", "equiv_ofo_determined", "two_set_transitive",
                       "inv_group_order")


def _answers(m, f) -> dict:
    """Module-level single-table answers for a total or partial table."""
    return {
        "module_has_uim": m.has_uim(f),
        "group": sorted(s.images for s in m.invariance_group(f).elements),
        "module_equiv_ofo": m.equiv_to_ofo_determined(f) is not None,
    }


def _suite_closed_forms() -> dict:
    """``checked`` of each passing suite at its defaults, from its loops."""
    ofo_identities = (
        sum(3**length for length in range(5))
        + sum((s + 1) * 3**s for s in range(7))
        + sum(comb(s + 2, 2) * 3**s for s in range(7))
    )
    ofo_words_k2 = len(_ofo_words(2, 2))
    # A supp-determined table picks a value per nonempty subset of {0, 1}.
    supp_det_224 = 2 ** (2**2 - 1)
    return {
        "lemma-hatsigma": sum(factorial(n) * comb(n, 2) for n in range(2, 7)),
        "lemma-ofodeltaI": sum(
            comb(n, 2) * k ** (n - 1) for k in range(1, 4) for n in range(2, 6)
        ),
        "ofo-identities": ofo_identities,
        "prop-42": sum(k ** (k + 1) + 2 + (k >= 3) for k in (2, 3, 4)),
        "prop-52": sum(comb(mm + 1, 2) + 1 + (mm >= 3) for _, mm in ((3, 2), (4, 3), (4, 2))),
        "prop-ofominor": 2**ofo_words_k2 * (comb(3, 2) + comb(4, 2)),
        "prop-suppord": 2**16 + supp_det_224 * comb(4, 2) ** 2,
        # Every 2ST table at (2,2,3) and (2,2,4) is checked once.
        "uim-2st": oracle.count_two_set_transitive(2, 2, 3)
        + oracle.count_two_set_transitive(2, 2, 4),
    }


class Library:
    """The single-table public API on the paper's families and seeded
    tables, and all eight verification suites at their defaults."""

    name = "library"
    sporadic_ks = (2, 3, 4)
    partial_cases = ((3, 2), (4, 3), (4, 2))

    def make_inputs(self, seed):
        return _library_inputs(seed)

    def ops(self, inputs):
        # classify, has_uim, invariance_group and equiv_to_ofo_determined per
        # total table; the last three per partial table; one per suite.
        totals = len(inputs["tables"]) + len(self.sporadic_ks)
        return 4 * totals + 3 * len(self.partial_cases) + len(SUITES)

    def tables(self, inputs):
        return len(inputs["tables"]) + len(self.sporadic_ks) + len(self.partial_cases)

    def prepare(self, m, inputs):
        pass

    def run(self, m, inputs):
        totals = []
        for kind, k, b, n, vals in inputs["tables"]:
            totals.append((kind, m.FunctionTable(k, b, n, vals)))
        for k in self.sporadic_ks:
            totals.append(("sporadic", m.sporadic_function(k)))
        out = {"totals": [], "partials": [], "suites": {}}
        for kind, f in totals:
            c = m.classify(f)
            rec = {"kind": kind, "shape": (f.domain_size, f.codomain_size, f.arity),
                   "values": f.values}
            rec.update({name: getattr(c, name) for name in _FIELDS})
            if c.restriction is not None:
                rec["restriction"] = {
                    name: getattr(c.restriction, name) for name in _RESTRICTION_FIELDS
                }
            rec.update(_answers(m, f))
            out["totals"].append(rec)
        for k, mm in self.partial_cases:
            pf = m.sporadic_partial_function(k, mm)
            rec = {"case": (k, mm), "values": pf.values}
            rec.update(_answers(m, pf))
            out["partials"].append(rec)
        for name in SUITES:
            rep = m.verify_suite(name)
            out["suites"][name] = (rep.checked, rep.passed)
        return out

    def check(self, inputs, outputs):
        errors = []
        expected_checked = _suite_closed_forms()
        for r, out in enumerate(outputs):
            for rec in out["totals"]:
                errors += [f"round {r}: {e}" for e in _check_total(rec)]
            for rec in out["partials"]:
                errors += [f"round {r}: {e}" for e in _check_partial(rec)]
            for name in SUITES:
                checked, passed = out["suites"][name]
                if not passed or checked != expected_checked[name]:
                    errors.append(
                        f"round {r}: suite {name} passed={passed} checked={checked}, "
                        f"expected a pass with {expected_checked[name]} checks"
                    )
        return errors


def _check_total(rec) -> list:
    k, b, n = rec["shape"]
    vals = rec["values"]
    want = oracle.classify(k, n, vals)
    where = f"{rec['kind']} table {k},{b},{n} {list(vals)}"
    errors = [
        f"{where}: classify {name}={rec[name]!r}, oracle {want[name]!r}"
        for name in _FIELDS if rec[name] != want[name]
    ]
    if rec.get("restriction") != want.get("restriction"):
        errors.append(f"{where}: restriction {rec.get('restriction')}, "
                      f"oracle {want.get('restriction')}")
    sh = oracle.shape(k, n)
    if rec["module_has_uim"] != want["has_uim"]:
        errors.append(f"{where}: has_uim={rec['module_has_uim']}")
    if rec["group"] != sorted(oracle.invariance_group(sh, vals)):
        errors.append(f"{where}: invariance_group {rec['group']}")
    if rec["module_equiv_ofo"] != want["equiv_ofo_determined"]:
        errors.append(f"{where}: equiv_to_ofo_determined={rec['module_equiv_ofo']}")
    # The paper's properties of each family.
    kind = rec["kind"]
    if kind == "perm-ofo" and not (rec["has_uim"] and rec["equiv_ofo_determined"]):
        errors.append(f"{where}: a permuted ofo-determined table must have UIM")
    if kind == "supp" and rec["category"] != "2ST":
        errors.append(f"{where}: supp-determined above arity k+1 must be 2ST")
    if kind == "sporadic" and (
        not rec["has_uim"] or rec["equiv_ofo_determined"]
        or (k >= 3 and rec["inv_group_order"] != 1)
    ):
        errors.append(f"{where}: sporadic family lost its properties")
    return errors


def _check_partial(rec) -> list:
    k, mm = rec["case"]
    vals = rec["values"]
    sh = oracle.shape(k, mm + 1)
    group = oracle.invariance_group(sh, vals)
    uim = oracle.has_uim(sh, vals)
    equiv = oracle.equiv_ofo_determined(sh, vals)
    where = f"partial sporadic table {k},{mm}"
    errors = []
    if (rec["module_has_uim"], rec["module_equiv_ofo"]) != (uim, equiv):
        errors.append(f"{where}: has_uim={rec['module_has_uim']} "
                      f"equiv={rec['module_equiv_ofo']}, oracle {uim} {equiv}")
    if rec["group"] != sorted(group):
        errors.append(f"{where}: invariance_group {rec['group']}")
    if not uim or equiv or (mm >= 3 and oracle.two_set_transitive(sh, group)):
        errors.append(f"{where}: partial sporadic family lost its properties")
    return errors


WORKLOADS = {w.name: w for w in (Sweep(), Sample(), Library())}
