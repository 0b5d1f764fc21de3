"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion also enforces its runtime budget.
"""

import time
from itertools import product

import brute
from uimlab.analysis import TableClassifier, search, verify_suite
from uimlab.construct import marked_tuple
from uimlab.decomp import SuppTable, compose_supp
from uimlab.ftable import FunctionTable
from uimlab.tuples import IndexPair, decode, ofo


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        ok = exc_type is None and elapsed < self.seconds
        print(f"ACCEPTANCE {self.name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
        if exc_type is None and not ok:
            raise AssertionError(
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_01_marked_tuple_fidelity():
    reference = {
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
    with _Budget("01 marked-tuple-fidelity", 1.0):
        assert len(reference) == 10
        for (lo, hi), display in reference.items():
            got = marked_tuple(4, IndexPair(lo, hi))
            assert got == tuple(x - 1 for x in display)


def test_02_first_occurrence_words():
    words = {
        "balloon": "balon",
        "kayak": "kay",
        "motorcycle": "motrcyle",
        "seaplane": "seapln",
        "sleigh": "sleigh",
        "submarine": "submarine",
    }
    with _Budget("02 first-occurrence-words", 1.0):
        for word, expected in words.items():
            assert "".join(ofo(word)) == expected


def test_03_collapse_preserves_first_occurrence():
    with _Budget("03 collapse-preserves-ofo", 30.0):
        report = verify_suite("lemma-ofodeltaI", k=3, n=5)
        assert report.passed, report.counterexample


def test_04_ofo_factorizations_have_identical_minors():
    with _Budget("04 ofo-factor-minors", 60.0):
        report = verify_suite("prop-ofominor", k=2, b=2, n=4)
        assert report.passed, report.counterexample


def test_05_collapse_permutation_identities():
    with _Budget("05 collapse-permutation", 30.0):
        report = verify_suite("lemma-hatsigma", n=6)
        assert report.passed, report.counterexample


def test_06_two_set_transitive_implies_unique_minor():
    with _Budget("06 2st-implies-uim", 600.0):
        report = verify_suite("uim-2st", k=2, b=2, n=4)
        assert report.passed, report.counterexample
        assert report.checked > 0


def test_07_support_class_equalities():
    with _Budget("07 support-equivalences", 600.0):
        report = verify_suite("prop-suppord", k=2, b=2, n=4)
        assert report.passed, report.counterexample
        # independent construction of the support-determined class: composing
        # each of the 2^3 support tables must enumerate it exactly
        ctx = TableClassifier(2, 2, 4)
        composed = set()
        for vals in product(range(2), repeat=3):
            f = compose_supp(SuppTable.from_values(2, 2, 2, vals), 4)
            assert brute.is_totally_symmetric(f)
            assert brute.is_2_set_transitive_fn(f)
            assert ctx.ofo_determined(tuple(f.values))
            composed.add(f.values)
        swept = set()
        for index in range(2**16):
            values = decode(index, 16, 2)
            if ctx.supp_determined(values):
                swept.add(values)
        assert swept == composed
        assert len(swept) == 8


def test_08_sporadic_total_family():
    with _Budget("08 sporadic-total", 60.0):
        report = verify_suite("prop-42", k=4)
        assert report.passed, report.counterexample


def test_09_sporadic_partial_family():
    with _Budget("09 sporadic-partial", 120.0):
        report = verify_suite("prop-52", k=4, m=3)
        assert report.passed, report.counterexample


def test_10_first_occurrence_algebra():
    with _Budget("10 ofo-algebra", 120.0):
        report = verify_suite("ofo-identities", k=3, max_len=4, triple_total=6)
        assert report.passed, report.counterexample


def test_11_conjecture_evidence_run():
    with _Budget("11 conjecture-evidence", 900.0):
        first = search(2, 2, 4, mode="exhaustive")
        second = search(2, 2, 4, mode="exhaustive")
        assert first.classified == 65536
        assert sum(first.counts.values()) == 65536
        # run-to-run reproducibility (counts are derived by the run itself)
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() == (
            "9b5f0c7bf602583bf3fc98b845811152b1e567cfbabdfdc7aa78c69f99d7f35e"
        )
        # every unique-minor table is 2ST, OFO-EQ, or emitted verbatim
        assert first.counts["OTHER"] == len(first.other_witnesses)
        for witness in first.other_witnesses:
            table = FunctionTable(2, 2, 4, tuple(witness["values"]))
            assert brute.has_uim(table)
        uim_total = (
            first.counts["2ST"] + first.counts["OFO-EQ"] + first.counts["OTHER"]
        )
        assert uim_total + first.counts["NOT-UIM"] == 65536
