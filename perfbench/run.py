"""uimlab benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload sweep-k2b2n4 --seed 0 --seconds 40 --trace 0

The program is imported from ``src/`` next to this directory, in this single
process, with one thread and ``UIMLAB_THREADS`` removed from the
environment.  ``--trace 0`` repeats whole rounds (a fresh import, set-up,
then the timed section) until the next round would pass ``--seconds``, and
reports the end-to-end metrics.  ``--trace 1`` runs one plain and one traced
round and reports the per-layer metrics.  Either way every round's answers
are checked against the oracle afterwards; the last line of standard output
is the JSON result, and a copy goes to ``perfbench/out/``.  See README.md.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import oracle
import refclock
from refclock import RefClock
from tracer import Tracer
from workloads import SUITES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-ups per round; the round runs on the last.  Set-up is short, so it is
# repeated to take its median over host phases spread through the run.
SETUPS_PER_ROUND = 3

STAGES = ("classify_values", "has_uim", "canonical_form", "invariant_perm_ids",
          "two_set_transitive", "equiv_ofo_determined", "ofo_determined",
          "supp_determined")
MODULE_FUNCTIONS = (
    "analysis.classify", "analysis.has_uim",
    "ftable.identification_minor", "ftable.are_equivalent_same_arity",
    "symmetry.is_invariant_under", "symmetry.invariance_group",
    "symmetry.PermutationGroup", "symmetry.collapse_permutation",
    "decomp.ofo_decompose", "decomp.equiv_to_ofo_determined",
    "decomp.anchored_minor_equivalence", "decomp.compose_ofo",
    "construct.build", "construct.validate",
    "tuples.ofo", "tuples.collapse_map",
)
CLASSIFIER = "analysis.TableClassifier"
CLASSIFY_VALUES = f"{CLASSIFIER}.classify_values"
SEARCH = "analysis.search"


def purge():
    """Forget every uimlab module, so the next import starts with empty
    module-level caches."""
    for name in [n for n in sys.modules if n == "uimlab" or n.startswith("uimlab.")]:
        del sys.modules[name]
    gc.collect()


def fresh_import():
    purge()
    m = importlib.import_module("uimlab")
    if not Path(m.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported uimlab from {m.__file__}, not {SRC}")
    return m


def set_up(wl, seed):
    """Import the program and prepare the workload; returns the package, the
    inputs and the seconds taken."""
    purge()
    start = time.perf_counter()
    m = fresh_import()
    inputs = wl.make_inputs(seed)
    wl.prepare(m, inputs)
    return m, inputs, time.perf_counter() - start


def timed_round(wl, m, inputs, clock):
    gc.collect()
    with clock.section() as sec:
        out = wl.run(m, inputs)
    return sec, out


def check(wl, inputs, outputs):
    oracle.self_check()
    return wl.check(inputs, outputs)


def measure(wl, seed, seconds):
    clock = RefClock()
    setups, setup_refs, sections, outputs = [], [], [], []
    start = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_ROUND):
            before = refclock.median_slice()
            m, inputs, setup_s = set_up(wl, seed)
            slice_s = (before + refclock.median_slice()) / 2
            setups.append(setup_s)
            setup_refs.append(setup_s / slice_s)
        sec, out = timed_round(wl, m, inputs, clock)
        m = None
        sections.append(sec)
        outputs.append(out)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(sections) > seconds:
            break
    purge()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = check(wl, inputs, outputs)
    wall = statistics.median(s.wall_s - s.ref_s for s in sections)
    info = {
        "rounds": len(sections),
        "setup_raw_s": statistics.median(setups),
        "wall_s": wall,
        "tables_per_s": wl.tables(inputs) / wall,
        "ref_slice_ms": statistics.median(s.slice_s for s in sections) * 1e3,
        "ref_share": sum(s.ref_s for s in sections) / sum(s.wall_s for s in sections),
    }
    metrics = {
        # Set-up in seconds at the reference's nominal speed: each set-up is
        # divided by reference slices timed just before and after it.
        "setup_s": (statistics.median(setup_refs) * refclock.NOMINAL_SLICE_S, "s"),
        "work_ref": (statistics.median(s.work_ref for s in sections), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return errors, len(sections) * wl.ops(inputs), metrics, info, None


def retained_mb(wl, seed):
    """Memory the package still holds after a round, classifiers and memos
    included, as tracemalloc sees it."""
    purge()
    tracemalloc.start()
    try:
        m = fresh_import()
        inputs = wl.make_inputs(seed)
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        wl.prepare(m, inputs)
        wl.run(m, inputs)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    m = None
    purge()
    return held / 2**20


def trace(wl, seed):
    clock = RefClock()
    m, inputs, _ = set_up(wl, seed)
    plain, out_plain = timed_round(wl, m, inputs, clock)
    m = None

    tracer = Tracer(
        clock.now,
        distinct_args=(f"{CLASSIFIER}.canonical_form", f"{CLASSIFIER}.ofo_determined"),
        by_first_arg=("analysis.verify_suite",),
        within=[(CLASSIFY_VALUES, SEARCH)]
        + [(f"{CLASSIFIER}.{stage}", CLASSIFY_VALUES) for stage in STAGES[1:]],
    )
    m = fresh_import()
    tracer.install(m)
    inputs = wl.make_inputs(seed)
    wl.prepare(m, inputs)
    setup_build_s = tracer.stat(CLASSIFIER)[1]
    tracer.reset()
    traced, out_traced = timed_round(wl, m, inputs, clock)
    classifiers = [o for o in gc.get_objects() if isinstance(o, m.analysis.TableClassifier)]
    remap_entries = sum(
        len(remap)
        for c in classifiers
        for name, tables in vars(c).items()
        if name.endswith("remaps") and not name.startswith("_")
        for remap in tables
    )
    classifiers = m = None
    purge()

    metrics = layer_metrics(tracer, out_traced)
    metrics["classifier.build_s"] = (setup_build_s + tracer.stat(CLASSIFIER)[1], "s")
    metrics["classifier.remap_entries"] = (remap_entries, "count")
    metrics["classifier.retained_mb"] = (retained_mb(wl, seed), "MB")
    metrics["trace.overhead"] = (traced.work_ref / plain.work_ref, "ratio")
    errors = check(wl, inputs, [out_plain, out_traced])
    return errors, 2 * wl.ops(inputs), metrics, {}, tracer.to_json_obj()


def layer_metrics(tracer, out):
    metrics = {}
    # Stage figures count only calls made inside classify_values: suites
    # that call stages directly show in their own suite.* figures.
    tables, cv_total, _ = tracer.stat(CLASSIFY_VALUES)
    for stage in STAGES:
        name = f"{CLASSIFIER}.{stage}"
        calls, _, self_s = tracer.within.get((name, CLASSIFY_VALUES)) or tracer.stat(name)
        metrics[f"stage.{stage}.calls_per_table"] = (calls / max(tables, 1), "calls/table")
        metrics[f"stage.{stage}.self_us_per_table"] = (self_s * 1e6 / max(tables, 1), "us/table")
        metrics[f"stage.{stage}.share"] = (self_s / cv_total if cv_total else 0.0, "share")
    for stage in ("canonical_form", "ofo_determined"):
        calls = tracer.stat(f"{CLASSIFIER}.{stage}")[0]
        distinct = len(tracer.distinct[f"{CLASSIFIER}.{stage}"])
        metrics[f"stage.{stage}.reuse"] = (1 - distinct / calls if calls else 0.0, "share")

    _, search_s, _ = tracer.stat(SEARCH)
    cv_in_search, cv_in_search_s, _ = tracer.within[(CLASSIFY_VALUES, SEARCH)]
    classified = out.get("classified", 0) if search_s else 0
    metrics["search.self_s"] = (search_s - cv_in_search_s, "s")
    metrics["search.spot_check_share"] = (
        (cv_in_search - classified) / cv_in_search if cv_in_search else 0.0, "share")
    calls, _, self_s = tracer.stat("analysis.sample_index")
    metrics["search.sample_index_us"] = (self_s * 1e6 / calls if calls else 0.0, "us/call")

    suites = out.get("suites", {})
    for name in SUITES:
        s = tracer.stat(f"analysis.verify_suite[{name}]")[1]
        checked = suites.get(name, (0, False))[0]
        metrics[f"suite.{name}.s"] = (s, "s")
        metrics[f"suite.{name}.checks_per_s"] = (checked / s if s else 0.0, "1/s")

    for name in MODULE_FUNCTIONS:
        calls, _, self_s = tracer.stat(name)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "uimlab" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'uimlab'}", file=sys.stderr)
        return 2
    os.environ.pop("UIMLAB_THREADS", None)
    # Set-up imports compiled modules, as an installed package would, even
    # where PYTHONDONTWRITEBYTECODE is set: only the first import compiles.
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    if args.trace:
        errors, attempted, metrics, info, spans = trace(wl, args.seed)
    else:
        errors, attempted, metrics, info, spans = measure(wl, args.seed, args.seconds)
    for e in errors[:20]:
        print(f"MISMATCH {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": wl.name, "seed": args.seed, "info": info, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans, indent=1) + "\n")
    if info:
        print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
