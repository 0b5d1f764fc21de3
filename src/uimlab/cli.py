"""Command-line front end.

Subcommands: ``minors``, ``check``, ``classify``, ``ofo``, ``construct prop4``,
``construct gpphi``, ``verify``, ``search``.  Exit codes: 0 on success or
pass, 1 on a verification failure / counterexample, 2 on usage or format
errors.

``verify`` has one integer flag per suite parameter, read off the suites'
signatures, and passes each given flag to the parameter of the same name; a
flag the chosen suite does not take is a usage error.

Conventions: files, ``--json`` output, and symbol-valued flags (``--alpha``,
``--beta``) use 0-based symbols; human-readable output renders tuples,
permutations, and pairs 1-based.  ``search --threads N`` sets how many worker
processes share a search round-robin, at most one per CPU (default 1); a
count below 1 is a usage error.  Reports are identical for every count.  A
table space beyond ``search``'s guards or a whole-space suite's, and a table
beyond the guards of the classifier that ``check`` and ``classify`` use, are
usage errors too.
"""

import argparse
import json
import sys
from dataclasses import asdict

from . import analysis, construct, ftable
from .ftable import canonical_dumps
from .tuples import IndexPair, ofo, parse_tuple, render_tuple

USAGE_ERROR = 2
FAILURE = 1


def _print_json(obj) -> None:
    print(canonical_dumps(obj), end="")


def cmd_minors(args) -> int:
    f = ftable.load_table(args.file)
    if args.pair:
        pairs = [IndexPair.parse(args.pair)]
    else:
        pairs = list(IndexPair.all_pairs(f.arity))
    minors = [(p, ftable.identification_minor(f, p)) for p in pairs]
    if args.json:
        _print_json(
            [
                {"pair": [p.lo, p.hi], "minor": ftable.table_to_json_obj(m)}
                for p, m in minors
            ]
        )
    else:
        for p, m in minors:
            print(f"minor for pair {p.render()}: arity {m.arity}, "
                  f"values {list(m.values)}")
    return 0


def cmd_check(args) -> int:
    f = ftable.load_table(args.file)
    ok = analysis.has_uim(f)
    if args.json:
        _print_json({"has_uim": ok})
    else:
        print(f"unique identification minor: {'yes' if ok else 'no'}")
    return 0 if ok else FAILURE


def _classification_obj(c) -> dict:
    obj = asdict(c)
    if c.restriction is None:
        del obj["restriction"]
    return obj


def cmd_classify(args) -> int:
    f = ftable.load_table(args.file)
    c = analysis.classify(f)
    if args.json:
        _print_json(_classification_obj(c))
        return 0
    print(f"category:               {c.category}")
    print(f"unique identification minor: {'yes' if c.has_uim else 'no'}")
    print(f"totally symmetric:      {'yes' if c.totally_symmetric else 'no'}")
    note = " (degenerate: a single pair at arity 2)" \
        if c.two_set_transitive_degenerate else ""
    print(f"2-set-transitive:       {'yes' if c.two_set_transitive else 'no'}{note}")
    print(f"ofo-determined:         {'yes' if c.ofo_determined else 'no'}")
    print(f"equiv. ofo-determined:  {'yes' if c.equiv_ofo_determined else 'no'}")
    print(f"supp-determined:        {'yes' if c.supp_determined else 'no'}")
    print(f"invariance group order: {c.inv_group_order}")
    if c.restriction is not None:
        r = c.restriction
        print("restriction to repeat tuples:")
        print(f"  ofo-determined:        {'yes' if r.ofo_determined else 'no'}")
        print(f"  equiv. ofo-determined: {'yes' if r.equiv_ofo_determined else 'no'}")
        print(f"  2-set-transitive:      {'yes' if r.two_set_transitive else 'no'}")
        print(f"  invariance group order: {r.inv_group_order}")
    return 0


def cmd_ofo(args) -> int:
    text = args.string
    if "," in text or text.startswith("("):
        print(render_tuple(ofo(parse_tuple(text))))
    else:
        print("".join(ofo(text)))
    return 0


def cmd_construct(args) -> int:
    if args.family == "prop4":
        if args.m is None:
            table = construct.sporadic_function(args.k, args.alpha, args.beta)
        else:
            table = construct.sporadic_partial_function(
                args.k, args.m, args.alpha, args.beta
            )
    else:  # gpphi
        table = construct.build(construct.load_spec(args.spec))
    ftable.save_table(table, args.output)
    kind = "partial table" if None in table.values else "table"
    print(f"wrote {args.output}: arity {table.arity} {kind} over "
          f"{table.domain_size} symbols")
    return 0


def _suite_flags():
    """Every suite parameter; ``verify`` takes each as an integer flag."""
    return sorted({name for suite in analysis.suite_names()
                   for name in analysis.suite_parameters(suite)})


def _flag(name) -> str:
    return "--" + name.replace("_", "-")


def _suite_params(args) -> dict:
    """The given ``verify`` flags, each under its suite parameter's name."""
    return {name: v for name in _suite_flags() if (v := getattr(args, name)) is not None}


def cmd_verify(args) -> int:
    report = analysis.verify_suite(args.suite, **_suite_params(args))
    if args.json:
        _print_json(report.to_json_obj())
    else:
        status = "PASS" if report.passed else "FAIL"
        print(f"suite {report.suite}: {status} "
              f"({report.checked} checks, {report.elapsed_seconds:.2f}s)")
        if report.counterexample:
            print(f"counterexample: {report.counterexample}")
    return 0 if report.passed else FAILURE


def cmd_search(args) -> int:
    mode = "exhaustive" if args.exhaustive else "sampled"
    report = analysis.search(
        args.k, args.b, args.n, mode=mode, seed=args.seed, samples=args.samples,
        threads=args.threads,
    )
    obj = report.to_json_obj()
    obj["fingerprint"] = report.fingerprint()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(canonical_dumps(obj))
    if args.json:
        _print_json(obj)
    else:
        print(f"search k={report.domain_size} b={report.codomain_size} "
              f"n={report.arity} mode={report.mode}")
        print(f"classified {report.classified} of {report.total_space} tables "
              f"in {report.elapsed_seconds:.2f}s")
        for cat in analysis.CATEGORIES:
            print(f"  {cat:8s} {report.counts.get(cat, 0)}")
        print(f"fingerprint: {report.fingerprint()}")
        if report.other_witnesses:
            if report.flagged_counterexamples:
                print("POTENTIAL COUNTEREXAMPLES (arity exceeds domain size + 1); "
                      "witness tables follow verbatim:")
                for w in report.other_witnesses:
                    print(json.dumps(w, sort_keys=True))
            else:
                print(f"{len(report.other_witnesses)} OTHER witnesses "
                      f"(expected at this arity; use --json for the full list)")
    return FAILURE if report.flagged_counterexamples else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uimlab",
        description="Minors of finite functions: identification minors, "
                    "invariance groups, first-occurrence structure, and "
                    "exhaustive table-space search.",
        epilog="Files and --json output use 0-based symbols; human output "
               "renders tuples and permutations 1-based.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minors", help="identification minors of a table file")
    p.add_argument("file")
    p.add_argument("--pair", help="one pair of 1-based positions, e.g. 1,3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_minors)

    p = sub.add_parser("check", help="test for a unique identification minor")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("classify", help="full classification of a total table")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("ofo", help="order of first occurrence of a string")
    p.add_argument("string")
    p.set_defaults(fn=cmd_ofo)

    p = sub.add_parser("construct", help="build distinguished function tables")
    csub = p.add_subparsers(dest="family", required=True)

    c = csub.add_parser(
        "prop4",
        help="the sporadic family with a unique identification minor",
    )
    c.add_argument("--k", type=int, required=True, help="domain alphabet size")
    c.add_argument("--m", type=int, default=None,
                   help="base arity for the partial variant (2..k)")
    c.add_argument("--alpha", type=int, default=1, help="distinguished value (0-based)")
    c.add_argument("--beta", type=int, default=0, help="background value (0-based)")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(fn=cmd_construct)

    c = csub.add_parser("gpphi", help="build from a gluing spec file")
    c.add_argument("--spec", required=True)
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", required=True, choices=analysis.suite_names())
    for name in _suite_flags():
        p.add_argument(_flag(name), dest=name, type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="classify a whole table space")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per CPU (default 1)")
    p.add_argument("--report", help="write the JSON report to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # TableFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
