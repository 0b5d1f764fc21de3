#!/usr/bin/env python3
"""Exhaustively classify whole table spaces and collect evidence on whether
any table of arity above domain_size + 1 has a unique identification minor
without being 2-set-transitive or equivalent to an ofo-determined table.

Every space that exhaustive search accepts is swept and the rest, beyond
its guards, are skipped; OTHER witnesses at n > k + 1 would be potential
counterexamples and are printed verbatim.

Usage:
    python scripts/conjecture_scan.py [--max-k 3] [--max-b 3] [--max-n 4]
                                      [--out reports/]
"""

import argparse
import json
import sys
from pathlib import Path

from uimlab.analysis import search
from uimlab.ftable import canonical_dumps


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-k", type=int, default=3)
    ap.add_argument("--max-b", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for per-space JSON reports")
    args = ap.parse_args()

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    flagged_any = False
    for k in range(2, args.max_k + 1):
        for b in range(2, args.max_b + 1):
            for n in range(2, args.max_n + 1):
                try:
                    report = search(k, b, n, mode="exhaustive")
                except ValueError:  # beyond a guard
                    continue
                above = "  [n > k+1]" if n > k + 1 else ""
                print(f"k={k} b={b} n={n}: {report.counts}  "
                      f"({report.elapsed_seconds:.1f}s){above}")
                if report.flagged_counterexamples:
                    flagged_any = True
                    print("  POTENTIAL COUNTEREXAMPLES:")
                    for w in report.other_witnesses:
                        print("  " + json.dumps(w, sort_keys=True))
                if args.out:
                    obj = report.to_json_obj()
                    obj["fingerprint"] = report.fingerprint()
                    path = args.out / f"search_k{k}_b{b}_n{n}.json"
                    path.write_text(canonical_dumps(obj))
    return 1 if flagged_any else 0


if __name__ == "__main__":
    sys.exit(main())
