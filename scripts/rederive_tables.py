#!/usr/bin/env python3
"""Re-derive the published operator tables with the commutator oracle.

Prints the ten p/q/x/z bracket rows, each with its own verification
status, then the case-split action of the W family on the X family of the
weighted bracket, including the branch whose printed coefficient the
oracle corrects.  Exits 1 when either check fails.

Usage: python scripts/rederive_tables.py [bound] [k]
"""

import sys

from trilie import ConstantFunctional
from trilie.cli import TABLES
from trilie.operators import TABLE_5_1, verify_section3_structure, verify_table_5_1
from trilie.report import Window


def main() -> int:
    bound = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    table = verify_table_5_1(bound)
    _, rows = TABLES["5.1"]
    width = max(len(lhs) for lhs, _ in rows)
    print(f"p/q/x/z bracket rows, |r|,|s| <= {bound}:")
    for (lhs, rhs), row in zip(rows, TABLE_5_1):
        status = "pass" if f"row_{''.join(row.lhs)}" in table.stats else "fail"
        print(f"  {lhs:<{width}} = {rhs:<14} [{status}]")
    print(f"  pairs checked: {table.stats['pairs_checked']}, corrections: {table.stats['corrections']}")
    print()
    rep = verify_section3_structure(k, ConstantFunctional(1), 0, Window(-bound, bound))
    print(f"W-on-X action branches for the weighted bracket (k={k}):")
    for key in sorted(rep.stats):
        if key.startswith("branch"):
            print(f"  {key}: {rep.stats[key]}")
    for note in rep.notes:
        print(f"  note: {note}")
    print(f"  invariant subspaces: {rep.stats.get('invariant_subspaces', rep.status)}")
    return 0 if table.ok and rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
