#!/usr/bin/env python3
"""Which cardinalities occur among maximal subsemilattices of T(n)?

Prints the size histogram for each n up to the cap, plus the sizes in
[1, 2^(n-1)] that no maximal subsemilattice attains.  The attainable set is
an open question; this script prints the exhaustive small-n evidence.
"""

import argparse
import time

from semilat.enumeration import HARD_CAP, spectrum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    args = parser.parse_args()
    if args.max_n < 1:
        parser.error(f"--max-n {args.max_n} is below 1")
    if args.max_n > HARD_CAP:
        parser.error(f"--max-n {args.max_n} exceeds the hard maximum {HARD_CAP}")

    for n in range(1, args.max_n + 1):
        start = time.perf_counter()
        report = spectrum(n, cap=args.max_n)
        elapsed = time.perf_counter() - start
        counts = report.counts()
        attained = sorted(counts)
        missing = [m for m in range(1, report.max_size + 1) if m not in counts]
        print(f"n={n}  total={report.total_maximal}  max={report.max_size}  "
              f"({elapsed:.2f}s)")
        print("  size:count  " + "  ".join(f"{s}:{counts[s]}" for s in attained))
        print(f"  unattained sizes in [1, {report.max_size}]: "
              f"{missing if missing else 'none'}")


if __name__ == "__main__":
    main()
