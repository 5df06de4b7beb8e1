#!/usr/bin/env python3
"""Regenerate the frozen spectrum regression fixtures under tests/data.

Only the max-size row of each report is theorem-backed; the remaining rows
are exploratory output that later runs must reproduce byte-for-byte.  Run
this only from a tree whose test suite is otherwise green.
"""

import argparse
from pathlib import Path

from semilat.enumeration import HARD_CAP, spectrum
from semilat.formats import spectrum_fixture_text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ns", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "tests" / "data",
    )
    args = parser.parse_args()
    for n in args.ns:
        if n < 1:
            parser.error(f"--ns {n} is below 1")
        if n > HARD_CAP:
            parser.error(f"--ns {n} exceeds the hard maximum {HARD_CAP}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for n in args.ns:
        report = spectrum(n, cap=HARD_CAP)
        path = args.out_dir / f"spectrum_n{n}.json"
        path.write_text(spectrum_fixture_text(report), encoding="utf-8")
        print(f"wrote {path} ({report.total_maximal} maximal, max {report.max_size})")


if __name__ == "__main__":
    main()
