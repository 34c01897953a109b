#!/usr/bin/env python3
"""Fail unless the tests that failed in a tier-1 JUnit report are exactly
the one that is red by design.

Usage: python .github/check_tier1.py REPORT.xml

``test_acceptance.py::test_criterion_7_leaf_grouping`` stays red: exact
path-dependent TreeSHAP gives two samples in one leaf different rows
(ROADMAP.md, Baseline). Any other failure or error (a collection error
included), or that test passing, exits 1.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {"tests/test_acceptance.py::test_criterion_7_leaf_grouping"}


def failed_tests(report: str) -> tuple[int, set[str]]:
    """(the number of test cases, the ids of those that failed or erred)."""
    cases = list(ET.parse(report).getroot().iter("testcase"))
    failed = {f"{case.get('classname', '').replace('.', '/')}.py::{case.get('name')}"
              for case in cases
              if case.find("failure") is not None or case.find("error") is not None}
    return len(cases), failed


def main(argv: list[str]) -> int:
    count, failed = failed_tests(argv[1])
    print(f"{count} test cases, {len(failed)} failed")
    for test in sorted(failed - EXPECTED):
        print(f"unexpected failure: {test}")
    for test in sorted(EXPECTED - failed):
        print(f"expected to fail, but did not: {test}")
    return 0 if failed == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
