#!/usr/bin/env python3
"""Fail unless the tests that failed in a tier-1 JUnit report are exactly
the one that is red by design, and no test was skipped.

Usage: python .github/check_tier1.py REPORT.xml

``test_acceptance.py::test_criterion_7_leaf_grouping`` stays red: exact
path-dependent TreeSHAP gives two samples in one leaf different rows
(ROADMAP.md, Baseline). Any other failure or error (a collection error
included), any skipped test, or that test passing, exits 1.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {"tests/test_acceptance.py::test_criterion_7_leaf_grouping"}


def _id(case) -> str:
    return f"{case.get('classname', '').replace('.', '/')}.py::{case.get('name')}"


def outcomes(report: str) -> tuple[int, set[str], dict[str, str]]:
    """(the number of test cases, the ids of those that failed or erred,
    the id of each skipped case -> its reason)."""
    cases = list(ET.parse(report).getroot().iter("testcase"))
    failed = {_id(case) for case in cases
              if case.find("failure") is not None or case.find("error") is not None}
    skipped = {_id(case): case.find("skipped").get("message", "")
               for case in cases if case.find("skipped") is not None}
    return len(cases), failed, skipped


def main(argv: list[str]) -> int:
    count, failed, skipped = outcomes(argv[1])
    print(f"{count} test cases, {len(failed)} failed, {len(skipped)} skipped")
    for test in sorted(failed - EXPECTED):
        print(f"unexpected failure: {test}")
    for test in sorted(EXPECTED - failed):
        print(f"expected to fail, but did not: {test}")
    for test, reason in sorted(skipped.items()):
        print(f"skipped: {test}: {reason}")
    return 0 if failed == EXPECTED and not skipped else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
