"""Acceptance suite: the ten headline criteria, one test each.

Each test prints a single pass/fail line; tolerances live in the verify
module so the CLI `verify` subcommand checks exactly the same numbers.
The statistical criteria 07-09 run at verify.THREADS = 4 threads, one of
the counts criterion 10 compares, so the two share those runs.  Runtime is
about 40 s on a 2-vCPU host, dominated by criterion 10's n=512 Monte Carlo
runs at 1, 4 and 8 threads.
"""

import pytest

from torusboot import verify


def check(report):
    print(report.line())
    assert report.passed, "\n".join([report.line()] + report.details)


def test_criterion_01_extremal_sizes():
    check(verify.criterion_extremal_sizes())


def test_criterion_02_extremal_counts():
    check(verify.criterion_extremal_counts())


def test_criterion_03_rho1_exact():
    check(verify.criterion_rho1_exact())


def test_criterion_04_key_lemma_and_layers():
    check(verify.criterion_key_lemma())


def test_criterion_05_union_bound():
    check(verify.criterion_union_bound())


def test_criterion_06_formula_identities():
    check(verify.criterion_formula_identities())


def test_criterion_07_poisson_tv():
    check(verify.criterion_poisson())


def test_criterion_08_concentration():
    check(verify.criterion_concentration())


def test_criterion_09_monotone_coupling():
    check(verify.criterion_coupling())


def test_criterion_10_determinism():
    check(verify.criterion_determinism())
