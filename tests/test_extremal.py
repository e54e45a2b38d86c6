from itertools import permutations

import numpy as np
import pytest

from torusboot import dynamics, extremal
from torusboot.dynamics import Modified, Standard, ball_state, is_origin_protected
from torusboot.extremal import (
    Canonical,
    Other,
    PreconditionError,
    RhoPolynomial,
    SemiCanonical,
    WorkBudgetExceeded,
    check_key_lemma,
    check_layer_bounds,
    classify,
    count_components_band,
    count_min_certificates,
    count_near_minimal,
    exact_joint,
    exact_rho1,
    min_protecting_size,
)
from torusboot.formulas import ell, m
from torusboot.lattice import enumerate_ball


def column_sites(d, t):
    return {
        s for s in enumerate_ball(d, t).sites if all(c in (0, 1) for c in s[: d - 1])
    }


def test_min_size_small_cases():
    assert min_protecting_size(2, 1, Standard(2)) == 4
    assert min_protecting_size(2, 2, Standard(2)) == 8
    assert min_protecting_size(2, 1, Modified()) == 3
    assert min_protecting_size(2, 2, Modified()) == 5


def test_budget_refusal_carries_estimate():
    with pytest.raises(WorkBudgetExceeded) as exc:
        min_protecting_size(2, 2, Standard(2), budget=10)
    assert exc.value.budget == 10
    assert exc.value.estimate > 10


def test_count_certificates_2_2():
    count, certs = count_min_certificates(2, 2, Standard(2))
    assert count == 16
    assert all(c.size == 8 for c in certs)
    tags = [classify(c) for c in certs]
    assert sum(isinstance(c, Canonical) for c in tags) == 4
    assert sum(isinstance(c, SemiCanonical) for c in tags) == 12
    assert not any(isinstance(c, Other) for c in tags)


def test_certificates_closed_under_symmetry():
    # protection is symmetric under signed coordinate permutations, so the
    # certificate set must be a union of orbits
    _, certs = count_min_certificates(2, 2, Standard(2))
    cert_sets = {c.uninfected for c in certs}
    for cert in certs:
        for perm in permutations(range(2)):
            for sx in (1, -1):
                for sy in (1, -1):
                    image = frozenset(
                        (sx * s[perm[0]], sy * s[perm[1]]) for s in cert.uninfected
                    )
                    assert image in cert_sets


def test_count_certificates_t1_regression():
    # t = 1 sits outside the closed-form count; pinned enumeration values
    assert count_min_certificates(2, 1, Standard(2))[0] == 4
    assert count_min_certificates(3, 1, Standard(3))[0] == 15


def test_modified_certificates_are_axis_columns():
    count, certs = count_min_certificates(2, 2, Modified())
    assert count == 2
    expected = {
        frozenset({(0, -2), (0, -1), (0, 0), (0, 1), (0, 2)}),
        frozenset({(-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0)}),
    }
    assert {c.uninfected for c in certs} == expected


def test_classify_column_is_canonical():
    cert = extremal.Certificate(
        d=2, t=2, rule=Standard(2), uninfected=frozenset(column_sites(2, 2))
    )
    assert isinstance(classify(cert), Canonical)


def test_exact_rho1_2_1():
    poly = exact_rho1(2, 1)
    assert poly.counts == (0, 0, 0, 0, 4, 1)
    assert poly.evaluate(0.5) == 0.15625
    assert poly.min_size == 4


def test_exact_rho1_modified_2_1():
    poly = exact_rho1(2, 1, Modified())
    assert poly.counts == (0, 0, 0, 2, 4, 1)
    assert poly.evaluate(0.5) == 0.21875


def test_rho_polynomial_json_roundtrip():
    poly = exact_rho1(2, 1)
    assert RhoPolynomial.from_json(poly.to_json()) == poly
    joint = exact_joint(2, 1, (1, 0))
    assert RhoPolynomial.from_json(joint.to_json()) == joint


def test_exact_rho1_total_count():
    # counts over all subset sizes sum to the number of protecting subsets,
    # and evaluate(1.0) = 1 because the fully uninfected ball protects
    poly = exact_rho1(2, 1)
    assert poly.evaluate(1.0) == 1.0
    assert poly.evaluate(0.0) == 0.0


def test_protection_monotone_in_uninfected_set():
    rng = np.random.default_rng(5)
    ball = enumerate_ball(2, 2)
    for _ in range(20):
        uninf = {s for s in ball.sites if rng.random() < 0.7}
        if not is_origin_protected(ball_state(2, 2, uninf), Standard(2)):
            continue
        extra = {s for s in ball.sites if rng.random() < 0.3}
        assert is_origin_protected(ball_state(2, 2, uninf | extra), Standard(2))


def test_joint_disjoint_balls_factorize():
    # offset norm 2t+1: the polynomial is the product of the marginals
    single = exact_rho1(2, 1)
    joint = exact_joint(2, 1, (3, 0))
    prod = np.polynomial.polynomial.polymul(
        np.array(single.counts, dtype=float), np.array(single.counts, dtype=float)
    )
    assert joint.n_sites == 2 * single.n_sites
    assert list(joint.counts) == [int(c) for c in prod] + [0] * (
        len(joint.counts) - len(prod)
    )


def test_joint_minimum_exceeds_single():
    joint = exact_joint(2, 1, (1, 0))
    assert joint.min_size >= m(1, 2) + 1


def test_joint_rejects_zero_offset():
    with pytest.raises(ValueError):
        exact_joint(2, 1, (0, 0))


def test_count_near_minimal():
    assert count_near_minimal(2, 2, 0) == 16
    assert count_near_minimal(2, 1, 0) == 4
    assert count_near_minimal(2, 1, 1) == 1
    assert count_near_minimal(2, 1, 2) == 0


def test_check_key_lemma_tight_on_column():
    d, t = 2, 2
    state = ball_state(d, t, column_sites(d, t))
    report = check_key_lemma(state, Standard(d), (0, 0), (0, 0), t)
    assert report.holds
    assert report.compatible_protected == ell(t, d)
    assert report.bound == ell(t, d)


def test_check_key_lemma_slack_on_full_ball():
    d, t = 2, 2
    state = ball_state(d, t, set(enumerate_ball(d, t).sites))
    report = check_key_lemma(state, Standard(d), (1, 0), (1, 0), 1)
    assert report.holds
    assert report.compatible_protected > report.bound


def test_check_key_lemma_preconditions():
    d, t = 2, 2
    state = ball_state(d, t, column_sites(d, t))
    with pytest.raises(PreconditionError):
        check_key_lemma(state, Standard(d), (0, 0), (0, 0), t + 1)  # k too large
    with pytest.raises(PreconditionError):
        check_key_lemma(state, Standard(d), (2, 0), (1, 0), 0)  # x not protected
    with pytest.raises(PreconditionError):
        check_key_lemma(state, Standard(d), (0, 1), (0, -1), 1)  # config against sign


def test_layer_bounds_column_minimal():
    d, t = 2, 3
    protected = dynamics.protected_set(ball_state(d, t, column_sites(d, t)), Standard(d))
    reports = check_layer_bounds(protected, d, t)
    assert all(r.holds and r.minimal for r in reports)


def test_layer_bounds_full_ball_not_minimal():
    d, t = 2, 2
    protected = dynamics.protected_set(ball_state(d, t, set(enumerate_ball(d, t).sites)), Standard(d))
    reports = check_layer_bounds(protected, d, t)
    assert all(r.holds for r in reports)
    assert not any(r.minimal for r in reports)


def test_layer_bounds_requires_protected_origin():
    protected = dynamics.protected_set(ball_state(2, 2, {(0, 0)}), Standard(2))
    with pytest.raises(PreconditionError):
        check_layer_bounds(protected, 2, 2)


def test_components_band_on_column():
    # tall column: the band excludes the centre, leaving the two arms
    d, t = 2, 8
    state = ball_state(d, t, column_sites(d, t))
    report = count_components_band(state, Standard(d), r1=2, r2=8, mid=5)
    assert report.hypotheses_ok
    assert report.components_meeting_mid == 2


def test_components_band_flags_bad_hypotheses():
    d, t = 2, 2
    state = ball_state(d, t, column_sites(d, t))
    report = count_components_band(state, Standard(d), r1=1, r2=2, mid=1)
    assert not report.hypotheses_ok
    assert report.failures


def test_certificate_json_shape():
    _, certs = count_min_certificates(2, 2, Standard(2))
    doc = certs[0].to_json()
    assert doc["d"] == 2 and doc["t"] == 2
    assert doc["rule"] == "standard_r2"
    assert doc["classification"] in ("canonical", "semi-canonical")
    assert len(doc["sites"]) == 8
