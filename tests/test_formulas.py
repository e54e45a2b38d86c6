import json
import math

import pytest
from hypothesis import given, strategies as st

from torusboot import formulas
from torusboot.dynamics import Modified, Standard
from torusboot.lattice import ball_size, dependency_offsets


def test_ell_known_values():
    assert formulas.ell(1, 2) == 3
    assert formulas.ell(2, 3) == 7
    assert formulas.ell(5, 3) == 8  # saturates at 2^d


def test_m_known_values():
    assert formulas.m(2, 2) == 8
    assert formulas.m(2, 3) == 12
    assert formulas.m(3, 3) == 20


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=2, max_value=8))
def test_ell_m_monotone(t, d):
    assert formulas.ell(t + 1, d) >= formulas.ell(t, d)
    assert formulas.ell(t, d + 1) >= formulas.ell(t, d)
    assert formulas.m(t + 1, d) > formulas.m(t, d)


@given(st.integers(min_value=1, max_value=20))
def test_m_two_dimensional_closed_form(t):
    assert formulas.m(t, 2) == 4 * t


def loop_ell(t, d):
    """ell as a sum over every i <= t, C(d, i) being 0 past d."""
    return sum(math.comb(d, i) for i in range(t + 1))


def loop_m(t, d):
    """m as the sum of loop_ell(r, d) over r = 0..t: O(t^2) terms."""
    return sum(loop_ell(r, d) for r in range(t + 1))


@pytest.mark.parametrize("d", range(1, 12))
def test_ell_and_m_equal_their_defining_sums(d):
    for t in range(15):
        assert formulas.ell(t, d) == loop_ell(t, d), (t, d)
        assert formulas.m(t, d) == loop_m(t, d), (t, d)


def test_m_at_a_huge_horizon(capsys):
    # linear in min(t, d): one term per i <= d, whatever t is
    from torusboot import cli

    assert formulas.m(10**9, 2) == 4 * 10**9
    assert formulas.ell(10**9, 3) == 8
    assert cli.main(["formulas", "m", "--d", "2", "--t", str(10**9)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 4 * 10**9


@given(st.integers(min_value=2, max_value=8))
def test_ell_saturates_at_two_power_d(d):
    assert formulas.ell(d, d) == 2**d
    assert formulas.ell(d + 3, d) == 2**d


def test_m_general_known_values():
    assert formulas.m_general(1, 3, 2) == 6
    assert formulas.m_general(2, 3, 2) == 18


def test_m_general_rejects_bad_threshold():
    with pytest.raises(ValueError):
        formulas.m_general(2, 3, 1)
    with pytest.raises(ValueError):
        formulas.m_general(2, 3, 4)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_leading_term_closed_forms(d):
    assert formulas.leading_term(0, d, Standard(d)) == (1, 1)
    assert formulas.leading_term(1, d, Standard(d)) == (math.comb(2 * d, d + 1), d + 2)
    for t in (2, 3, 7):
        assert formulas.leading_term(t, d, Standard(d)) == (d**3 * 2 ** (d - 1), formulas.m(t, d))
    assert formulas.leading_term(0, d, Modified()) == (1, 1)
    for t in (1, 2, 7):
        assert formulas.leading_term(t, d, Modified()) == (d, 2 * t + 1)


def test_leading_term_rejects_other_thresholds_and_negative_t():
    with pytest.raises(ValueError, match="d-neighbour"):
        formulas.leading_term(2, 2, Standard(3))
    with pytest.raises(ValueError, match="d-neighbour"):
        formulas.lambda_leading(10, 3, 2, 0.1, Standard(2))
    with pytest.raises(ValueError, match="t must be"):
        formulas.leading_term(-1, 2, Modified())


@pytest.mark.parametrize("d,t,rule", [(2, 0, Standard(2)), (2, 1, Standard(2)), (3, 2, Standard(3)),
                                      (2, 0, Modified()), (3, 1, Modified()), (2, 3, Modified())])
def test_q_at_lambda_inverts_lambda_leading(d, t, rule):
    q = formulas.q_at_lambda(2.0, 64, d, t, rule)
    assert formulas.lambda_leading(64, d, t, q, rule) == pytest.approx(2.0)


def test_q_at_lambda_refuses_a_lambda_no_probability_gives():
    # count * n^d = 2 * 10^2 for the modified rule at d = 2, t >= 1
    assert formulas.q_at_lambda(200.0, 10, 2, 1, Modified()) == 1.0
    assert formulas.q_at_lambda(0.0, 10, 2, 1, Modified()) == 0.0
    for lam in (200.000001, 1e300, math.inf, -1e-9, math.nan):
        with pytest.raises(ValueError, match="lambda"):
            formulas.q_at_lambda(lam, 10, 2, 1, Modified())
    # alpha = exp(-lambda): a negative threshold below exp(-count * n^d), an
    # infinite lambda for a subnormal alpha
    assert formulas.p_alpha(2, 1, 0, math.exp(-1.5), Standard(1)) == pytest.approx(0.25)
    for alpha in (1e-10, 5e-324):
        with pytest.raises(ValueError, match=f"alpha={alpha}"):
            formulas.p_alpha(2, 1, 0, alpha, Standard(1))


def test_lambda_leading_examples():
    assert formulas.lambda_leading(512, 2, 2, 0.0, Standard(2)) == 0.0
    assert formulas.lambda_leading(10, 2, 1, 0.1, Modified()) == pytest.approx(0.2)
    q = (2.0 / (16 * 512**2)) ** 0.125
    assert formulas.lambda_leading(512, 2, 2, q, Standard(2)) == pytest.approx(2.0)


def test_p_alpha_examples():
    assert formulas.p_alpha(1000, 2, 2, 0.5, Standard(2)) == pytest.approx(1 - (math.log(2) / 1.6e7) ** 0.125)
    assert formulas.p_alpha(1000, 2, 1, 0.5, Modified()) == pytest.approx(1 - (math.log(2) / 2e6) ** (1 / 3))


@given(st.floats(min_value=0.01, max_value=0.98))
def test_p_alpha_increasing_in_alpha(alpha):
    assert formulas.p_alpha(100, 2, 2, alpha + 0.01, Standard(2)) > formulas.p_alpha(100, 2, 2, alpha, Standard(2))


def test_p_alpha_limit_behavior():
    assert formulas.p_alpha(100, 2, 2, 1 - 1e-12, Standard(2)) > 0.99


@pytest.mark.parametrize("rule", [Standard(1), Modified()], ids=["standard", "modified"])
def test_leading_order_domain_is_d_ge_1_and_n_ge_2(rule):
    for d in (0, -1):
        with pytest.raises(ValueError, match="d must be >= 1"):
            formulas.lambda_leading(10, d, 1, 0.1, rule)
        with pytest.raises(ValueError, match="d must be >= 1"):
            formulas.p_alpha(10, d, 1, 0.5, rule)
        with pytest.raises(ValueError, match="t and d"):
            formulas.m(1, d)
        with pytest.raises(ValueError, match="t and d"):
            formulas.ell(1, d)
    for n in (1, 0, -5):
        with pytest.raises(ValueError, match="n must be >= 2"):
            formulas.lambda_leading(n, 1, 1, 0.1, rule)
        with pytest.raises(ValueError, match="n must be >= 2"):
            formulas.q_at_lambda(2.0, n, 1, 1, rule)


def test_stein_chen_zero_rho1():
    offs = dependency_offsets(2, 1)
    assert formulas.stein_chen_rhs(64, 2, 1, 0.0, {o: 0.0 for o in offs}) == 0.0


def test_stein_chen_product_identity():
    n, d, t = 64, 2, 1
    rho1 = 1e-4
    offs = dependency_offsets(d, t)
    rhs = formulas.stein_chen_rhs(n, d, t, rho1, {o: rho1 * rho1 for o in offs})
    lam = n**d * rho1
    expected = min(1.0, 1.0 / lam) * n**d * (2 * ball_size(d, 2 * t + 1) - 1) * rho1**2
    assert rhs == pytest.approx(expected)


def test_stein_chen_missing_offsets_rejected():
    with pytest.raises(ValueError, match="missing"):
        formulas.stein_chen_rhs(64, 2, 1, 1e-4, {})


def test_stein_chen_boundary_fill():
    # leaving out the norm-(2t+1) offsets is the same as supplying rho1^2 there
    n, d, t = 64, 2, 1
    rho1 = 1e-4
    inner = {o: 3e-9 for o in dependency_offsets(d, t) if sum(abs(c) for c in o) < 3}
    full = inner | {o: rho1 * rho1 for o in dependency_offsets(d, t) if o not in inner}
    assert formulas.stein_chen_rhs(n, d, t, rho1, inner) == formulas.stein_chen_rhs(n, d, t, rho1, full)


def test_poisson_pmf_basics():
    assert formulas.poisson_pmf(0, 0.7) == pytest.approx(math.exp(-0.7))
    assert formulas.poisson_pmf(-1, 0.7) == 0.0
    assert formulas.poisson_pmf(0, 0.0) == 1.0
    assert sum(formulas.poisson_pmf(k, 3.0) for k in range(80)) == pytest.approx(1.0)
