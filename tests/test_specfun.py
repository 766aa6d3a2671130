"""Special-function kernels against frozen high-precision references.

Reference values were computed once with mpmath at 40 significant digits
and frozen here; one hypothesis test also draws its references from
mpmath.  The library itself never depends on mpmath.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from weberosc import specfun
from weberosc.errors import (ConvergenceError, DomainError,
                             OverflowRangeError, PoleError)

# ---------------------------------------------------------------- references

KUMMER_REFS = [
    ((0.3, 1.2, 0.5), 1.1459145570820237),
    ((-7.875, 0.5, 12.0), 419.1338163633138),
    ((-6.875, 1.5, 30.03), -174464.69197159438),
    ((-8.125, 0.5, 7.5), -40.47904834634246),
    ((2.0, 3.0, -25.0), 0.003199999998844523),
    ((0.5, 1.5, 40.0), 2980568725898933.0),
    ((-0.3, 0.7, -12.5), 2.7692758755564095),
    # preset III basis series (A = 0.5, t = 2, 5, 8): the terms cancel by
    # 1e5 to 5e10, so these values come from the exact integer rerun
    ((-24.697916666666664, 0.5, 67.5), -452864921486823.6),
    ((-24.197916666666664, 1.5, 43.2), -32112276.104346737),
    ((-23.697916666666664, 1.5, 97.20000000000002), 3.0644419579606196e+19),
    # the heaviest preset III series at t_end = 10: cancellation 1.5e14
    ((-24.697916666666664, 0.5, 30.0), -1433.2221586358403),
    # a a few ulp from -m: the terms just past n = m are tiny, and the
    # tail then regrows to about (a + m) e^z, so a sum must not stop there
    ((-11.000000000000004, 0.5, 100.0), -72549010840113.05),
    ((-10.000000000000002, 0.5, 60.0), 138806959633.1078),
    ((-4.000000000000001, 1.5, 35.0), 14208.407407151137),
    ((-5.000000000000001, 0.5, 35.0), -847867.5185152957),
    ((-5.000000000000001, 1.5, 35.0), -64162.13131307129),
]

# (a, b, z) of KUMMER_REFS that take the exact integer rerun
KUMMER_WIDE_ARGS = KUMMER_REFS[7:11]

HERMITE_REFS = [
    ((16.25, -5.477225575051661), 1242415762257545.5),
    ((15.75, 0.0), 311143839.06913984),
    ((15.75, 2.5), -333159481.8684437),
    ((16.25, 1.3), 1334486205.755381),
    ((-0.5, 1.0), 0.6316428995634992),
    ((3.3, -2.1), -36.14981071875703),
    ((7.0, 1.234), 952.614635901623),
    # z >= 0 and high order: the recessive branch, where the 1F1 pair
    # cancels completely (the first is preset III at A = 0.5, t = 10)
    ((49.3958, 13.6931), 2.4851233224740252e+69),
    ((16.25, 8.0), 1.2195683848397867e+19),
    ((3.25, 6.0), 3053.0259259582804),
    ((7.5, 20.0), 1004886709517.9403),
    ((30.7, 25.0), 9.9114136697703e+51),
    ((-0.5, 18.0), 0.16657053959123477),
    ((-4.5, 5.0), 2.5307058290217234e-05),
    # nu a few ulp above an even integer: 1/Gamma(-nu/2) sits next to a
    # zero, so its sine needs the reduced argument to keep its sign
    ((22.000000000000008, -10.0), -7.360609955371812e+27),
]

HERMITE_DZ_REFS = [
    ((49.3958, 13.6931), 1.056420670279084e+70),
]

BESSEL_REFS = [
    (0.5, 0.9384698072408129, 0.2422684576748739),
    (3.8317, -0.4027593956953751, 2.404559043103632e-06),
    (8.9, -0.0652532468512444, 0.2559023714439759),
    (9.1, -0.11423923268319869, 0.23243074500585648),
    (25.0, 0.09626678327595811, -0.1253502495802899),
    (120.5, 0.0686910611201238, 0.02404746972070039),
    (650.0, -0.014327335075682901, 0.027812398473643418),
]

ZERO_REFS = [
    (1, 2.404825557695773),
    (2, 5.520078110286311),
    (5, 14.930917708487787),
    (50, 156.29503426853353),
    (200, 627.5333317469042),
]

J0_INTEGRAL_REFS = [
    (0.5, 0.48968050664604507),
    (5.0, 0.7153119177847678),
    (11.9, 0.7704806376798822),
    (12.1, 0.7799964103946571),
    (60.0, 1.0481087367702835),
    (627.0, 0.9725739446089868),
    # 25.6 and 941 fall inside a panel, so the rule on the partial panel
    # contributes; 941 is close to alpha_300 = 941.5, which bounds the
    # arguments of a 300-term expansion
    (25.6, 0.9471134300376906),
    (941.0, 0.9799904749424762),
]

# int_0^x J0 at x = 10 + 0.37 i, i = 0 .. 54: dense over [10, 30], where
# the integral still swings by 0.4 between its extremes
J0_INTEGRAL_DENSE_X = [10.0 + 0.37 * i for i in range(55)]
J0_INTEGRAL_DENSE = [
    1.0670113039567368, 0.975152148412687, 0.8897946587405486,
    0.8220707308248245, 0.7804080335020134, 0.7695152590034021,
    0.7898828499529665, 0.8378486705553094, 0.9062039480004964,
    0.9852456819823, 1.064126368061026, 1.1323171188012502, 1.1809901223280153,
    1.204141624559156, 1.1993147389441292, 1.1678369486554756,
    1.114552590807456, 1.047097188331853, 0.9748195285452451,
    0.9075013306714586, 0.8540477576363898, 0.8213222490225016,
    0.8132765981005927, 0.8304852523152538, 0.8701373466020024,
    0.9264785142881606, 0.9916352479102837, 1.0567052604330698,
    1.1129642454751405, 1.153026727347702, 1.1718076573474396,
    1.167160504842996, 1.1401126352782738, 1.0946735495076512,
    1.0372486789942656, 0.9757432941653137, 0.9184809042911039,
    0.8730832170675595, 0.8454615377091053, 0.8390523460906651,
    0.8543952658482873, 0.8891045680369081, 0.9382321659310879,
    0.9949679101514534, 1.0515788012193306, 1.1004582659199464,
    1.135143760061522, 1.1511671402167447, 1.146626413738459,
    1.1224061744317309, 1.0820219164218563, 1.0311139917641703,
    0.9766634626958531, 0.926038350131639, 0.8860000880231212,
]

# up to the cap of 1e4: the prefix sum there runs over 5,000 panels
J0_INTEGRAL_NEAR_CAP = [
    (3141.0, 0.9860264954071585),
    (5000.5, 0.9888123205899563),
    (7777.7, 0.9909962861864343),
    (9990.3, 0.9945580908977325),
    (9999.9, 1.0043383721434078),
    (10000.0, 1.003648160335069),
]


# ------------------------------------------------------------- frozen values

@pytest.mark.parametrize("args,expected", KUMMER_REFS)
def test_kummer_1f1_reference_values(args, expected):
    assert specfun.kummer_1f1(*args) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("args,expected", KUMMER_WIDE_ARGS)
def test_kummer_1f1_wide_path_runs(monkeypatch, args, expected):
    reruns = []
    rerun = specfun._hyp1f1_chain_exact

    def counting(*a):
        reruns.append(a)
        return rerun(*a)

    monkeypatch.setattr(specfun, "_hyp1f1_chain_exact", counting)
    assert specfun._hyp1f1(*args) == pytest.approx(expected, rel=1e-12)
    assert len(reruns) == 1


@pytest.mark.parametrize("args,expected", HERMITE_REFS)
def test_hermite_reference_values(args, expected):
    assert specfun.hermite_h(*args) == pytest.approx(expected, rel=5e-12)


@pytest.mark.parametrize("args,expected", HERMITE_DZ_REFS)
def test_hermite_dz_reference_values(args, expected):
    assert specfun.hermite_h_dz(*args) == pytest.approx(expected, rel=5e-12)


@pytest.mark.parametrize("z,j0_ref,j1_ref", BESSEL_REFS)
def test_bessel_reference_values(z, j0_ref, j1_ref):
    assert specfun.bessel_j0(z) == pytest.approx(j0_ref, abs=1e-12)
    assert specfun.bessel_j1(z) == pytest.approx(j1_ref, abs=1e-12)


@pytest.mark.parametrize("k,expected", ZERO_REFS)
def test_j0_zero_reference_values(k, expected):
    assert specfun.bessel_j0_zero(k) == pytest.approx(expected, abs=1e-11)


@pytest.mark.parametrize("x,expected", J0_INTEGRAL_REFS)
def test_j0_integral_reference_values(x, expected):
    assert specfun.bessel_j0_integral(x) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("x,expected", list(zip(
    J0_INTEGRAL_DENSE_X, J0_INTEGRAL_DENSE)) + J0_INTEGRAL_NEAR_CAP)
def test_j0_integral_absolute_accuracy(x, expected):
    assert specfun.bessel_j0_integral(x) == pytest.approx(expected, abs=1e-13)
    assert specfun.bessel_j0_integral(-x) == pytest.approx(-expected,
                                                           abs=1e-13)


# ------------------------------------------------------ structural properties

def test_series_at_origin():
    assert specfun.kummer_1f1(0.7, 1.3, 0.0) == 1.0
    assert specfun.bessel_j0(0.0) == 1.0
    assert specfun.bessel_j1(0.0) == 0.0
    assert specfun.bessel_j0_integral(0.0) == 0.0
    zero = specfun.bessel_j0_integral(np.zeros(3))
    assert isinstance(zero, np.ndarray)
    assert zero.tolist() == [0.0, 0.0, 0.0]


def test_kummer_dz_at_and_near_origin():
    """At z = 0 the derivative is a/b exactly; where the first term
    a z / b leaves the normal range the derivative is not its chain's
    sum over z, whose lost digits that division would expose."""
    for a, b in ((0.3, 1.2), (-7.875, 0.5), (2.5, 1.5)):
        assert specfun.kummer_1f1_dz(a, b, 0.0) == a / b
        assert specfun.kummer_1f1_dz(a, b, 5e-324) == a / b
        assert specfun.kummer_1f1_dz(a, b, 1e-300) == pytest.approx(
            a / b, rel=1e-15)
    # 1F1(0; b; z) = 1: a zero first term at any z
    assert specfun.kummer_1f1_dz(0.0, 0.5, 40.0) == 0.0


def test_parity():
    assert specfun.bessel_j0(-3.7) == specfun.bessel_j0(3.7)
    assert specfun.bessel_j1(-3.7) == -specfun.bessel_j1(3.7)
    assert specfun.bessel_j0_integral(-5.0) == -specfun.bessel_j0_integral(5.0)
    x = np.array([0.5, 5.0, 11.9, 12.1, 25.6, 60.0, 627.0, 941.0])
    pos = specfun.bessel_j0_integral(x)
    assert isinstance(pos, np.ndarray)
    # each element is its scalar call, bit for bit
    assert [v.hex() for v in pos.tolist()] == [
        specfun.bessel_j0_integral(v).hex() for v in x.tolist()]
    assert (specfun.bessel_j0_integral(-x) == -pos).all()


def test_j0_integral_beyond_cap_and_non_finite():
    """A finite |x| beyond the cap is refused, in an array too; +-inf
    give the limit +-1 and NaN stays NaN, next to ordinary elements."""
    cap = specfun._J0_INTEGRAL_CAP
    for x in (np.nextafter(cap, np.inf), -1e5, 1e300,
              np.array([1.0, 2.0 * cap])):
        with pytest.raises(DomainError, match="exceeds"):
            specfun.bessel_j0_integral(x)
    assert specfun.bessel_j0_integral(math.inf) == 1.0
    assert specfun.bessel_j0_integral(-math.inf) == -1.0
    assert math.isnan(specfun.bessel_j0_integral(math.nan))
    r = specfun.bessel_j0_integral(np.array([-np.inf, np.nan, 3.0, np.inf]))
    assert r[0] == -1.0 and math.isnan(r[1]) and r[3] == 1.0
    assert r[2] == specfun.bessel_j0_integral(3.0)


def test_reciprocal_gamma():
    for n in range(0, 6):
        assert specfun.reciprocal_gamma(-float(n)) == 0.0
    assert specfun.reciprocal_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert specfun.reciprocal_gamma(0.5) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-13)
    # reflection: 1/Gamma(-0.5) = -1/(2 sqrt(pi))
    assert specfun.reciprocal_gamma(-0.5) == pytest.approx(
        -0.5 / math.sqrt(math.pi), rel=1e-13)
    # next to the zeros, against mpmath.rgamma at 40 digits
    for x, ref in [(-11.99999, 4789.895005012775),
                   (-5.0000001, 1.2000002080992961e-05),
                   (-29.99999, 2.6524379417731966e+27)]:
        assert specfun.reciprocal_gamma(x) == pytest.approx(ref, rel=1e-13)


def test_kummer_pole_rejected():
    with pytest.raises(PoleError):
        specfun.kummer_1f1(0.5, 0.0, 1.0)
    with pytest.raises(PoleError):
        specfun.kummer_1f1_dz(0.5, -3.0, 1.0)


@pytest.mark.parametrize("fn, args, error", [
    (specfun.hermite_h, (413.6, -1.0), OverflowRangeError),
    (specfun.hermite_h, (413.6, 1.0), OverflowRangeError),
    (specfun.hermite_h_dz, (413.6, -1.0), OverflowRangeError),
    (specfun.reciprocal_gamma, (-200.5,), OverflowRangeError),
    (specfun.hermite_h, (300.0, -20.0), OverflowRangeError),
    (specfun.hermite_h, (math.nan, 1.0), DomainError),
    (specfun.hermite_h, (math.inf, 1.0), DomainError),
    (specfun.kummer_1f1, (1.0, 0.5, math.nan), DomainError),
    (specfun.hermite_h, (2.0, -math.inf), DomainError),
])
def test_public_scalars_raise_typed_errors(fn, args, error):
    """A result beyond the double range, raised or returned as inf, is an
    OverflowRangeError; a non-finite argument is a DomainError at once,
    not a bare ValueError or a 500-term ConvergenceError."""
    with pytest.raises(error):
        fn(*args)


def test_series_term_budget_exhausted():
    # each series stops after a fixed 500 terms; one that has not met its
    # tolerance by then refuses instead of returning a truncated sum
    with pytest.raises(ConvergenceError, match="within 500 terms"):
        specfun.kummer_1f1(0.5, 1.5, 600.0)
    # the same through the Kummer transformation (z < 0)
    with pytest.raises(ConvergenceError, match="within 500 terms"):
        specfun.kummer_1f1(-0.3, 0.7, -700.0)


def test_kummer_ode_residual():
    """z y'' + (b - z) y' - a y = 0 with derivatives by the parameter shift."""
    for a, b in [(0.3, 1.2), (-7.875, 0.5), (2.5, 1.5), (-0.25, 0.75)]:
        for z in (-40.0, -12.5, -1.0, 0.5, 7.0, 25.0, 40.0):
            y = specfun.kummer_1f1(a, b, z)
            yp = specfun.kummer_1f1_dz(a, b, z)
            ypp = (a * (a + 1.0)) / (b * (b + 1.0)) * specfun.kummer_1f1(
                a + 2.0, b + 2.0, z)
            res = z * ypp + (b - z) * yp - a * y
            assert abs(res) <= 1e-8 * max(1.0, abs(y))


def test_hermite_ode_residual():
    """v'' - 2 z v' + 2 nu v = 0 via H'_nu = 2 nu H_{nu-1}."""
    for nu in (16.25, 15.75, -0.5, 3.3, 7.0):
        for z in (-5.5, -2.0, 0.0, 1.3, 2.5):
            v = specfun.hermite_h(nu, z)
            vp = specfun.hermite_h_dz(nu, z)
            vpp = 4.0 * nu * (nu - 1.0) * specfun.hermite_h(nu - 2.0, z)
            res = vpp - 2.0 * z * vp + 2.0 * nu * v
            assert abs(res) <= 1e-8 * max(1.0, abs(v))


def test_hermite_integer_order_recurrence():
    """For integer nu the function reduces to the Hermite polynomials."""
    for z in (-2.3, -0.7, 0.41, 1.9):
        h = [specfun.hermite_h(float(n), z) for n in range(12)]
        assert h[0] == pytest.approx(1.0, rel=1e-12)
        assert h[1] == pytest.approx(2.0 * z, rel=1e-12)
        for n in range(1, 11):
            rhs = 2.0 * z * h[n] - 2.0 * n * h[n - 1]
            assert h[n + 1] == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_kummer_transformation_identity():
    """1F1(a;b;z) = e^z 1F1(b-a;b;-z)."""
    for a, b in [(0.3, 1.2), (1.25, 2.5), (-0.4, 0.9)]:
        # raw chains on both sides, where the alternating side still has
        # enough precision left (cancellation grows like e^z * eps)
        for z in (0.5, 3.0, 7.0, 10.0):
            direct = specfun._hyp1f1_chain(a, b, z)
            other = math.exp(z) * specfun._hyp1f1_chain(b - a, b, -z)
            assert other == pytest.approx(direct, rel=1e-10)
        # public evaluator out to z = 30
        for z in (11.0, 20.0, 30.0):
            direct = specfun.kummer_1f1(a, b, z)
            other = math.exp(z) * specfun.kummer_1f1(b - a, b, -z)
            assert other == pytest.approx(direct, rel=1e-10)


def test_j0_zeros_contract():
    prev = None
    for k in range(1, 201):
        ak = specfun.bessel_j0_zero(k)
        assert abs(specfun.bessel_j0(ak)) <= 1e-11
        if prev is not None:
            # consecutive spacing approaches pi from above, so always > 3
            assert ak > prev + 3.0
        prev = ak
    with pytest.raises(DomainError):
        specfun.bessel_j0_zero(0)
    # a count is an integer: a float is not truncated, a bool is not 1
    for n in (2.5, 3.0, True, "3", None):
        with pytest.raises(DomainError, match="integer"):
            specfun.bessel_j0_zeros(n)
    assert specfun.bessel_j0_zeros(np.int64(3)).tolist() == \
        specfun.bessel_j0_zeros(3).tolist()
    # each n is computed once and shared, so it cannot be written to
    zeros = specfun.bessel_j0_zeros(7)
    assert specfun.bessel_j0_zeros(7) is zeros
    with pytest.raises(ValueError):
        zeros[0] = 0.0


# ---------------------------------------------------------------- hypothesis

@settings(max_examples=40, deadline=None)
@given(a=st.floats(-5.0, 5.0), b=st.floats(0.3, 5.0), z=st.floats(-30.0, 30.0))
def test_kummer_ode_residual_random(a, b, z):
    y = specfun.kummer_1f1(a, b, z)
    yp = specfun.kummer_1f1_dz(a, b, z)
    ypp = (a * (a + 1.0)) / (b * (b + 1.0)) * specfun.kummer_1f1(
        a + 2.0, b + 2.0, z)
    assert abs(z * ypp + (b - z) * yp - a * y) <= 1e-8 * max(1.0, abs(y))


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-30.0, -5.0), b=st.sampled_from([0.5, 1.5]),
       z=st.floats(10.0, 110.0))
def test_kummer_1f1_wide_rerun_against_mpmath(a, b, z):
    """Where cancellation sends a series to the exact integer rerun, the
    result is a float within 2e-15 of mpmath at 40 digits (10,000
    rerun draws of this domain measured at most 1.06e-15)."""
    with mock.patch.object(specfun, "_hyp1f1_chain_exact",
                           wraps=specfun._hyp1f1_chain_exact) as rerun:
        y = specfun.kummer_1f1(a, b, z)
    assume(rerun.called)
    assert type(y) is float
    with mpmath.workdps(40):
        ref = mpmath.hyp1f1(a, b, z)
        assert float(abs((y - ref) / ref)) <= 2e-15


def test_kummer_1f1_near_integer_sweep():
    """a = -m moved 1 to 3 ulp either way (m = 1..30), b in {1/2, 3/2},
    z in {20, 35, 60, 100}: 1,440 points within the 1e-12 of the frozen
    references, against mpmath at 40 digits, and the 756 of them that
    take the exact rerun within 2e-15.  Just past n = m the terms are
    tiny and the tail then regrows, and further on it stays flat for
    some 30 terms, so a sum must stop at neither."""
    worst = []
    worst_rerun = []
    with mpmath.workdps(40):
        for m in range(1, 31):
            for toward in (-math.inf, math.inf):
                a = -float(m)
                for _ in range(3):
                    a = math.nextafter(a, toward)
                    for b in (0.5, 1.5):
                        for z in (20.0, 35.0, 60.0, 100.0):
                            ref = mpmath.hyp1f1(a, b, z)
                            with mock.patch.object(
                                    specfun, "_hyp1f1_chain_exact",
                                    wraps=specfun._hyp1f1_chain_exact
                                    ) as rerun:
                                y = specfun.kummer_1f1(a, b, z)
                            err = [float(abs((y - ref) / ref)), (a, b, z)]
                            worst = max(worst, err)
                            if rerun.called:
                                worst_rerun = max(worst_rerun, err)
    assert worst[0] <= 1e-12, worst
    assert worst_rerun[0] <= 2e-15, worst_rerun


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-30.0, 5.0), b=st.sampled_from([0.5, 1.5, 2.5]),
       z=st.floats(0.0, 110.0))
def test_chain_value_is_kummer_1f1(a, b, z):
    """The value a chain sums is ``kummer_1f1``, bit for bit, whether or
    not the sum reruns."""
    value = specfun._hyp1f1_chain(a, b, z)
    assert value.hex() == specfun.kummer_1f1(a, b, z).hex()


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-30.0, -5.0), b=st.sampled_from([0.5, 1.5]),
       z=st.floats(10.0, 110.0))
@example(a=-5.000000000000001, b=0.5, z=35.0)
@example(a=-5.000000000000001, b=1.5, z=35.0)
def test_chain_derivatives_against_mpmath(a, b, z):
    """Over the cancelling range, kummer_1f1_dz(a, b, z) and
    hermite_h_dz(-2a, -sqrt(z)) against mpmath at 40 digits, each error
    measured against its pair's size, so that a zero of the derivative
    does not count as a failure: sqrt(M^2 + z M'^2 / |a|) for M = 1F1 and
    sqrt(H^2 + H'^2 / (2 |nu|)) for H = H_nu.

    Where every chain a derivative needs reran in integers, the error is
    within 1e-13 (at most 2.2e-14 in 10,000 draws).  Elsewhere a float
    sum may hold terms up to ``_WIDE_CANCEL`` times larger than itself
    (at most 2.1e-12 in the same draws), so the bound is 5e-12.

    H_nu's reference takes the weights 1/Gamma((1-nu)/2) and
    1/Gamma(-nu/2) as the doubles the library uses, so that only the
    sums are checked here; ``test_reciprocal_gamma`` checks the weights.
    """
    with mock.patch.object(specfun, "_hyp1f1_chain_exact",
                           wraps=specfun._hyp1f1_chain_exact) as rerun:
        yp = specfun.kummer_1f1_dz(a, b, z)
        k_reruns = rerun.call_count
        nu, u = -2.0 * a, -math.sqrt(z)
        hp = specfun.hermite_h_dz(nu, u)
        h_reruns = rerun.call_count - k_reruns
    g1, g2, _ = specfun._hermite_weights(nu)
    with mpmath.workdps(40):
        m = mpmath.hyp1f1(a, b, z)
        mp = a / mpmath.mpf(b) * mpmath.hyp1f1(a + 1.0, b + 1.0, z)
        size = mpmath.sqrt(m ** 2 + z * mp ** 2 / abs(a))
        err = float(abs(yp - mp) * mpmath.sqrt(z / abs(a)) / size)
        assert err <= (1e-13 if k_reruns else 5e-12)

        w = u * u
        k, kb = -0.5 * nu, 0.5 * (1.0 - nu)
        scale = mpmath.sqrt(mpmath.pi) * mpmath.mpf(2) ** nu
        h = scale * (g1 * mpmath.hyp1f1(k, 0.5, w)
                     - g2 * 2 * u * mpmath.hyp1f1(kb, 1.5, w))
        ref = scale * (g1 * 2 * u * k / mpmath.mpf(0.5)
                       * mpmath.hyp1f1(k + 1.0, 1.5, w)
                       - 2 * g2 * mpmath.hyp1f1(kb, 0.5, w))
        size = mpmath.sqrt(h ** 2 + ref ** 2 / (2.0 * abs(nu)))
        err = float(abs(hp - ref) / math.sqrt(2.0 * abs(nu)) / size)
        assert err <= (1e-13 if h_reruns == 2 else 5e-12)


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(-60.0, 60.0), u=st.floats(0.0, 26.0))
def test_hermite_recessive_against_mpmath(nu, u):
    """For u >= 0 the pair (H_nu, H_{nu-1}) is within 1e-13 of mpmath at
    40 digits, measured against the pair's size sqrt(H_nu^2 + 2|nu|
    H_{nu-1}^2) so that a zero of H_nu does not count as a failure."""
    h, h_prev = specfun._hermite_recessive(nu, u)
    with mpmath.workdps(40):
        ref = mpmath.hermite(nu, u)
        ref_prev = mpmath.hermite(nu - 1.0, u)
        size = mpmath.sqrt(ref ** 2 + 2.0 * abs(nu) * ref_prev ** 2)
        assert float(abs(h - ref) / size) <= 1e-13
        assert float(abs(h_prev - ref_prev) * math.sqrt(2.0 * abs(nu))
                     / size) <= 1e-13
    assert specfun.hermite_h(nu, u) == h
    assert specfun.hermite_h_dz(nu, u) == 2.0 * nu * h_prev


@settings(max_examples=40, deadline=None)
@given(z=st.floats(0.0, 650.0))
def test_bessel_pythagorean_magnitude_random(z):
    # J0^2 + J1^2 decays monotonically and stays within (0, 1]
    m = specfun.bessel_j0(z) ** 2 + specfun.bessel_j1(z) ** 2
    assert 0.0 < m <= 1.0 + 1e-12
