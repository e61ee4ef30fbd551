"""Paired t-test and the t-distribution tail."""

import math
import sys

import pytest
from hypothesis import given, strategies as st

from hapaxprior import DegenerateTTestError, paired_t, two_sided_p


def t_tail_by_quadrature(t, df, steps=20_000):
    """P(|T| >= t) by Simpson integration of the t density over [0, t].

    Independent of the incomplete-beta route used by the implementation.
    """
    t = abs(float(t))
    if t == 0.0:
        return 1.0
    log_norm = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )

    def pdf(x):
        return math.exp(log_norm - (df + 1) / 2.0 * math.log1p(x * x / df))

    h = t / steps
    acc = pdf(0.0) + pdf(t)
    for i in range(1, steps):
        acc += (4 if i % 2 else 2) * pdf(i * h)
    central = acc * h / 3.0
    return 1.0 - 2.0 * central


# two-sided critical values from a standard t table
CRITICAL_VALUES = [
    (1, 12.706, 0.05),
    (4, 2.776, 0.05),
    (9, 2.262, 0.05),
    (9, 3.250, 0.01),
    (30, 2.042, 0.05),
    (100, 1.984, 0.05),
]


class TestTail:
    @pytest.mark.parametrize("df,t,p", CRITICAL_VALUES)
    def test_recovers_table_critical_values(self, df, t, p):
        assert two_sided_p(t, df) == pytest.approx(p, abs=5e-4)

    @pytest.mark.parametrize("df", [1, 2, 5, 9, 30, 200, 1000])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.262, 5.0, 13.4])
    def test_matches_quadrature(self, df, t):
        assert two_sided_p(t, df) == pytest.approx(t_tail_by_quadrature(t, df), abs=1e-6)

    def test_zero_t_gives_one(self):
        assert two_sided_p(0.0, 9) == pytest.approx(1.0)

    def test_symmetric_in_sign(self):
        assert two_sided_p(-2.5, 7) == two_sided_p(2.5, 7)

    def test_monotone_decreasing_in_t(self):
        ps = [two_sided_p(t / 4.0, 9) for t in range(0, 60)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            two_sided_p(1.0, 0)

    def test_nan_t_gives_nan(self):
        assert math.isnan(two_sided_p(float("nan"), 9))

    def test_matches_scipy_incomplete_beta_at_printed_precision(self):
        special = pytest.importorskip("scipy.special")
        dfs = [*range(1, 61), 99, 100, 199, 200, 499, 999, 1000]
        # t from 0 to 2e10, dense enough to reach the tails where scipy gives 0.0
        ts = [0.0] + [10 ** (i / 100) for i in range(-400, 1031)]
        checked = zeros = 0
        for df in dfs:
            for t in ts:
                want = float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))
                if 0.0 < want < sys.float_info.min:
                    continue  # scipy's subnormal tails; two_sided_p gives 0.0 there
                assert f"{two_sided_p(t, df):.6g}" == f"{want:.6g}", (df, t)
                checked += 1
                zeros += want == 0.0
        assert checked > 90_000 and zeros > 1_000, (checked, zeros)


class TestPairedT:
    def test_closed_form_1_2_3(self):
        res = paired_t([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert res.t == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-9)
        assert res.df == 2
        assert res.mean_diff == pytest.approx(2.0)
        assert res.sd_diff == pytest.approx(1.0)

    def test_identical_series(self):
        res = paired_t([1.5, 2.5, 3.5], [1.5, 2.5, 3.5])
        assert res.t == 0.0 and res.p_two_sided == 1.0

    def test_constant_nonzero_differences_error(self):
        with pytest.raises(DegenerateTTestError):
            paired_t([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_and_short_series(self):
        with pytest.raises(ValueError):
            paired_t([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            paired_t([1.0], [2.0])

    def test_antisymmetry(self):
        x, y = [1.0, 4.0, 2.0, 8.0], [0.5, 5.0, 1.0, 6.0]
        a, b = paired_t(x, y), paired_t(y, x)
        assert a.t == pytest.approx(-b.t)
        assert a.p_two_sided == pytest.approx(b.p_two_sided)

    @given(
        # dyadic values keep the shifted subtraction exact, so the
        # invariance is not blurred by float absorption
        d=st.lists(st.integers(-1600, 1600).map(lambda v: v / 16), min_size=3, max_size=12),
        shift=st.integers(-50, 50).map(float),
        scale=st.floats(0.01, 50),
    )
    def test_shift_invariance_and_scale_equivariance(self, d, shift, scale):
        x = [float(i) for i in range(len(d))]
        y = [a - b for a, b in zip(x, d)]
        try:
            base = paired_t(x, y)
        except DegenerateTTestError:
            return
        shifted = paired_t([v + shift for v in x], [v + shift for v in y])
        assert shifted.t == pytest.approx(base.t, rel=1e-6, abs=1e-9)
        scaled = paired_t([v * scale for v in x], [v * scale for v in y])
        assert scaled.t == pytest.approx(base.t, rel=1e-6, abs=1e-9)

    def test_df_is_n_minus_one(self):
        assert paired_t(list(range(10)), [0.5] * 10).df == 9
