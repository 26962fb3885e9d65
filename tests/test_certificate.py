import json
import math

import pytest

from mnlab import certificate as cert
from mnlab import hypotheses as hyp
from mnlab.hypotheses import build_family


class TestRateTable:
    def test_reference_exponents(self):
        rows = {(r.model, r.q, r.alpha): r.exponent
                for r in cert.rate_table([0.6, 1.0, 2.0], [0.0, 0.5, 1.0])}
        assert rows[("m1", None, 1.0)] == pytest.approx(-1.0 / 6.0)
        assert rows[("m3", None, 1.0)] == pytest.approx(-1.0 / 12.0)
        assert rows[("m1", None, 0.6)] == pytest.approx(-0.6 / 4.4)
        assert rows[("m3", None, 2.0)] == pytest.approx(-0.1)

    @pytest.mark.parametrize("alpha", [0.6, 0.7, 1.0, 1.3, 2.0])
    def test_kernel_power_specialisation(self, alpha):
        # one formula, bit for bit the per-model closed forms
        assert cert.rate_exponent("mq", alpha, 0.0) == cert.rate_exponent("m1", alpha) \
            == cert.rate_exponent("m2", alpha) == -alpha / (4.0 * alpha + 2.0)
        assert cert.rate_exponent("mq", alpha, 1.0) == cert.rate_exponent("m3", alpha) \
            == -alpha / (8.0 * alpha + 4.0)

    @pytest.mark.parametrize("q", [None, -0.5])
    def test_kernel_power_row_needs_q_at_least_zero(self, q):
        with pytest.raises(ValueError, match="kernel power q must be >= 0"):
            cert.rate_exponent("mq", 1.0, q)


class TestEvaluate:
    def test_parameter_guards(self):
        with pytest.raises(ValueError, match="n > 262144"):
            cert.evaluate("m1", 262145, 1.0, 1.0, 0.1, 8.0, 0.09)
        for model in ("m2", "m3"):
            with pytest.raises(ValueError, match="n > 4096"):
                cert.evaluate(model, 4097, 1.0, 1.0, 0.1, 8.0, 0.09)
        with pytest.raises(ValueError):
            cert.evaluate("m1", 256, 1.0, 1.0, 0.1, 8.0, 0.2)
        with pytest.raises(ValueError, match="max_hypotheses must be >= 1"):
            cert.evaluate("m1", 256, 1.0, 1.0, 0.1, 8.0, 0.09, max_hypotheses=0)
        with pytest.raises(ValueError, match=r"bump count m = \d+ < 8"):
            cert.evaluate("m1", 256, 1.0, 1.0, 0.1, 0.5, 0.09)

    def test_m2_certificate_contents(self):
        result = cert.evaluate("m2", 256, 1.0, 1.0, 0.1, 8.0, 0.09, seed=7)
        assert result.cond_i
        assert result.cond_iii.passed
        assert result.cond_iii.bound_preconditions_ok
        assert result.cond_iii.bound_c == pytest.approx(1.0 / 14.0)
        for row in result.details["per_hypothesis"]:
            assert row["kl"] <= row["frobenius_bound"] + 1e-9
        # separation threshold is asymptotic; at desk n it is not reached
        assert not result.cond_ii.passed
        assert result.overall_pass == (
            result.cond_i and result.cond_ii.passed and result.cond_iii.passed
        )

    @pytest.mark.parametrize("model, alpha, c", [
        ("m1", 0.6, 20.0), ("m1", 1.0, 12.0), ("m1", 2.0, 30.0),
        ("m2", 0.6, 14.0), ("m2", 1.0, 24.0), ("m2", 2.0, 16.0),
        ("m3", 0.6, 30.0), ("m3", 1.0, 16.0), ("m3", 2.0, 40.0),
    ])
    def test_separation_consistency_with_closed_form(self, model, alpha, c):
        # condition (ii) comes from the code distance and the closed form;
        # the quadrature over every codeword pair is the oracle.  Six of
        # the nine families (m = 25..36) draw a random code.
        from mnlab.hypotheses import hamming, l2_separation

        result = cert.evaluate(model, 256, alpha, 1.0, 0.1, c, 0.09,
                               max_hypotheses=2, seed=7)
        family = build_family(256, alpha, 1.0, c, "m3" if model == "m3" else "m1m2",
                              seed=7)
        words = family.codewords
        pairs = [(i, j) for i in range(len(words)) for j in range(i + 1, len(words))]
        assert result.cond_ii.min_separation == pytest.approx(
            math.sqrt(min(l2_separation(family, i, j) for i, j in pairs)), rel=1e-12)
        assert result.details["min_separation_hamming"] == \
            min(hamming(words[i], words[j]) for i, j in pairs)

    def test_m3_ordering_flag(self):
        c = 14.001 / 256 ** (1.0 / 12.0)
        result = cert.evaluate("m3", 256, 1.0, 1.0, 0.1, c, 0.09, seed=7)
        assert result.details["ordering_psd_all"]
        assert result.cond_iii.bound_c == 1.0
        assert result.cond_iii.passed

    def test_deterministic_and_json_ready(self):
        a = cert.evaluate("m2", 128, 1.0, 1.0, 0.1, 9.0, 0.09, seed=3)
        b = cert.evaluate("m2", 128, 1.0, 1.0, 0.1, 9.0, 0.09, seed=3)
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)

    def test_workers_do_not_change_results(self):
        a = cert.evaluate("m2", 128, 1.0, 1.0, 0.1, 9.0, 0.09, seed=3, workers=1)
        b = cert.evaluate("m2", 128, 1.0, 1.0, 0.1, 9.0, 0.09, seed=3, workers=3)
        da, db = a.to_dict(), b.to_dict()
        da["details"].pop("workers")
        db["details"].pop("workers")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_feasible_c_boundary_by_bisection(self):
        # below the bump-count boundary the family cannot be built; at the
        # boundary the divergence condition already certifies
        n, alpha = 1024, 1.0
        lo, hi = 0.5, 14.001 / n ** (1.0 / (4 * alpha + 2))
        with pytest.raises(ValueError, match=r"bump count m = \d+ < 8"):
            cert.evaluate("m2", n, alpha, 1.0, 0.1, lo, 0.09)
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            try:
                build_family(n, alpha, 1.0, mid, "m1m2")
                hi = mid
            except ValueError as exc:
                assert "< 8" in str(exc)
                lo = mid
        c_star = hi
        result = cert.evaluate("m2", n, alpha, 1.0, 0.1, c_star, 0.09, seed=1)
        assert result.family["m"] == 8
        assert result.cond_iii.passed


class TestTwoPoint:
    def test_zero_contrast(self):
        result = cert.two_point_certificate_m3(256, 1.0, 4.0, 0.0, 0.1)
        assert result.cond_iii.avg_kl == 0.0
        assert result.family["separation_sq"] == 0.0

    def test_small_contrast_certifies(self):
        result = cert.two_point_certificate_m3(256, 1.0, 4.0, 0.3, 0.1)
        assert result.cond_iii.avg_kl <= 0.09 * math.log(2.0)
        assert result.cond_iii.passed
        assert result.details["ordering_psd_all"]
        assert result.family["separation_sq"] == pytest.approx(
            0.09 * 256 ** (-0.25)
        )

    def test_monotone_in_contrast(self):
        kls = [
            cert.two_point_certificate_m3(128, 1.0, 9.0, c, 0.1).cond_iii.avg_kl
            for c in (0.1, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a < b for a, b in zip(kls, kls[1:]))

    def test_contrast_cap(self):
        with pytest.raises(ValueError):
            cert.two_point_certificate_m3(256, 1.0, 1.1, 5.0, 0.1)


class TestKLScaling:
    def test_noise_level_monotonicity(self):
        kls = [
            cert.kl_scaling_probe("m1", 1.0, 1.0, tau, [128]).kl_values[0]
            for tau in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a > b for a, b in zip(kls, kls[1:]))

    def test_m1_slope_short_range(self):
        result = cert.kl_scaling_probe("m1", 1.0, 1.0, 0.1, [256, 512, 1024])
        assert abs(result.slope - 0.5) <= 0.1
        assert result.predicted_slope == 0.5
        assert len(result.to_dict()["rows"]) == 3

    @pytest.mark.parametrize("n_list", [[3, 5, 7], [64, 5], [7, 128, 256]])
    def test_zero_kl_names_its_n(self, n_list):
        # m2 reads sigma(t_i) on the grid: at n = 3, 5 and 7 no grid point
        # lies in the default bump, and log(0) has no slope
        zero = next(n for n in n_list if n < 8)
        with pytest.raises(ValueError, match=f"KL is 0 at n = {zero}:"):
            cert.kl_scaling_probe("m2", 1.0, 1.0, 0.1, n_list)

    @pytest.mark.parametrize("n_list, repeated", [
        ([256, 256], 256), ([256, 256, 512], 256), ([512, 128, 512], 512)])
    def test_a_repeated_size_is_rejected_before_any_kl(self, n_list, repeated,
                                                        monkeypatch):
        # it would count twice in the slope and its standard error
        monkeypatch.setattr(cert, "compare", lambda *args: pytest.fail("KL computed"))
        with pytest.raises(ValueError, match=f"repeat n = {repeated}$"):
            cert.kl_scaling_probe("m1", 1.0, 1.0, 0.1, n_list)

    def test_distinct_sizes_in_any_order_are_accepted(self):
        result = cert.kl_scaling_probe("m1", 1.0, 1.0, 0.1, [512, 128, 256])
        assert result.n_list == (512, 128, 256)
        ascending = cert.kl_scaling_probe("m1", 1.0, 1.0, 0.1, [128, 256, 512])
        assert result.kl_values == tuple(ascending.kl_values[i] for i in (2, 0, 1))

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            cert.kl_scaling_probe("mq", 1.0, 1.0, 0.1, [128])

    def test_desk_bounds(self):
        # every model compares on the bump support against a banded null
        assert cert.kl_scaling_probe("m1", 1.0, 1.0, 0.1, [131072]).kl_values[0] > 0.0
        with pytest.raises(ValueError, match="n > 1048576"):
            cert.kl_scaling_probe("m1", 1.0, 1.0, 0.1, [1048577])
        with pytest.raises(ValueError, match="n > 16384"):
            cert.kl_scaling_probe("m3", 1.0, 1.0, 0.01, [32768])
        assert cert.kl_scaling_probe("m2", 1.0, 1.0, 0.02, [8192]).kl_values[0] > 0.0
        with pytest.raises(ValueError, match="n > 16384"):
            cert.kl_scaling_probe("m2", 1.0, 1.0, 0.02, [32768])


def count_factors(monkeypatch):
    from mnlab import kl, linalg

    calls = []
    real = linalg.cholesky_lower

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(kl, "cholesky_lower", counting)
    monkeypatch.setattr(linalg, "cholesky_lower", counting)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_factors_each_law_once(monkeypatch, workers):
    calls = count_factors(monkeypatch)
    result = cert.evaluate("m3", 128, 1.0, 1.0, 0.05, 10.0, 0.09, seed=2,
                           workers=workers)
    # the null law once, then each alternative's law once
    assert result.hypotheses_evaluated >= 2
    assert len(calls) == 1 + result.hypotheses_evaluated


@pytest.mark.parametrize("workers", [1, 2])
def test_m1_alternatives_factor_nothing(monkeypatch, workers):
    calls = count_factors(monkeypatch)
    result = cert.evaluate("m1", 128, 1.0, 1.0, 0.1, 9.0, 0.09, seed=0,
                           workers=workers)
    # the null law once; every alternative takes the tridiagonal route
    assert result.hypotheses_evaluated >= 2
    assert len(calls) == 1


@pytest.mark.parametrize("model, n, c", [("m1", 256, 9.0), ("m3", 512, 9.0)])
def test_condition_i_comes_from_the_construction(monkeypatch, model, n, c):
    # no alternative is tested on a grid: the kernel's certificate covers them
    def refuse(*args, **kwargs):
        raise AssertionError("holder_check called")

    monkeypatch.setattr(hyp, "holder_check", refuse)
    monkeypatch.setattr(cert, "holder_check", refuse, raising=False)
    result = cert.evaluate(model, n, 1.0, 1.0, 0.1, c, 0.09, seed=7)
    rows = result.details["per_hypothesis"]
    assert result.cond_i and rows
    assert all(row["in_class"] is True for row in rows)


@pytest.mark.parametrize("call, match", [
    (lambda: cert.two_point_certificate_m3(0, 1.0, 4.0, 1.0, 0.1), "n >= 2"),
    (lambda: cert.two_point_certificate_m3(-4, 1.0, 4.0, 1.0, 0.1), "n >= 2"),
    (lambda: cert.two_point_certificate_m3(8193, 1.0, 4.0, 1.0, 0.1), "n > 8192"),
    (lambda: cert.two_point_certificate_m3(256, 4.0, 4.0, 0.3, 0.1),
     "sigma_min < sigma_max"),
    (lambda: cert.two_point_certificate_m3(256, 1.0, 1e51, 0.3, 0.1),
     r"sigma_max must be at most 1e\+50"),
    (lambda: cert.two_point_certificate_m3(256, 1.0, 4.0, -0.1, 0.1), "c must be"),
    (lambda: cert.two_point_certificate_m3(256, 1.0, 4.0, 0.3, 0.1, kappa=0.0),
     "kappa"),
    (lambda: cert.two_point_certificate_m3(256, 1.0, 4.0, 0.3, 0.1, kappa=0.1),
     "kappa"),
    (lambda: cert.two_point_certificate_m3(256, 1.0, 4.0, 0.3, 0.0), "tau > 0"),
    (lambda: cert.evaluate("mq", 128, 1.0, 1.0, 0.1, 9.0, 0.09), "models m1"),
    (lambda: cert.evaluate("m1", 128, 1.0, 1.0, 0.0, 9.0, 0.09), "tau > 0"),
    (lambda: cert.kl_scaling_probe("m1", 1.0, 1.0, 0.0, [128]), "tau > 0"),
])
def test_rejects_out_of_range_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()
