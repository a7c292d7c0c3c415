import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpshuffle import account, build_plan, mc_rr_estimate
from dpshuffle.privacy import epsilon_cis, epsilon_is, rr_batch


class TestRRBatch:
    @pytest.mark.parametrize(
        "n1, shufflers, expected",
        [(2, 2, 1.0), (4, 2, 1 / 9), (10, 2, 1 / 81), (5, 3, 1 / 64)],
    )
    def test_exact_values(self, n1, shufflers, expected):
        assert rr_batch(n1, shufflers) == expected

    @given(n1=st.integers(2, 500), shufflers=st.integers(2, 8))
    def test_shrinks_with_scale(self, n1, shufflers):
        assert rr_batch(n1 + 1, shufflers) <= rr_batch(n1, shufflers)
        assert rr_batch(n1, shufflers + 1) <= rr_batch(n1, shufflers)
        assert 0 < rr_batch(n1, shufflers) <= 1

    def test_rejects_degenerate_scales(self):
        with pytest.raises(ValueError, match="at least 2"):
            rr_batch(1, 2)
        with pytest.raises(ValueError, match="at least 2 shufflers"):
            rr_batch(4, 1)


class TestEpsilonIs:
    def test_smallest_configuration_is_zero(self):
        assert epsilon_is(1, 2, 2) == 0.0

    def test_hundred_batches_of_ten(self):
        assert epsilon_is(100, 10, 2) == pytest.approx(
            math.log(100 / 81), rel=1e-15
        )
        assert epsilon_is(100, 10, 2) == pytest.approx(0.2107, abs=5e-5)

    def test_headline_configuration(self):
        assert epsilon_is(10_000, 100, 2) == pytest.approx(0.0201, abs=1e-4)

    def test_grows_with_batch_count(self):
        budgets = [epsilon_is(t, 50, 2) for t in (1, 10, 100, 1000)]
        assert budgets == sorted(budgets)
        assert len(set(budgets)) == len(budgets)

    def test_rejects_zero_batches(self):
        with pytest.raises(ValueError, match="batch count"):
            epsilon_is(0, 10, 2)

    @settings(max_examples=300, deadline=None)
    @given(
        t=st.integers(1, 10**6),
        n1=st.integers(2, 10**4),
        shufflers=st.integers(2, 8),
    )
    def test_differs_from_cumulative_by_log_batch_count(
        self, t, n1, shufflers
    ):
        gap = epsilon_is(t, n1, shufflers) - epsilon_cis(n1, shufflers)
        assert abs(gap - math.log(t)) <= 1e-12


class TestEpsilonCis:
    def test_pair_batches_cost_nothing(self):
        assert epsilon_cis(2, 2) == 0.0
        assert epsilon_cis(2, 7) == 0.0

    def test_seven_rows_three_shufflers(self):
        assert epsilon_cis(7, 3) == pytest.approx(-3 * math.log(6), rel=1e-12)

    @given(n1=st.integers(3, 10**6), shufflers=st.integers(2, 8))
    def test_negative_beyond_pairs(self, n1, shufflers):
        assert epsilon_cis(n1, shufflers) < 0


class TestHugeScales:
    """(n1-1)^S past the float range: the ratio underflows to 0.0."""

    def test_budgets_come_from_logs_when_the_ratio_underflows(self):
        assert rr_batch(100, 200) == 0.0
        assert epsilon_is(3, 100, 200) == math.log(3) - 200 * math.log(99)
        assert epsilon_cis(100, 200) == -200 * math.log(99)
        acct = account("IS", [100, 100, 100], 200)
        assert acct.epsilon == epsilon_is(3, 100, 200)

    def test_budget_comes_from_logs_when_the_ratio_overflows(self):
        # t / (n1-1)^S is past the float range; its log is not.
        t = 10**400
        assert epsilon_is(t, 3, 2) == math.log(t) - 2 * math.log(2)

    @pytest.mark.parametrize(
        "t, n1, shufflers",
        # Normal ratios, subnormal ones, and the last finite ones.
        [(3, 100, 150), (1, 100, 154), (10**6, 100, 155), (1, 100, 160),
         (7, 2**20, 50), (1, 10**6, 53)],
    )
    def test_finite_budgets_keep_the_log_of_the_ratio(self, t, n1, shufflers):
        ratio = t / (n1 - 1) ** shufflers
        assert ratio > 0
        assert epsilon_is(t, n1, shufflers) == math.log(ratio)
        if (n1 - 1) ** shufflers < 2**1024:
            cis_ratio = 1.0 / (n1 - 1) ** shufflers
            assert epsilon_cis(n1, shufflers) == math.log(cis_ratio)


class TestAccount:
    def test_per_batch_accounting(self):
        acct = account("IS", (4, 4, 3), 2)
        assert acct.mode == "IS"
        assert acct.num_batches == 3
        assert acct.n1 == 4
        assert acct.epsilon == epsilon_is(3, 4, 2)

    def test_cumulative_accounting_uses_prefix_sizes(self):
        acct = account("CIS", (4, 4, 3), 2)
        assert acct.epsilon == epsilon_cis(4, 2)
        assert acct.epsilon_report == -acct.epsilon > 0

    def test_cumulative_tolerates_trailing_single_row(self):
        # The lone row joins a prefix of 3, so every stage stays defined;
        # per-batch accounting must reject the same sizes.
        acct = account("CIS", (2, 1), 2)
        assert acct.epsilon == epsilon_cis(2, 2)
        with pytest.raises(ValueError, match="stage 2 covers 1 row"):
            account("IS", (2, 1), 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown accounting mode"):
            account("is", (4, 4), 2)
        with pytest.raises(ValueError, match="non-empty"):
            account("IS", (), 2)
        with pytest.raises(ValueError, match="largest first"):
            account("IS", (3, 4), 2)
        with pytest.raises(ValueError, match="stage 1 covers 1 row"):
            account("CIS", (1, 1, 1), 2)

    @pytest.mark.parametrize("mode", ("IS", "CIS"))
    @pytest.mark.parametrize(
        "sizes",
        [(2, 1), (1, 1, 1), (3, 0), (2, 0, 0), (0,), (0, 0), (3, 3, 0, 0), (3, -2, 1)],
    )
    def test_short_stage_is_the_first_whose_scope_holds_under_2_rows(
        self, mode, sizes
    ):
        # The rule stated over every stage's scope: its batch (IS) or the
        # prefix of batches up to it (CIS).
        scopes = sizes if mode == "IS" else tuple(accumulate(sizes))
        short = [(i, s) for i, s in enumerate(scopes, 1) if s < 2]
        if short:
            stage, size = short[0]
            message = f"stage {stage} covers {size} row(s); ratios need at least 2"
            with pytest.raises(ValueError) as exc:
                account(mode, sizes, 2)
            assert str(exc.value) == message
        else:
            assert account(mode, sizes, 2).n1 == sizes[0]

    def test_plan_accounting_matches_plan_sizes(self):
        plan = build_plan(11, 3, ["a", "b"], 2, seed=6)
        acct = account("IS", plan.batch_sizes, plan.num_shufflers)
        assert plan.batch_sizes == (4, 4, 3)
        assert acct == account("IS", (4, 4, 3), 2)
        assert acct.n1 == plan.n1


class TestOracle:
    def test_estimates_unit_ratio_for_pairs(self):
        est = mc_rr_estimate(2, 2, 100_000, seed=5)
        assert est.analytic_ratio == 1.0
        assert est.deviation_in_se <= 3.0
        assert est.fixed_runs + est.displaced_runs <= est.trials

    def test_deterministic_for_a_seed(self):
        a = mc_rr_estimate(3, 2, 20_000, seed=11)
        b = mc_rr_estimate(3, 2, 20_000, seed=11)
        assert (a.ratio, a.fixed_runs, a.displaced_runs) == (
            b.ratio,
            b.fixed_runs,
            b.displaced_runs,
        )

    def test_chunked_run_matches_single_chunk_semantics(self, monkeypatch):
        # 20k trials of 2 x 3 keys fit one chunk; a 42-key budget splits
        # them into 7-trial chunks.  The counts must not move.
        whole = mc_rr_estimate(3, 2, 20_000, seed=2)
        monkeypatch.setattr("dpshuffle.privacy._ORACLE_KEYS", 42)
        chunked = mc_rr_estimate(3, 2, 20_000, seed=2)
        assert chunked == whole
        assert whole.deviation_in_se <= 4.0

    def test_degenerate_estimate_is_refused(self):
        # Slot 0 stays put under all three shufflers with odds 1e-9.
        with pytest.raises(ValueError, match="degenerate estimate"):
            mc_rr_estimate(1000, 3, 10_000, seed=0)

    def test_rejects_thin_trials(self):
        with pytest.raises(ValueError, match="at least 10000 trials"):
            mc_rr_estimate(3, 2, 9_999, seed=0)
