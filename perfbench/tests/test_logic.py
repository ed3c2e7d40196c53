"""Unit tests for the benchmark's own arithmetic, on synthetic spans, made-up
bin counts and tiny arrays. None of them runs the CLI; the Levy-gate tests
call levysid's sigma estimator.

    python3 -m pytest -p no:benchmark perfbench/tests
"""

import math

import pytest

from checks import levy_gate, levy_tolerances, rmse
from run import expected_counts, layer_metrics
from tracing import Span, Tracer, median_of_reps, self_times


def span(name, start, end, parent=None, replay=False, counts=None, rss=1.0):
    return Span(name, start, end, parent, "r", replay, counts or {}, rss)


class TestMedianOfReps:
    def test_odd_count_picks_middle(self):
        reps = [{"wall_s": 3.0}, {"wall_s": 1.0}, {"wall_s": 2.0}]
        assert median_of_reps(reps) == {"wall_s": 2.0}

    def test_even_count_averages_middle_pair(self):
        reps = [{"a": 1.0, "b": 10.0}, {"a": 4.0, "b": 40.0},
                {"a": 2.0, "b": 20.0}, {"a": 100.0, "b": 30.0}]
        assert median_of_reps(reps) == {"a": 3.0, "b": 25.0}

    def test_outlier_does_not_move_median(self):
        reps = [{"x": v} for v in (5.0, 5.1, 4.9, 500.0, 5.0)]
        assert median_of_reps(reps)["x"] == 5.0

    def test_mismatched_metrics_raise(self):
        with pytest.raises(ValueError):
            median_of_reps([{"a": 1.0}, {"b": 1.0}])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median_of_reps([])


class TestSelfTimes:
    def test_leaf_self_is_duration(self):
        assert self_times([span("a", 1.0, 3.5)]) == [2.5]

    def test_children_subtracted(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 3.0, 0), span("b", 4.0, 8.0, 0)]
        assert self_times(spans) == pytest.approx([4.0, 2.0, 4.0])

    def test_only_direct_children_count(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 9.0, 0), span("aa", 2.0, 5.0, 1)]
        assert self_times(spans) == pytest.approx([2.0, 5.0, 3.0])

    def test_overlapping_children_not_subtracted_twice(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 6.0, 0)]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_child_clipped_to_parent(self):
        spans = [span("root", 0.0, 4.0), span("a", 3.0, 9.0, 0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_tracer_nesting_and_json_round_trip(self):
        tracer = Tracer("run-1")
        with tracer.span("root"):
            with tracer.span("child") as child:
                child.counts["rows"] = 7
            with tracer.span("replayed", replay=True):
                pass
        names = [(s.name, s.parent, s.replay) for s in tracer.spans]
        assert names == [("root", None, False), ("child", 0, False), ("replayed", 0, True)]
        assert all(s.run_id == "run-1" and s.end >= s.start for s in tracer.spans)
        own = self_times(tracer.spans)
        assert own[0] <= tracer.spans[0].duration
        assert tracer.to_json()[1]["counts"] == {"rows": 7}


class TestLayerMetrics:
    def test_sums_commands_and_derives(self):
        sim = {"spans": [
            span("cli.simulate", 0.0, 10.0).__dict__,
            span("cli.import", 0.0, 1.0, 0, rss=30.0).__dict__,
            span("simulate.simulate_pairs", 1.0, 3.0, 0, counts={"simulate.rows": 100},
                 rss=80.0).__dict__,
            span("kernels.noise", 3.0, 4.0, 0, replay=True,
                 counts={"kernels.draws": 1200}, rss=99.0).__dict__,
            span("dataio.write_dataset", 4.0, 6.0, 0,
                 counts={"dataio.bytes_written": 4800}, rss=90.0).__dict__,
        ]}
        est = {"spans": [
            span("cli.estimate", 0.0, 8.0).__dict__,
            span("cli.import", 0.0, 1.5, 0, rss=31.0).__dict__,
            span("estimate.cube_filter", 2.0, 2.5, 0,
                 counts={"estimate.survivors": 40}).__dict__,
            span("estimate.regression_tables", 2.5, 6.0, 0).__dict__,
            span("basis.design_matrix", 6.0, 7.0, 0, replay=True,
                 counts={"basis.entries": 400}).__dict__,
        ]}
        m, replay_s = layer_metrics([sim, est])
        assert m["cli.import_s"] == pytest.approx(2.5)
        assert m["cli.self_s"] == pytest.approx((10.0 - 6.0) + (8.0 - 6.5))
        assert m["estimate.gram_solve_s"] == pytest.approx(3.5 - 1.0)
        assert m["estimate.survival_ratio"] == pytest.approx(0.4)
        assert m["kernels.draws"] == 1200 and m["basis.entries"] == 400
        assert m["dataio.bytes_read"] == 0 and m["dataio.read_dataset_s"] == 0.0
        assert m["cli.import.rss_after_mb"] == 31.0
        assert m["simulate.simulate_pairs.rss_after_mb"] == 80.0
        assert replay_s == pytest.approx(2.0)

    def test_missing_kernel_span_omits_kernel_metrics(self):
        trace = {"spans": [span("cli.pipeline", 0.0, 1.0).__dict__,
                           span("simulate.simulate_pairs", 0.1, 0.2, 0,
                                counts={"simulate.rows": 5}).__dict__]}
        m, _ = layer_metrics([trace])
        assert not any(k.startswith("kernels.") for k in m)
        assert m["simulate.rows"] == 5

    def test_expected_counts_from_report(self):
        report = {"dataset": {"M": 1000, "n": 3}, "survival_fraction": 0.997,
                  "dictionary": {"names": ["1", "x1"]},
                  "levy": [{"bins_positive": [3, 1], "bins_negative": [2, 0]},
                           {"bins_positive": [1, 0], "bins_negative": [0, 0]}]}
        c = expected_counts(report, 4242, reads_dataset=False)
        assert c == {"simulate.rows": 1000, "kernels.draws": 12000,
                     "dataio.bytes_written": 4242, "dataio.bytes_read": 0,
                     "estimate.tail_counts": 7, "estimate.survivors": 997,
                     "basis.entries": 1994}


class TestRmse:
    def test_known_value(self):
        assert rmse([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 6.0]) == pytest.approx(1.0)

    def test_zero_for_identical(self):
        assert rmse([0.5, -1.5], [0.5, -1.5]) == 0.0

    def test_sign_does_not_matter(self):
        assert rmse([0.0, 0.0], [3.0, -3.0]) == pytest.approx(3.0)

    @pytest.mark.parametrize("pred, truth", [([1.0, 2.0], [1.0]), ([], []),
                                             ([1.0, math.nan], [1.0, 2.0]),
                                             ([1.0, 2.0], [math.inf, 2.0])])
    def test_rejects_bad_input(self, pred, truth):
        with pytest.raises(ValueError):
            rmse(pred, truth)


class TestLevyGate:
    EST = {"epsilon": 1.0, "m": 5.0, "N": 2, "cube_epsilon": 0.5}
    RICH = ([1900, 900, 400], [630, 290, 130])     # lorenz3d component 1, 4e6 rows
    M, H = 4_096_000, 1e-3

    def tolerances(self, alpha, pos, neg):
        return levy_tolerances(alpha, pos, neg, self.M, self.H, self.EST)

    def report(self, alpha, beta, sigma, pos, neg):
        return {"estimation": self.EST, "dataset": {"M": self.M, "h": self.H},
                "levy": [{"component": 1, "alpha": alpha, "beta": beta,
                          "sigma": sigma, "bins_positive": pos, "bins_negative": neg}]}

    def test_rich_counts_give_tight_tolerance(self):
        ta, tb, ts = self.tolerances(0.5, *self.RICH)
        assert ta < 0.15 and tb < 0.15 and ts < 1.0

    def test_sparse_counts_give_wide_tolerance(self):
        rich = self.tolerances(1.5, [1900, 190, 19], [630, 60, 6])
        sparse = self.tolerances(1.5, [100, 8, 1], [30, 2, 0])
        assert all(s > r for s, r in zip(sparse, rich))

    def test_no_tail_counts_means_no_constraint(self):
        assert self.tolerances(1.0, [10, 0, 0], [0, 0, 0]) == (math.inf,) * 3

    def test_healthy_estimate_passes(self):
        assert levy_gate(self.report(0.48, 0.51, 2.09, *self.RICH), [(0.5, 0.5, 2.0)]) == []

    def test_sparse_tail_with_alpha_near_two_passes(self):
        # 10^6 rows of alpha=1.5: 146, 6, 0 tail counts put alpha_hat at 1.98 and
        # sigma_hat six times too high; the data cannot tell, so the gate must not
        r = self.report(1.983, -0.513, 3.05, [35, 2, 0], [111, 4, 0])
        r["dataset"]["M"] = 1_000_000
        assert levy_gate(r, [(1.5, -0.5, 0.5)]) == []

    @pytest.mark.parametrize("alpha, beta, sigma, what", [
        (0.9, 0.51, 2.09, "alpha"),          # wrong stability index
        (0.48, -0.51, 2.09, "beta"),         # swapped tails
        (0.48, 0.51, 6.0, "ln sigma"),       # wrong scale constant
    ])
    def test_broken_estimate_fails(self, alpha, beta, sigma, what):
        failures = levy_gate(self.report(alpha, beta, sigma, *self.RICH), [(0.5, 0.5, 2.0)])
        assert len(failures) == 1 and what in failures[0]

    def test_non_finite_triple_fails(self):
        r = self.report(math.nan, 0.5, 2.0, *self.RICH)
        assert levy_gate(r, [(0.5, 0.5, 2.0)])

    def test_component_count_must_match(self):
        with pytest.raises(ValueError):
            levy_gate(self.report(0.5, 0.5, 2.0, *self.RICH),
                      [(0.5, 0.5, 2.0), (1.0, 0.0, 1.0)])
