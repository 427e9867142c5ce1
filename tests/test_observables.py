import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from sqzbath import (VarianceAccumulator, read_variance_csv, squeeze_report,
                     write_variance_csv)


def accumulator_from_samples(samples, times=None):
    """samples: (n_traj, n_times, 4)"""
    times = np.arange(samples.shape[1]) * 0.25 if times is None else times
    acc = VarianceAccumulator(times)
    acc.add_block(samples)
    return acc


class TestAccumulator:
    def test_identical_trajectories_have_zero_variance(self):
        track = np.tile(np.array([[0.3, -0.2, 0.1, 0.4]]), (5, 1))
        acc = VarianceAccumulator(np.arange(5.0))
        for _ in range(10):
            acc.add_block(track[None])
        s = acc.series()
        assert np.all(s.variances == 0.0)

    def test_two_point_population_variance(self):
        # +-a with the 1/n convention gives exactly a^2
        a = 0.7
        acc = VarianceAccumulator(np.array([0.0]))
        acc.add_block(np.array([[[a, a, a, a]]]))
        acc.add_block(np.array([[[-a, -a, -a, -a]]]))
        s = acc.series()
        assert np.allclose(s.variances, a * a, rtol=1e-14)

    def test_standard_normal_statistics(self, rng):
        n = 10000
        samples = rng.standard_normal((n, 3, 4))
        s = accumulator_from_samples(samples).series()
        se = 1.0 * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(s.variances - 1.0) < 3 * se)
        assert np.allclose(s.std_errors, s.variances * math.sqrt(2 / (n - 1)))

    def test_merge_is_order_independent(self, rng):
        samples = rng.standard_normal((90, 4, 4))
        times = np.arange(4.0)
        whole = VarianceAccumulator(times)
        whole.add_block(samples)
        pieces = [samples[:20], samples[20:50], samples[50:]]
        for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            acc = VarianceAccumulator(times)
            for k in order:
                part = VarianceAccumulator(times)
                part.add_block(pieces[k])
                acc.merge(part)
            assert np.allclose(acc.series().variances, whole.series().variances,
                               rtol=1e-12)

    def test_merge_requires_matching_grid(self):
        a = VarianceAccumulator(np.array([0.0, 1.0]))
        b = VarianceAccumulator(np.array([0.0, 2.0]))
        with pytest.raises(ValueError):
            a.merge(b)


def make_series(var_qt2, times=None):
    n_t = len(var_qt2)
    times = np.arange(n_t) * 0.5 if times is None else times
    variances = np.tile(np.array([[0.9, 0.0, 1.1, 0.9]]), (n_t, 1))
    variances[:, 1] = var_qt2
    acc = VarianceAccumulator(times)
    acc.count[:] = 2000
    acc.mean[:] = 0.0
    acc.m2[:] = variances * 2000
    return acc.series()


class TestSqueezeReport:
    def test_constant_series_has_no_crossing(self):
        s = make_series(np.full(40, 0.88))
        rep = squeeze_report(s)
        assert rep["qt2"].first_crossing is None
        assert rep["qt2"].fraction_below == 0.0
        assert rep["qt2"].min_variance == pytest.approx(0.88)

    def test_crossing_detection(self):
        var = np.array([0.9, 0.7, 0.49, 0.3, 0.45, 0.6])
        s = make_series(var)
        rep = squeeze_report(s)
        assert rep["qt2"].first_crossing == pytest.approx(1.0)   # grid index 2
        assert rep["qt2"].min_variance == pytest.approx(0.3)
        assert rep["qt2"].time_of_min == pytest.approx(1.5)
        assert rep["qt2"].fraction_below == pytest.approx(3 / 6)
        assert rep["qt2"].significant

    def test_marginal_crossing_not_significant(self):
        var = np.full(10, 0.9)
        var[4] = 0.499   # dips below by less than 2*SE at n=2000
        rep = squeeze_report(make_series(var))
        assert rep["qt2"].first_crossing is not None
        assert not rep["qt2"].significant

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            squeeze_report(make_series(np.array([])))

    def test_json_round_trip(self):
        rep = squeeze_report(make_series(np.array([0.9, 0.4, 0.6])))
        payload = json.loads(json.dumps(asdict(rep)))
        assert payload["threshold"] == 0.5
        assert payload["coords"]["qt2"]["min_variance"] == pytest.approx(0.4)


class TestCsv:
    def test_round_trip(self, tmp_path, rng):
        s = accumulator_from_samples(rng.standard_normal((50, 3, 4))).series()
        path = tmp_path / "v.csv"
        write_variance_csv(s, path, header_lines=["seed: 7"])
        back = read_variance_csv(path)
        assert np.allclose(back.times, s.times, rtol=0, atol=0)
        assert np.allclose(back.variances, s.variances, rtol=0, atol=0)
        assert np.allclose(back.std_errors, s.std_errors, rtol=0, atol=0)

    def test_deterministic_bytes(self, tmp_path, rng):
        s = accumulator_from_samples(rng.standard_normal((20, 2, 4))).series()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_variance_csv(s, p1, header_lines=["x"])
        write_variance_csv(s, p2, header_lines=["x"])
        assert p1.read_bytes() == p2.read_bytes()
