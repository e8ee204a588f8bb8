import random

import pytest

from exploresim.arena import default_arena
from exploresim.detection import (DETECTORS, DetectionLedger, DetectorModel,
                                  attempt_detection, detection_rate)
from exploresim.errors import SimError
from exploresim.harness import RunConfig, run_single
from exploresim.policies import PolicyConfig


class TestModelTable:
    def test_stock_models_match_measured_values(self):
        assert (DETECTORS["ssd-1.0"].fps, DETECTORS["ssd-1.0"].p_detect) == (1.6, 0.50)
        assert (DETECTORS["ssd-0.75"].fps, DETECTORS["ssd-0.75"].p_detect) == (2.3, 0.48)
        assert (DETECTORS["ssd-0.5"].fps, DETECTORS["ssd-0.5"].p_detect) == (4.3, 0.32)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorModel("x", fps=0.0, p_detect=0.5)
        with pytest.raises(ValueError):
            DetectorModel("x", fps=1.0, p_detect=1.5)


def _run_with(det, duration=180.0, policy="pseudo-random", speed=0.1, seed=1):
    cfg = RunConfig(arena=default_arena(), policy=policy,
                    policy_cfg=PolicyConfig(cruise_speed=speed),
                    detector=det, duration=duration, seed=seed)
    return run_single(cfg)


class TestFrameCadence:
    def test_180s_at_4_3_fps_fires_774_frames(self):
        res = _run_with(DETECTORS["ssd-0.5"])
        assert res.ledger.frames_fired == 774

    def test_180s_at_2_3_fps_fires_414_frames(self):
        res = _run_with(DETECTORS["ssd-0.75"])
        assert res.ledger.frames_fired == 414

    def test_first_seen_aligned_to_frame_instants(self):
        res = _run_with(DETECTORS["ssd-1.0"], policy="spiral", speed=0.5)
        assert res.ledger.first_seen
        for t in res.ledger.first_seen.values():
            k = round(t * 1.6)
            assert abs(t - k / 1.6) < 1e-9

    def test_first_seen_nondecreasing_in_insertion_order(self):
        res = _run_with(DETECTORS["ssd-1.0"], policy="spiral", speed=0.5)
        times = list(res.ledger.first_seen.values())
        assert times == sorted(times)


class TestAttemptDetection:
    def test_certain_success_latches(self):
        model = DetectorModel("x", fps=1.0, p_detect=1.0)
        ledger = DetectionLedger()
        attempt_detection(model, [3], ledger, 2.0, random.Random(0))
        assert ledger.first_seen == {3: 2.0}
        # a later frame cannot move the first-seen time
        attempt_detection(model, [3], ledger, 4.0, random.Random(0))
        assert ledger.first_seen == {3: 2.0}
        assert ledger.frames_fired == 2
        assert ledger.frames_with_target == 2

    def test_zero_probability_only_counts_frames(self):
        model = DetectorModel("x", fps=1.0, p_detect=0.0)
        ledger = DetectionLedger()
        attempt_detection(model, [1, 2], ledger, 1.0, random.Random(0))
        assert ledger.first_seen == {}
        assert ledger.frames_fired == 1
        assert ledger.frames_with_target == 1

    def test_empty_frame_counts_fired_only(self):
        model = DetectorModel("x", fps=1.0, p_detect=1.0)
        ledger = DetectionLedger()
        attempt_detection(model, [], ledger, 1.0, random.Random(0))
        assert ledger.frames_fired == 1
        assert ledger.frames_with_target == 0

    def test_binomial_statistics(self):
        # 1e4 single-object frames at p=0.5: success fraction within 3 sigma
        model = DetectorModel("x", fps=1.0, p_detect=0.5)
        rng = random.Random(2024)
        hits = 0
        for k in range(10_000):
            ledger = DetectionLedger()
            attempt_detection(model, [1], ledger, float(k), rng)
            hits += 1 in ledger.first_seen
        assert 0.485 <= hits / 10_000 <= 0.515


class TestDetectionRate:
    def test_all_found(self):
        ledger = DetectionLedger(first_seen={i: float(i) for i in range(1, 7)})
        assert detection_rate(ledger, 6) == 1.0

    def test_none_found(self):
        assert detection_rate(DetectionLedger(), 6) == 0.0

    def test_half_found(self):
        ledger = DetectionLedger(first_seen={1: 1.0, 2: 2.0, 3: 3.0})
        assert detection_rate(ledger, 6) == 0.5

    def test_undefined_without_objects(self):
        with pytest.raises(SimError):
            detection_rate(DetectionLedger(), 0)


class TestEndToEnd:
    def test_certain_detector_with_sweeping_policy_finds_all(self):
        det = DetectorModel("x", fps=10.0, p_detect=1.0)
        res = _run_with(det, policy="spiral", speed=0.5)
        assert res.detection_rate == 1.0

    def test_rate_monotone_dominance_with_more_frames(self):
        # paired seeds: identical trajectories, certain detection; a denser
        # frame schedule can only find objects sooner
        lo = DetectorModel("lo", fps=1.6, p_detect=1.0)
        hi = DetectorModel("hi", fps=100.0, p_detect=1.0)
        for seed in range(5):
            r_lo = _run_with(lo, policy="pseudo-random", speed=0.5, seed=seed)
            r_hi = _run_with(hi, policy="pseudo-random", speed=0.5, seed=seed)
            assert r_hi.detection_rate >= r_lo.detection_rate
            for oid, t in r_lo.ledger.first_seen.items():
                assert r_hi.ledger.first_seen[oid] <= t + 1e-9

    def test_trajectory_independent_of_detector(self):
        a = _run_with(DETECTORS["ssd-1.0"], policy="pseudo-random", speed=0.5, seed=9)
        b = _run_with(DETECTORS["ssd-0.5"], policy="pseudo-random", speed=0.5, seed=9)
        c = _run_with(None, policy="pseudo-random", speed=0.5, seed=9)
        assert a.digest == b.digest == c.digest
