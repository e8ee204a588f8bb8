"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run seeded batches (20 runs per coverage config, 50
per detection cell) with seeds derived from base seed 42 and the
configuration label only, so detector comparisons are paired on
identical trajectories.  In the default room without ToF noise only the
pseudo-random policy draws on the seed for its flight, so only its cells
sample distinct trajectories; a wall-following, spiral or
rotate-and-measure cell is one trajectory with a different detector
draw per run.  The coverage and detection batches are one
``run_batch``, which flies each distinct trajectory once.  Run with
``pytest -s tests/test_acceptance.py`` to watch the per-criterion lines.
"""

import math
import random
import statistics
import time

import pytest

from exploresim.arena import Arena, default_arena
from exploresim.cli import main as cli_main
from exploresim.detection import DETECTORS, DetectionLedger, DetectorModel, attempt_detection
from exploresim.harness import RunConfig, run_batch, run_single
from exploresim.metrics import EnergyModel, OccupancyGrid, mission_energy
from exploresim.policies import PolicyConfig
from exploresim.seeding import derive_seed

from oracles import dense_ray_distance


def check(num, ok, detail):
    print(f"[acceptance] criterion {num:>3} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def mission_cfg(policy, speed, seed, detector=None, start=None):
    return RunConfig(arena=default_arena(), policy=policy,
                     policy_cfg=PolicyConfig(cruise_speed=speed),
                     detector=detector, seed=seed, start=start)


def batch_seed(policy, speed, i):
    # label omits the detector so detector cells pair on equal trajectories
    return derive_seed(42, f"{policy}|{speed:.6f}", i)


@pytest.fixture(scope="session")
def default_sweeps(tmp_path_factory):
    """The full 60-run sweep executed twice through the CLI, plus the
    wall time of the first execution."""
    results = []
    wall = None
    for tag in ("first", "second"):
        out = tmp_path_factory.mktemp(f"sweep_{tag}")
        t0 = time.perf_counter()
        code = cli_main(["sweep", "--seed", "42", "--out", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        if wall is None:
            wall = elapsed
        results.append(out)
    return results, wall


COVERAGE_CONFIGS = [("pseudo-random", 0.1), ("pseudo-random", 0.5),
                    ("wall-following", 0.5), ("wall-following", 1.0), ("spiral", 0.5)]
DETECTION_CELLS = [("ssd-1.0", "pseudo-random", 0.5), ("ssd-0.75", "pseudo-random", 0.5),
                   ("ssd-1.0", "pseudo-random", 0.1), ("ssd-1.0", "wall-following", 0.5),
                   ("ssd-1.0", "spiral", 0.5), ("ssd-1.0", "rotate-and-measure", 0.5)]


@pytest.fixture(scope="session")
def seeded_batches():
    """The coverage runs (20 per config) and the detection runs (50 per
    cell), flown as one ``run_batch`` so that runs of one trajectory share
    it; split back into the two lists."""
    coverage = [mission_cfg(policy, speed, batch_seed(policy, speed, i))
                for policy, speed in COVERAGE_CONFIGS for i in range(20)]
    detection = [mission_cfg(policy, speed, batch_seed(policy, speed, i),
                             detector=DETECTORS[det])
                 for det, policy, speed in DETECTION_CELLS for i in range(50)]
    batch = run_batch(coverage + detection)
    return batch[:len(coverage)], batch[len(coverage):]


@pytest.fixture(scope="session")
def coverage_cells(seeded_batches):
    """Mean coverage of 20 seeded runs per (policy, speed) config."""
    cells = {}
    for n, config in enumerate(COVERAGE_CONFIGS):
        runs = seeded_batches[0][20 * n:20 * (n + 1)]
        for res in runs:
            if not res.collision.occurred:
                assert abs(res.grid.total_dwell() - 180.0) <= 1e-6
        cells[config] = statistics.fmean(r.coverage for r in runs)
    return cells


@pytest.fixture(scope="session")
def detection_cells(seeded_batches):
    """Mean detection rate of 50 seeded runs per (detector, policy, speed)."""
    return {cell: statistics.fmean(r.detection_rate
                                   for r in seeded_batches[1][50 * n:50 * (n + 1)])
            for n, cell in enumerate(DETECTION_CELLS)}


def test_criterion_01_grid_structure():
    grid = OccupancyGrid(6.5, 5.5)
    ok = grid.total_cells == 143 and (grid.cols, grid.rows) == (13, 11)
    check(1, ok, f"default arena grid has {grid.cols}x{grid.rows} = {grid.total_cells} cells (need 143)")


def test_criterion_02_sweep_determinism(default_sweeps):
    (out1, out2), _ = default_sweeps
    runs_equal = (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
    agg_equal = (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()
    n_rows = len((out1 / "runs.csv").read_text().splitlines()) - 1
    check(2, runs_equal and agg_equal and n_rows == 60,
          f"two seeded sweeps produced byte-identical tables over {n_rows} runs")


def test_criterion_03_dwell_conservation():
    worst = 0.0
    for policy in ("pseudo-random", "wall-following", "spiral", "rotate-and-measure"):
        for seed in (0, 1):
            start = (1.0, 5.0, 0.0) if policy in ("wall-following", "spiral") else None
            res = run_single(mission_cfg(policy, 0.5, batch_seed(policy, 0.5, seed),
                                         start=start))
            assert not res.collision.occurred
            worst = max(worst, abs(res.grid.total_dwell() - 180.0))
    check(3, worst <= 1e-6,
          f"sum of dwell deviates from 180 s by at most {worst:.2e} s (tol 1e-6)")


def test_criterion_04_raycast_oracle():
    rng = random.Random(20240)
    worst = 0.0
    checked = 0
    for _ in range(20):
        boxes = []
        for _ in range(rng.randint(0, 5)):
            x0 = rng.uniform(0.2, 5.2)
            y0 = rng.uniform(0.2, 4.2)
            boxes.append((x0, y0, x0 + rng.uniform(0.1, 1.2), y0 + rng.uniform(0.1, 1.2)))
        arena = Arena(6.5, 5.5, obstacles=boxes)
        done = 0
        while done < 500:
            x = rng.uniform(0.005, 6.495)
            y = rng.uniform(0.005, 5.495)
            if not arena.in_free_space(x, y):
                continue
            heading = rng.uniform(-math.pi, math.pi)
            err = abs(arena.raycast(x, y, heading)
                      - dense_ray_distance(6.5, 5.5, boxes, x, y, heading))
            worst = max(worst, err)
            done += 1
            checked += 1
    check(4, checked == 10_000 and worst < 2e-3,
          f"analytic raycast vs 1 mm stepping oracle: max error {worst * 1000:.3f} mm "
          f"over {checked} rays (tol 2 mm)")


def test_criterion_05_wall_following_stays_near_walls():
    grid0 = OccupancyGrid(6.5, 5.5)
    offenders = 0
    for i in range(5):
        res = run_single(mission_cfg("wall-following", 0.5,
                                     batch_seed("wall-following", 0.5, i),
                                     start=(1.0, 5.0, 0.0)))
        assert not res.collision.occurred
        for row in range(grid0.rows):
            for col in range(grid0.cols):
                if res.grid.dwell[row * res.grid.cols + col] > 0.0:
                    cx = (col + 0.5) * 0.5
                    cy = (row + 0.5) * 0.5
                    wall_dist = min(cx, cy, 6.5 - cx, 5.5 - cy)
                    if wall_dist > 1.0:
                        offenders += 1
    check(5, offenders == 0,
          f"5 wall-following runs: {offenders} visited cells farther than 1 m "
          "from the nearest wall (need 0)")


def test_criterion_06a_pseudo_random_speed_gain(coverage_cells):
    lo = coverage_cells[("pseudo-random", 0.1)]
    hi = coverage_cells[("pseudo-random", 0.5)]
    check("6a", hi - lo >= 0.20,
          f"pseudo-random coverage {hi:.1%} at 0.5 m/s vs {lo:.1%} at 0.1 m/s "
          f"(gain {100 * (hi - lo):.1f} pp, need >= 20)")


def test_criterion_06b_spiral_beats_wall_following(coverage_cells):
    sp = coverage_cells[("spiral", 0.5)]
    wf = coverage_cells[("wall-following", 0.5)]
    check("6b", sp >= wf,
          f"spiral coverage {sp:.1%} vs wall-following {wf:.1%} at 0.5 m/s")


def test_criterion_06c_wall_following_speed_insensitive(coverage_cells):
    mid = coverage_cells[("wall-following", 0.5)]
    fast = coverage_cells[("wall-following", 1.0)]
    check("6c", abs(fast - mid) <= 0.10,
          f"wall-following coverage {mid:.1%} at 0.5 vs {fast:.1%} at 1.0 m/s "
          f"(|gap| {100 * abs(fast - mid):.1f} pp, need <= 10)")


def test_criterion_07a_accuracy_beats_throughput(detection_cells):
    big = detection_cells[("ssd-1.0", "pseudo-random", 0.5)]
    mid = detection_cells[("ssd-0.75", "pseudo-random", 0.5)]
    check("7a", big >= mid,
          f"pseudo-random at 0.5 m/s: ssd-1.0 rate {big:.1%} vs ssd-0.75 {mid:.1%}")


# PAPER.md (abstract): the deployed CNN combined with the selected
# pseudo-random policy gives "an average detection rate of 90% on six
# target objects".
PAPER_DETECTION_RATE = 0.90


def test_criterion_07b_pseudo_random_highest(detection_cells):
    # The paper states no detection-rate ranking of the policies, so the
    # other three rates are printed, not asserted (see README).
    rates = {p: detection_cells[("ssd-1.0", p, 0.5)]
             for p in ("pseudo-random", "spiral", "wall-following", "rotate-and-measure")}
    pr = rates["pseudo-random"]
    check("7b", pr >= PAPER_DETECTION_RATE,
          f"ssd-1.0 at 0.5 m/s: pseudo-random rate {pr:.1%} "
          f"(need >= {PAPER_DETECTION_RATE:.0%}); all policies: "
          + ", ".join(f"{p} {r:.1%}" for p, r in rates.items()))


def test_criterion_07c_pseudo_random_speed_gain(detection_cells):
    hi = detection_cells[("ssd-1.0", "pseudo-random", 0.5)]
    lo = detection_cells[("ssd-1.0", "pseudo-random", 0.1)]
    check("7c", hi - lo >= 0.20,
          f"pseudo-random ssd-1.0 rate {hi:.1%} at 0.5 m/s vs {lo:.1%} at 0.1 m/s "
          f"(gain {100 * (hi - lo):.1f} pp, need >= 20)")


def test_criterion_08_detector_statistics():
    model = DetectorModel("half", fps=1.0, p_detect=0.5)
    rng = random.Random(derive_seed(42, "binomial"))
    hits = 0
    for k in range(10_000):
        ledger = DetectionLedger()
        attempt_detection(model, [1], ledger, float(k), rng)
        hits += 1 in ledger.first_seen
    frac = hits / 10_000
    check(8, 0.485 <= frac <= 0.515,
          f"empirical per-frame success {frac:.4f} over 10^4 frames "
          "(3 sigma band [0.485, 0.515])")


def test_criterion_09_inference_cadence():
    res = run_single(mission_cfg("pseudo-random", 0.1, 7, detector=DETECTORS["ssd-1.0"]))
    n = res.ledger.frames_fired
    check(9, n == 288, f"180 s at 1.6 FPS fired {n} detector frames (need exactly 288)")


def test_criterion_10_energy():
    energy = mission_energy(EnergyModel(), 180.0)
    em = EnergyModel()
    share = round(em.p_aideck / em.p_total * 100.0, 2)
    ok = f"{energy['total']:.1f}" == "1443.6" and share == 1.67
    check(10, ok,
          f"180 s mission: total {energy['total']:.1f} J (need 1443.6), "
          f"vision deck share {share:.2f}% (need 1.67)")


def test_criterion_11_sweep_performance(default_sweeps):
    _, wall = default_sweeps
    check(11, wall < 60.0,
          f"default 60-run sweep took {wall:.1f} s single-threaded (limit 60 s; "
          f"{3.0 * 3600.0 / wall:.0f}x faster than 3 h of flight)")
