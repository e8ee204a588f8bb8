"""The flight's trajectory log equals the plain log of its control ticks.

``harness.fly_logged`` takes the `t` column from cached per-chunk tables,
formats a set-point again only when it is a new object and a coordinate
only when it changes, and hashes a chunk of rows at a time.  The reference
here formats every field of every tick from ``harness.fly``'s yields with
a plain ``f"{v:.6f}"`` and hashes the joined rows once.  The log is
written a chunk at a time as the flight goes, and replayed and hashed a
block of lines at a time as it is read.
"""

import hashlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim import harness, policies, report
from exploresim.arena import Arena, default_arena
from exploresim.harness import TRAJECTORY_HEADER, RunConfig, fly, fly_logged
from exploresim.policies import POLICY_KINDS
from exploresim.report import coverage_series_csv
from exploresim.vehicle import Setpoint
from oracles import coverage_series

CHUNK = harness._LOG_CHUNK
# the golden boxed room (tests/test_golden.py)
BOXED = Arena(6.5, 5.5, obstacles=[(1.5, 1.5, 2.2, 2.2), (4.5, 3.5, 5.0, 4.2)])
# heading east just below the first box: the front beam passes under it,
# the airframe disc does not
COLLIDING = (1.3, 1.47, 0.0)


def plain_log(cfg: RunConfig) -> list[str]:
    """Header, one row per tick of ``fly(cfg)`` and the terminal row."""
    def row(*values):
        return ",".join(f"{v:.6f}" for v in values) + "\n"

    ticks = list(fly(cfg))
    rows = [TRAJECTORY_HEADER + "\n"]
    rows += [row(t, seen.x, seen.y, seen.heading, sp.v, sp.omega)
             for t, seen, _, _, sp, _, _ in ticks]
    end = ticks[-1][5]
    rows.append(row(len(ticks) * cfg.control_dt, end.x, end.y, end.heading, 0.0, 0.0))
    return rows


def digest(rows: list[str]) -> int:
    return int.from_bytes(hashlib.blake2b("".join(rows).encode("ascii"),
                                          digest_size=8).digest(), "big")


def test_colliding_start_collides_in_the_boxed_room():
    cfg = RunConfig(arena=BOXED, policy="pseudo-random", start=COLLIDING, duration=2.0)
    flight = fly_logged(cfg)
    assert flight.collision.occurred and flight.elapsed < 1.0


@given(policy=st.sampled_from(POLICY_KINDS),
       dt=st.sampled_from([0.01, 0.02, 0.05, 0.1]),
       n_ticks=st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]),
       boxed=st.booleans(),
       start=st.sampled_from([None, COLLIDING, (5.9, 4.9, -2.5), (3.0, 2.0, -0.0)]),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_fast_log_equals_plain_log(policy, dt, n_ticks, boxed, start, seed):
    cfg = RunConfig(arena=BOXED if boxed else default_arena(), policy=policy,
                    control_dt=dt, duration=n_ticks * dt, start=start, seed=seed)
    log = io.StringIO()
    flight = fly_logged(cfg, log=log)
    expected = plain_log(cfg)
    assert log.getvalue().splitlines(keepends=True) == expected
    assert flight.digest == digest(expected)
    assert flight.elapsed == (len(expected) - 2) * dt


def test_signed_zero_set_points_keep_their_sign(monkeypatch):
    # -0.0 == 0.0 and both hash alike, but they log as -0.000000 and 0.000000
    state, _, draws = policies._POLICIES["wall-following"]
    calls = []

    def step(ps, tof, heading, dt, cfg, rng):
        calls.append(None)
        return ps, Setpoint(-0.0, -0.0) if len(calls) % 2 else Setpoint(0.0, 0.0)

    monkeypatch.setitem(policies._POLICIES, "wall-following", (state, step, draws))
    n_ticks = 2 * CHUNK + 3
    # the start heading -0.0 turns into 0.0 on the first tick
    cfg = RunConfig(arena=default_arena(), policy="wall-following", duration=n_ticks * 0.02,
                    start=(3.25, 2.75, -0.0))
    log = io.StringIO()
    flight = fly_logged(cfg, log=log)
    ticks = log.getvalue().splitlines(keepends=True)[1:-1]
    assert len(ticks) == n_ticks
    for i, row in enumerate(ticks):
        tail = "-0.000000,-0.000000\n" if i % 2 == 0 else "0.000000,0.000000\n"
        assert row.endswith("," + tail), (i, row)
    calls.clear()
    assert flight.digest == digest(plain_log(cfg))


class RecordingSink:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_log_is_written_a_chunk_at_a_time():
    cfg = RunConfig(arena=default_arena(), policy="spiral", duration=(3 * CHUNK + 7) * 0.02)
    sink = RecordingSink()
    fly_logged(cfg, log=sink)
    assert len(sink.writes) >= 4
    assert max(text.count("\n") for text in sink.writes) <= CHUNK
    assert "".join(sink.writes) == "".join(plain_log(cfg))


def test_series_is_written_a_chunk_at_a_time():
    cfg = RunConfig(arena=default_arena(), policy="spiral", duration=(3 * CHUNK + 7) * 0.02)
    log = io.StringIO()
    flight = fly_logged(cfg, log=log)
    sink = RecordingSink()
    hasher = hashlib.blake2b(digest_size=8)
    final = coverage_series_csv(io.StringIO(log.getvalue()), 6.5, 5.5, sink, hasher)
    assert len(sink.writes) >= 4
    assert max(text.count("\n") for text in sink.writes) <= CHUNK
    want, _ = coverage_series(log.getvalue().splitlines(keepends=True), 6.5, 5.5)
    assert "".join(sink.writes) == want
    assert final == want.rsplit(",", 1)[1].rstrip("\n")
    assert int.from_bytes(hasher.digest(), "big") == flight.digest


class CountingLog:
    """A text log that counts the lines it has handed out."""

    def __init__(self, text):
        self.log = io.StringIO(text)
        self.lines_read = 0

    def readlines(self, hint=-1):
        lines = self.log.readlines(hint)
        self.lines_read += len(lines)
        return lines


def test_series_is_written_before_the_log_is_read():
    cfg = RunConfig(arena=default_arena(), policy="spiral", duration=60.0)
    text = io.StringIO()
    fly_logged(cfg, log=text)
    lines = text.getvalue().splitlines(keepends=True)
    log = CountingLog(text.getvalue())
    read_at_write = []

    class Sink(RecordingSink):
        def write(self, text):
            read_at_write.append(log.lines_read)
            super().write(text)

    sink = Sink()
    coverage_series_csv(log, 6.5, 5.5, sink, hashlib.blake2b(digest_size=8))
    # a block holds at most one line past _BLOCK_CHARS characters
    block = report._BLOCK_CHARS // min(map(len, lines)) + 1
    bound = 2 * block + CHUNK
    assert bound < len(lines)
    assert read_at_write[0] <= bound
    assert log.lines_read == len(lines)
    assert "".join(sink.writes) == coverage_series(lines, 6.5, 5.5)[0]
