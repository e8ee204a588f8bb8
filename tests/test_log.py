"""The flight's trajectory log equals the plain log of its control ticks.

``harness.fly_logged`` takes the `t` column from cached per-chunk tables,
formats a set-point again only when it is a new object and a coordinate
only when it changes, and hashes a chunk of rows at a time.  The reference
here formats every field of every tick from ``harness.fly``'s yields with
a plain ``f"{v:.6f}"`` and hashes the joined rows once.  The log is
written a chunk at a time as the flight goes, and replayed and hashed a
block of lines at a time as it is read.
"""

import functools
import hashlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim import harness, policies, report
from exploresim.arena import Arena, default_arena
from exploresim.errors import SimError
from exploresim.harness import TRAJECTORY_HEADER, RunConfig, fly, fly_logged
from exploresim.metrics import OccupancyGrid
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
    final = coverage_series_csv(io.StringIO(log.getvalue()), OccupancyGrid(6.5, 5.5), sink,
                                hasher)
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
    coverage_series_csv(log, OccupancyGrid(6.5, 5.5), sink, hashlib.blake2b(digest_size=8))
    # a block holds at most one line past _BLOCK_CHARS characters
    block = report._BLOCK_CHARS // min(map(len, lines)) + 1
    bound = 2 * block + CHUNK
    assert bound < len(lines)
    assert read_at_write[0] <= bound
    assert log.lines_read == len(lines)
    assert "".join(sink.writes) == coverage_series(lines, 6.5, 5.5)[0]


# a 57.77 m flight west down a corridor at 1 m/s, 10 ticks a second: the
# crash tick carries the drone 3 cm past the wall, and its clamped sample
# is the only line of the log's second block
CORRIDOR_CRASH = RunConfig(arena=Arena(70.0, 2.0), policy="pseudo-random",
                           policy_cfg=policies.PolicyConfig(cruise_speed=1.0, trigger_dist=0.05),
                           control_dt=0.1, start=(57.77, 1.0, math.pi), duration=120.0)
# program-written logs of 2-4 blocks
BLOCK_LOGS = [
    CORRIDOR_CRASH,
    RunConfig(arena=default_arena(), policy="spiral", duration=30.0, seed=1),
    RunConfig(arena=BOXED, policy="wall-following", control_dt=1 / 60, duration=40.0, seed=2),
    RunConfig(arena=BOXED, policy="rotate-and-measure", control_dt=0.05, duration=60.0, seed=3),
]


@functools.lru_cache(maxsize=None)
def block_log(k: int) -> tuple[str, list[int]]:
    """The log of ``BLOCK_LOGS[k]`` and the number of the first line of each
    block that ``report`` reads it in, counted from 0 at the header."""
    text = io.StringIO()
    fly_logged(BLOCK_LOGS[k], log=text)
    starts, n = [], 0
    for block in iter(lambda f=io.StringIO(text.getvalue()): f.readlines(report._BLOCK_CHARS), []):
        starts.append(n)
        n += len(block)
    return text.getvalue(), starts


def test_crash_sample_is_the_first_line_of_a_block():
    text, starts = block_log(0)
    lines = text.splitlines()
    assert starts == [0, len(lines) - 1]
    assert float(lines[-1].split(",")[1]) < 0.0  # outside the room: clamped
    assert fly_logged(CORRIDOR_CRASH).collision.occurred


def _edit_line(line: str, before: str, after: str, kind: str, field: int, width: float) -> str:
    """``line`` of a log, between the lines ``before`` and ``after``, with one edit."""
    body = line.rstrip("\n")
    fields = body.split(",")
    if kind in ("nan", "inf", "-inf", "1e-3"):
        fields[field] = kind
    elif kind == "five fields":
        del fields[field]
    elif kind == "repeated t":  # the first sample's neighbour is the next line
        fields[0] = (before if before[:1].isdigit() else after).split(",")[0]
    elif kind == "x outside":
        fields[1] = f"{width + 0.25:.6f}" if field % 2 else "-0.250000"
    body = ",".join(fields)
    if kind == "crlf":
        return body + "\r\n"
    if kind == "no line end":
        return body
    if kind == "blank line after":
        return body + "\n\n"
    return body + "\n"


@given(k=st.integers(0, len(BLOCK_LOGS) - 1),
       kind=st.sampled_from(["nan", "inf", "-inf", "five fields", "1e-3", "repeated t",
                             "x outside", "crlf", "blank line after", "no line end"]),
       where=st.sampled_from(["first sample", "block end", "block start", "final line"]),
       block=st.integers(1, 3), field=st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_block_replay_equals_line_replay(k, kind, where, block, field):
    text, starts = block_log(k)
    lines = text.splitlines(keepends=True)
    edge = starts[min(block, len(starts) - 1)]
    j = {"first sample": 1, "block end": edge - 1, "block start": edge,
         "final line": len(lines) - 1}[where]
    room = BLOCK_LOGS[k].arena
    after = lines[j + 1] if j + 1 < len(lines) else ""
    lines[j] = _edit_line(lines[j], lines[j - 1], after, kind, field, room.width)
    edited = "".join(lines)
    try:
        want, want_grid = coverage_series(io.StringIO(edited), room.width, room.height)
    except SimError as exc:
        with pytest.raises(SimError) as got:
            coverage_series_csv(io.StringIO(edited), OccupancyGrid(room.width, room.height),
                                io.StringIO(), hashlib.blake2b(digest_size=8))
        assert str(got.value) == str(exc)
        return
    grid, sink = OccupancyGrid(room.width, room.height), io.StringIO()
    hasher = hashlib.blake2b(digest_size=8)
    final = coverage_series_csv(io.StringIO(edited), grid, sink, hasher)
    assert sink.getvalue() == want
    assert final == f"{want_grid.coverage():.6f}"
    assert [v.hex() for v in grid.dwell] == [v.hex() for v in want_grid.dwell]
    assert grid.ticks == want_grid.ticks and grid.coverage() == want_grid.coverage()
    assert hasher.digest() == hashlib.blake2b(edited.encode("ascii"), digest_size=8).digest()


@pytest.mark.parametrize("edit, message", [
    # a repeated t in the first block, undecodable text in the second
    (lambda lines: lines.__setitem__(5, lines[4]), "line 6: t does not increase"),
    # the first block's last sample outside the room: a line follows it, but
    # the text that follows is the first fault in the file
    (lambda lines: lines.__setitem__(-1, lines[-1].replace(",", ",-", 1)),
     "'ascii' codec can't decode"),
], ids=["bad-line-first", "undecodable-first"])
def test_faults_before_undecodable_text_come_first(tmp_path, edit, message):
    text, starts = block_log(1)
    lines = text.splitlines(keepends=True)
    first, rest = lines[:starts[1]], lines[starts[1]:]
    edit(first)
    # far enough into the second block to be decoded only when it is read
    rest[300] = rest[300].replace(",", ",é", 1)
    path = tmp_path / "trajectory.csv"
    path.write_text("".join(first + rest), encoding="utf-8", newline="\n")
    with open(path, encoding="ascii", newline="\n") as log:
        with pytest.raises((SimError, ValueError)) as got:
            coverage_series_csv(log, OccupancyGrid(6.5, 5.5), io.StringIO(),
                                hashlib.blake2b(digest_size=8))
    assert str(got.value).startswith(message)
