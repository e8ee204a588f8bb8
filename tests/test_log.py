"""The flight's trajectory log equals the plain log of its control ticks.

The run loop takes the `t` column from cached per-chunk tables, formats
a set-point again only when it is a new object and a coordinate only
when it changes, and ``harness.fly_logged`` hashes a chunk of rows at a
time.  The reference here formats every field of every tick with a plain
``f"{v:.6f}"`` and hashes the joined rows once, from ``harness.fly``'s
yields, a view of that loop, and from the per-tick oracle's, which flies
a loop of its own.  The log is written a chunk at a time as the flight
goes, and replayed and hashed a block of lines at a time as it is read.
"""

import functools
import hashlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from exploresim import harness, policies, report
from exploresim.arena import Arena, default_arena
from exploresim.detection import DetectorModel
from exploresim.errors import SimError
from exploresim.harness import TRAJECTORY_HEADER, RunConfig, fly, fly_logged
from exploresim.metrics import OccupancyGrid
from exploresim.policies import POLICY_KINDS
from exploresim.report import coverage_series_csv
from exploresim.sensing import TofConfig
from exploresim.vehicle import Setpoint
from oracles import coverage_series, detection_ledger, flight_grid, per_tick_flight

CHUNK = harness._LOG_CHUNK
# the golden boxed room (tests/test_golden.py)
BOXED = Arena(6.5, 5.5, obstacles=[(1.5, 1.5, 2.2, 2.2), (4.5, 3.5, 5.0, 4.2)])
# heading east just below the first box: the front beam passes under it,
# the airframe disc does not
COLLIDING = (1.3, 1.47, 0.0)


def plain_log(cfg: RunConfig, flight=fly) -> list[str]:
    """Header, one row per tick of ``flight(cfg)`` and the terminal row."""
    def row(*values):
        return ",".join(f"{v:.6f}" for v in values) + "\n"

    ticks = list(flight(cfg))
    rows = [TRAJECTORY_HEADER + "\n"]
    rows += [row(t, *seen, sp.v, sp.omega) for t, seen, _, _, sp, _, _ in ticks]
    end = ticks[-1][5]
    rows.append(row(len(ticks) * cfg.control_dt, *end, 0.0, 0.0))
    return rows


def digest(rows: list[str]) -> int:
    return int.from_bytes(hashlib.blake2b("".join(rows).encode("ascii"),
                                          digest_size=8).digest(), "big")


def test_colliding_start_collides_in_the_boxed_room():
    cfg = RunConfig(arena=BOXED, policy="pseudo-random", start=COLLIDING, duration=2.0)
    flight = fly_logged([cfg])[0]
    assert flight.collision.occurred and flight.elapsed < 1.0


@given(policy=st.sampled_from(POLICY_KINDS),
       dt=st.sampled_from([0.01, 0.02, 0.05, 0.1]),
       n_ticks=st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]),
       boxed=st.booleans(),
       start=st.sampled_from([None, COLLIDING, (5.9, 4.9, -2.5), (3.0, 2.0, -0.0)]),
       noise=st.sampled_from([0.0, 0.02]),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_fast_log_equals_plain_log(policy, dt, n_ticks, boxed, start, noise, seed):
    cfg = RunConfig(arena=BOXED if boxed else default_arena(), policy=policy,
                    tof=TofConfig(noise_sigma=noise), control_dt=dt, duration=n_ticks * dt,
                    start=start, seed=seed)
    log = io.StringIO()
    flight = fly_logged([cfg], log=log)[0]
    expected = plain_log(cfg)
    assert log.getvalue().splitlines(keepends=True) == expected
    # fly is a view of the loop that wrote the log; the oracle flies a loop of its own
    assert plain_log(cfg, per_tick_flight) == expected
    assert flight.digest == digest(expected)
    assert flight.elapsed == (len(expected) - 2) * dt


def test_signed_zero_set_points_keep_their_sign(monkeypatch):
    # -0.0 == 0.0 and both hash alike, but they log as -0.000000 and 0.000000
    state, _, *declared = policies._POLICIES["wall-following"]
    calls = []

    def step(ps, tof, heading, dt, cfg, rng):
        calls.append(None)
        return ps, Setpoint(-0.0, -0.0) if len(calls) % 2 else Setpoint(0.0, 0.0)

    monkeypatch.setitem(policies._POLICIES, "wall-following", (state, step, *declared))
    n_ticks = 2 * CHUNK + 3
    # the start heading -0.0 turns into 0.0 on the first tick
    cfg = RunConfig(arena=default_arena(), policy="wall-following", duration=n_ticks * 0.02,
                    start=(3.25, 2.75, -0.0))
    log = io.StringIO()
    flight = fly_logged([cfg], log=log)[0]
    ticks = log.getvalue().splitlines(keepends=True)[1:-1]
    assert len(ticks) == n_ticks
    for i, row in enumerate(ticks):
        tail = "-0.000000,-0.000000\n" if i % 2 == 0 else "0.000000,0.000000\n"
        assert row.endswith("," + tail), (i, row)
    calls.clear()
    assert flight.digest == digest(plain_log(cfg))


def test_a_repeated_200s_flight_formats_no_t_column():
    # a flight looks up the column of each chunk that holds one of its
    # ticks and no other, so the 20 chunks of a 200 s flight fit the cache
    cfg = RunConfig(arena=default_arena(), policy="spiral", duration=200.0)
    harness._tick_column.cache_clear()
    fly_logged([cfg])
    assert harness._tick_column.cache_info().misses == 20
    assert fly_logged([cfg])[0].elapsed == 200.0
    info = harness._tick_column.cache_info()
    assert (info.hits, info.misses) == (20, 20)


def test_fly_renders_no_log_rows():
    # only fly_logged reads the rows: a pass over fly looks up no t column
    cfg = RunConfig(arena=default_arena(), policy="spiral", duration=(CHUNK + 3) * 0.02)
    harness._tick_column.cache_clear()
    assert sum(1 for _ in fly(cfg)) == CHUNK + 3
    info = harness._tick_column.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def crash_on_tick(k: int) -> RunConfig:
    """A boxed-room flight east at 2 mm a tick, whose airframe disc first
    reaches the second box on tick ``k`` (counted from 1)."""
    return RunConfig(arena=BOXED, policy="pseudo-random",
                     policy_cfg=policies.PolicyConfig(cruise_speed=0.1, trigger_dist=0.011),
                     start=(4.45 - (k - 0.5) * 0.002, 3.8, 0.0), duration=(2 * CHUNK + 9) * 0.02)


# a frame every 3 ticks: due on the first tick of the second chunk (tick
# CHUNK + 1) and on the last tick of the third (3 * CHUNK)
EVERY_3_TICKS = DetectorModel("every-3-ticks", fps=50 / 3, p_detect=0.5)
# each flight and the ticks it flies
EDGE_FLIGHTS = {
    **{f"crash-on-tick-{k}": (crash_on_tick(k), k)
       for k in (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)},
    "dt-1/60": (RunConfig(arena=BOXED, policy="wall-following", control_dt=1 / 60,
                          duration=(2 * CHUNK + 3) / 60, seed=2), 2 * CHUNK + 3),
    "start-heading--0.0": (RunConfig(arena=default_arena(), policy="pseudo-random",
                                     start=(3.0, 2.0, -0.0), duration=(CHUNK + 3) * 0.02,
                                     seed=5), CHUNK + 3),
    "frames-at-chunk-edges": (RunConfig(arena=default_arena(), policy="spiral",
                                        detector=EVERY_3_TICKS,
                                        duration=(3 * CHUNK + 7) * 0.02), 3 * CHUNK + 7),
}


@pytest.mark.parametrize("name", EDGE_FLIGHTS)
def test_a_flight_at_chunk_edges_is_its_per_tick_oracle(monkeypatch, name):
    # the loop keeps a chunk's row values as its poses: the pose after tick
    # k is the row of tick k + 1, and after the chunk's last tick the pose
    # appended past its rows; a crash settles on that last pose, and a
    # frame reads the row after its tick
    cfg, n_ticks = EDGE_FLIGHTS[name]
    cameras = {"flown": [], "oracle": []}  # the pose each frame evaluates the camera at
    for module, key in ((harness, "flown"), (oracles, "oracle")):
        def objects_in_fov(arena, x, y, heading, camera, _fov=module.objects_in_fov,
                           _poses=cameras[key]):
            _poses.append((x.hex(), y.hex(), heading.hex()))
            return _fov(arena, x, y, heading, camera)
        monkeypatch.setattr(module, "objects_in_fov", objects_in_fov)
    log = io.StringIO()
    res = fly_logged([cfg], log=log)[0]
    ticks = list(per_tick_flight(cfg))
    oracle = lambda _: ticks  # noqa: E731
    expected = plain_log(cfg, oracle)
    assert len(expected) == n_ticks + 2
    assert log.getvalue().splitlines(keepends=True) == expected
    assert res.digest == digest(expected) and res.elapsed == n_ticks * cfg.control_dt
    grid = flight_grid(cfg, oracle)
    assert [v.hex() for v in res.grid.dwell] == [v.hex() for v in grid.dwell]
    assert res.grid.ticks == grid.ticks
    *_, (x, y, _), blocked = ticks[-1]
    assert res.collision.occurred == blocked == name.startswith("crash")
    if blocked:
        assert (res.collision.time, res.collision.x, res.collision.y) == (res.elapsed, x, y)
    if name == "start-heading--0.0":
        assert expected[1].split(",")[3] == "-0.000000"
    want = detection_ledger(cfg, oracle)
    if want is None:
        assert res.ledger is None and cameras == {"flown": [], "oracle": []}
        return
    fired = res.ledger.frames_fired
    assert {CHUNK + 1, 3 * CHUNK} <= {math.ceil(k / cfg.detector.fps / cfg.control_dt - 1e-9)
                                      for k in range(1, fired + 1)}
    assert (res.ledger.first_seen, fired, res.ledger.frames_with_target) == \
        (want.first_seen, want.frames_fired, want.frames_with_target)
    assert len(cameras["flown"]) == fired and cameras["flown"] == cameras["oracle"]


class RecordingSink:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_log_is_written_a_chunk_at_a_time():
    cfg = RunConfig(arena=default_arena(), policy="spiral", duration=(3 * CHUNK + 7) * 0.02)
    sink = RecordingSink()
    fly_logged([cfg], log=sink)
    assert len(sink.writes) >= 4
    assert max(text.count("\n") for text in sink.writes) <= CHUNK
    assert "".join(sink.writes) == "".join(plain_log(cfg))


def test_series_is_written_a_chunk_at_a_time():
    cfg = RunConfig(arena=default_arena(), policy="spiral", duration=(3 * CHUNK + 7) * 0.02)
    log = io.StringIO()
    flight = fly_logged([cfg], log=log)[0]
    sink = RecordingSink()
    hasher = hashlib.blake2b(digest_size=8)
    final = coverage_series_csv(io.BytesIO(log.getvalue().encode("ascii")),
                                OccupancyGrid(6.5, 5.5), sink, hasher)
    # a write per block, and a block holds at most one line past _BLOCK_CHARS characters
    f = io.StringIO(log.getvalue())
    blocks = list(iter(lambda: f.readlines(report._BLOCK_CHARS), []))
    assert len(sink.writes) == len(blocks) >= 3
    shortest = min(len(line) for block in blocks for line in block)
    assert max(text.count("\n") for text in sink.writes) <= \
        report._BLOCK_CHARS // shortest + 1
    want, _ = coverage_series(log.getvalue().splitlines(keepends=True), 6.5, 5.5)
    assert "".join(sink.writes) == want
    assert final == want.rsplit(",", 1)[1].rstrip("\n")
    assert int.from_bytes(hasher.digest(), "big") == flight.digest


class CountingLog:
    """A binary log that counts the lines it has handed out."""

    def __init__(self, text):
        self.log = io.BytesIO(text.encode("ascii"))
        self.lines_read = 0

    def readlines(self, hint=-1):
        lines = self.log.readlines(hint)
        self.lines_read += len(lines)
        return lines


def test_series_is_written_before_the_log_is_read():
    cfg = RunConfig(arena=default_arena(), policy="spiral", duration=60.0)
    text = io.StringIO()
    fly_logged([cfg], log=text)
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
    fly_logged([BLOCK_LOGS[k]], log=text)
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
    assert fly_logged([CORRIDOR_CRASH])[0].collision.occurred


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
            coverage_series_csv(io.BytesIO(edited.encode("ascii")),
                                OccupancyGrid(room.width, room.height), io.StringIO(),
                                hashlib.blake2b(digest_size=8))
        assert str(got.value) == str(exc)
        return
    grid, sink = OccupancyGrid(room.width, room.height), io.StringIO()
    hasher = hashlib.blake2b(digest_size=8)
    final = coverage_series_csv(io.BytesIO(edited.encode("ascii")), grid, sink, hasher)
    assert sink.getvalue() == want
    assert final == f"{want_grid.coverage():.6f}"
    assert [v.hex() for v in grid.dwell] == [v.hex() for v in want_grid.dwell]
    assert grid.ticks == want_grid.ticks and grid.coverage() == want_grid.coverage()
    assert hasher.digest() == hashlib.blake2b(edited.encode("ascii"), digest_size=8).digest()


def _with_byte(line: bytes) -> bytes:
    """``line`` with the byte 0xe9, which is outside ASCII, after its first comma."""
    return line.replace(b",", b",\xe9", 1)


# edits of the lines of a log (bytes, the header at 0) whose second block
# starts at line ``b``, each returning the error that names the first bad line
def _bad_line_first(lines, b):
    # a repeated t in the first block, a byte outside ASCII in the second
    lines[5] = lines[4]
    lines[b + 300] = _with_byte(lines[b + 300])
    return "line 6: t does not increase"


def _undecodable_first(lines, b):
    # the first block's last sample outside the room: the line after it,
    # in the second block, holds a byte outside ASCII
    lines[b - 1] = lines[b - 1].replace(b",", b",-", 1)
    lines[b + 300] = _with_byte(lines[b + 300])
    x, y = map(float, lines[b - 1].split(b",")[1:3])
    return f"line {b}: ({x}, {y}) lies outside the 6.5 x 5.5 m room"


def _repeated_t_then_byte(lines, b):
    # both faults early in the first block, 39 lines apart
    lines[10] = lines[9]
    lines[49] = _with_byte(lines[49])
    return "line 11: t does not increase"


def _outside_then_byte(lines, b):
    # both faults early in the first block, 45 lines apart
    fields = lines[10].split(b",")
    fields[1] = b"-5.000000"
    lines[10] = b",".join(fields)
    lines[55] = _with_byte(lines[55])
    return f"line 11: (-5.0, {float(fields[2])}) lies outside the 6.5 x 5.5 m room"


def _lone_byte(lines, b):
    # deep in the log, past its first block
    assert b < 1199
    lines[1199] = _with_byte(lines[1199])
    return "line 1200: 'ascii' codec can't decode byte 0xe9 in position "


@pytest.mark.parametrize("edit", [_bad_line_first, _undecodable_first, _repeated_t_then_byte,
                                  _outside_then_byte, _lone_byte],
                         ids=["bad-line-first", "undecodable-first", "repeated-t-then-byte",
                              "outside-then-byte", "lone-byte"])
def test_faults_before_undecodable_text_come_first(tmp_path, edit):
    text, starts = block_log(1)
    lines = text.encode("ascii").splitlines(keepends=True)
    message = edit(lines, starts[1])
    path = tmp_path / "trajectory.csv"
    path.write_bytes(b"".join(lines))
    with open(path, "rb") as log:
        with pytest.raises(SimError) as got:
            coverage_series_csv(log, OccupancyGrid(6.5, 5.5), io.StringIO(),
                                hashlib.blake2b(digest_size=8))
    assert str(got.value).startswith(message)
