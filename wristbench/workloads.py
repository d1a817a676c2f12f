"""The three workloads: ``cohort``, ``imaging`` and ``fleet``.

Each workload has a fixed *set* of work units derived from the seed
(subject chunks, image frames, device bursts). A pass runs the set
once; an untraced run then keeps cycling through it until the
measuring time is up, so later units repeat earlier ones and must
reproduce their digests exactly. The program is driven only through
its public functions; the optional ``tracer`` records spans around the
benchmark's own phases.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

# -- cohort ------------------------------------------------------------------

#: Subjects per ``run_population`` call (its minimum is 3).
COHORT_CHUNK = 4
#: Chunks in the cohort: 40 subjects, 10 s records each.
COHORT_CHUNKS = 10
COHORT_RECORD_S = 10.0
#: Numeric guard on the cohort: mean |systolic, diastolic| error.
#: Seeds measured 2.2-2.6 mmHg; the AAMI mean-error limit is 5 mmHg.
COHORT_MAE_LIMIT_MMHG = 3.5

# -- imaging -----------------------------------------------------------------

IMAGING_SIZE = 16
IMAGING_PITCH_M = 0.6e-3
#: Frames in the set; their lateral offsets are stratified over
#: +-IMAGING_OFFSET_M so the set covers the placement range evenly.
IMAGING_FRAMES = 4
IMAGING_OFFSET_M = 0.8e-3
IMAGING_ROTATION_RAD = 0.1
#: Per-frame bound on the recovered artery line's transverse error
#: (one sixth of the element pitch).
IMAGING_ERR_LIMIT_M = 100e-6

# -- fleet -------------------------------------------------------------------

FLEET_SPF = 32
#: Frames per device per burst: one full 16-bit sequence period.
FLEET_FRAMES = 65536
#: Frames per payload block (the unit the chaos schedule is applied
#: to), and bytes per TCP write in a burst.
FLEET_BLOCK = 64
FLEET_WRITE_BYTES = 1 << 15
#: Chaos schedule on one device: every kind at this rate, on the
#: frame clock below (the repo's gateway gate uses the same pair).
FLEET_FAULT_RATE_HZ = 1.0
FLEET_FAULT_FRAME_RATE_HZ = 50.0
#: Frames at the end of each chaos stream sent without faults. A
#: truncated or length-corrupted final frame makes the gateway's demux
#: take the BYE behind it for frame bytes (see NOTES.md, defect 3);
#: one block covers the longest length a corrupted header can claim.
FLEET_CLEAN_TAIL = FLEET_BLOCK
#: Open-loop phase: total offered rate over both devices, about 1/15
#: of the saturated burst rate on a 2-core host. Generator and gateway
#: share one event loop; at 1/3 and 1/6 of the burst rate the p99 of
#: repeated runs ranged 14-30 ms and 6-17 ms, at this rate 5.3-6.2 ms.
FLEET_OFFERED_FPS = 20_000.0
#: Generator tick, the USB frame clock: frames due within one tick go
#: out in one write.
FLEET_TICK_S = 0.001
#: Latency limit on the open-loop p99 (the gateway gate's ceiling).
#: Frames later than this are counted and reported, not failed: a
#: late frame arrived intact, and on a shared host a scheduler stall
#: alone can push single frames past it.
FLEET_LATENCY_LIMIT_S = 0.050
#: How long a burst or the open-loop tail may take to settle.
FLEET_SETTLE_TIMEOUT_S = 20.0

WORKLOADS = ("cohort", "imaging", "fleet")


@dataclass
class Outcome:
    """What one pass (or one measured run) did."""

    #: Host seconds per unit of work (subject, frame; burst for fleet).
    unit_seconds: list = field(default_factory=list)
    units: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""
    #: Workload numbers for the run record.
    details: dict = field(default_factory=dict)
    #: Run-level per-layer counters, keyed by metric name.
    extras: dict = field(default_factory=dict)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _sub_seed(seed: int, *keys: int) -> int:
    """A child seed of ``seed``; the same keys give the same child."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1)
    return int(state[0])


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _cycle(units: int, deadline: float | None, min_units: int):
    """Unit indices: ``min_units`` of them, then more until ``deadline``."""
    i = 0
    while i < min_units or (deadline is not None and time.perf_counter() < deadline):
        yield i, i % units
        i += 1


# -- cohort ------------------------------------------------------------------


def cohort_prepare(seed: int) -> dict:
    return {
        "seeds": [_sub_seed(seed, k) for k in range(COHORT_CHUNKS)],
    }


def cohort_digest(result) -> str:
    """Digest of one chunk's mmHg results (errors, waveform RMS, draws)."""
    return _hash(
        result.systolic_errors_mmhg,
        result.diastolic_errors_mmhg,
        result.waveform_rms_mmhg,
        result.subjects,
    )


def cohort_check(
    results: list, digests: dict, repeats: list
) -> list[str]:
    """Cohort correctness: AAMI, the numeric guard, stable digests.

    ``results`` holds the first result of each chunk, ``digests`` the
    digest of each chunk's first run and ``repeats`` the ``(chunk,
    digest)`` of every later run of a chunk.
    """
    from repro.experiments.population import PopulationResult

    failures = []
    for chunk, digest in repeats:
        if digest != digests[chunk]:
            failures.append(f"cohort chunk {chunk}: digest changed on repeat")
    if not results:
        return failures + ["cohort: no chunk completed"]
    cohort = PopulationResult(
        systolic_errors_mmhg=np.concatenate(
            [r.systolic_errors_mmhg for r in results]
        ),
        diastolic_errors_mmhg=np.concatenate(
            [r.diastolic_errors_mmhg for r in results]
        ),
        waveform_rms_mmhg=np.concatenate([r.waveform_rms_mmhg for r in results]),
        subjects=tuple(s for r in results for s in r.subjects),
    )
    if not cohort.passes_aami():
        failures.append("cohort: fails the AAMI criterion")
    mae = cohort_mae(results)
    if not mae <= COHORT_MAE_LIMIT_MMHG:
        failures.append(
            f"cohort: mean |error| {mae:.3f} mmHg above "
            f"{COHORT_MAE_LIMIT_MMHG} mmHg"
        )
    return failures


def cohort_mae(results: list) -> float:
    errors = np.concatenate(
        [
            np.abs(np.concatenate([r.systolic_errors_mmhg, r.diastolic_errors_mmhg]))
            for r in results
        ]
    )
    return float(errors.mean())


def cohort_pass(inputs, objects, tracer=None, deadline=None, min_units=None):
    from repro.errors import ReproError
    from repro.experiments import population
    from repro.parallel import precompute_cache

    out = Outcome()
    seeds = inputs["seeds"]
    hits0, misses0 = precompute_cache().stats()
    first: dict[int, str] = {}
    results = []
    repeats = []
    for i, k in _cycle(len(seeds), deadline, min_units or len(seeds)):
        t0 = time.perf_counter()
        try:
            result = population.run_population(
                n_subjects=COHORT_CHUNK,
                duration_s=COHORT_RECORD_S,
                seed=seeds[k],
                jobs=1,
            )
        except ReproError as exc:
            out.failed += COHORT_CHUNK
            out.failures.append(f"cohort chunk {k}: {exc!r}")
            result = None
        seconds = time.perf_counter() - t0
        out.attempted += COHORT_CHUNK
        out.units += COHORT_CHUNK
        out.unit_seconds.append(seconds / COHORT_CHUNK)
        if result is None:
            continue
        digest = cohort_digest(result)
        if i < len(seeds):
            first[k] = digest
            results.append(result)
        else:
            repeats.append((k, digest))
    out.failures += cohort_check(results, first, repeats)
    out.digest = _hash(*[first.get(k) for k in range(len(seeds))])
    hits, misses = precompute_cache().stats()
    hits, misses = hits - hits0, misses - misses0
    mae = cohort_mae(results) if results else float("nan")
    out.details = {
        "subjects": out.units,
        "subjects_in_set": COHORT_CHUNK * len(seeds),
        "bp_mae_mmhg": mae,
    }
    out.extras = {
        "calibration.subjects": COHORT_CHUNK * len(results),
        "calibration.bp_mae_mmhg": mae,
        "parallel.cache.hits": hits,
        "parallel.cache.misses": misses,
        "parallel.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
    return out


# -- imaging -----------------------------------------------------------------


def imaging_params():
    """The 16x16 noiseless chain ``run_imaging`` builds."""
    from repro.params import ArrayParams, NonidealityParams, SystemParams

    base = SystemParams()
    membrane = dataclasses.replace(base.array.membrane, pitch_m=IMAGING_PITCH_M)
    return base.replace(
        array=ArrayParams(rows=IMAGING_SIZE, cols=IMAGING_SIZE, membrane=membrane),
        nonideality=NonidealityParams.ideal(),
    )


def imaging_prepare(seed: int) -> dict:
    rng = np.random.default_rng(_sub_seed(seed, 1))
    width = 2 * IMAGING_OFFSET_M / IMAGING_FRAMES
    frames = []
    for i in range(IMAGING_FRAMES):
        frames.append(
            {
                "lateral_offset_m": -IMAGING_OFFSET_M + (i + rng.uniform()) * width,
                "rotation_rad": float(
                    rng.uniform(-IMAGING_ROTATION_RAD, IMAGING_ROTATION_RAD)
                ),
                "seed": _sub_seed(seed, 2, i),
            }
        )
    return {"frames": frames}


@contextlib.contextmanager
def scan_observer():
    """Collect every :class:`ScanController` after each ``scan_records``.

    One wrapper call per frame; it lets the check read the scan's own
    truncation books, which :class:`ImagingResult` only sums.
    """
    from repro.array.scan import ScanController

    seen = []
    original = ScanController.scan_records

    def observed(self, *args, **kwargs):
        records = original(self, *args, **kwargs)
        seen.append((self.last_scan_fused, self.last_scan_truncation, len(records)))
        return records

    ScanController.scan_records = observed
    try:
        yield seen
    finally:
        ScanController.scan_records = original


def imaging_check(result, scans) -> list[str]:
    """One frame: fused path, artery within bound, truncation booked."""
    failures = []
    if not result.fused:
        failures.append("imaging: scan fell back from the fused path")
    err = result.transverse_error_m
    if not err <= IMAGING_ERR_LIMIT_M:
        failures.append(
            f"imaging: artery error {err * 1e6:.1f} um above "
            f"{IMAGING_ERR_LIMIT_M * 1e6:.0f} um"
        )
    if len(scans) != 1:
        return failures + [f"imaging: expected one scan per frame, saw {len(scans)}"]
    fused, truncation, kept = scans[0]
    if not fused:
        failures.append("imaging: last_scan_fused is False")
    if truncation is None:
        failures.append("imaging: scan truncation not booked")
    elif (
        truncation.total_dropped != result.truncated_words
        or truncation.words_kept != kept
        or np.any(
            truncation.words_recorded - truncation.words_dropped
            != truncation.words_kept
        )
    ):
        failures.append("imaging: truncation books do not balance")
    return failures


def imaging_digest(result) -> str:
    return _hash(
        result.amplitude_map,
        result.est_transverse_m,
        result.est_angle_rad,
        result.truncated_words,
    )


def imaging_pass(inputs, objects, tracer=None, deadline=None, min_units=None):
    from repro.errors import ReproError
    from repro.experiments import imaging

    out = Outcome()
    frames = inputs["frames"]
    first: dict[int, str] = {}
    errors = []
    for i, k in _cycle(len(frames), deadline, min_units or len(frames)):
        frame = frames[k]
        out.attempted += 1
        with scan_observer() as scans:
            t0 = time.perf_counter()
            try:
                result = imaging.run_imaging(
                    rows=IMAGING_SIZE,
                    cols=IMAGING_SIZE,
                    pitch_m=IMAGING_PITCH_M,
                    lateral_offset_m=frame["lateral_offset_m"],
                    rotation_rad=frame["rotation_rad"],
                    seed=frame["seed"],
                )
            except ReproError as exc:
                result = None
                out.failures.append(f"imaging frame {k}: {exc!r}")
            seconds = time.perf_counter() - t0
        out.unit_seconds.append(seconds)
        out.units += 1
        if result is None or not math.isfinite(result.est_transverse_m):
            out.failed += 1
            continue
        out.failures += imaging_check(result, scans)
        digest = imaging_digest(result)
        if i < len(frames):
            first[k] = digest
            errors.append(result.transverse_error_m)
        elif digest != first.get(k):
            out.failures.append(f"imaging frame {k}: digest changed on repeat")
    out.digest = _hash(*[first.get(k) for k in range(len(frames))])
    err_um = float(np.mean(errors) * 1e6) if errors else float("nan")
    out.details = {"frames": out.units, "artery_err_um": err_um}
    out.extras = {
        "array.imaging.frames": out.units,
        "array.imaging.artery_err_um": err_um,
    }
    return out


# -- fleet -------------------------------------------------------------------


def _chaos_injector(seed: int, frames: int):
    """The chaos schedule over a stream's first ``frames`` frames, bound
    to the frame clock."""
    from repro.faults import FaultInjector, FaultSpec
    from repro.gateway.chaos import CHAOS_KINDS

    specs = [
        FaultSpec(kind=kind, rate_hz=FLEET_FAULT_RATE_HZ, magnitude=m)
        for kind, m in zip(CHAOS_KINDS, (1.0, 0.5, 1.0, 1.0))
    ]
    injector = FaultInjector(
        specs, seed=seed, horizon_s=frames / FLEET_FAULT_FRAME_RATE_HZ
    )
    injector.bind_link(FLEET_FAULT_FRAME_RATE_HZ)
    return injector


def fleet_prepare(seed: int, open_s: float) -> dict:
    """Pre-generated wire bytes: clean frames, the chaos burst and open-loop lane.

    Frames repeat with the 16-bit sequence period (the sample pattern's
    period of 128 frames divides it), so one period of frames serves a
    stream of any length. The chaos schedule is applied per payload
    block, as ``DeviceClient`` applies it, up to the clean tail; every
    burst resends the same faulted bytes, so the chaos lane's books
    repeat too.
    """
    from repro.gateway.client import synthetic_payloads

    t0 = time.perf_counter()
    frames = list(synthetic_payloads(FLEET_FRAMES + 1, FLEET_SPF))
    if frames[FLEET_FRAMES] != frames[0]:
        raise RuntimeError("synthetic frames do not repeat with the sequence")
    frames.pop()
    blocks = [
        b"".join(frames[i : i + FLEET_BLOCK])
        for i in range(0, FLEET_FRAMES, FLEET_BLOCK)
    ]
    tail_blocks = FLEET_CLEAN_TAIL // FLEET_BLOCK
    burst_injector = _chaos_injector(_sub_seed(seed, 4), FLEET_FRAMES - FLEET_CLEAN_TAIL)
    chaos_burst = b"".join(
        [burst_injector.apply_payload(b) for b in blocks[:-tail_blocks]]
        + blocks[-tail_blocks:]
    )
    frame_bytes = len(frames[0])
    n_open = int(FLEET_OFFERED_FPS / 2 * open_s)  # frames per device
    if n_open <= FLEET_CLEAN_TAIL:
        raise ValueError(f"open-loop phase too short: {n_open} frames per device")
    injector = _chaos_injector(_sub_seed(seed, 3), n_open - FLEET_CLEAN_TAIL)
    chaos = [
        injector.apply_payload(frames[k % FLEET_FRAMES])
        for k in range(n_open - FLEET_CLEAN_TAIL)
    ] + [frames[k % FLEET_FRAMES] for k in range(n_open - FLEET_CLEAN_TAIL, n_open)]
    offsets = np.zeros(n_open + 1, dtype=np.int64)
    np.cumsum([len(c) for c in chaos], out=offsets[1:])
    return {
        "seed": seed,
        "clean_period": b"".join(frames),
        "chaos_burst": chaos_burst,
        "chaos_burst_faults": burst_injector.events_applied,
        "frame_bytes": frame_bytes,
        "open_frames": n_open,
        "chaos_open": b"".join(chaos),
        "chaos_offsets": offsets,
        "chaos_faults": injector.events_applied,
        "prepare_s": time.perf_counter() - t0,
    }


def expected_words(n_frames: int) -> np.ndarray:
    from repro.gateway.client import expected_codes

    return expected_codes(n_frames, FLEET_SPF).astype(np.int64)


def lane_books(session, frames_sent: int) -> dict:
    """One session's frame books against what its client sent.

    ``unbooked`` frames were sent but are neither decoded nor booked
    lost: a connection that died before its BYE leaves them behind
    without the gateway noticing. A device that never got a session
    (``session is None``) has all its frames unbooked.
    """
    if session is None:
        return {"sent": frames_sent, "decoded": 0, "lost": 0,
                "unbooked": frames_sent, "unaccounted": 0, "bye": False,
                "bytes_in": 0, "chunks_shed": 0}
    view = session.telemetry_view()
    unbooked = frames_sent - view.frames_decoded - view.lost_frames
    return {
        "sent": frames_sent,
        "decoded": view.frames_decoded,
        "lost": view.lost_frames,
        "unbooked": unbooked,
        "unaccounted": view.frames_unaccounted,
        "bye": session.bye_seen,
        "bytes_in": session.bytes_in,
        "chunks_shed": session.chunks_shed,
    }


def fleet_check(books: dict, words: np.ndarray, clean: bool, label: str) -> list[str]:
    """A lane's books balance; a clean lane's words are bit-exact."""
    failures = []
    if books["unbooked"] < 0:
        failures.append(f"{label}: {-books['unbooked']} frames booked twice")
    if books["bye"] and books["unbooked"] != books["unaccounted"]:
        failures.append(
            f"{label}: gateway books {books['unaccounted']} unaccounted, "
            f"client counts {books['unbooked']} unbooked"
        )
    if clean:
        want = expected_words(books["sent"])
        if books["decoded"] != books["sent"] or not np.array_equal(words, want):
            failures.append(f"{label}: clean lane words differ from expected_codes")
    return failures


async def _settle(server, device_ids, timeout_s: float) -> bool:
    """Wait until each session saw its BYE or lost its connection."""
    from repro.gateway import ConnectionState

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        sessions = [server.sessions.get(d) for d in device_ids]
        if all(
            s is not None
            and (s.bye_seen or s.state is not ConnectionState.HEALTHY)
            for s in sessions
        ):
            return True
        await asyncio.sleep(0.001)
    return False


def _retire(server, device_ids) -> None:
    for did in device_ids:
        session = server.sessions.pop(did, None)
        if session is not None:
            session.finalize()
            if server.plane is not None:
                server.plane.detach(session)


class _Lane:
    """Sender state for one device connection (open loop or burst)."""

    def __init__(self, device_id, data, offsets, frames, rate_hz):
        self.device_id = device_id
        self.data = data
        self.offsets = offsets  # None: fixed-size cyclic frames
        self.frames = frames
        self.rate_hz = rate_hz
        self.decoded_at = np.full(frames, np.nan)
        self.last_k = -1
        self.lags: list[float] = []
        self.reader = None
        self.writer = None
        self.acks = None
        #: Bytes the gateway sent back (ACKs) after the handshake.
        self.bytes_back = 0
        #: Why a burst send stopped early, if it did.
        self.error = None

    def chunk(self, start: int, stop: int, frame_bytes: int) -> bytes:
        if self.offsets is not None:
            return self.data[self.offsets[start] : self.offsets[stop]]
        period = len(self.data)
        a, b = start * frame_bytes % period, stop * frame_bytes % period
        if stop - start >= FLEET_FRAMES:
            raise ValueError("a write may not span a whole sequence period")
        if a < b or stop == start:
            return self.data[a:b]
        return self.data[a:] + self.data[:b]

    def hook(self, sequence: int, t_decoded: float) -> None:
        """Decode stamp per frame; unwraps the 16-bit sequence."""
        predicted = self.last_k + 1
        k = predicted + ((sequence - predicted + 0x8000) & 0xFFFF) - 0x8000
        if 0 <= k < self.frames and self.decoded_at[k] != self.decoded_at[k]:
            self.decoded_at[k] = t_decoded
        if k > self.last_k:
            self.last_k = k


async def _read_acks(lane: _Lane) -> None:
    """Consume whatever the gateway sends until it closes the socket.

    The sender keeps reading to the gateway's EOF: closing a socket
    with unread ACKs makes the kernel reset the connection, and the
    gateway then loses every byte it had not read yet.
    """
    with contextlib.suppress(ConnectionError, OSError):
        while data := await lane.reader.read(4096):
            lane.bytes_back += len(data)


async def _open_lane(server, lane: _Lane, stamp: bool = True) -> None:
    from repro.gateway import ControlDemux, pack_hello

    lane.reader, lane.writer = await asyncio.open_connection(
        server.host, server.port
    )
    lane.writer.write(pack_hello(lane.device_id))
    await lane.writer.drain()
    demux = ControlDemux()
    while True:
        data = await lane.reader.read(1024)
        if not data:
            raise ConnectionError("gateway closed during the handshake")
        _, events = demux.feed(data)
        if any(e.kind == "ack" for e in events):
            break
    if stamp:
        server.sessions[lane.device_id].frame_hook = lane.hook
    lane.acks = asyncio.create_task(_read_acks(lane))


async def _send_lane(lane: _Lane, t0: float, frame_bytes: int, faults: int, tracer):
    from repro.gateway import pack_bye

    sent = 0
    writer = lane.writer
    while sent < lane.frames:
        now = time.monotonic()
        due = min(lane.frames, int((now - t0) * lane.rate_hz) + 1)
        if due > sent:
            with _span(tracer, "gen"):
                writer.write(lane.chunk(sent, due, frame_bytes))
                lane.lags.append(now - (t0 + sent / lane.rate_hz))
            sent = due
            if writer.transport.get_write_buffer_size() > 1 << 20:
                await writer.drain()
        next_due = t0 + sent / lane.rate_hz
        await asyncio.sleep(max(FLEET_TICK_S, next_due - time.monotonic()))
    writer.write(pack_bye(lane.frames, faults))
    await writer.drain()


async def _close_lane(lane: _Lane) -> None:
    with contextlib.suppress(ConnectionError, OSError):
        lane.writer.write_eof()
    with contextlib.suppress(asyncio.TimeoutError):
        await asyncio.wait_for(lane.acks, FLEET_SETTLE_TIMEOUT_S)
    lane.writer.close()
    with contextlib.suppress(ConnectionError, OSError):
        await lane.writer.wait_closed()


async def _send_all(lane: _Lane, faults: int, tracer) -> None:
    """Send the lane's whole stream as fast as TCP allows, then BYE."""
    from repro.gateway import pack_bye

    writer = lane.writer
    view = memoryview(lane.data)
    for start in range(0, len(view), FLEET_WRITE_BYTES):
        with _span(tracer, "gen"):
            writer.write(view[start : start + FLEET_WRITE_BYTES])
        await writer.drain()
    writer.write(pack_bye(lane.frames, faults))
    await writer.drain()


async def _burst(server, inputs, burst: int, tracer) -> dict:
    """Both devices send one period of frames as fast as TCP allows."""
    chaos = _Lane(2 * burst, inputs["chaos_burst"], None, FLEET_FRAMES, 0.0)
    clean = _Lane(2 * burst + 1, inputs["clean_period"], None, FLEET_FRAMES, 0.0)
    lanes = (chaos, clean)
    ids = [lane.device_id for lane in lanes]
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    with _span(tracer, "gateway.server"):
        for lane in lanes:
            await _open_lane(server, lane, stamp=False)

        async def send(lane, faults):
            try:
                await _send_all(lane, faults, tracer)
            except (ConnectionError, OSError) as exc:
                lane.error = exc
            await _close_lane(lane)

        await asyncio.gather(
            send(chaos, inputs["chaos_burst_faults"]), send(clean, 0)
        )
        settled = await _settle(server, ids, FLEET_SETTLE_TIMEOUT_S)
        drained = await server.drain(timeout_s=FLEET_SETTLE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    failures = []
    if not settled:
        failures.append(f"burst {burst}: sessions never settled")
    if not drained:
        failures.append(f"burst {burst}: gateway did not drain")
    for lane in lanes:
        if lane.error is not None:
            failures.append(f"burst {burst} device {lane.device_id}: send failed: {lane.error!r}")
    books = []
    words = []
    for lane in lanes:
        session = server.sessions[lane.device_id]
        lane_b = lane_books(session, FLEET_FRAMES)
        lane_words = session.codes(0)
        failures += fleet_check(
            lane_b, lane_words, lane is clean, f"burst {burst} device {lane.device_id}"
        )
        books.append(lane_b)
        words.append(lane_words)
    _retire(server, ids)
    chaos_b = books[0]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "lanes": books,
        "failures": failures,
        "digest": _hash(*words, chaos_b["decoded"], chaos_b["lost"]),
        "chaos_bytes_back": chaos.bytes_back,
    }


async def _open_loop(server, inputs, tracer) -> dict:
    """Both devices send at a fixed offered rate, each frame on schedule."""
    n = inputs["open_frames"]
    rate = FLEET_OFFERED_FPS / 2
    chaos = _Lane(1_000_000, inputs["chaos_open"], inputs["chaos_offsets"], n, rate)
    clean = _Lane(1_000_001, inputs["clean_period"], None, n, rate)
    lanes = (chaos, clean)
    for lane in lanes:
        await _open_lane(server, lane)
    t0 = time.monotonic() + 0.005
    wall0 = time.perf_counter()
    with _span(tracer, "gateway.server"):
        await asyncio.gather(
            _send_lane(chaos, t0, inputs["frame_bytes"], inputs["chaos_faults"], tracer),
            _send_lane(clean, t0, inputs["frame_bytes"], 0, tracer),
        )
        ids = [lane.device_id for lane in lanes]
        settled = await _settle(server, ids, FLEET_SETTLE_TIMEOUT_S)
        drained = await server.drain(timeout_s=FLEET_SETTLE_TIMEOUT_S)
        for lane in lanes:
            await _close_lane(lane)
    wall = time.perf_counter() - wall0
    failures = []
    if not settled:
        failures.append("open loop: sessions never settled")
    if not drained:
        failures.append("open loop: gateway did not drain")
    sched = t0 + np.arange(n) / rate
    latencies = []
    late = 0
    books = []
    words = []
    for lane in lanes:
        session = server.sessions[lane.device_id]
        lane_b = lane_books(session, n)
        lane_words = session.codes(0)
        failures += fleet_check(
            lane_b, lane_words, lane is clean, f"open loop device {lane.device_id}"
        )
        lat = lane.decoded_at - sched
        got = lat[np.isfinite(lat)]
        late += int(np.count_nonzero(got > FLEET_LATENCY_LIMIT_S))
        latencies.append(got)
        books.append(lane_b)
        words.append(lane_words)
    _retire(server, ids)
    lags = np.array(chaos.lags + clean.lags)
    return {
        "wall_s": wall,
        "lanes": books,
        "latency_s": np.concatenate(latencies),
        "late": late,
        "lag_p99_s": float(np.percentile(lags, 99)) if lags.size else 0.0,
        "failures": failures,
        "digest": _hash(*words),
    }


async def _fleet_async(server, inputs, tracer, deadline, min_bursts, open_loop):
    await server.start()
    try:
        tail = await _open_loop(server, inputs, tracer) if open_loop else None
        bursts = []
        for i, _ in _cycle(1, deadline, min_bursts):
            bursts.append(await _burst(server, inputs, i, tracer))
        server_metrics = server.metrics()
    finally:
        await server.stop()
    return bursts, tail, server_metrics


def fleet_pass(
    inputs, objects, tracer=None, deadline=None, min_units=None, open_loop=True
):
    from repro.gateway import GatewayServer

    server = objects.pop("server", None) or GatewayServer(samples_per_frame=FLEET_SPF)
    bursts, tail, metrics = asyncio.run(
        _fleet_async(server, inputs, tracer, deadline, min_units or 1, open_loop)
    )
    out = Outcome()
    digests = {b["digest"] for b in bursts}
    if len(digests) != 1:
        out.failures.append("fleet: burst digest changed between bursts")
    fps = []
    resets = unbooked = bytes_in = shed = 0
    for b in bursts:
        out.failures += b["failures"]
        decoded = sum(lane["decoded"] for lane in b["lanes"])
        fps.append(decoded / b["wall_s"])
        out.unit_seconds.append(b["wall_s"])
        for lane in b["lanes"]:
            out.attempted += lane["sent"]
            out.failed += max(lane["unbooked"], 0)
    lanes = [lane for b in bursts for lane in b["lanes"]]
    if tail is not None:
        out.failures += tail["failures"]
        lanes += tail["lanes"]
        for lane in tail["lanes"]:
            out.attempted += lane["sent"]
            out.failed += max(lane["unbooked"], 0)
    for lane in lanes:
        resets += int(not lane["bye"])
        unbooked += max(lane["unbooked"], 0)
        bytes_in += lane["bytes_in"]
        shed += lane["chunks_shed"]
    out.units = len(bursts)
    out.digest = _hash(sorted(digests), tail["digest"] if tail else None)
    plane = metrics.get("batch_plane") or {}
    lat = tail["latency_s"] * 1e3 if tail is not None else np.zeros(0)
    p50 = float(np.percentile(lat, 50)) if lat.size else float("nan")
    p99 = float(np.percentile(lat, 99)) if lat.size else float("nan")
    prepare_s = inputs["prepare_s"]
    out.details = {
        "bursts": len(bursts),
        "burst_fps": fps,
        "burst_wall_s": [b["wall_s"] for b in bursts],
        "burst_cpu_s": [b["cpu_s"] for b in bursts],
        "fleet_fps": float(np.median(fps)) if fps else float("nan"),
        "frame_p50_ms": p50,
        "frame_p99_ms": p99,
        "frame_max_ms": float(lat.max()) if lat.size else float("nan"),
        "p99_within_limit": bool(p99 <= FLEET_LATENCY_LIMIT_S * 1e3),
        "frame_samples": int(lat.size),
        "late_frames": tail["late"] if tail else 0,
        "offered_fps": FLEET_OFFERED_FPS,
        "open_loop_wall_s": tail["wall_s"] if tail else 0.0,
        "frames_unbooked": unbooked,
        "resets": resets,
        "lanes": lanes,
        "faults_burst": inputs["chaos_burst_faults"],
        "chaos_bytes_back": [b["chaos_bytes_back"] for b in bursts],
        "faults_open_loop": inputs["chaos_faults"],
    }
    out.extras = {
        "gateway.plane.ticks": plane.get("ticks", 0),
        "gateway.plane.size_flushes": plane.get("size_flushes", 0),
        "gateway.plane.deadline_flushes": plane.get("deadline_flushes", 0),
        "gateway.plane.occupancy_mean": plane.get("occupancy_mean", 0.0),
        "gateway.server.bytes_in": bytes_in,
        "gateway.server.chunks_shed": shed,
        "gateway.server.resets": resets,
        "gateway.server.frames_unbooked": unbooked,
        "gateway.server.frame_p50_ms": p50,
        "gateway.server.frame_p99_ms": p99,
        "gateway.server.frame_samples": int(lat.size),
        "gateway.server.late_frames": tail["late"] if tail else 0,
        "gen.lag_p99_ms": tail["lag_p99_s"] * 1e3 if tail else 0.0,
        "gen.prepare_s": prepare_s,
    }
    return out


def warm_up(workload: str, inputs, objects) -> None:
    """Run the set's first unit once, untimed and unchecked.

    A traced run compares two passes in one process; without this the
    first pass alone would pay first-touch costs (page faults, lazy
    tables) and the tracing overhead would read low.
    """
    if workload == "cohort":
        cohort_pass({"seeds": inputs["seeds"][:1]}, objects)
    elif workload == "imaging":
        imaging_pass({"frames": inputs["frames"][:1]}, objects)
    else:
        fleet_pass(inputs, objects, min_units=1, open_loop=False)


PREPARE = {
    "cohort": lambda seed, seconds: cohort_prepare(seed),
    "imaging": lambda seed, seconds: imaging_prepare(seed),
    "fleet": lambda seed, seconds: fleet_prepare(seed, fleet_open_seconds(seconds)),
}
PASSES = {"cohort": cohort_pass, "imaging": imaging_pass, "fleet": fleet_pass}


def fleet_open_seconds(seconds: float) -> float:
    """Open-loop phase length: a fixed share of the measuring time.

    The phase runs first, on a fresh server; bursts fill the rest.
    """
    return 0.4 * seconds
