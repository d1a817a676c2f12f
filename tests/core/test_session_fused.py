"""The single session's compiled dispatch against the reference loop.

Whenever the batch kernel can take a chunk, an
:class:`~repro.core.session.AcquisitionSession` runs it as a one-lane
batch-engine pass (compiled front end + fused ΣΔ/CIC/FIR) followed by
the FPGA's real post-filter path and USB framing. A ``backend=
"reference"`` chain built from the same seed never takes that path (the
Python loop is the oracle), so comparing the two pins the dispatch to
the reference bits: codes, losses, every telemetry counter and the
chain state a later session resumes from.
"""

from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchAcquisitionSession
from repro.batch import kernel as batch_kernel
from repro.core.chain import ReadoutChain
from repro.core.session import PipelineTelemetry
from repro.errors import SimulationError
from repro.faults import FaultInjector
from repro.params import NonidealityParams, SystemParams

SEED = 21
N = 25_651  # ~200 words: whole frames, a partial frame and a residue
#: Counters that depend on the chunk split rather than the record.
SPLIT_COUNTERS = ("chunks", "fused_chunks", "peak_chunk_bytes")
COUNTERS = tuple(
    f.name
    for f in fields(PipelineTelemetry)
    if f.name not in ("stage_seconds", "fused_chunks")
)


def make_chain(backend: str, ideal: bool = False) -> ReadoutChain:
    params = SystemParams()
    if ideal:
        params = params.replace(nonideality=NonidealityParams.ideal())
    return ReadoutChain(
        params, rng=np.random.default_rng(SEED), backend=backend
    )


def pressure_field(n: int = N, n_elements: int = 4) -> np.ndarray:
    """Pulse-like per-element pressures well inside the membrane range."""
    t = np.arange(n) / 128e3
    p = 2500.0 * np.sin(2 * np.pi * 1.2 * t) + 1500.0 * np.sin(
        2 * np.pi * 97.0 * t
    )
    return p[:, None] + 150.0 * np.arange(n_elements)[None, :]


def cuts_to_chunks(field: np.ndarray, cuts) -> list[np.ndarray]:
    edges = [0, *sorted(cuts), field.shape[0]]
    return [field[a:b] for a, b in zip(edges[:-1], edges[1:])]


def record(chain, chunks, element=1, faults=None, kind="pressure", fresh=True):
    """Run one session; ``fresh=False`` when it resumes a cascade that
    still holds the previous session's residue (the filter-remainder
    identity is per fresh cascade, so only the rest is reconciled)."""
    session = chain.session(element=element, faults=faults)
    feed = session.feed_pressure if kind == "pressure" else session.feed_voltage
    words = [feed(chunk) for chunk in chunks]
    words.append(session.finish())
    rec = session.recording()
    assert np.array_equal(np.concatenate(words), rec.codes)
    if fresh:
        session.telemetry.reconcile()
    return rec, session.telemetry


def chain_state(chain) -> tuple:
    """Everything a later session resumes from, as comparable values."""
    m = chain.chip.modulator
    fpga = chain.fpga
    filt = fpga.filter
    return (
        m.stage1.state,
        m.stage2.state,
        m.comparator.previous_decision,
        m._last_input,
        chain.chip.mux._just_switched,
        tuple(filt.cic._integrators.tolist()),
        tuple(filt.cic._combs.ravel().tolist()),
        filt.cic._phase,
        tuple(filt.fir._history.tolist()),
        filt.fir._phase,
        fpga.samples_in,
        fpga.words_filtered,
        fpga.words_suppressed,
        fpga._suppress,
        fpga.encoder.frames_emitted,
        fpga.encoder.pending_samples,
    )


def expected_fused(chunks: int) -> int:
    return chunks if batch_kernel.batch_kernel_available() else 0


def assert_same(got, want, counters=COUNTERS):
    (rec_a, tm_a), (rec_b, tm_b) = got, want
    assert np.array_equal(rec_a.codes, rec_b.codes)
    assert rec_a.lost_samples == rec_b.lost_samples
    assert rec_a.lost_frames == rec_b.lost_frames
    assert np.array_equal(rec_a.quality, rec_b.quality)
    for name in counters:
        assert getattr(tm_a, name) == getattr(tm_b, name), name


def splits(R: int) -> dict:
    return {
        "whole": [],
        "first-1": [1],
        "R-1": [R - 1, 2 * (R - 1), 3 * (R - 1)],
        "R": [R, 2 * R, 3 * R],
        "R+1": [R + 1, 2 * (R + 1), 3 * (R + 1)],
    }


R = make_chain("fast").fpga.filter.params.total_decimation


class TestFusedEqualsReference:
    @pytest.mark.parametrize("split", sorted(splits(R)))
    @pytest.mark.parametrize("ideal", [False, True], ids=["noisy", "ideal"])
    def test_codes_counters_and_state(self, ideal, split):
        field = pressure_field()
        chunks = cuts_to_chunks(field, splits(R)[split])
        fast, ref = make_chain("fast", ideal), make_chain("reference", ideal)
        got = record(fast, chunks)
        want = record(ref, chunks)
        assert_same(got, want)
        assert got[1].fused_chunks == expected_fused(len(chunks))
        assert want[1].fused_chunks == 0
        assert chain_state(fast) == chain_state(ref)

    @pytest.mark.parametrize("ideal", [False, True], ids=["noisy", "ideal"])
    def test_voltage_path(self, ideal):
        t = np.arange(N) / 128e3
        v = 0.5 * 2.5 * np.sin(2 * np.pi * 15.625 * t)
        chunks = cuts_to_chunks(v, [R + 1, 5000])
        fast, ref = make_chain("fast", ideal), make_chain("reference", ideal)
        got = record(fast, chunks, element=None, kind="voltage")
        want = record(ref, chunks, element=None, kind="voltage")
        assert_same(got, want)
        assert got[1].fused_chunks == expected_fused(len(chunks))
        assert chain_state(fast) == chain_state(ref)

    def test_element_switch_between_sessions(self):
        """The second session's first sample carries the mux
        charge-injection glitch and its first words are suppressed."""
        field = pressure_field()
        fast, ref = make_chain("fast"), make_chain("reference")
        previous = None
        for element in (1, 2, 2, 0):
            chunks = cuts_to_chunks(field, [R + 1])
            fresh = element != previous
            got = record(fast, chunks, element=element, fresh=fresh)
            want = record(ref, chunks, element=element, fresh=fresh)
            previous = element
            assert_same(got, want)
            assert chain_state(fast) == chain_state(ref)
        assert fast.fpga.filter_resets == ref.fpga.filter_resets == 3

    def test_out_of_range_pressure_raises_reference_error(self):
        field = pressure_field()
        bad = field.copy()
        bad[R + 7 :, 1] = 1e9
        errors = []
        for backend in ("fast", "reference"):
            session = make_chain(backend).session(element=1)
            session.feed_pressure(field[: R + 7])
            with pytest.raises(SimulationError) as caught:
                session.feed_pressure(bad[R + 7 :])
            errors.append(str(caught.value))
            tm = session.telemetry
            assert tm.chunks == 2
            expected = expected_fused(1) if backend == "fast" else 0
            assert tm.fused_chunks == expected
            tm.reconcile()
        assert errors[0] == errors[1]
        assert "pressure outside transducer range" in errors[0]


@lru_cache(maxsize=None)
def reference_whole(ideal: bool):
    return record(make_chain("reference", ideal), [pressure_field()])


@settings(max_examples=20, deadline=None)
@given(
    ideal=st.booleans(),
    cuts=st.lists(st.integers(min_value=0, max_value=N), max_size=6),
)
def test_any_split_matches_reference(ideal, cuts):
    chunks = cuts_to_chunks(pressure_field(), cuts)
    got = record(make_chain("fast", ideal), chunks)
    counters = tuple(c for c in COUNTERS if c not in SPLIT_COUNTERS)
    assert_same(got, reference_whole(ideal), counters)
    fed = sum(1 for c in chunks if c.shape[0])
    assert got[1].chunks == fed
    assert got[1].fused_chunks == expected_fused(fed)


class TestFallbacks:
    """Each of these takes the per-stage path: no chunk runs compiled,
    and the bits still equal the reference loop."""

    def run_both(self, prepare, faults=None):
        chunks = cuts_to_chunks(pressure_field(), [R + 1, 9000])
        results = []
        for backend in ("fast", "reference"):
            chain = make_chain(backend)
            prepare(chain)
            results.append(
                record(
                    chain,
                    chunks,
                    faults=None if faults is None else faults(),
                )
            )
        got, want = results
        assert_same(got, want)
        assert got[1].chunks == len(chunks)
        assert got[1].fused_chunks == 0

    def test_fault_injection(self):
        self.run_both(lambda chain: None, lambda: FaultInjector([], seed=0))

    def test_loop_input_hook(self):
        def hook(chain):
            chain.chip.loop_input_hook = lambda u: u * 0.5

        self.run_both(hook)

    def test_metastable_comparator(self):
        def metastable(chain):
            chain.chip.modulator.comparator.metastable_band_v = 1e-3

        self.run_both(metastable)

    def test_no_batch_kernel(self, monkeypatch):
        monkeypatch.setattr(batch_kernel, "batch_kernel_available", lambda: False)
        self.run_both(lambda chain: None)


class TestOneLaneBatch:
    def test_staged_lanes(self):
        assert batch_kernel.staged_lanes(1) == 1
        assert batch_kernel.staged_lanes(2) == batch_kernel.LANE_BLOCK
        assert batch_kernel.staged_lanes(9) == 2 * batch_kernel.LANE_BLOCK
        # Multi-lane padding (and the fused scan's blocks) keep their
        # meaning: even one lane pads to a full block there.
        assert batch_kernel.pad_lanes(1) == batch_kernel.LANE_BLOCK

    @pytest.mark.parametrize("ideal", [False, True], ids=["noisy", "ideal"])
    def test_one_lane_batch_equals_single_session(self, ideal):
        field = pressure_field()
        chunks = cuts_to_chunks(field, [1, R + 1, 7000])
        single = record(make_chain("fast", ideal), chunks)
        batch = BatchAcquisitionSession([make_chain("fast", ideal)], element=1)
        for chunk in chunks:
            batch.feed_pressure([chunk])
        rec = batch.recording(0)
        tm = batch.telemetries[0]
        tm.reconcile()
        assert np.array_equal(rec.codes, single[0].codes)
        assert tm.fused_chunks == single[1].fused_chunks
        for name in COUNTERS:
            assert getattr(tm, name) == getattr(single[1], name), name

    @pytest.mark.parametrize("kind", ["pressure", "voltage"])
    def test_hooked_lane_books_like_single_session(self, kind):
        """A loop-input hook keeps both session kinds off the compiled
        front end, so both book no compiled chunk and the same bits."""
        if kind == "pressure":
            stimulus, element = pressure_field(), 1
        else:
            t = np.arange(N) / 128e3
            stimulus = 0.5 * 2.5 * np.sin(2 * np.pi * 15.625 * t)
            element = None
        chunks = cuts_to_chunks(stimulus, [R + 1, 7000])

        def hooked():
            chain = make_chain("fast", ideal=True)
            chain.chip.loop_input_hook = lambda u: u * 0.5
            return chain

        single = record(hooked(), chunks, element=element, kind=kind)
        batch = BatchAcquisitionSession([hooked()], element=element)
        for chunk in chunks:
            if kind == "pressure":
                batch.feed_pressure([chunk])
            else:
                batch.feed_voltage(chunk[:, None])
        tm = batch.telemetries[0]
        tm.reconcile()
        assert np.array_equal(batch.recording(0).codes, single[0].codes)
        assert single[1].fused_chunks == 0
        assert tm.fused_chunks == 0
        assert tm.chunks == single[1].chunks == len(chunks)
