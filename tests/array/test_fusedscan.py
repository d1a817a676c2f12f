"""Fused N x N scan: bit-identity, fallback, and scan orientation.

The fused scan runs in lane blocks sized by ``fusedscan.BLOCK_BYTES``;
the ``block_bytes`` fixture shrinks that budget so these small arrays
split into several blocks (8 or 16 lanes, the last one partial) as well
as running whole.
"""

import dataclasses

import numpy as np
import pytest

from repro.array import fusedscan
from repro.array.fusedscan import RowSource
from repro.array.imaging import amplitude_image
from repro.array.scan import ScanController
from repro.batch import BatchChainEngine, batch_kernel_available
from repro.batch.engine import kernel_declines
from repro.core.chain import ReadoutChain
from repro.dsp.cic import CICDecimator
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import run_imaging
from repro.params import ArrayParams, NonidealityParams, SystemParams
from repro.tonometry.contact import ContactModel
from repro.tonometry.coupling import TonometricCoupling
from repro.tonometry.placement import ArrayPlacement

DECIMATION = 128
DWELL_WORDS = 12
# Scan records are post-suppression for switched elements (the FPGA
# discards 8 words after each mux switch), but element 0 starts from
# reset and keeps its whole dwell — its CIC startup transient sits in
# the first words of the record matrix.  Drop the full 9-word settling
# budget so every column is clean.
SETTLE_EXTRA = 9
ORIENT_DWELL_WORDS = 24


#: Pressure-row bytes per block: the default budget (one block at these
#: dwells), one kernel lane block (the minimum) and two of them.
BLOCK_BUDGETS = {
    "whole": None,
    "8-lane": 1,
    "16-lane": 16 * 8 * DWELL_WORDS * DECIMATION,
}


@pytest.fixture(params=list(BLOCK_BUDGETS))
def block_bytes(request, monkeypatch):
    budget = BLOCK_BUDGETS[request.param]
    if budget is not None:
        monkeypatch.setattr(fusedscan, "BLOCK_BYTES", budget)
    return request.param


def chain_books(chain):
    """Everything a scan leaves behind on the chain, for comparison."""
    fpga = chain.fpga
    filt = fpga.filter
    mux = chain.chip.mux
    return (
        mux._selected,
        mux._just_switched,
        fpga._element,
        fpga._suppress,
        fpga.samples_in,
        fpga.words_filtered,
        fpga.words_suppressed,
        fpga.filter_resets,
        filt.cic._integrators.tolist(),
        filt.cic._combs.tolist(),
        filt.cic._phase,
        filt.fir._history.tolist(),
        filt.fir._phase,
    )


def rows_served(segments, calls):
    """A RowSource over ``segments`` that logs each requested range."""

    def rows(k0, k1):
        calls.append((k0, k1))
        return segments[k0:k1].copy()

    return RowSource(rows, segments.shape)


def make_chain(rows, cols, ideal=True, backend="fast"):
    base = SystemParams()
    nonideality = NonidealityParams.ideal() if ideal else base.nonideality
    params = base.replace(
        array=ArrayParams(rows=rows, cols=cols, membrane=base.array.membrane),
        nonideality=nonideality,
    )
    return ReadoutChain(params, backend=backend)


def tone_segments(n_elements, dwell, amplitudes=None):
    """Per-element dwell pressure: one tone, optionally amplitude-coded."""
    t = np.arange(dwell) / 128e3
    if amplitudes is None:
        amplitudes = np.full(n_elements, 2000.0)
    phases = 0.05 * np.arange(n_elements)
    return np.asarray(amplitudes)[:, None] * np.sin(
        2 * np.pi * 40.0 * t[None, :] + phases[:, None]
    )


def fused_records(rows, cols, segments):
    chain = make_chain(rows, cols)
    controller = ScanController(chain.chip.mux)
    records = controller.scan_records(chain, segments=segments, fused=True)
    return records, controller


class TestBitIdentity:
    @pytest.mark.parametrize("rows,cols", [(3, 3), (5, 7)])
    def test_fused_equals_batched(self, rows, cols, block_bytes):
        """The fused kernel pass must replay the batched scan exactly,
        for any lane count and block split (3x3 and 5x7 are not block
        multiples), and leave the chain exactly as the batched path."""
        segments = tone_segments(rows * cols, DWELL_WORDS * DECIMATION)
        chain = make_chain(rows, cols)
        controller = ScanController(chain.chip.mux)
        fused = controller.scan_records(chain, segments=segments, fused=True)

        ref_chain = make_chain(rows, cols)
        ref_controller = ScanController(ref_chain.chip.mux)
        batched = ref_controller.scan_records(
            ref_chain, segments=segments, batched=True
        )
        n = min(fused.shape[0], batched.shape[0])
        assert np.array_equal(fused[:n], batched[:n])
        if batch_kernel_available():
            assert controller.last_scan_fused
            assert chain_books(chain) == chain_books(ref_chain)

    @pytest.mark.parametrize("rows,cols", [(3, 3), (5, 7)])
    def test_row_source_equals_matrix(self, rows, cols, block_bytes):
        """Row source == ndarray == batched, the blocks asked in order."""
        n_el = rows * cols
        dwell = DWELL_WORDS * DECIMATION
        segments = tone_segments(n_el, dwell)
        matrix, _ = fused_records(rows, cols, segments)
        calls = []
        streamed, controller = fused_records(
            rows, cols, rows_served(segments, calls)
        )
        assert np.array_equal(streamed, matrix)
        if not batch_kernel_available():
            return
        assert controller.last_scan_fused
        step = fusedscan.block_lanes(n_el, dwell)
        assert calls == [
            (k0, min(k0 + step, n_el)) for k0 in range(0, n_el, step)
        ]
        if block_bytes == "8-lane":
            assert len(calls) > 1

        chain = make_chain(rows, cols)
        batched = ScanController(chain.chip.mux).scan_records(
            chain, segments=rows_served(segments, []), batched=True
        )
        n = min(streamed.shape[0], batched.shape[0])
        assert np.array_equal(streamed[:n], batched[:n])

    def test_lane0_carries_filter_state(self, block_bytes):
        """A scan starting on element 0 continues its filter state."""
        rows, cols = 3, 3
        n_el = rows * cols
        segments = tone_segments(n_el, DWELL_WORDS * DECIMATION)
        prior = np.full((4 * DECIMATION, n_el), 1500.0)

        def primed():
            chain = make_chain(rows, cols)
            chain.record_pressure(prior, element=0)
            return chain, ScanController(chain.chip.mux)

        chain, controller = primed()
        assert chain.fpga._element == 0
        assert np.any(chain.fpga.filter.cic._integrators != 0)
        fused = controller.scan_records(chain, segments=segments, fused=True)
        ref_chain, ref_controller = primed()
        batched = ref_controller.scan_records(
            ref_chain, segments=segments, batched=True
        )
        n = min(fused.shape[0], batched.shape[0])
        assert np.array_equal(fused[:n], batched[:n])
        if batch_kernel_available():
            assert controller.last_scan_fused
            assert chain_books(chain) == chain_books(ref_chain)

    def test_out_of_domain_in_later_block_raises_whole_scan_error(
        self, block_bytes
    ):
        """Same error type and message as the whole-matrix route, whose
        range message quotes the extremes of the *whole* scan."""
        rows, cols = 5, 7
        n_el = rows * cols
        amplitudes = np.linspace(500.0, 3000.0, n_el)
        segments = tone_segments(n_el, DWELL_WORDS * DECIMATION, amplitudes)
        segments[20, 100] = 1e9

        chain = make_chain(rows, cols)
        with pytest.raises(SimulationError) as expected:
            ScanController(chain.chip.mux).scan_records(
                chain, segments=segments, batched=True
            )
        for source in (segments, rows_served(segments, [])):
            chain = make_chain(rows, cols)
            before = chain_books(chain)
            with pytest.raises(SimulationError) as got:
                ScanController(chain.chip.mux).scan_records(
                    chain, segments=source, fused=True
                )
            assert str(got.value) == str(expected.value)
            assert chain_books(chain) == before

    def test_fused_equals_sequential_sessions(self, block_bytes):
        """Matched-bank semantics: each element from the pre-scan state.

        The sequential sessions run the ``"reference"`` modulator
        backend, so the oracle never shares the compiled chain kernel.
        """
        rows, cols = 2, 2
        n_el = rows * cols
        dwell = DWELL_WORDS * DECIMATION
        segments = tone_segments(n_el, dwell)
        fused, _ = fused_records(rows, cols, segments)

        chain = make_chain(rows, cols, backend="reference")
        saved = chain.chip.state_snapshot()
        field = np.zeros((dwell, n_el))
        columns = []
        for k in range(n_el):
            chain.chip.restore_state(saved)
            session = chain.session(element=k)
            field[:, k] = segments[k]
            session.feed_pressure(field)
            field[:, k] = 0.0
            columns.append(session.recording().values)
        n = min(fused.shape[0], min(c.size for c in columns))
        reference = np.column_stack([c[:n] for c in columns])
        assert np.array_equal(fused[:n], reference)


def _metastable(chain):
    chain.chip.modulator.comparator.metastable_band_v = 1e-3


def _zero_dac_gain(chain):
    chain.chip.modulator.dac.reference_error = -1.0


def _cic(**kwargs):
    def swap(chain):
        cic = chain.fpga.filter.cic
        chain.fpga.filter.cic = CICDecimator(
            order=kwargs.get("order", cic.order),
            decimation=cic.decimation,
            input_bits=cic.input_bits,
            diff_delay=kwargs.get("diff_delay", cic.diff_delay),
        )

    return swap


#: Every chain the fused chain kernel declines (``kernel_declines``).
ENGINE_DECLINES = {
    "metastable-comparator": _metastable,
    "zero-dac-gain": _zero_dac_gain,
    "cic-order-4": _cic(order=4),
    "cic-diff-delay-2": _cic(diff_delay=2),
}


class TestFallback:
    def test_noisy_chain_falls_back_to_batched(self):
        """Outside the kernel envelope the scan still completes."""
        chain = make_chain(2, 2, ideal=False)
        controller = ScanController(chain.chip.mux)
        segments = tone_segments(4, DWELL_WORDS * DECIMATION)
        records = controller.scan_records(chain, segments=segments, fused=True)
        assert not controller.last_scan_fused
        assert records.ndim == 2 and records.shape[1] == 4

    @pytest.mark.parametrize("decline", sorted(ENGINE_DECLINES))
    def test_engine_declines_also_decline_the_scan(self, decline):
        """The scan shares the engine's decline policy, case by case."""
        chain = make_chain(2, 2)
        assert not kernel_declines(chain)
        assert fusedscan.fused_scan_supported(chain) == batch_kernel_available()
        ENGINE_DECLINES[decline](chain)
        assert kernel_declines(chain)
        assert not BatchChainEngine([chain]).uses_kernel
        assert not fusedscan.fused_scan_supported(chain)

    def test_segments_require_batched_or_fused(self):
        from repro.errors import ConfigurationError

        chain = make_chain(2, 2)
        controller = ScanController(chain.chip.mux)
        segments = tone_segments(4, 256)
        with pytest.raises(ConfigurationError):
            controller.scan_records(
                chain, segments=segments, batched=False, fused=False
            )


class TestNonSquareOrientation:
    """Row-major orientation pinned through scan -> select -> localize."""

    @pytest.mark.parametrize("rows,cols", [(2, 3), (8, 4)])
    def test_hot_element_lands_at_rowcol(self, rows, cols):
        n_el = rows * cols
        hot_row, hot_col = rows - 1, 1
        hot = hot_row * cols + hot_col
        amplitudes = np.full(n_el, 200.0)
        amplitudes[hot] = 3000.0
        segments = tone_segments(
            n_el, ORIENT_DWELL_WORDS * DECIMATION, amplitudes
        )
        records, controller = fused_records(rows, cols, segments)
        settled = records[SETTLE_EXTRA:]

        selection = controller.select_strongest(settled, metric="std")
        assert selection.best_index == hot
        assert (selection.best_row, selection.best_col) == (hot_row, hot_col)
        assert selection.amplitude_map.shape == (rows, cols)
        amp_map = amplitude_image(settled, rows, cols, metric="std")
        assert np.unravel_index(np.argmax(amp_map), amp_map.shape) == (
            hot_row,
            hot_col,
        )

    def test_centroid_pulls_toward_hot_quadrant(self):
        rows, cols = 2, 3
        n_el = rows * cols
        amplitudes = np.full(n_el, 200.0)
        amplitudes[1 * cols + 2] = 3000.0  # last row, +x column
        segments = tone_segments(
            n_el, ORIENT_DWELL_WORDS * DECIMATION, amplitudes
        )
        records, controller = fused_records(rows, cols, segments)
        x, y = controller.localize_source(records[SETTLE_EXTRA:])
        assert x > 0  # +x column
        assert y > 0  # row index grows toward +y in array coordinates


class TestStreamedSegments:
    def test_element_range_rows_equal_full_call(self):
        """Rows over an element range are the full call's rows, bit for bit."""
        params = SystemParams().replace(
            array=ArrayParams(
                rows=3, cols=4, membrane=SystemParams().array.membrane
            )
        )
        chain = ReadoutChain(params)
        coupling = TonometricCoupling(
            chain.chip.array.geometry,
            ContactModel(contact=params.contact, tissue=params.tissue),
            placement=ArrayPlacement(lateral_offset_m=1e-4),
        )
        dwell = 257
        rng = np.random.default_rng(3)
        arterial = 13_000.0 + 2_000.0 * rng.standard_normal(12 * dwell)
        full = coupling.scan_pressure_segments(arterial, dwell)
        assert full.shape == (12, dwell)
        for k0, k1 in [(0, 12), (0, 5), (5, 8), (8, 12), (11, 12)]:
            window = arterial[k0 * dwell : k1 * dwell]
            part = coupling.scan_pressure_segments(
                window, dwell, elements=(k0, k1)
            )
            assert np.array_equal(part, full[k0:k1])
        for bad in [(5, 5), (-1, 3), (8, 13)]:
            with pytest.raises(ConfigurationError):
                coupling.scan_pressure_segments(arterial, dwell, elements=bad)

    def test_run_imaging_equals_whole_matrix_oracle(self, monkeypatch):
        """Streamed run_imaging(8, 8) == the whole-record scan it replaced.

        The oracle synthesizes the whole arterial record, couples it into
        the full segment matrix with the original expression, and scans
        that matrix as one block.
        """
        rows = cols = 8
        pulse_rate_hz = 1.25
        placement = ArrayPlacement(lateral_offset_m=0.2e-3, rotation_rad=0.06)
        captured = []
        original = ScanController.scan_records

        def capture(self, *args, **kwargs):
            records = original(self, *args, **kwargs)
            captured.append(records)
            return records

        monkeypatch.setattr(ScanController, "scan_records", capture)
        run_imaging(rows=rows, cols=cols, pulse_rate_hz=pulse_rate_hz)
        monkeypatch.setattr(ScanController, "scan_records", original)
        (streamed,) = captured

        base = SystemParams()
        membrane = dataclasses.replace(base.array.membrane, pitch_m=0.6e-3)
        params = base.replace(
            array=ArrayParams(rows=rows, cols=cols, membrane=membrane),
            nonideality=NonidealityParams.ideal(),
        )
        chain = ReadoutChain(params)
        controller = ScanController(chain.chip.mux)
        period_words = int(round(chain.output_rate_hz / pulse_rate_hz))
        shared = controller.schedule(
            chain.fpga.filter, valid_words=period_words
        )
        dwell = shared.words_per_visit * params.decimation.total_decimation
        n_el = rows * cols
        coupling = TonometricCoupling(
            chain.chip.array.geometry,
            ContactModel(contact=params.contact, tissue=params.tissue),
            placement=placement,
            contact_heterogeneity=0.0,
        )
        fs = params.modulator.sampling_rate_hz
        t = np.arange(n_el * dwell) / fs
        pp_pa = 5000.0
        arterial = (
            coupling.contact.map_pa
            + 0.5 * pp_pa * np.sin(2 * np.pi * pulse_rate_hz * t)
            + 0.15 * pp_pa * np.sin(2 * np.pi * 2 * pulse_rate_hz * t)
        )
        state = coupling.contact.state()
        pulsatile = arterial.reshape(n_el, dwell) - coupling.contact.map_pa
        segments = state.static_membrane_pressure_pa + state.transmission * (
            pulsatile * coupling.element_weights()[:, None]
        )
        monkeypatch.setattr(fusedscan, "BLOCK_BYTES", segments.nbytes)
        oracle = controller.scan_records(chain, segments=segments, fused=True)
        assert fusedscan.block_lanes(n_el, dwell) == n_el
        assert np.array_equal(streamed, oracle)
