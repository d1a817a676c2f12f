"""Fused N x N scan through the batched cascade kernel, in lane blocks.

The batched scan semantics (``ScanController.scan_records(batched=True)``)
are a *bank of matched modulators*: every element's dwell segment runs
from the chain's pre-scan analog state, and the decimation filter resets
at each switch. That is exactly a ``repro.batch`` workload — B lanes with
identical coefficients, independent state, advancing in lockstep — so a
64x64 scan collapses from 4096 sequential chain passes into a few dozen
fused C kernel calls of many lanes each.

:func:`run_fused_scan` reproduces the batched path bit-for-bit for every
configuration it supports (deterministic modulator, stock decimation
architecture): the same per-lane initial state, the same post-switch word
suppression, the same FPGA counter and filter-state bookkeeping
afterwards. Anything outside that envelope returns ``None`` — with no
side effects — and the caller falls back to the batched loop.

The scan runs one *lane block* at a time: each block's pressure rows
come from a :class:`RowSource`, are staged through the compiled front
end and run through the kernel for those lanes only, so memory is
O(block x dwell) rather than O(elements x dwell). A block holds
:data:`BLOCK_BYTES` of pressure rows (rounded up to the kernel's lane
block): 8 lanes at a cardiac-period dwell, hundreds at a short one. No
lane's operation sequence depends on the split, so the bits do not
either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polyutils as _pu

from ..dsp.fixed_point import saturate
from ..errors import ReproError
from ..mems.membrane import MembraneSensor
from ..sdm.frontend import CapacitiveFrontEnd
from .mux import AnalogMultiplexer

#: Bytes of pressure rows one lane block holds. Lanes per block is this
#: over the row size (8 * dwell bytes), padded to the kernel's
#: ``LANE_BLOCK`` and capped at the element count.
BLOCK_BYTES = 4 << 20


def _kernel():
    # Imported lazily: repro.batch pulls in repro.core, which imports
    # this package — a module-level import would be circular.
    from ..batch import kernel as batch_kernel

    return batch_kernel


def _engine():
    from ..batch import engine  # lazily, as in _kernel()

    return engine


@dataclass(frozen=True)
class RowSource:
    """Scan pressure rows on demand.

    ``source(k0, k1)`` returns the (k1 - k0, dwell) float64 pressures
    elements ``k0 .. k1-1`` see during their own visits; ``shape`` is the
    whole scan's (n_elements, dwell). The scan asks for its blocks in
    order, on the calling thread, and may ask again for any range when
    it replays an error.
    """

    rows: Callable[[int, int], np.ndarray]
    shape: tuple[int, int]

    def __call__(self, k0: int, k1: int) -> np.ndarray:
        return self.rows(k0, k1)


def row_source(segments) -> RowSource:
    """A :class:`RowSource` as is, or one slicing an (n_elements, dwell)
    matrix."""
    if isinstance(segments, RowSource):
        return segments
    matrix = np.asarray(segments, dtype=float)
    return RowSource(lambda k0, k1: matrix[k0:k1], matrix.shape)


def block_lanes(n_elements: int, dwell: int) -> int:
    """Lanes per block for a scan of ``n_elements`` x ``dwell`` samples."""
    lanes = _kernel().pad_lanes(max(1, BLOCK_BYTES // (8 * dwell)))
    return min(lanes, n_elements)


def fused_scan_supported(chain) -> bool:
    """Whether :func:`run_fused_scan` can reproduce this chain's scan.

    The envelope is the batch kernel's: compiled kernel present and no
    :func:`~repro.batch.engine.kernel_declines` decline. On top of that
    the scan needs a fully deterministic modulator (no jitter,
    thermal/flicker noise, or DAC reference noise — the scan cannot
    replay the per-segment draw order of
    :meth:`~repro.sdm.modulator.SecondOrderSDM.simulate_batch`) and no
    word hook (the hook must see each element's words in sequential
    order). When the FPGA still points at element 0 the scan's first
    visit does not reset the filter, so any carried filter state must
    sit at a decimation boundary (phase 0) for the lanes to run in
    lockstep.
    """
    if not _kernel().batch_kernel_available():
        return False
    if _engine().kernel_declines(chain):
        return False
    m = chain.chip.modulator
    filt = chain.fpga.filter
    deterministic = not (
        m.nonideality.clock_jitter_s > 0.0
        or m._noise_sigma_u > 0.0
        or m._flicker is not None
        or m.dac.reference_noise_sigma > 0.0
    )
    if not deterministic:
        return False
    if chain.fpga.word_hook is not None:
        return False
    if chain.fpga._element == 0 and (
        filt.cic._phase != 0 or filt.fir._phase != 0
    ):
        return False
    return True


def _frontend_plan(chip):
    """Fixed inputs of the compiled front end for this chip, or ``None``.

    ``None`` when the configuration carries substituted models the
    kernel does not replay (mux, front end, membrane or a per-element
    sensor); every block then takes the NumPy route.
    """
    fe = chip.frontend
    sensor = chip.array.sensor
    if (
        type(chip.mux) is not AnalogMultiplexer
        or type(fe) is not CapacitiveFrontEnd
        or type(sensor) is not MembraneSensor
    ):
        return None
    transfer = chip.array.vectorized_transfer()
    if transfer is None:
        return None
    fit = sensor._fit
    dom_off, dom_scl = _pu.mapparms(fit.domain, fit.window)
    fixed = dict(
        cheb_coef=np.ascontiguousarray(fit.coef, dtype=float),
        dom_off=float(dom_off),
        dom_scl=float(dom_scl),
        p_min=float(sensor._p_min),
        p_max=float(sensor._p_max),
    )
    return fixed, transfer


def _stage_frontend_kernel(
    batch_kernel, chip, plan, rows: np.ndarray, k0: int, au: np.ndarray,
    injection: np.ndarray, a1: float,
) -> bool:
    """Stage ``a1 * u`` for one block's lanes through the compiled front end.

    Lane i reads row i of ``rows`` (element ``k0 + i``'s dwell window) in
    place. The C pass replays the membrane Chebyshev evaluation, mismatch
    affine, first-sample charge injection and charge-front-end transfer
    term for term, so the staged doubles equal the NumPy route's exactly.
    Returns False (with nothing written and no state touched) without a
    plan, for a non-contiguous block, or when any sample violates the
    transfer's domain/positivity constraints — the caller then replays
    the NumPy route, which raises the single-session path's exact error.
    """
    if plan is None:
        return False
    if not (rows.dtype == np.float64 and rows.flags.c_contiguous):
        return False
    fixed, (scales, offsets) = plan
    fe = chip.frontend
    B, n = rows.shape
    pbase = (
        rows.ctypes.data
        + np.arange(B, dtype=np.uint64) * np.uint64(rows.strides[0])
    ).astype(np.uint64)
    return batch_kernel.run_frontend_chunk(
        n=n,
        pbase=pbase,
        pstep=np.ones(B, dtype=np.int64),
        au=au,
        au_stride=au.shape[1],
        cap_scale=scales[k0 : k0 + B],
        cap_offset=offsets[k0 : k0 + B],
        injection=injection,
        ref_cap=np.full(B, fe.reference_cap_f),
        fb_cap=np.full(B, fe.feedback_cap_f),
        excitation=np.full(B, fe.excitation_fraction),
        a1=np.full(B, a1),
        u_last=np.empty(B),
        **fixed,
    )


def _stage_frontend_numpy(
    chip, rows: np.ndarray, k0: int, au: np.ndarray,
    injection: np.ndarray, a1: float,
) -> None:
    """The NumPy route for one block: the same doubles, and the errors."""
    caps = chip.array.segment_capacitances_f(rows, k0)
    caps[:, 0] += injection
    u = chip.frontend.loop_input(caps)
    np.multiply(u, a1, out=au[: rows.shape[0]])


def _raise_whole_scan_error(chip, source: RowSource, blocks, exc) -> None:
    """Raise the error the whole-matrix NumPy front end raises instead.

    That route checks every element's pressure range before any
    capacitance's sign, and its shared-transfer range error quotes the
    whole scan's pressure extremes. One pass over the rows replays that
    order without holding them all; the chain stays untouched.
    """
    array = chip.array
    shared = array.vectorized_transfer() is not None
    lo, hi = np.inf, -np.inf
    for k0, k1 in blocks:
        rows = source(k0, k1)
        if shared:
            lo = min(lo, float(rows.min()))
            hi = max(hi, float(rows.max()))
        else:
            array.segment_capacitances_f(rows, k0)
    if shared:
        array.sensor.capacitance_f(np.array([lo, hi]))
    raise exc


def run_fused_scan(chain, dwell_pressures_pa) -> list[np.ndarray] | None:
    """Run a whole array scan through the fused batch kernel, block by block.

    Parameters
    ----------
    chain:
        The :class:`~repro.core.chain.ReadoutChain` to scan through.
    dwell_pressures_pa:
        (n_elements, dwell_mod_samples) membrane pressure each element
        sees during its own visit: a matrix, or a :class:`RowSource`
        producing its rows one lane block at a time.

    Returns
    -------
    Per-element record values (decimated words / 2048, post-suppression)
    in scan order — bit-identical to the ``batched=True`` loop — or
    ``None`` when the configuration is outside the kernel envelope.
    Chain side effects match the batched path exactly: the mux and FPGA
    finish on the last element, the decimation filter carries the last
    element's state, telemetry counters advance identically, and the
    modulator's analog state is untouched (bank-of-matched-modulators
    semantics). The chain is only touched once every block has run, so
    an error raised by any block leaves it untouched.
    """
    if not fused_scan_supported(chain):
        return None
    batch_kernel = _kernel()
    source = row_source(dwell_pressures_pa)
    chip = chain.chip
    fpga = chain.fpga
    filt = fpga.filter
    m = chip.modulator
    n_elements = chip.array.n_elements
    shape = source.shape
    if len(shape) != 2 or shape[0] != n_elements or shape[1] < 1:
        return None
    n = int(shape[1])
    B = n_elements
    start_element = fpga._element
    # Lane-0 suppression budget: the first visit re-selects the current
    # element when the FPGA already points at 0 (no reset, any pending
    # suppression window keeps draining); every other visit is a switch.
    flush = fpga.flush_words_on_switch
    budgets = np.full(B, flush, dtype=np.int64)
    if start_element == 0:
        budgets[0] = fpga._suppress

    # Stage the front end: the compiled kernel evaluates the membrane
    # Chebyshev transfer, mismatch, charge injection and the charge
    # front end per lane directly into the a1*u buffer (the dominant
    # cost at 64x64); the NumPy route is its bit-identical fallback and
    # the one that raises the exact range/positivity errors. Either way
    # the mux finishes on the last element with its injection state
    # consumed — the sequential-scan semantics.
    a1 = m.stage1.signal_gain * m.stage1.gain_error
    mux = chip.mux
    inj = np.full(B, mux.charge_injection_c / 2.5)
    if mux._selected == 0 and not mux._just_switched:
        inj[0] = 0.0
    plan = _frontend_plan(chip)
    step = block_lanes(B, n)
    blocks = [(k0, min(k0 + step, B)) for k0 in range(0, B, step)]

    comp = m.comparator
    ideal = comp.is_ideal()
    zero = np.zeros(n)
    qscale, fir_flipped = _engine().requantizer(filt)

    def run_block(k0: int, k1: int):
        rows = source(k0, k1)
        Bb = k1 - k0
        Bp = batch_kernel.pad_lanes(Bb)
        au = np.zeros((Bp, n))
        if not _stage_frontend_kernel(
            batch_kernel, chip, plan, rows, k0, au, inj[k0:k1], a1
        ):
            try:
                _stage_frontend_numpy(chip, rows, k0, au, inj[k0:k1], a1)
            except ReproError as exc:
                _raise_whole_scan_error(chip, source, blocks, exc)
        del rows

        def lanes(value, pad=0.0):
            vec = np.full(Bp, pad)
            vec[:Bb] = value
            return vec

        st = batch_kernel.BatchState(
            x1=lanes(m.stage1.state),
            x2=lanes(m.stage2.state),
            comp_previous=lanes(comp.previous_decision, pad=1).astype(
                np.int64
            ),
            cic_integrators=np.zeros((filt.cic.order, Bp), dtype=np.int64),
            cic_combs=np.zeros((filt.cic.order, Bp), dtype=np.int64),
            cic_phase=0,
            fir_history=np.zeros((Bp, filt.fir.taps - 1), dtype=np.int64),
            fir_phase=0,
        )
        if k0 == 0 and start_element == 0:
            # First visit re-selects element 0: its lane continues from
            # the carried filter state (phase 0, checked in
            # fused_scan_supported) instead of a reset.
            st.cic_integrators[:, 0] = filt.cic._integrators
            st.cic_combs[:, 0] = filt.cic._combs[:, 0]
            st.fir_history[0, :] = filt.fir._history
        result = batch_kernel.run_batch_chunk(
            n=n,
            au=au,
            au_stride=n,
            noise=zero,
            noise_stride=0,
            dac_noise=zero,
            dacn_stride=0,
            dac_gain=lanes(1.0 + m.dac.reference_error),
            p1=lanes(m.stage1.leak),
            b1=lanes(m.stage1.feedback_gain * m.stage1.gain_error),
            p2=lanes(m.stage2.leak),
            a2=lanes(m.stage2.signal_gain * m.stage2.gain_error),
            b2=lanes(m.stage2.feedback_gain * m.stage2.gain_error),
            swing=lanes(m.stage1.swing_limit, pad=1.0),
            comp_offset=lanes(0.0 if ideal else comp.offset_v),
            comp_hysteresis=lanes(0.0 if ideal else comp.hysteresis_v),
            state=st,
            cic_decimation=filt.cic.decimation,
            register_bits=filt.cic.register_bits,
            fir_flipped=fir_flipped,
            fir_decimation=filt.fir.decimation,
            qscale=qscale,
            output_bits=filt.params.output_bits,
        )
        return result.codes[:Bb], st

    # Per-element post-switch suppression, then the same i16 clamp the
    # framing path applies; values in modulator FS like ChainRecording.
    records: list[np.ndarray] = []
    for k0, k1 in blocks:
        codes, st = run_block(k0, k1)
        n_words = codes.shape[1]
        values = saturate(codes, 16).astype(float) / 2048.0
        drops = np.minimum(budgets[k0:k1], n_words)
        records.extend(values[i, int(d) :] for i, d in enumerate(drops))

    # Chain bookkeeping, exactly as the batched per-element loop leaves it.
    mux._selected = B - 1
    mux._just_switched = False
    drops = np.minimum(budgets, n_words)
    resets = (B - 1) + (1 if start_element != 0 else 0)
    fpga._element = B - 1
    fpga._suppress = int(max(0, budgets[B - 1] - n_words))
    fpga.samples_in += B * n
    fpga.words_filtered += B * n_words
    fpga.words_suppressed += int(drops.sum())
    fpga.filter_resets += resets
    # The filter carries the last element's cascade state forward.
    last = codes.shape[0] - 1
    filt.cic._integrators = st.cic_integrators[:, last].copy()
    filt.cic._combs[:, 0] = st.cic_combs[:, last]
    filt.cic._phase = st.cic_phase
    filt.fir._history = st.fir_history[last].copy()
    filt.fir._phase = st.fir_phase
    return records
