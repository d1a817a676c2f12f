"""The layer table: which public calls belong to which layer, and what
each layer counts.

Every layer reports ``<layer>.self_s`` (self time in the traced run) and
``<layer>.calls`` (wrapped calls), plus the counters listed in its row.
Counters with an ``after`` hook are booked from the wrapped call's
arguments and result; the rest are filled by the workload from run-level
state (setup split, cache stats, gateway books, load generator). A layer
the workload never enters reports zero calls, zero time and zero counts.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np


def _size_of(position: int, name: str):
    """Counter hook: add the length of one array argument."""

    def hook(counter):
        def after(tracer, result, args, kwargs, state):
            value = kwargs[name] if name in kwargs else args[position]
            tracer.count(counter, np.size(value))

        return after

    return hook


def _delta(*attrs: str):
    """Counter hook: add the growth of ``self.<attr>`` during the call."""

    def hook(*counters):
        def before(args, kwargs):
            return [int(getattr(args[0], attr)) for attr in attrs]

        def after(tracer, result, args, kwargs, state):
            for attr, counter, start in zip(attrs, counters, state):
                tracer.count(counter, int(getattr(args[0], attr)) - start)

        after.before = before
        return after

    return hook


_decoder_errors = _delta("crc_errors", "resync_bytes")(
    "daq.usb.crc_errors", "daq.usb.resync_bytes"
)


def _usb_decoder(tracer, result, args, kwargs, state):
    tracer.count("daq.usb.frames", len(result))
    _decoder_errors(tracer, result, args, kwargs, state)


_usb_decoder.before = _decoder_errors.before


def _scan(tracer, result, args, kwargs, state):
    controller = args[0]
    fused = bool(controller.last_scan_fused)
    tracer.count("array.scan.fused", int(fused))
    tracer.count("array.scan.fallback", int(not fused))
    truncation = controller.last_scan_truncation
    if truncation is not None:
        tracer.count("array.scan.truncated_words", truncation.total_dropped)


def _fused_lanes(tracer, result, args, kwargs, state):
    from repro.batch.kernel import pad_lanes

    segments = kwargs.get("dwell_pressures_pa", args[1] if len(args) > 1 else None)
    real = int(np.shape(segments)[0])
    tracer.count("batch.kernel.real_lanes", real)
    tracer.count("batch.kernel.padded_lanes", pad_lanes(real))


def _lane_samples(tracer, result, args, kwargs, state):
    n = kwargs["n"] if "n" in kwargs else args[0]
    lanes = kwargs["dac_gain"] if "dac_gain" in kwargs else args[7]
    tracer.count("batch.kernel.lane_samples", int(n) * int(np.size(lanes)))


def _chunk(tracer, result, args, kwargs, state):
    tracer.count("core.session.chunks")


def _beats(tracer, result, args, kwargs, state):
    tracer.count("calibration.beats", result.n_beats)


def _crc_check(tracer, result, args, kwargs, state):
    staged_list = kwargs.get("staged_list", args[0] if args else [])
    tracer.count("daq.batchdecode.candidates", int(result))
    valid = sum(
        int(np.count_nonzero(run.crc_ok))
        for staged in staged_list
        for run in staged.runs
        if run.crc_ok is not None
    )
    tracer.count("daq.batchdecode.valid", valid)


def _committed(tracer, result, args, kwargs, state):
    tracer.count("daq.batchdecode.frames", int(result))


@dataclass(frozen=True)
class Layer:
    name: str
    #: ``(module, attribute path, hook)``; the hook is an ``after``
    #: callable for :meth:`Tracer.wrap`, ``None``, or ``"closure"`` for a
    #: factory whose returned function is traced as well.
    targets: tuple = ()
    #: ``(counter, unit, better)`` beyond ``self_s`` and ``calls``.
    counters: tuple = ()


LAYERS: tuple[Layer, ...] = (
    Layer(
        "setup",
        counters=(
            ("import_s", "s", "lower"),
            ("sdm_build_s", "s", "lower"),
            ("batch_build_s", "s", "lower"),
            ("tmpdirs_leaked", "count", "lower"),
        ),
    ),
    Layer(
        "physiology",
        targets=(
            ("repro.physiology.patient", "VirtualPatient.record", None),
            (
                "repro.physiology.patient",
                "PatientRecording.interp_pressure_pa",
                None,
            ),
        ),
    ),
    Layer(
        "tonometry",
        targets=(
            ("repro.tonometry.coupling", "TonometricCoupling.element_pressures_pa", None),
            ("repro.tonometry.coupling", "TonometricCoupling.pressure_field_fn", "closure"),
            ("repro.tonometry.coupling", "TonometricCoupling.scan_pressure_segments", None),
        ),
    ),
    Layer(
        "mems",
        targets=(
            (
                "repro.mems.membrane",
                "MembraneSensor.capacitance_f",
                _size_of(1, "pressure_pa")("mems.samples"),
            ),
        ),
        counters=(("samples", "count", "higher"),),
    ),
    Layer(
        "sdm",
        targets=(
            (
                "repro.sdm.modulator",
                "SecondOrderSDM.simulate",
                _size_of(1, "loop_input")("sdm.samples"),
            ),
        ),
        counters=(("samples", "count", "higher"),),
    ),
    Layer(
        "daq.fpga",
        targets=(
            (
                "repro.daq.fpga",
                "FPGAFilterBank.process",
                _delta("words_filtered")("daq.fpga.words"),
            ),
            (
                "repro.daq.fpga",
                "FPGAFilterBank.finish",
                _delta("words_filtered")("daq.fpga.words"),
            ),
        ),
        counters=(("words", "count", "higher"),),
    ),
    Layer(
        "daq.usb",
        targets=(
            ("repro.daq.usb", "FrameEncoder.push", None),
            ("repro.daq.usb", "FrameEncoder.flush", None),
            ("repro.daq.usb", "FrameDecoder.feed", _usb_decoder),
            ("repro.daq.usb", "FrameDecoder.finalize", _usb_decoder),
        ),
        counters=(
            ("frames", "count", "higher"),
            ("crc_errors", "count", "lower"),
            ("resync_bytes", "count", "lower"),
        ),
    ),
    Layer(
        "core.session",
        targets=(
            ("repro.core.session", "AcquisitionSession.feed_pressure", _chunk),
            ("repro.core.session", "AcquisitionSession.finish", None),
            ("repro.core.chain", "ReadoutChain.record_pressure", None),
        ),
        counters=(("chunks", "count", "lower"),),
    ),
    Layer(
        "core.monitor",
        targets=(("repro.core.monitor", "BloodPressureMonitor.measure", None),),
    ),
    Layer(
        "array.scan",
        targets=(
            ("repro.array.scan", "ScanController.scan_and_select", None),
            ("repro.array.scan", "ScanController.scan_records", _scan),
            ("repro.array.fusedscan", "run_fused_scan", _fused_lanes),
        ),
        counters=(
            ("fused", "count", "higher"),
            ("fallback", "count", "lower"),
            ("truncated_words", "count", "lower"),
        ),
    ),
    Layer(
        "batch.kernel",
        targets=(
            ("repro.batch.kernel", "run_frontend_chunk", None),
            ("repro.batch.kernel", "run_batch_chunk", _lane_samples),
        ),
        counters=(
            ("lane_samples", "count", "higher"),
            ("lanes_used_ratio", "ratio", "higher"),
        ),
    ),
    Layer(
        "array.imaging",
        targets=(
            ("repro.array.imaging", "amplitude_image", None),
            ("repro.array.imaging", "localize_artery", None),
            ("repro.array.imaging", "fuse_elements", None),
        ),
        counters=(
            ("frames", "count", "higher"),
            ("artery_err_um", "um", "lower"),
        ),
    ),
    Layer(
        "experiments",
        targets=(
            ("repro.experiments.population", "run_population", None),
            ("repro.experiments.imaging", "run_imaging", None),
        ),
    ),
    Layer(
        "calibration",
        targets=(
            ("repro.calibration.features", "lowpass_cardiac", None),
            ("repro.calibration.features", "detect_beats", _beats),
            ("repro.calibration.quality", "assess_quality", None),
            ("repro.calibration.twopoint", "TwoPointCalibration.from_features", None),
            ("repro.calibration.twopoint", "TwoPointCalibration.apply", None),
        ),
        counters=(
            ("beats", "count", "higher"),
            ("subjects", "count", "higher"),
            ("bp_mae_mmhg", "mmHg", "lower"),
        ),
    ),
    Layer(
        "baselines.cuff",
        targets=(("repro.baselines.cuff", "OscillometricCuff.measure", None),),
    ),
    Layer(
        "parallel.cache",
        targets=(("repro.parallel.cache", "PrecomputeCache.get", None),),
        counters=(
            ("hits", "count", "higher"),
            ("misses", "count", "lower"),
            ("hit_ratio", "ratio", "higher"),
        ),
    ),
    Layer(
        "gateway.plane",
        targets=(
            ("repro.gateway.batchplane", "BatchPlane.flush", None),
            ("repro.gateway.batchplane", "BatchPlane.flush_lane", None),
        ),
        counters=(
            ("ticks", "count", "lower"),
            ("size_flushes", "count", "higher"),
            ("deadline_flushes", "count", "lower"),
            ("occupancy_mean", "lanes", "higher"),
        ),
    ),
    Layer(
        "daq.batchdecode",
        targets=(
            ("repro.daq.batchdecode", "crc_check", _crc_check),
            ("repro.gateway.connection", "DeviceSession.stage_pending", None),
            ("repro.gateway.connection", "DeviceSession.commit_staged", _committed),
        ),
        counters=(
            ("candidates", "count", "higher"),
            ("frames", "count", "higher"),
            ("valid_ratio", "ratio", "higher"),
        ),
    ),
    Layer(
        "gateway.server",
        counters=(
            ("bytes_in", "B", "higher"),
            ("chunks_shed", "count", "lower"),
            ("resets", "count", "lower"),
            ("frames_unbooked", "count", "lower"),
            ("frame_p50_ms", "ms", "lower"),
            ("frame_p99_ms", "ms", "lower"),
            ("frame_samples", "count", "higher"),
            ("late_frames", "count", "lower"),
        ),
    ),
    Layer(
        "gen",
        counters=(
            ("lag_p99_ms", "ms", "lower"),
            ("prepare_s", "s", "lower"),
        ),
    ),
)

#: Whole-run rows of the ledger (not a program layer).
LEDGER_METRICS = (
    ("ledger.wall_s", "s", "lower"),
    ("ledger.unattributed_s", "s", "lower"),
    ("ledger.unattributed_share", "ratio", "lower"),
    ("ledger.overhead_s", "s", "lower"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in table order."""
    rows = []
    for layer in LAYERS:
        rows.append((f"{layer.name}.self_s", "s", "lower"))
        rows.append((f"{layer.name}.calls", "count", "lower"))
        for counter, unit, better in layer.counters:
            rows.append((f"{layer.name}.{counter}", unit, better))
    rows.extend(LEDGER_METRICS)
    return rows


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def install(tracer) -> None:
    """Wrap every target of every layer; ``tracer.restore()`` undoes it."""
    for layer in LAYERS:
        for module_name, path, hook in layer.targets:
            owner, attr = _resolve(module_name, path)
            if hook == "closure":
                tracer.wrap(owner, attr, layer.name, after=None)
                _wrap_returned_closure(tracer, owner, attr, layer.name)
            else:
                tracer.wrap(owner, attr, layer.name, after=hook)


def _wrap_returned_closure(tracer, owner, attr, layer_name) -> None:
    """Make the function a factory returns spanning as well.

    ``pressure_field_fn`` hands back the coupling-field closure that does
    the actual work; its calls belong to the same layer.
    """
    factory = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        field_fn = factory(*args, **kwargs)

        def traced(*a, **k):
            with tracer.span(layer_name):
                return field_fn(*a, **k)

        return traced

    tracer._set(owner, attr, factory, wrapper)


def collect(tracer_counters: dict, self_s: dict, extras: dict) -> dict:
    """Flat ``name -> value`` for every per-layer metric.

    ``extras`` carries run-level counters keyed by full metric name.
    """
    counters = dict(tracer_counters)
    counters.update(extras)
    real = counters.get("batch.kernel.real_lanes", 0)
    padded = counters.get("batch.kernel.padded_lanes", 0)
    counters["batch.kernel.lanes_used_ratio"] = real / padded if padded else 0.0
    candidates = counters.get("daq.batchdecode.candidates", 0)
    counters["daq.batchdecode.valid_ratio"] = (
        counters.get("daq.batchdecode.valid", 0) / candidates
        if candidates
        else 0.0
    )
    values = {}
    for name, _, _ in per_layer_names():
        layer, _, metric = name.rpartition(".")
        if metric == "self_s":
            values[name] = float(self_s.get(layer, 0.0))
        else:
            values[name] = float(counters.get(name, 0))
    return values
