"""Cold start: everything a fresh interpreter does before its first timed
operation.

Setup is ``import repro`` (plus the workload's modules), the native
kernel builds the workload uses, forced up front, and building the
program objects the workload drives. The benchmark's own input
generation is not part of it.
"""

from __future__ import annotations

import contextlib
import importlib
import time

#: Modules each workload imports, and the native kernels it runs on.
WORKLOAD_MODULES = {
    "cohort": ("repro.experiments.population",),
    "imaging": ("repro.experiments.imaging", "repro.array.scan"),
    "fleet": ("repro.gateway",),
}
WORKLOAD_KERNELS = {
    "cohort": ("sdm",),
    "imaging": ("batch",),
    "fleet": (),
}


def _spans(tracer):
    if tracer is None:
        return lambda name: contextlib.nullcontext()
    return tracer.span


def setup(workload: str, tracer=None, clock=time.perf_counter) -> dict:
    """Run the cold start once; returns the split and the built objects.

    Raises ``ImportError`` when the program is not there and
    ``RuntimeError`` when a kernel the workload needs cannot be built.
    """
    span = _spans(tracer)
    split = {"import_s": 0.0, "sdm_build_s": 0.0, "batch_build_s": 0.0}
    start = clock()
    with span("setup"):
        importlib.import_module("repro")
        for name in WORKLOAD_MODULES[workload]:
            importlib.import_module(name)
    split["import_s"] = clock() - start

    for kernel in WORKLOAD_KERNELS[workload]:
        t0 = clock()
        with span("setup"):
            if kernel == "sdm":
                from repro.sdm import kernel_available as available
            else:
                from repro.batch import batch_kernel_available as available
            ok = available()
        split[f"{kernel}_build_s"] = clock() - t0
        if not ok:
            raise RuntimeError(f"the {kernel} kernel could not be built")

    t0 = clock()
    with span("setup"):
        objects = build_objects(workload)
    split["objects_s"] = clock() - t0
    split["setup_s"] = clock() - start
    return {"split": split, "objects": objects}


def build_objects(workload: str) -> dict:
    """The program objects a workload needs before its first operation."""
    if workload == "fleet":
        from repro.gateway import GatewayServer

        from workloads import FLEET_SPF

        return {"server": GatewayServer(samples_per_frame=FLEET_SPF)}
    from repro.baselines.cuff import OscillometricCuff
    from repro.core.chain import ReadoutChain
    from repro.core.monitor import BloodPressureMonitor
    from repro.params import SystemParams
    from repro.tonometry.contact import ContactModel
    from repro.tonometry.coupling import TonometricCoupling

    if workload == "imaging":
        from repro.array.scan import ScanController

        from workloads import imaging_params

        chain = ReadoutChain(imaging_params())
        return {"chain": chain, "controller": ScanController(chain.chip.mux)}
    params = SystemParams()
    chain = ReadoutChain(params, backend="fast")
    contact = ContactModel(contact=params.contact, tissue=params.tissue)
    coupling = TonometricCoupling(chain.chip.array.geometry, contact)
    monitor = BloodPressureMonitor(chain, coupling, cuff=OscillometricCuff())
    return {"chain": chain, "monitor": monitor}
