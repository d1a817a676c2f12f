"""Vectorized/compiled fast path for the second-order sigma-delta loop.

The modulator recurrence is inherently serial — the comparator decision
at sample ``n`` feeds back into the states that produce the decision at
``n + 1`` — so it cannot be expressed as NumPy whole-array operations
without changing its semantics. The fast backend therefore works in two
layers, both *bit-identical* to the reference loop in
:mod:`repro.sdm.modulator`:

* **Block preparation in NumPy** — all stochastic terms (kT/C white
  noise, flicker, DAC reference noise, jitter slope) and the input
  scaling ``a1 * u`` are precomputed as whole arrays, exactly as the
  reference path draws them, so the per-sample recurrence touches only
  five scalar state updates.
* **A compiled scalar kernel** — the residual recurrence is run by a
  small C kernel compiled on first use with the system C compiler and
  loaded through :mod:`ctypes`. The kernel performs the identical
  IEEE-754 double operations in the identical order (compiled with
  FP contraction disabled), which is what makes bitstreams bit-identical
  rather than merely statistically equivalent.

The kernel covers deterministic comparators (ideal, offset, hysteresis).
Metastable comparators draw randomness *inside* the loop, and without a
C compiler there is no kernel at all; both run the reference loop
instead (the dispatch is
:meth:`repro.sdm.modulator.SecondOrderSDM._run_prepared`), so results
never depend on the toolchain.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from ..native import NativeKernel

_KERNEL_C_SOURCE = r"""
#include <stdint.h>

/* Second-order single-bit sigma-delta recurrence.
 *
 * Arithmetic mirrors repro/sdm/modulator.py's reference loop exactly:
 * evaluation order of every floating-point expression matches the
 * Python source so the results are bit-identical (build with
 * -ffp-contract=off so no FMA contraction changes rounding).
 *
 * Returns 0 on success, or (i + 1) when sample i clipped and
 * raise_on_clip was set; in that case state[] holds the unclipped
 * offending (x1, x2) for the exception message and no state is
 * considered committed.
 */
long long sdm_run(long long n,
                  const double *au,        /* a1 * u[i], precomputed   */
                  const double *noise,     /* per-sample input noise   */
                  const double *dac_noise, /* may be NULL              */
                  double dac_gain,
                  double p1, double b1,
                  double p2, double a2, double b2,
                  double swing,
                  double *state,           /* in/out: {x1, x2}         */
                  int8_t *bits,            /* out: n decisions         */
                  double *states,          /* out: n * 2, may be NULL  */
                  int raise_on_clip,
                  int ideal_comparator,
                  double comp_offset, double comp_hysteresis,
                  int comp_previous,
                  long long *clipped_out,
                  int *comp_previous_out)
{
    double x1 = state[0];
    double x2 = state[1];
    long long clipped = 0;
    int prev = comp_previous;
    long long i;

    for (i = 0; i < n; i++) {
        double v, fb, x1_new, x2_new;
        if (ideal_comparator) {
            v = (x2 >= 0.0) ? 1.0 : -1.0;
        } else {
            double threshold = comp_offset - 0.5 * comp_hysteresis * (double)prev;
            double margin = x2 - threshold;
            prev = (margin >= 0.0) ? 1 : -1;
            v = (double)prev;
        }
        fb = v * dac_gain;
        if (dac_noise) {
            fb += dac_noise[i];
        }
        x1_new = p1 * x1 + au[i] - b1 * fb + noise[i];
        x2_new = p2 * x2 + a2 * x1 - b2 * fb;
        if (x1_new > swing || x1_new < -swing ||
            x2_new > swing || x2_new < -swing) {
            clipped++;
            if (raise_on_clip) {
                state[0] = x1_new;
                state[1] = x2_new;
                *clipped_out = clipped;
                *comp_previous_out = prev;
                return i + 1;
            }
            if (x1_new > swing) x1_new = swing;
            else if (x1_new < -swing) x1_new = -swing;
            if (x2_new > swing) x2_new = swing;
            else if (x2_new < -swing) x2_new = -swing;
        }
        x1 = x1_new;
        x2 = x2_new;
        bits[i] = (v > 0.0) ? 1 : -1;
        if (states) {
            states[2 * i] = x1;
            states[2 * i + 1] = x2;
        }
    }
    state[0] = x1;
    state[1] = x2;
    *clipped_out = clipped;
    *comp_previous_out = prev;
    return 0;
}
"""

_CFLAGS = ["-O2", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared"]


def _bind(lib: ctypes.CDLL):
    fn = lib.sdm_run
    dbl_p = ctypes.POINTER(ctypes.c_double)
    fn.restype = ctypes.c_longlong
    fn.argtypes = [
        ctypes.c_longlong,  # n
        dbl_p,  # au
        dbl_p,  # noise
        dbl_p,  # dac_noise (nullable)
        ctypes.c_double,  # dac_gain
        ctypes.c_double,  # p1
        ctypes.c_double,  # b1
        ctypes.c_double,  # p2
        ctypes.c_double,  # a2
        ctypes.c_double,  # b2
        ctypes.c_double,  # swing
        dbl_p,  # state
        ctypes.POINTER(ctypes.c_int8),  # bits
        dbl_p,  # states (nullable)
        ctypes.c_int,  # raise_on_clip
        ctypes.c_int,  # ideal_comparator
        ctypes.c_double,  # comp_offset
        ctypes.c_double,  # comp_hysteresis
        ctypes.c_int,  # comp_previous
        ctypes.POINTER(ctypes.c_longlong),  # clipped_out
        ctypes.POINTER(ctypes.c_int),  # comp_previous_out
    ]
    return fn


_KERNEL = NativeKernel("sdm", _KERNEL_C_SOURCE, _CFLAGS, _bind)


def kernel_available() -> bool:
    """True when the compiled C kernel could be built and loaded."""
    return _KERNEL.available()


@dataclass
class LoopResult:
    """Raw outcome of one fast-path recurrence run."""

    bits: np.ndarray  # int8 +/-1 decisions
    clipped: int  # cycles that hit the swing limiter
    states: np.ndarray | None  # (n, 2) trajectory when requested
    x1: float  # final first-stage state
    x2: float  # final second-stage state
    comp_previous: int  # comparator memory after the run
    #: Index of the first clipped sample when raise_on_clip was set and
    #: tripped; -1 otherwise. ``x1``/``x2`` then hold the unclipped
    #: offending states rather than committed loop state.
    overload_index: int = -1


def run_loop(
    au: np.ndarray,
    noise: np.ndarray,
    dac_noise: np.ndarray | None,
    dac_gain: float,
    p1: float,
    b1: float,
    p2: float,
    a2: float,
    b2: float,
    swing: float,
    x1: float,
    x2: float,
    record_states: bool = False,
    raise_on_clip: bool = False,
    ideal_comparator: bool = True,
    comp_offset: float = 0.0,
    comp_hysteresis: float = 0.0,
    comp_previous: int = 1,
) -> LoopResult:
    """Run the prepared recurrence through the compiled kernel.

    ``au`` must already be ``a1 * u`` (the precomputed input branch) and
    ``noise`` the fully-drawn per-sample noise so the kernel stays
    deterministic. The caller checks :func:`kernel_available` first;
    there is no Python engine at this layer.
    """
    kernel = _KERNEL.get()
    if kernel is None:
        raise RuntimeError(
            "sigma-delta kernel unavailable; run the reference loop"
        )
    n = int(au.size)
    au = np.ascontiguousarray(au, dtype=np.float64)
    noise = np.ascontiguousarray(noise, dtype=np.float64)
    if dac_noise is not None:
        dac_noise = np.ascontiguousarray(dac_noise, dtype=np.float64)
    bits = np.empty(n, dtype=np.int8)
    states = np.empty((n, 2), dtype=np.float64) if record_states else None

    dbl_p = ctypes.POINTER(ctypes.c_double)
    state = np.array([x1, x2], dtype=np.float64)
    clipped = ctypes.c_longlong(0)
    prev_out = ctypes.c_int(comp_previous)
    rc = kernel(
        n,
        au.ctypes.data_as(dbl_p),
        noise.ctypes.data_as(dbl_p),
        dac_noise.ctypes.data_as(dbl_p) if dac_noise is not None else None,
        dac_gain,
        p1,
        b1,
        p2,
        a2,
        b2,
        swing,
        state.ctypes.data_as(dbl_p),
        bits.ctypes.data_as(ctypes.POINTER(ctypes.c_int8)),
        states.ctypes.data_as(dbl_p) if states is not None else None,
        1 if raise_on_clip else 0,
        1 if ideal_comparator else 0,
        comp_offset,
        comp_hysteresis,
        comp_previous,
        ctypes.byref(clipped),
        ctypes.byref(prev_out),
    )
    return LoopResult(
        bits=bits,
        clipped=int(clipped.value),
        states=states,
        x1=float(state[0]),
        x2=float(state[1]),
        comp_previous=int(prev_out.value),
        overload_index=int(rc) - 1 if rc > 0 else -1,
    )
