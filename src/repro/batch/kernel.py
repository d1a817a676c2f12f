"""Fused batched chain kernel: chip front end -> sigma-delta -> CIC ->
FIR -> 12-bit codes.

One call advances ``B`` independent readout chains by ``n`` modulator
samples and returns every decimated 12-bit word the chunk completed, per
lane. The whole digital cascade of :mod:`repro.dsp` runs *inside* the
sample loop, so the bitstream never materializes and the per-stage
Python seams of the NumPy path disappear. A second entry point
(:func:`run_frontend_chunk`) evaluates the capacitive front end — the
membrane's Chebyshev transfer, per-element mismatch, the mux
charge-injection glitch and the charge front-end gain — in the same
compiled pass, reading the caller's pressure fields in place (no
``(B, n)`` staging copies).

Bit-identity discipline (the same contract as :mod:`repro.sdm.fastpath`,
extended across the cascade):

* The modulator recurrence performs the identical IEEE-754 double
  operations in the identical order as the reference loop, compiled with
  FP contraction disabled. The deterministic comparator is evaluated
  branchlessly through the offset/hysteresis form, which reduces *bit-
  exactly* to the ideal ``x2 >= 0`` comparator when offset and
  hysteresis are zero (including the ``-0.0`` input case).
* The front-end kernel replays ``numpy.polynomial.chebyshev.chebval``'s
  Clenshaw recurrence and domain map term for term (scalar coefficient
  minus element, then multiply-add with contraction off), so it returns
  the same doubles ``MembraneSensor.capacitance_f`` produces; the
  element/mux/front-end affine steps mirror their NumPy expressions
  operation for operation.
* CIC integrators accumulate the +/-1 decisions in ``uint64`` with
  natural mod-2^64 wraparound; values are sign-extended to the Hogenauer
  register width only where the comb cascade reads them. Wrapping
  commutes with addition, so this matches
  :class:`repro.dsp.cic.CICDecimator` exactly.
* The FIR multiply-accumulate is exact int64 arithmetic (the register
  bound keeps |acc| < 2^31), so summation order is irrelevant.
* Quantization computes ``rint((double)acc * qscale)`` — the same
  half-to-even rounding as ``np.round`` — then clamps to the output
  rails instead of wrapping.

Lanes are processed in blocks of :data:`LANE_BLOCK` so the per-block
working set (modulator and integrator state plus a handful of input
streams) stays register- and L1-resident; the engine pads the batch to a
block multiple with inert lanes. The same chain body is also compiled
one lane wide, so a single session (a one-lane engine) stages and runs
exactly its own lane instead of eight. Reordering lanes into blocks
never changes any single lane's operation sequence, so identity is
unaffected.

All decimation phases are scalar and shared: the engine requires every
lane to be fed the same number of samples per call (lanes run in
lockstep), which is exactly the batched-acquisition contract.

When no C compiler is available (the build goes through
:class:`repro.native.NativeKernel`), the engine falls back to per-lane
processing through the existing single-session stages — slower, but
producing the same bits, so results never depend on the toolchain.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from ..native import NativeKernel

# Lanes per register block in the chain kernel; the engine pads a
# multi-lane batch up to a multiple of this with inert lanes.
LANE_BLOCK = 8

# Register-block widths the chain kernel is compiled for: the padded
# multi-lane block, and exactly one lane for a single session.
_CHAIN_WIDTHS = (LANE_BLOCK, 1)

_PRELUDE_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

#define VW 8   /* samples per front-end vector block */
"""

# The chain kernel body, compiled once per width in _CHAIN_WIDTHS with
# LB (lanes per register block) and CHAIN_RUN (exported name) defined.
_CHAIN_C_SOURCE = r"""
/* Fused batched chain: B second-order sigma-delta loops feeding B
 * CIC(order 3, diff delay 1) + FIR cascades, sharing scalar decimation
 * phases (lanes run in lockstep).
 *
 * Per-lane inputs (au, noise, dacn) are lane-major: lane l's samples
 * live at base[l*stride + i]. A stride of 0 aliases every lane onto one
 * shared row — the caller uses that to feed an all-zero noise row
 * without materializing (B, n) zeros. Per-lane state vectors have
 * length B; the FIR history is a lane-major (B, taps-1) ring sharing
 * one head index, returned via state_out so the caller can unroll it.
 * Output words are lane-major (B, cap).
 *
 * Lanes advance in blocks of LB whose modulator/integrator/comb state
 * lives in local arrays (registers/L1) for the whole chunk; B must be a
 * multiple of LB (the Python layer pads multi-lane batches with inert
 * lanes and runs a single lane on the LB = 1 build).
 *
 * Arithmetic mirrors the Python reference stages operation for
 * operation (build with -ffp-contract=off). Returns the number of
 * emitted words per lane; state_out carries the final scalar phases.
 */
long long CHAIN_RUN(
    long long n, long long B,
    const double *restrict au, long long au_stride,
    const double *restrict noise, long long noise_stride,
    const double *restrict dacn, long long dacn_stride,
    const double *restrict dac_gain,
    const double *restrict p1, const double *restrict b1,
    const double *restrict p2, const double *restrict a2,
    const double *restrict b2,
    const double *restrict swing,
    const double *restrict c_off,    /* (B) comparator offset        */
    const double *restrict c_hys,    /* (B) comparator hysteresis    */
    double *restrict x1, double *restrict x2,   /* (B) in/out        */
    long long *restrict prev,        /* (B) in/out comparator memory */
    long long *restrict clipped,     /* (B) out, caller zeroes       */
    unsigned long long *restrict integ, /* (3, B) in/out, raw mod 2^64 */
    long long *restrict comb,        /* (3, B) in/out, wrapped       */
    long long cic_R, long long cic_phase, long long reg_bits,
    const long long *restrict flip,  /* (taps) reversed Q coeffs     */
    long long taps, long long fir_M, long long fir_phase,
    long long *restrict hist,        /* (B, taps-1) in/out ring      */
    double qscale, long long qmax, long long qmin,
    long long *restrict words,       /* (B, cap) out                 */
    long long cap,
    long long *restrict state_out)   /* [cic_phase, fir_phase, head] */
{
    if (B % LB) {
        return -2; /* caller pads the batch */
    }
    const long long half = 1LL << (reg_bits - 1);
    const unsigned long long mask = ((unsigned long long)1 << reg_bits) - 1;
    const long long nh = taps - 1;
    const long long ftail = flip[taps - 1];
    long long nw = 0, cphase_out = cic_phase, fphase_out = fir_phase;
    long long head_out = 0;
    long long b0, i, j, k, r;

    for (b0 = 0; b0 < B; b0 += LB) {
        double lx1[LB], lx2[LB], lpv[LB];
        double lp1[LB], lb1[LB], lp2[LB], la2[LB], lb2[LB];
        double lsw[LB], loff[LB], lhy[LB], ldg[LB];
        long long lclip[LB];
        unsigned long long li0[LB], li1[LB], li2[LB];
        long long lc0[LB], lc1[LB], lc2[LB], lcur[LB];
        const double *pa[LB], *pn[LB], *pd[LB];

        for (j = 0; j < LB; j++) {
            const long long l = b0 + j;
            lx1[j] = x1[l];
            lx2[j] = x2[l];
            lpv[j] = (double)prev[l];
            lp1[j] = p1[l];
            lb1[j] = b1[l];
            lp2[j] = p2[l];
            la2[j] = a2[l];
            lb2[j] = b2[l];
            lsw[j] = swing[l];
            loff[j] = c_off[l];
            lhy[j] = c_hys[l];
            ldg[j] = dac_gain[l];
            lclip[j] = 0;
            li0[j] = integ[l];
            li1[j] = integ[B + l];
            li2[j] = integ[2 * B + l];
            lc0[j] = comb[l];
            lc1[j] = comb[B + l];
            lc2[j] = comb[2 * B + l];
            pa[j] = au + l * au_stride;
            pn[j] = noise + l * noise_stride;
            pd[j] = dacn + l * dacn_stride;
        }
        long long cphase = cic_phase, fphase = fir_phase, head = 0;
        long long bnw = 0;

        for (i = 0; i < n; i++) {
            for (j = 0; j < LB; j++) {
                double x2v = lx2[j];
                /* Branchless deterministic comparator: with zero offset
                 * and hysteresis this is bit-exactly the ideal x2 >= 0
                 * decision (0.5*0*prev is +/-0.0 and x - (+/-0.0) == x
                 * for every x the margin test distinguishes). */
                double threshold = loff[j] - 0.5 * lhy[j] * lpv[j];
                double margin = x2v - threshold;
                double v = (margin >= 0.0) ? 1.0 : -1.0;
                double fb = v * ldg[j] + pd[j][i];
                double x1v = lx1[j];
                double x1n = lp1[j] * x1v + pa[j][i] - lb1[j] * fb
                             + pn[j][i];
                double x2n = lp2[j] * x2v + la2[j] * x1v - lb2[j] * fb;
                double sw = lsw[j];
                lclip[j] += (x1n > sw) | (x1n < -sw) | (x2n > sw)
                            | (x2n < -sw);
                x1n = (x1n > sw) ? sw : ((x1n < -sw) ? -sw : x1n);
                x2n = (x2n > sw) ? sw : ((x2n < -sw) ? -sw : x2n);
                lx1[j] = x1n;
                lx2[j] = x2n;
                lpv[j] = v;
                /* Integrate the +/-1 decision: uint64 wraparound
                 * commutes with the per-stage two's-complement wrap of
                 * the NumPy CIC, so sign-extension can wait until the
                 * comb reads. */
                unsigned long long bu = (margin >= 0.0)
                    ? 1ULL : (unsigned long long)-1LL;
                li0[j] += bu;
                li1[j] += li0[j];
                li2[j] += li1[j];
            }
            if (cphase == 0) {
                /* CIC output word: wrap the third integrator to the
                 * register width, run the comb cascade. */
                for (j = 0; j < LB; j++) {
                    long long v = (long long)(((li2[j]
                                  + (unsigned long long)half) & mask))
                                  - half;
                    long long t;
                    t = (long long)((((unsigned long long)(v - lc0[j]))
                        + (unsigned long long)half) & mask) - half;
                    lc0[j] = v;
                    v = t;
                    t = (long long)((((unsigned long long)(v - lc1[j]))
                        + (unsigned long long)half) & mask) - half;
                    lc1[j] = v;
                    v = t;
                    t = (long long)((((unsigned long long)(v - lc2[j]))
                        + (unsigned long long)half) & mask) - half;
                    lc2[j] = v;
                    lcur[j] = t;
                }
                if (fphase == 0) {
                    if (bnw >= cap) {
                        return -1; /* caller sized the buffer wrong */
                    }
                    /* FIR word: window = history (oldest first) +
                     * current, times the time-reversed quantized
                     * coefficients. Integer MAC is exact, so order is
                     * free. */
                    for (j = 0; j < LB; j++) {
                        const long long *restrict h = hist + (b0 + j) * nh;
                        long long a = lcur[j] * ftail;
                        k = 0;
                        for (r = head; r < nh; r++, k++) {
                            a += h[r] * flip[k];
                        }
                        for (r = 0; r < head; r++, k++) {
                            a += h[r] * flip[k];
                        }
                        double scaled = (double)a * qscale;
                        long long q = (long long)rint(scaled);
                        q = (q > qmax) ? qmax : ((q < qmin) ? qmin : q);
                        words[(b0 + j) * cap + bnw] = q;
                    }
                    bnw++;
                }
                /* Push the CIC word into each lane's circular history. */
                if (nh > 0) {
                    for (j = 0; j < LB; j++) {
                        hist[(b0 + j) * nh + head] = lcur[j];
                    }
                    head++;
                    if (head == nh) {
                        head = 0;
                    }
                }
                fphase++;
                if (fphase == fir_M) {
                    fphase = 0;
                }
            }
            cphase++;
            if (cphase == cic_R) {
                cphase = 0;
            }
        }
        for (j = 0; j < LB; j++) {
            const long long l = b0 + j;
            x1[l] = lx1[j];
            x2[l] = lx2[j];
            prev[l] = (lpv[j] >= 0.0) ? 1 : -1;
            clipped[l] += lclip[j];
            integ[l] = li0[j];
            integ[B + l] = li1[j];
            integ[2 * B + l] = li2[j];
            comb[l] = lc0[j];
            comb[B + l] = lc1[j];
            comb[2 * B + l] = lc2[j];
        }
        nw = bnw;
        cphase_out = cphase;
        fphase_out = fphase;
        head_out = head;
    }
    state_out[0] = cphase_out;
    state_out[1] = fphase_out;
    state_out[2] = head_out;
    return nw;
}
"""

_FRONTEND_C_SOURCE = r"""
/* One sample of the capacitive front end: domain map + Clenshaw
 * recurrence, exactly as numpy.polynomial.chebyshev.chebval orders the
 * operations (scalar coefficient minus element, then c1*x2 add). */
static double cheb_one(double pv, const double *restrict cheb,
                       long long ncoef, double dom_off, double dom_scl)
{
    double x = dom_off + dom_scl * pv;
    double c0, c1;
    if (ncoef == 1) {
        c0 = cheb[0];
        c1 = 0.0;
    } else if (ncoef == 2) {
        c0 = cheb[0];
        c1 = cheb[1];
    } else {
        double x2 = 2.0 * x;
        long long k;
        c0 = cheb[ncoef - 2];
        c1 = cheb[ncoef - 1];
        for (k = ncoef - 3; k >= 0; k--) {
            double tmp = c0;
            c0 = cheb[k] - c1;
            c1 = tmp + c1 * x2;
        }
    }
    return c0 + c1 * x;
}

/* Batched capacitive front end: per lane, read the selected element's
 * pressure column in place (pbase[l] points at sample 0, pstep[l] is
 * the sample stride in doubles), evaluate the shared Chebyshev C(P)
 * transfer, apply the element mismatch affine, the mux charge-injection
 * glitch on sample 0 (inj[l] = 0 when the lane was not just switched;
 * adding literal +0.0 only differs for a -0.0 capacitance, which the
 * positivity check rejects on both paths), and the charge front end's
 * (sense - Cref)/Cfb * excitation map; write u * a1 into the lane's au
 * row. u_last[l] returns the pre-gain u of the final sample (the
 * modulator's jitter-slope carry).
 *
 * Returns 0, or -1 if any pressure leaves the interpolant's domain or
 * any capacitance is non-positive — the caller then replays the chunk
 * through the per-lane NumPy path, which raises the exact errors.
 */
long long batch_frontend_run(
    long long n, long long B,
    const unsigned long long *restrict pbase, /* (B) addresses        */
    const long long *restrict pstep,          /* (B) strides, doubles */
    double *restrict au, long long au_stride,
    const double *restrict cheb, long long ncoef,
    double dom_off, double dom_scl,
    double pmin, double pmax,
    const double *restrict cscale,  /* (B) element capacitance_scale  */
    const double *restrict coffs,   /* (B) element offset_cap_f       */
    const double *restrict inj,     /* (B) charge-injection glitch    */
    const double *restrict cref,    /* (B) front-end reference cap    */
    const double *restrict cfb,     /* (B) front-end feedback cap     */
    const double *restrict cexc,    /* (B) excitation fraction        */
    const double *restrict a1,      /* (B) folded modulator gain      */
    double *restrict u_last)        /* (B) out: final pre-gain u      */
{
    long long err = 0;
    long long l, i, v, k;
    for (l = 0; l < B; l++) {
        const double *p = (const double *)pbase[l];
        const long long st = pstep[l];
        double *restrict o = au + l * au_stride;
        const double cs = cscale[l], co = coffs[l], gi = inj[l];
        const double rf = cref[l], fb = cfb[l], ex = cexc[l];
        const double g = a1[l];
        double ul = 0.0;

        /* Sample 0 carries the charge-injection glitch. */
        {
            double pv = p[0];
            err += (pv > pmax) | (pv < pmin);
            double sense = cheb_one(pv, cheb, ncoef, dom_off, dom_scl)
                           * cs + co;
            sense = sense + gi;
            err += (sense <= 0.0);
            double u = (sense - rf) / fb * ex;
            ul = u;
            o[0] = u * g;
        }
        i = 1;
        if (ncoef >= 3) {
            const double ctop0 = cheb[ncoef - 2];
            const double ctop1 = cheb[ncoef - 1];
            for (; i + VW <= n; i += VW) {
                double x[VW], x2[VW], c0[VW], c1[VW], uu[VW];
                long long e = 0;
                for (v = 0; v < VW; v++) {
                    double pv = p[(i + v) * st];
                    e += (pv > pmax) | (pv < pmin);
                    x[v] = dom_off + dom_scl * pv;
                }
                for (v = 0; v < VW; v++) {
                    x2[v] = 2.0 * x[v];
                    c0[v] = ctop0;
                    c1[v] = ctop1;
                }
                for (k = ncoef - 3; k >= 0; k--) {
                    const double ck = cheb[k];
                    for (v = 0; v < VW; v++) {
                        double tmp = c0[v];
                        c0[v] = ck - c1[v];
                        c1[v] = tmp + c1[v] * x2[v];
                    }
                }
                for (v = 0; v < VW; v++) {
                    double sense = (c0[v] + c1[v] * x[v]) * cs + co;
                    e += (sense <= 0.0);
                    double u = (sense - rf) / fb * ex;
                    uu[v] = u;
                    o[i + v] = u * g;
                }
                err += e;
                ul = uu[VW - 1];
            }
        }
        for (; i < n; i++) {
            double pv = p[i * st];
            err += (pv > pmax) | (pv < pmin);
            double sense = cheb_one(pv, cheb, ncoef, dom_off, dom_scl)
                           * cs + co;
            err += (sense <= 0.0);
            double u = (sense - rf) / fb * ex;
            ul = u;
            o[i] = u * g;
        }
        u_last[l] = ul;
    }
    return err ? -1 : 0;
}
"""

_BATCH_KERNEL_C_SOURCE = "".join(
    [_PRELUDE_C_SOURCE]
    + [
        f"#define LB {lb}\n#define CHAIN_RUN batch_chain_run_{lb}\n"
        + _CHAIN_C_SOURCE
        + "#undef CHAIN_RUN\n#undef LB\n"
        for lb in _CHAIN_WIDTHS
    ]
    + [_FRONTEND_C_SOURCE]
)

# -O3 (vs the sigma-delta fast path's -O2) lets the compiler vectorize the
# lane-block and front-end inner loops. SIMD across lanes/samples
# preserves each element's operation order, and contraction stays off,
# so identity is unaffected.
_CFLAGS = [
    "-O3",
    "-ffp-contract=off",
    "-fno-fast-math",
    "-fPIC",
    "-shared",
]

_DBL_P = ctypes.POINTER(ctypes.c_double)
_LL_P = ctypes.POINTER(ctypes.c_longlong)
_ULL_P = ctypes.POINTER(ctypes.c_uint64)


def _bind(lib: ctypes.CDLL):
    """The loaded ``({width: chain_fn}, frontend_fn)`` pair."""
    chain_argtypes = [
        ctypes.c_longlong,  # n
        ctypes.c_longlong,  # B
        _DBL_P, ctypes.c_longlong,  # au, au_stride
        _DBL_P, ctypes.c_longlong,  # noise, noise_stride
        _DBL_P, ctypes.c_longlong,  # dacn, dacn_stride
        _DBL_P,  # dac_gain
        _DBL_P, _DBL_P,  # p1, b1
        _DBL_P, _DBL_P,  # p2, a2
        _DBL_P,  # b2
        _DBL_P,  # swing
        _DBL_P, _DBL_P,  # c_off, c_hys
        _DBL_P, _DBL_P,  # x1, x2
        _LL_P,  # prev
        _LL_P,  # clipped
        _ULL_P,  # integ
        _LL_P,  # comb
        ctypes.c_longlong,  # cic_R
        ctypes.c_longlong,  # cic_phase
        ctypes.c_longlong,  # reg_bits
        _LL_P,  # flip
        ctypes.c_longlong,  # taps
        ctypes.c_longlong,  # fir_M
        ctypes.c_longlong,  # fir_phase
        _LL_P,  # hist
        ctypes.c_double,  # qscale
        ctypes.c_longlong,  # qmax
        ctypes.c_longlong,  # qmin
        _LL_P,  # words
        ctypes.c_longlong,  # cap
        _LL_P,  # state_out
    ]
    chains = {}
    for lb in _CHAIN_WIDTHS:
        chain = getattr(lib, f"batch_chain_run_{lb}")
        chain.restype = ctypes.c_longlong
        chain.argtypes = chain_argtypes
        chains[lb] = chain

    front = lib.batch_frontend_run
    front.restype = ctypes.c_longlong
    front.argtypes = [
        ctypes.c_longlong,  # n
        ctypes.c_longlong,  # B
        _ULL_P,  # pbase
        _LL_P,  # pstep
        _DBL_P, ctypes.c_longlong,  # au, au_stride
        _DBL_P, ctypes.c_longlong,  # cheb, ncoef
        ctypes.c_double,  # dom_off
        ctypes.c_double,  # dom_scl
        ctypes.c_double,  # pmin
        ctypes.c_double,  # pmax
        _DBL_P,  # cscale
        _DBL_P,  # coffs
        _DBL_P,  # inj
        _DBL_P,  # cref
        _DBL_P,  # cfb
        _DBL_P,  # cexc
        _DBL_P,  # a1
        _DBL_P,  # u_last
    ]
    return (chains, front)


_KERNEL = NativeKernel(
    "batch", _BATCH_KERNEL_C_SOURCE, _CFLAGS, _bind, libs=("-lm",)
)


def batch_kernel_available() -> bool:
    """True when the fused batched C kernels could be built and loaded."""
    return _KERNEL.available()


def pad_lanes(B: int) -> int:
    """Batch size padded up to the kernel's lane-block multiple."""
    return -(-B // LANE_BLOCK) * LANE_BLOCK


def staged_lanes(B: int) -> int:
    """Lanes a ``B``-lane engine stages and runs: exactly one for a
    single lane (the one-lane build), else :func:`pad_lanes`."""
    return 1 if B == 1 else pad_lanes(B)


@dataclass
class BatchState:
    """Mutable per-batch cascade state the kernel reads and writes.

    The engine materializes this from the lane chains before every call
    and writes it back afterwards, so the chains stay the single source
    of truth (any chunk split, or a hand-off to single-session
    processing, resumes bit-exactly). Arrays are sized to the padded
    batch (``staged_lanes(B)``); rows past the real batch are inert.
    """

    x1: np.ndarray  # (Bp) float64 first-integrator states
    x2: np.ndarray  # (Bp) float64 second-integrator states
    comp_previous: np.ndarray  # (Bp) int64 comparator memory
    cic_integrators: np.ndarray  # (3, Bp) int64 (wrapped)
    cic_combs: np.ndarray  # (3, Bp) int64
    cic_phase: int
    fir_history: np.ndarray  # (Bp, taps-1) int64, column 0 oldest
    fir_phase: int


@dataclass
class BatchChunkResult:
    """Outcome of one fused batched chunk."""

    codes: np.ndarray  # (Bp, n_words) int64 12-bit codes, pre-suppression
    clipped: np.ndarray  # (Bp) int64 clipped-cycle counts


def run_batch_chunk(
    n: int,
    au: np.ndarray,
    au_stride: int,
    noise: np.ndarray,
    noise_stride: int,
    dac_noise: np.ndarray,
    dacn_stride: int,
    dac_gain: np.ndarray,
    p1: np.ndarray,
    b1: np.ndarray,
    p2: np.ndarray,
    a2: np.ndarray,
    b2: np.ndarray,
    swing: np.ndarray,
    comp_offset: np.ndarray,
    comp_hysteresis: np.ndarray,
    state: BatchState,
    cic_decimation: int,
    register_bits: int,
    fir_flipped: np.ndarray,
    fir_decimation: int,
    qscale: float,
    output_bits: int,
) -> BatchChunkResult:
    """Advance ``Bp`` fused chains by ``n`` samples through the C kernel.

    ``Bp`` (the size of the per-lane vectors) is 1 — the one-lane build —
    or a multiple of :data:`LANE_BLOCK`.

    ``au``/``noise``/``dac_noise`` are lane-major buffers addressed as
    ``base[l * stride + i]`` — a stride of 0 shares one zero row across
    every lane. ``state`` is updated in place. The caller is responsible
    for checking :func:`batch_kernel_available` first — there is no
    Python fallback at this layer (the engine falls back through the
    existing single-session stages instead).
    """
    kernel = _KERNEL.get()
    if kernel is None:  # pragma: no cover - engine guards this
        raise RuntimeError("batched kernel unavailable; use the engine fallback")
    B = int(dac_gain.size)
    chain_fn = kernel[0][min(B, LANE_BLOCK)]
    taps = int(fir_flipped.size)
    R = int(cic_decimation)
    M = int(fir_decimation)

    # CIC words appear at chunk-local samples first_c, first_c + R, ...
    first_c = (R - state.cic_phase) % R
    n_cic = 0 if n <= first_c else (n - first_c + R - 1) // R
    cap = max(1, n_cic)

    integ = np.ascontiguousarray(
        state.cic_integrators.astype(np.int64).view(np.uint64)
    )
    comb = np.ascontiguousarray(state.cic_combs, dtype=np.int64)
    hist = np.ascontiguousarray(state.fir_history, dtype=np.int64)
    words = np.empty((B, cap), dtype=np.int64)
    clipped = np.zeros(B, dtype=np.int64)
    state_out = np.zeros(3, dtype=np.int64)
    qmax = (1 << (output_bits - 1)) - 1
    qmin = -(1 << (output_bits - 1))

    def dp(a):
        return a.ctypes.data_as(_DBL_P)

    def lp(a):
        return a.ctypes.data_as(_LL_P)

    nw = chain_fn(
        n,
        B,
        dp(au),
        int(au_stride),
        dp(noise),
        int(noise_stride),
        dp(dac_noise),
        int(dacn_stride),
        dp(dac_gain),
        dp(p1),
        dp(b1),
        dp(p2),
        dp(a2),
        dp(b2),
        dp(swing),
        dp(comp_offset),
        dp(comp_hysteresis),
        dp(state.x1),
        dp(state.x2),
        lp(state.comp_previous),
        lp(clipped),
        integ.ctypes.data_as(_ULL_P),
        lp(comb),
        R,
        state.cic_phase,
        register_bits,
        lp(np.ascontiguousarray(fir_flipped, dtype=np.int64)),
        taps,
        M,
        state.fir_phase,
        lp(hist),
        qscale,
        qmax,
        qmin,
        lp(words),
        cap,
        lp(state_out),
    )
    if nw < 0:  # pragma: no cover - capacity/padding invariants are exact
        raise RuntimeError("batched kernel invariant violation")

    # Write the cascade state back in the layout the chains use.
    from ..dsp.fixed_point import wrap_twos_complement

    state.cic_integrators = wrap_twos_complement(
        integ.view(np.int64), register_bits
    ).astype(np.int64)
    state.cic_combs = comb
    state.cic_phase = int(state_out[0])
    head = int(state_out[2])
    state.fir_history = np.concatenate(
        [hist[:, head:], hist[:, :head]], axis=1
    )
    state.fir_phase = int(state_out[1])
    return BatchChunkResult(codes=words[:, : int(nw)], clipped=clipped)


def run_frontend_chunk(
    n: int,
    pbase: np.ndarray,
    pstep: np.ndarray,
    au: np.ndarray,
    au_stride: int,
    cheb_coef: np.ndarray,
    dom_off: float,
    dom_scl: float,
    p_min: float,
    p_max: float,
    cap_scale: np.ndarray,
    cap_offset: np.ndarray,
    injection: np.ndarray,
    ref_cap: np.ndarray,
    fb_cap: np.ndarray,
    excitation: np.ndarray,
    a1: np.ndarray,
    u_last: np.ndarray,
) -> bool:
    """Evaluate the capacitive front end for ``B`` lanes in one pass.

    Reads each lane's selected-element pressure column in place via
    ``(pbase[l], pstep[l])`` and writes ``a1 * u`` into the lane's
    ``au`` row. Returns False when any sample violates the transfer's
    domain or positivity constraints — the caller then replays the
    chunk through the per-lane NumPy front end, which raises the exact
    error the single-session path raises.
    """
    kernel = _KERNEL.get()
    if kernel is None:  # pragma: no cover - engine guards this
        raise RuntimeError("batched kernel unavailable; use the engine fallback")
    front_fn = kernel[1]
    rc = front_fn(
        int(n),
        int(pbase.size),
        pbase.ctypes.data_as(_ULL_P),
        pstep.ctypes.data_as(_LL_P),
        au.ctypes.data_as(_DBL_P),
        int(au_stride),
        cheb_coef.ctypes.data_as(_DBL_P),
        int(cheb_coef.size),
        float(dom_off),
        float(dom_scl),
        float(p_min),
        float(p_max),
        cap_scale.ctypes.data_as(_DBL_P),
        cap_offset.ctypes.data_as(_DBL_P),
        injection.ctypes.data_as(_DBL_P),
        ref_cap.ctypes.data_as(_DBL_P),
        fb_cap.ctypes.data_as(_DBL_P),
        excitation.ctypes.data_as(_DBL_P),
        a1.ctypes.data_as(_DBL_P),
        u_last.ctypes.data_as(_DBL_P),
    )
    return rc == 0
