"""Property: batched == N independent single sessions, sample for sample.

Hypothesis drives the batch size, the (uneven) chunk split, and the
per-lane stimulus; every draw must reproduce the single-session codes
and reconcile per-lane telemetry exactly. The single sessions run the
``"reference"`` modulator backend, so the oracle never shares the
compiled chain kernel under test.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchAcquisitionSession
from repro.core.chain import ReadoutChain
from repro.core.session import AcquisitionSession
from repro.params import NonidealityParams, SystemParams


def make_chain(seed: int, backend: str = "fast") -> ReadoutChain:
    params = SystemParams().replace(nonideality=NonidealityParams.ideal())
    return ReadoutChain(
        params, rng=np.random.default_rng(seed), backend=backend
    )


def lane_voltage(n: int, lane: int) -> np.ndarray:
    t = np.arange(n) / 128e3
    return 0.25 * np.sin(2 * np.pi * (40.0 + 17.0 * lane) * t) + 0.01 * lane


@st.composite
def batch_cases(draw):
    lanes = draw(st.integers(min_value=1, max_value=3))
    n_chunks = draw(st.integers(min_value=1, max_value=4))
    chunks = [
        draw(st.integers(min_value=1, max_value=700))
        for _ in range(n_chunks)
    ]
    return lanes, chunks


class TestBatchedEqualsSingles:
    @given(batch_cases())
    @settings(max_examples=12, deadline=None)
    def test_codes_and_telemetry_match(self, case):
        lanes, chunks = case
        n = sum(chunks)
        u = np.stack([lane_voltage(n, l) for l in range(lanes)], axis=1)

        sess = BatchAcquisitionSession([make_chain(l) for l in range(lanes)])
        off = 0
        for c in chunks:
            sess.feed_voltage(u[off : off + c])
            off += c
        sess.finish()

        for l in range(lanes):
            ref = AcquisitionSession(make_chain(l, backend="reference"))
            ref.feed_voltage(u[:, l])
            ref.finish()
            assert np.array_equal(sess.codes(l), ref.recording().codes)
            lane_tm = sess.telemetries[l]
            lane_tm.reconcile()
            assert lane_tm.mod_samples_in == ref.telemetry.mod_samples_in
            assert (
                lane_tm.words_delivered == ref.telemetry.words_delivered
            )
            assert lane_tm.frames_decoded == ref.telemetry.frames_decoded
