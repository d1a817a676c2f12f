"""Native kernel builds leave no temporary directory behind.

Both compiled kernels (the single-session ΣΔ loop and the fused batch
chain) build in a private ``repro-*-kernel-*`` directory. Each test runs
a fresh interpreter with its own ``TMPDIR``, forces both builds, exits,
and then looks for what the process left there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

BUILD_BOTH = (
    "from repro.batch.kernel import batch_kernel_available\n"
    "from repro.sdm.fastpath import kernel_available\n"
    "print(int(kernel_available()), int(batch_kernel_available()))\n"
)


def build_in_fresh_process(tmp_path: Path, path_env: str | None) -> str:
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir), PYTHONPATH=str(SRC))
    env.pop("REPRO_CC", None)
    if path_env is not None:
        env["PATH"] = path_env
    done = subprocess.run(
        [sys.executable, "-c", BUILD_BOTH],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    leaked = sorted(p.name for p in tmpdir.iterdir())
    assert leaked == [], f"build directories left behind: {leaked}"
    return done.stdout.split()


def test_loaded_kernels_leave_no_build_dir(tmp_path):
    """A successful build removes its directory once the object is loaded."""
    flags = build_in_fresh_process(tmp_path, path_env=None)
    assert len(flags) == 2


def test_failed_builds_leave_no_build_dir(tmp_path):
    """With no compiler on PATH both builds fail, and clean up anyway."""
    empty = tmp_path / "bin"
    empty.mkdir()
    flags = build_in_fresh_process(tmp_path, path_env=str(empty))
    assert flags == ["0", "0"]
