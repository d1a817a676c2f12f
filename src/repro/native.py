"""Build and load the package's C kernels on first use.

The ΣΔ loop (:mod:`repro.sdm.fastpath`) and the fused chain
(:mod:`repro.batch.kernel`) are each an embedded C source, compiled by
the system C compiler the first time a process asks for it and loaded
through :mod:`ctypes`. :class:`NativeKernel` is that one build recipe;
each module supplies only its source, compiler flags and a ``bind``
function that types the symbols it calls.

The shared object is built in a private temporary directory that is
removed as soon as the object is loaded or the build fails (a loaded
library stays mapped without its file). Any failure — no compiler, a
sandboxed filesystem, an unloadable object — makes the kernel
unavailable, and callers run the reference Python path instead.
``REPRO_CC`` names a compiler to try before ``cc``, ``gcc`` and
``clang``.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from typing import Callable


class NativeKernel:
    """One lazily built C kernel, compiled at most once per process.

    :meth:`get` returns ``bind(lib)`` for the loaded library, or None
    when the build failed.
    """

    def __init__(
        self,
        name: str,
        source: str,
        cflags: list[str],
        bind: Callable[[ctypes.CDLL], object],
        libs: tuple[str, ...] = (),
    ):
        self.name = name
        self._source = source
        self._cflags = cflags
        self._bind = bind
        self._libs = libs
        # None = not tried yet, False = unavailable, else bind's result.
        self._bound: object = None

    def get(self):
        if self._bound is None:
            lib = self._build()
            self._bound = False if lib is None else self._bind(lib)
        return self._bound or None

    def available(self) -> bool:
        return self.get() is not None

    def _build(self) -> ctypes.CDLL | None:
        compilers = [os.environ.get("REPRO_CC"), "cc", "gcc", "clang"]
        build_dir = tempfile.mkdtemp(prefix=f"repro-{self.name}-kernel-")
        src = os.path.join(build_dir, f"{self.name}_kernel.c")
        lib_path = os.path.join(build_dir, f"{self.name}_kernel.so")
        try:
            with open(src, "w") as fh:
                fh.write(self._source)
            for cc in compilers:
                if not cc:
                    continue
                try:
                    result = subprocess.run(
                        [cc, *self._cflags, "-o", lib_path, src, *self._libs],
                        capture_output=True,
                        timeout=60,
                    )
                except (OSError, subprocess.SubprocessError):
                    continue
                if result.returncode == 0 and os.path.exists(lib_path):
                    return ctypes.CDLL(lib_path)
            return None
        except OSError:
            return None
        finally:
            shutil.rmtree(build_dir, ignore_errors=True)
