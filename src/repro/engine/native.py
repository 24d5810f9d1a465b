"""On-demand build and ctypes bindings for the batch engine's C kernel.

The batch engine's cache state is mutated only by ``batchcore.c``,
compiled lazily into a cached shared object the first time a process
asks for it. The toolchain requirement is just a C compiler
(``cc``/``gcc``/``clang``); no third-party package is involved.
:func:`load_kernel` returns the kernel or raises :class:`ConfigError`;
without a compiler, :func:`repro.engine.batch.build_hierarchy` runs the
object engine instead (DESIGN.md §11).

``REPRO_NATIVE_DIR`` is the cache directory for compiled kernels
(default ``~/.cache/repro-native``). The library name embeds a hash of
the whole compile command (the compiler's resolved path and
:data:`CFLAGS`) and of the C source, so editing the kernel or its flags,
or switching compilers, builds afresh instead of loading a stale build.

Compilation is race-safe across processes: each builder compiles to a
unique temp file and ``os.replace``s it into place.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from ctypes import POINTER, c_int64, c_uint8
from pathlib import Path
from typing import Optional

from repro.errors import ConfigError

_SOURCE = Path(__file__).resolve().parent / "batchcore.c"

#: compiler flags of the kernel build (part of the cached library's key)
CFLAGS = ("-O2", "-fPIC", "-shared")


def native_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-native"


class BCache(ctypes.Structure):
    _fields_ = [
        ("num_sets", c_int64),
        ("ways", c_int64),
        ("is_lru", c_int64),
        ("tags", POINTER(c_int64)),
        ("dirty", POINTER(c_uint8)),
        ("kind", POINTER(c_uint8)),
        ("stamp", POINTER(c_int64)),
        ("tick", POINTER(c_int64)),
        ("lcg", POINTER(c_int64)),
        ("stats", POINTER(c_int64)),
    ]


class BHier(ctypes.Structure):
    _fields_ = [
        ("num_cores", c_int64),
        ("victim_fill_clean", c_int64),
        ("l1", POINTER(BCache)),
        ("l2", POINTER(BCache)),
        ("llc", POINTER(BCache)),
        ("traffic", POINTER(c_int64)),
        ("ddio_mask", POINTER(c_int64)),
        ("ddio_mask_len", POINTER(c_int64)),
        ("core_masks", POINTER(c_int64)),
        ("core_mask_len", POINTER(c_int64)),
    ]


class BLoop(ctypes.Structure):
    _fields_ = [
        ("num_cores", c_int64),
        ("policy", c_int64),
        ("relinquish", c_int64),
        ("zc_sweep", c_int64),
        ("tx_sweep", c_int64),
        ("packet_blocks", c_int64),
        ("rx_entries", c_int64),
        ("tx_entries", c_int64),
        ("rx_base", POINTER(c_int64)),
        ("tx_base", POINTER(c_int64)),
        ("rx_head", POINTER(c_int64)),
        ("rx_tail", POINTER(c_int64)),
        ("rx_drops", POINTER(c_int64)),
        ("rx_posted", POINTER(c_int64)),
        ("tx_next", POINTER(c_int64)),
        ("counts", POINTER(c_int64)),
    ]


_P = POINTER(BHier)

#: exported function name -> (argtypes, restype)
_SIGNATURES = {
    "bc_cpu_access": ([_P, c_int64, c_int64, c_int64, c_int64], c_int64),
    "bc_cpu_access_run": (
        [_P, c_int64, c_int64, c_int64, c_int64, c_int64, POINTER(c_int64)],
        None,
    ),
    "bc_cpu_access_batch": (
        [
            _P,
            c_int64,
            POINTER(c_int64),
            POINTER(c_uint8),
            c_int64,
            c_int64,
            POINTER(c_int64),
        ],
        None,
    ),
    "bc_nic_llc_write_run": (
        [_P, c_int64, c_int64, c_int64, c_int64],
        None,
    ),
    "bc_nic_probe_read_run": ([_P, c_int64, c_int64, c_int64], c_int64),
    "bc_sweep_run": ([_P, c_int64, c_int64, c_int64], c_int64),
    "bc_invalidate_block": ([_P, c_int64, c_int64, c_int64], c_int64),
    "bc_llc_prime": (
        [_P, POINTER(c_int64), c_int64, POINTER(c_int64), c_int64],
        c_int64,
    ),
    "bc_llc_probe": (
        [
            _P,
            POINTER(c_int64),
            c_int64,
            POINTER(c_int64),
            c_int64,
            POINTER(c_int64),
        ],
        c_int64,
    ),
    "bc_dma_rx_write_run": ([_P, c_int64, c_int64, c_int64], None),
    "bc_dma_tx_read_run": ([_P, c_int64, c_int64, c_int64], None),
    "bc_run_requests": (
        [
            _P,
            POINTER(BLoop),
            c_int64,
            c_int64,
            POINTER(c_int64),
            c_int64,
            POINTER(c_int64),
            c_int64,
        ],
        c_int64,
    ),
}


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_key(compiler: str, source: Path) -> str:
    """Hash of what determines the built library: the compiler, the
    flags and the source."""
    h = hashlib.sha256()
    for part in (os.path.realpath(compiler), *CFLAGS):
        h.update(part.encode() + b"\0")
    h.update(source.read_bytes())
    return h.hexdigest()[:16]


def build_library(source: Path = _SOURCE) -> Path:
    """Compile the kernel (if not cached) and return the .so path."""
    compiler = _find_compiler()
    if compiler is None:
        raise ConfigError("no C compiler (cc/gcc/clang) on PATH")
    out_dir = native_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    lib_path = out_dir / f"batchcore-{_build_key(compiler, source)}.so"
    if lib_path.exists():
        return lib_path
    fd, tmp_name = tempfile.mkstemp(dir=out_dir, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp_name, str(source)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise ConfigError(
                f"batchcore compile failed ({compiler}):\n{proc.stderr}"
            )
        os.replace(tmp_name, lib_path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return lib_path


class NativeKernel:
    """Loaded shared library with typed entry points as attributes."""

    def __init__(self, lib_path: Path) -> None:
        self.path = lib_path
        self.lib = ctypes.CDLL(str(lib_path))
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(self.lib, name)
            fn.argtypes = argtypes
            fn.restype = restype
            setattr(self, name, fn)


_kernel: Optional[NativeKernel] = None
_kernel_error: Optional[str] = None


def load_kernel() -> NativeKernel:
    """The process-wide kernel, built on first use.

    Raises :class:`ConfigError` when it cannot be built or loaded; the
    failure is remembered, so later calls raise without recompiling.
    """
    global _kernel, _kernel_error
    if _kernel is not None:
        return _kernel
    if _kernel_error is None:
        try:
            _kernel = NativeKernel(build_library())
            return _kernel
        except (ConfigError, OSError) as exc:
            _kernel_error = str(exc)
    raise ConfigError(f"batch kernel unavailable: {_kernel_error}")
