"""Loader of the compiled kernel, _kernel.c: the G(n,p) draw (used by `graph`),
the CSR matvec of the Lanczos route (used by `spectral`), and the smallest-last
order and the exact clique search (used by `clique`).

The C file is compiled with `cc` on the first call of `library()` and cached
in $XDG_CACHE_HOME/bncheck (default ~/.cache/bncheck) under a name that hashes
the source and the flags; later processes only load it. There is no other
implementation. Importing this module compiles and loads nothing.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import threading
from functools import cache
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
CFLAGS = ("-O2", "-shared", "-fPIC")


@cache
def library() -> ctypes.CDLL:
    """The kernel, compiled on first use, with the argument types of its four
    entry points set.

    Each process (and thread) compiles to a temporary name of its own and
    renames it into place, so callers that meet an empty cache at once all
    load a whole file.
    """
    # hashlib loads OpenSSL's libcrypto, 3.6 MB of RSS (a tenth of a G(200, 1/2)
    # worker's peak); the builtin module that hashlib falls back to does not.
    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    source = SOURCE.read_bytes()
    digest = sha256(source + " ".join(CFLAGS).encode()).hexdigest()
    cache_dir = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "bncheck"
    path = cache_dir / f"kernel-{digest}.so"
    if not path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        partial = cache_dir / f".{path.name}.{os.getpid()}.{threading.get_ident()}"
        command = ["cc", *CFLAGS, "-o", str(partial), str(SOURCE)]
        try:
            subprocess.run(command, check=True, capture_output=True, text=True)
            os.replace(partial, path)
        except FileNotFoundError:
            raise RuntimeError(
                f"bncheck needs a C compiler: no `cc` on PATH to build "
                f"{SOURCE.name} into {cache_dir}"
            ) from None
        except subprocess.CalledProcessError as exc:
            raise RuntimeError(
                f"`cc` failed to build {SOURCE.name} into {cache_dir}:\n{exc.stderr}"
            ) from None
        finally:
            partial.unlink(missing_ok=True)
    lib = ctypes.CDLL(str(path))
    matrix = np.ctypeslib.ndpointer(np.uint8, ndim=2, flags="C_CONTIGUOUS")
    vertices = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    out_vertices = np.ctypeslib.ndpointer(np.int64, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
    lib.bn_draw_gnp.argtypes = [
        np.ctypeslib.ndpointer(np.uint8, ndim=2, flags=("C_CONTIGUOUS", "WRITEABLE")),
        ctypes.c_int64, ctypes.c_uint64, ctypes.c_uint64,  # n, seed, threshold
    ]
    lib.bn_draw_gnp.restype = None
    int32s = np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS")
    lib.bn_csr_matvec.argtypes = [
        int32s, int32s, ctypes.c_int64,  # indptr, indices, n
        np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS"),  # x
        np.ctypeslib.ndpointer(np.float64, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE")),  # y
    ]
    lib.bn_csr_matvec.restype = None
    lib.bn_degeneracy_order.argtypes = [matrix, ctypes.c_int64, out_vertices]
    lib.bn_degeneracy_order.restype = ctypes.c_int64
    lib.bn_max_clique.argtypes = [
        matrix, ctypes.c_int64, vertices, ctypes.c_double,  # matrix, n, order, budget
        out_vertices, ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_int32),
    ]
    lib.bn_max_clique.restype = ctypes.c_int64
    return lib
