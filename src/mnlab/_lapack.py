"""The LAPACK and BLAS routines mnlab calls, from scipy's own extensions.

scipy builds its LAPACK and BLAS wrappers into two extension modules,
``scipy.linalg._flapack`` and ``scipy.linalg._fblas``.  Importing them
the usual way runs the ``scipy.linalg`` package ``__init__`` first, which
costs far more than the extensions themselves (its array-API layer loads
``numpy.f2py`` and ``numpy.testing``).  This module loads each extension
from its file under its canonical name instead, or reuses the entry
``sys.modules`` already holds, so every routine here is the very object
``scipy.linalg.lapack`` and ``scipy.linalg.blas`` export: same code, same
bits.  A later ``import scipy.linalg`` finds the extensions in
``sys.modules`` and uses them as they are.

``_flapack`` loads with this module.  Of ``_fblas`` mnlab calls only
``dtrmm``, and only on the general comparison route, so ``_fblas`` loads
the first time ``dtrmm`` is read (a module ``__getattr__``): once, under
a lock, as the threads of one certificate may reach that route together.
"""

from __future__ import annotations

import sys
import threading
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

__all__ = ["dpttrf", "dpbtrf", "dpbtrs", "dpotrf", "dpotrs", "dsyevd", "dsyevd_lwork",
           "dtbtrs", "dtrtrs", "dtrmm"]


def _extension(name: str):
    """The extension module ``scipy.linalg.<name>``, loaded from its file."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy = find_spec("scipy")
    if scipy is None or scipy.origin is None:
        raise ImportError("scipy is not installed", name=full)
    folder = Path(scipy.origin).parent / "linalg"
    paths = [folder / (name + suffix) for suffix in EXTENSION_SUFFIXES]
    path = next((str(p) for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no extension module {full} at {paths[0]}",
                          name=full, path=str(paths[0]))
    spec = spec_from_file_location(full, path, loader=ExtensionFileLoader(full, path))
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full] = module
    return module


_flapack = _extension("_flapack")
_blas_lock = threading.Lock()

dpttrf = _flapack.dpttrf
dpbtrf = _flapack.dpbtrf
dpbtrs = _flapack.dpbtrs
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dsyevd = _flapack.dsyevd
dsyevd_lwork = _flapack.dsyevd_lwork
dtbtrs = _flapack.dtbtrs
dtrtrs = _flapack.dtrtrs


def __getattr__(name: str):
    if name != "dtrmm":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global dtrmm
    with _blas_lock:
        dtrmm = _extension("_fblas").dtrmm
    return dtrmm
