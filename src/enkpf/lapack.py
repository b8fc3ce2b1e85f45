"""The three LAPACK routines enkpf calls, from scipy's compiled extension.

enkpf needs only scipy's f2py wrappers of dpotrf, dpotrs and dtrtrs, but
`import scipy.linalg` also imports scipy's array-API layer, which pulls in
numpy.f2py, numpy.testing and charset_normalizer: 200-240 ms on a
2-vCPU Xeon guest, against about 4 ms for one `enkpf update`. So the
extension module `scipy/linalg/_flapack` is loaded from its file, which
takes 3-8 ms and imports no scipy package. It is the module that
scipy.linalg.lapack itself exports, so every result is scipy's to the bit.

The loader registers the extension under its scipy name; the entry is
taken out of sys.modules again, so a later `import scipy.linalg` runs as
usual and finds the same function objects. A module scipy has already
loaded is used as it is. Where the file is not found (an unusual scipy
layout), the module comes from `scipy.linalg` instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

__all__ = ["dpotrf", "dpotrs", "dtrtrs"]

_NAME = "scipy.linalg._flapack"


def _locate() -> Path | None:
    """The file of scipy's _flapack extension, or None when not found."""
    spec = importlib.util.find_spec("scipy")  # finds the package, imports nothing
    for base in (spec.submodule_search_locations or ()) if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(base, "linalg", "_flapack" + suffix)
            if path.is_file():
                return path
    return None


def _load():
    path = _locate()
    if path is None:
        from scipy.linalg import _flapack

        return _flapack
    module = sys.modules.get(_NAME)
    if module is None:
        spec = importlib.util.spec_from_file_location(_NAME, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(_NAME, None)
    return module


_flapack = _load()
dpotrf, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs
