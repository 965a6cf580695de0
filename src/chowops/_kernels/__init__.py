"""Hot-kernel selection: the compiled extension when it was built, the
numpy fallback otherwise."""

try:
    from . import _fp_ext as _impl  # type: ignore[attr-defined]

    BACKEND = "cython"
except ImportError:
    from . import fallback as _impl

    BACKEND = "fallback"

rref_inplace = _impl.rref
