"""Build script.

The package is pure Python; a small Cython extension accelerates row
reduction over F_p.  The extension is strictly optional: if Cython or a C
compiler is unavailable the build falls back to the pure wheel and the
library selects the numpy fallback kernel at import time.
"""

from setuptools import setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Never let a failed extension build abort the install."""

    def run(self):
        try:
            build_ext.run(self)
        except Exception as exc:  # compiler missing, etc.
            print(f"chowops: skipping extension build ({exc}); "
                  "falling back to the pure-Python kernel")

    def build_extension(self, ext):
        try:
            build_ext.build_extension(self, ext)
        except Exception as exc:
            print(f"chowops: skipping {ext.name} ({exc}); "
                  "falling back to the pure-Python kernel")


try:
    from Cython.Build import cythonize
    from setuptools import Extension

    ext_modules = cythonize(
        [Extension("chowops._kernels._fp_ext",
                   ["src/chowops/_kernels/_fp_ext.pyx"])],
        language_level=3,
    )
except ImportError:
    print("chowops: Cython not available; building without the compiled kernel")
    ext_modules = []

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
