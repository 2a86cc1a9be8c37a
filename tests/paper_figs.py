"""The golden paper-config figs for NumPy's SIMD dispatch family.

NumPy's AVX-512 float64 loops for ``expm1``, ``exp2``, ``log1p``, ``exp``,
``log`` and ``power`` round some arguments differently from its X86_V3
(AVX2) loops, and the last digit of a fig can follow: fig5's min-max energy
reads ``0.6288128853963701`` under X86_V4 and ``0.62881288539637`` under
X86_V3.  So there is one golden set per dispatch family, and a dispatch
without a set has no golden bytes.

``python tests/paper_figs.py`` prints the directory of this process's set.
"""

import sys
from pathlib import Path

from numpy._core._multiarray_umath import __cpu_features__

DATA = Path(__file__).parent / "data"

# The first family NumPy dispatches to picks the set.
SETS = {"X86_V4": DATA / "paper-figs", "X86_V3": DATA / "paper-figs-x86-v3"}

# NPY_DISABLE_CPU_FEATURES for NumPy to dispatch X86_V3 on an AVX-512 CPU.
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


def golden_dir() -> Path:
    """The golden set of the dispatch family NumPy found in this process."""
    for family, path in SETS.items():
        if __cpu_features__.get(family):
            return path
    raise LookupError("no golden paper-config figs for this NumPy dispatch; "
                      "found: " + " ".join(k for k, v in
                                           __cpu_features__.items() if v))


if __name__ == "__main__":
    try:
        print(golden_dir())
    except LookupError as exc:
        sys.exit(f"error: {exc}")
