"""The bit-identity digest of ``tests/digest.py`` against its recorded value."""

import numpy as np
import pytest

import digest

RECORDED = "e54b15d6e839123306058bcfc795aacff0d5d52daa50b0bad5a543b1eca96021"
# The build the value was recorded on: numpy, its BLAS, and the CPU features
# by which a DYNAMIC_ARCH OpenBLAS picks its kernels at run time. Another
# build may round a product differently and print another digest.
RECORDED_ON = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}


def _build() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": config["SIMD Extensions"]["found"]}


def test_the_digest_is_the_recorded_one():
    build = _build()
    if build != RECORDED_ON:
        pytest.skip(f"the digest was recorded on {RECORDED_ON}; this build is {build}")
    assert digest.compute() == RECORDED
