"""The bit-identity digest of ``tests/digest.py`` against its recorded value."""

import digest
from helpers import skip_unless_recorded_build

RECORDED = "e54b15d6e839123306058bcfc795aacff0d5d52daa50b0bad5a543b1eca96021"


def test_the_digest_is_the_recorded_one():
    skip_unless_recorded_build()
    assert digest.compute() == RECORDED
