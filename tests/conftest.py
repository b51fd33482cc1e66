import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pipecal.adc import MismatchConfig, build_adc, default_stage_specs


@pytest.fixture(scope="session")
def ideal_adc():
    stages, flash = default_stage_specs()
    return build_adc(stages, flash, MismatchConfig(gain_bound_lsb=0.0, dac_bound_lsb=0.0), seed=0)


@pytest.fixture(scope="session")
def mismatched_adc():
    stages, flash = default_stage_specs()
    return build_adc(stages, flash, MismatchConfig(), seed=42)
