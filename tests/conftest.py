import contextlib

import pytest
from hypothesis import HealthCheck, Phase, settings

import thetachi.abelian as abelian

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
# scripts/mutation_gate.py only needs to know that a test fails, not its
# smallest failing example: the same examples, without the shrink phase
deterministic = settings.get_profile("deterministic")
settings.register_profile(
    "gate",
    parent=deterministic,
    phases=[phase for phase in deterministic.phases if phase is not Phase.shrink],
)
settings.load_profile("deterministic")


@contextlib.contextmanager
def _phi_hat_sign_flipped():
    found = abelian.PHI_HAT_SIGN
    abelian.PHI_HAT_SIGN = -1
    abelian._transform_image.cache_clear()
    try:
        yield
    finally:
        abelian.PHI_HAT_SIGN = found
        abelian._transform_image.cache_clear()


@pytest.fixture
def phi_hat_minus():
    """Negative control: ``with phi_hat_minus(): ...`` runs its body with the
    dual-direction contraction sign corrupted (``PHI_HAT_SIGN = -1``) and
    restores the value it found after, clearing the cached transform basis
    images on entry and exit."""
    return _phi_hat_sign_flipped
