from hypothesis import HealthCheck, Phase, settings

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
