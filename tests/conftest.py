"""Hypothesis runs are derandomised, so a tier-1 run is reproducible, and
carry no deadline, so timing noise on a shared host cannot fail them."""

from hypothesis import settings

settings.register_profile("triafem", derandomize=True, deadline=None)
settings.load_profile("triafem")
