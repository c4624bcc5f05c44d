import os
from pathlib import Path

from hypothesis import HealthCheck, settings

# The CLI tests that start `python -m bconstell.cli` import the package from
# the source tree, as the tests themselves do through pyproject's pythonpath.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")
