"""Test-support utilities shipped with the package.

Only :mod:`repro.testing.chaos` lives here today: a deterministic
fault-injection harness that the durability tests (and the CI chaos-smoke
job) use to prove the journal, cache-integrity, and worker-fleet fault
handling actually contain the failures they claim to.  Production code
paths call :func:`repro.testing.chaos.fire` at a handful of hook points;
with no hooks installed and no ``REPRO_CHAOS`` environment the calls are
inert.
"""

from repro.testing import chaos

__all__ = ["chaos"]
