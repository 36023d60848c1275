"""Simulated wall-clock: maps executed tests to the paper's time axis.

The paper runs ten Synopsys VCS instances for 24 hours per experiment; our
substrate executes tests in milliseconds.  To reproduce time-axis claims
(Figure 2, the 34.6x speed-up, "75% in 52 minutes") we charge each test a
simulated cost with an affine model::

    T(n) = elab_seconds + per_test_seconds * n

calibrated on the paper's two anchor points for RocketCore:

- 1.8 K tests  ≈ 52 min   (ChatFuzz reaches 74.96% coverage)
- 199 K tests ≈ 24 h      (ChatFuzz reaches 79.14% coverage)

which gives ``per_test_seconds = (86400 - 3120) / 197200 ≈ 0.4223`` and
``elab_seconds ≈ 2360`` (≈ 39 min — VCS compile/elaboration of a Rocket
config, paid once per campaign).  Both fuzzers are charged identically, as
the paper reports "similar runtime overhead" for ChatFuzz and TheHuzz; the
curves therefore differ only through coverage-per-test, which is the honest
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Calibrated constants (see module docstring).
DEFAULT_ELAB_SECONDS = 2360.0
DEFAULT_PER_TEST_SECONDS = 0.4223


@dataclass
class SimClock:
    """Accumulates simulated seconds over a campaign."""

    elab_seconds: float = DEFAULT_ELAB_SECONDS
    per_test_seconds: float = DEFAULT_PER_TEST_SECONDS
    #: Elapsed simulated time; starts after elaboration.
    seconds: float = 0.0
    started: bool = False

    def start(self) -> None:
        """Charge the one-time elaboration cost."""
        if not self.started:
            self.seconds += self.elab_seconds
            self.started = True

    def charge_tests(self, n: int = 1) -> None:
        """Charge the per-test simulation cost for ``n`` tests."""
        self.start()
        self.seconds += self.per_test_seconds * n

    @property
    def hours(self) -> float:
        return self.seconds / 3600.0

    @property
    def minutes(self) -> float:
        return self.seconds / 60.0
