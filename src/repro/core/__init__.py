"""BreakHammer — the paper's primary contribution.

BreakHammer sits next to the memory controller, observes the preventive
actions of whichever RowHammer mitigation mechanism is deployed, attributes
them to hardware threads, identifies suspect threads with outlier analysis,
and throttles suspects by shrinking their LLC cache-miss-buffer (MSHR)
quotas.

* :mod:`repro.core.scores` — per-thread score counters with the paper's
  two-set time interleaving (Fig. 4),
* :mod:`repro.core.suspect` — Algorithm 1 (thresholded deviation from the
  mean),
* :mod:`repro.core.throttler` — Expression 1 (quota reduction and recovery),
* :mod:`repro.core.breakhammer` — the orchestrating mechanism that plugs
  into the controller as an observer and into the MSHR file as a quota
  driver,
* :mod:`repro.core.security` — Expression 2 and the Fig. 5 security bound,
* :mod:`repro.core.hardware_model` — the §6 area / latency model.
"""

from repro.core.breakhammer import BreakHammer, BreakHammerConfig, BreakHammerStats
from repro.core.hardware_model import HardwareCostModel, HardwareCostReport
from repro.core.scores import DualCounterSet, ScoreCounterSet
from repro.core.security import SecurityAnalysis, max_attacker_score_ratio
from repro.core.suspect import SuspectDetector, SuspectDecision
from repro.core.throttler import QuotaPolicy, ThreadQuotaState, Throttler

__all__ = [
    "BreakHammer",
    "BreakHammerConfig",
    "BreakHammerStats",
    "DualCounterSet",
    "HardwareCostModel",
    "HardwareCostReport",
    "QuotaPolicy",
    "ScoreCounterSet",
    "SecurityAnalysis",
    "SuspectDecision",
    "SuspectDetector",
    "ThreadQuotaState",
    "Throttler",
    "max_attacker_score_ratio",
]
