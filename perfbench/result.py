"""What one workload run hands back to the reporter."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class Result:
    #: End-to-end metric name -> value.
    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Failed output checks; any entry makes the run incorrect.
    errors: List[str]
    #: Printed for people and for the traced run's cross-check.
    info: Dict[str, Any] = field(default_factory=dict)
    #: Workload-side inputs to the per-layer metrics (traced runs).
    layer_extras: Dict[str, float] = field(default_factory=dict)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
