"""The benchmark's workloads by name."""

from foliate_ladder import WORKLOAD as FOLIATE_LADDER
from fronts_ladder import WORKLOAD as FRONTS_LADDER
from lift_check import WORKLOAD as LIFT_CHECK
from small_batch import WORKLOAD as SMALL_BATCH

WORKLOADS = {w.name: w for w in (FRONTS_LADDER, FOLIATE_LADDER, LIFT_CHECK, SMALL_BATCH)}
