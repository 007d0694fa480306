"""EdgeNN core: the paper's primary contribution.

* :mod:`semantics` / :mod:`memory_manager` — semantic-aware memory
  management (§IV-B);
* :mod:`executor` — inter-/intra-kernel CPU-GPU hybrid execution (§IV-C);
* :mod:`partition` / :mod:`scheduler` / :mod:`profiler` / :mod:`tuner` —
  the fine-grained adaptive inference tuning approach (§IV-D);
* :mod:`engine` — the :class:`EdgeNN` facade.
"""

from .engine import EdgeNN, EdgeNNConfig
from .executor import HybridExecutor
from .memory_manager import MemoryPolicy, plan_allocations
from .partition import (
    balance_point,
    collaboration_time,
    data_transfer_time,
    optimal_cpu_fraction,
    total_time,
)
from .plan import (
    Assignment,
    ExecutionPlan,
    LayerPlan,
    cpu_layer,
    gpu_layer,
    split_layer,
)
from .plan_cache import (
    PlanCache,
    PlanKey,
    clear_plan_cache,
    default_plan_cache,
)
from .profiler import LayerProfile, ProfileStore, SplitSample
from .report import InferenceReport, LayerResult, improvement, speedup
from .scheduler import (
    BranchAssignment,
    BranchCosts,
    assignments_for_graph,
    branch_costs,
    choose_assignment,
    predict_assignment_time,
)
from .multitenant import (
    MultiTenantReport,
    TenantResult,
    concurrent_edgenn,
    run_concurrent,
)
from .service import ServiceProfile, profile_service
from .semantics import (
    BufferRole,
    classify_buffers,
    input_buffer,
    output_buffer,
    weights_buffer,
)
from .tuner import AdaptiveTuner, TunerConfig, TuningObjective, TuningResult

__all__ = [
    "AdaptiveTuner",
    "Assignment",
    "BranchAssignment",
    "BranchCosts",
    "BufferRole",
    "EdgeNN",
    "EdgeNNConfig",
    "ExecutionPlan",
    "HybridExecutor",
    "InferenceReport",
    "LayerPlan",
    "LayerProfile",
    "LayerResult",
    "MemoryPolicy",
    "MultiTenantReport",
    "PlanCache",
    "PlanKey",
    "ProfileStore",
    "ServiceProfile",
    "SplitSample",
    "TenantResult",
    "TunerConfig",
    "TuningObjective",
    "TuningResult",
    "assignments_for_graph",
    "balance_point",
    "branch_costs",
    "choose_assignment",
    "classify_buffers",
    "clear_plan_cache",
    "default_plan_cache",
    "collaboration_time",
    "concurrent_edgenn",
    "cpu_layer",
    "data_transfer_time",
    "gpu_layer",
    "improvement",
    "input_buffer",
    "optimal_cpu_fraction",
    "output_buffer",
    "plan_allocations",
    "predict_assignment_time",
    "run_concurrent",
    "speedup",
    "profile_service",
    "split_layer",
    "total_time",
    "weights_buffer",
]
