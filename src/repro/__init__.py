"""MadPipe reproduction — memory-aware pipelined model parallelism.

Public API tour (see also :mod:`repro.api`, the stable facade)::

    import repro

    graph = repro.resnet50(image_size=1000)
    repro.profile_model(graph, repro.V100, batch_size=8)
    chain = repro.linearize(graph)
    platform = repro.Platform.of(n_procs=4, memory_gb=8, bandwidth_gbps=12)

    result = repro.plan(chain, platform, algorithm="madpipe", trace=True)
    print(result.period, result.status)
    repro.verify_pattern(chain, platform, result.pattern)
    repro.obs.write_chrome_trace(result.trace, "plan.json")
"""

from . import api, obs
from .algorithms import (
    Discretization,
    MadPipeResult,
    PipeDreamResult,
    algorithm1,
    gpipe,
    madpipe_dp,
    min_feasible_period,
    pipedream,
)
from .api import (
    CalibrationResult,
    Certificate,
    LayerNoiseModel,
    NoiseModel,
    PlanResult,
    ProfileError,
    RobustnessReport,
    SweepResult,
    SweepSpec,
    certify,
    ingest,
    plan,
    sweep,
)
from .core import (
    GB,
    GBPS,
    Allocation,
    Chain,
    LayerProfile,
    Partitioning,
    PatternError,
    PeriodicPattern,
    Platform,
    Stage,
    stage_memory,
)
from .models import (
    coarsen,
    densenet121,
    generate_traces,
    inception,
    linearize,
    random_chain,
    resnet50,
    resnet101,
    uniform_chain,
    vgg16,
)
from .profiling import V100, DeviceSpec, load_chain, profile_model, save_chain
from .sim import eager_1f1b, simulate, verify_pattern
from .viz import render_gantt

__version__ = "4.0.0"

__all__ = [
    "api",
    "obs",
    "plan",
    "sweep",
    "certify",
    "ingest",
    "CalibrationResult",
    "Certificate",
    "LayerNoiseModel",
    "NoiseModel",
    "PlanResult",
    "ProfileError",
    "RobustnessReport",
    "SweepResult",
    "SweepSpec",
    "Discretization",
    "MadPipeResult",
    "PipeDreamResult",
    "algorithm1",
    "gpipe",
    "madpipe_dp",
    "min_feasible_period",
    "pipedream",
    "GB",
    "GBPS",
    "Allocation",
    "Chain",
    "LayerProfile",
    "Partitioning",
    "PatternError",
    "PeriodicPattern",
    "Platform",
    "Stage",
    "stage_memory",
    "coarsen",
    "densenet121",
    "generate_traces",
    "inception",
    "linearize",
    "random_chain",
    "resnet50",
    "resnet101",
    "uniform_chain",
    "vgg16",
    "V100",
    "DeviceSpec",
    "load_chain",
    "profile_model",
    "save_chain",
    "eager_1f1b",
    "simulate",
    "verify_pattern",
    "render_gantt",
    "__version__",
]
