"""readbench: a storage read-path benchmark suite.

Five reading strategies (synchronous, polled, thread-pool, kernel async
queue, submission/completion ring) over real files or deterministic
simulated devices, with latency-percentile measurement, parameter sweeps,
and report generation.
"""

from .devicesim import DeviceModel, load_model, preset_model
from .engines import (EngineConfig, RunRecord, WorkloadSpec, probe_engines,
                      read_scattered, run, run_kernel_async, run_polled,
                      run_ring, run_sync, run_threadpool)
from .measurement import (CpuUsage, LatencySample, LatencyStats,
                          aggregate_latencies, compute_throughput, measure_cpu)
from .report import (ResultStore, encode_label, latency_table, parse_label,
                     scatter_summary)
from .sweep import (ExperimentPlan, paper_best_configs, run_plan, select_best,
                    whole_scan)
from .target import (open_target, prepare_target, read_block,
                     simulated_target, verify_file)

__version__ = "0.1.0"
