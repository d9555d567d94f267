"""The four kernel workloads of benchmarks/bench_kernels.py, on every
importable backend.

The workloads and their timing (fastest of REPEAT runs) come from that
script itself.  Each workload's result is pinned here, and when the compiled
kernel is importable its results must equal the pure-Python ones: a
disagreement is a hard failure.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from gates import require
from superpatterns import _kernels_py

try:
    from superpatterns import _kernels
except ImportError:
    _kernels = None

REPEAT = 3
_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def _load_bench_kernels():
    spec = importlib.util.spec_from_file_location("bench_kernels", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# metric name, workload builder in bench_kernels, pinned result
WORKLOADS = (
    ("containment", "_containment_workload", 874),
    ("layered_scan", "_layered_scan_workload", (-1, 32768)),
    ("all_perm_scan", "_all_perm_scan_workload", (1033, 1034)),
    ("candidate_list", "_candidate_list_workload", (-1, 16796)),
)


def backends() -> dict[str, object]:
    found = {"python": _kernels_py}
    if _kernels is not None:
        found[_kernels.BACKEND] = _kernels
    return found


def run(selected: str) -> dict[str, float]:
    """Fastest seconds per workload, as kernels.micro.<name>.<backend>_s for
    the pure backend and for the selected one."""
    bench = _load_bench_kernels()
    out = {}
    for name, builder, expected in WORKLOADS:
        _, work = getattr(bench, builder)()
        seconds = {}
        for backend, mod in backends().items():
            seconds[backend], result = bench._time(work, mod, REPEAT)
            require(result == expected,
                    f"kernel workload {name} on {backend} gave {result}, expected {expected}")
        out[f"kernels.micro.{name}.python_s"] = seconds["python"]
        out[f"kernels.micro.{name}.selected_s"] = seconds[selected]
    return out
