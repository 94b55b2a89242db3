"""One workload in one fresh interpreter: set up, run, time, check.

Started by run.py, once per repetition, so the package's caches are cold as
they are for every CLI user.  Writes a JSON result file:

- t_ready: monotonic clock when the package is imported and the inputs
  exist (the parent took the clock before starting this process);
- wall_s / cpu_s: wall and process CPU time from the first call into the
  package to the last output written;
- peak_rss_mb: peak resident memory, read when the timed interval ends;
- ops / failures: operations attempted and the failure messages of each;
- layers / missing (traced runs): per-layer metrics and traced names that
  no longer exist.

Usage: repetition.py WORKLOAD SEED OUT_JSON WORKDIR [--toy] [--trace]
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def machine():
    """Hardware and library facts that the timings depend on."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy without the dict form
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_pin": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv):
    workload_name, seed, out_path, workdir = argv[:4]
    flags = set(argv[4:])
    import numpy  # noqa: F401  (import cost belongs to set-up)
    import atomsampler  # noqa: F401

    import workloads

    tracer = None
    if "--trace" in flags:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.make(workload_name, int(seed), "--toy" in flags, Path(workdir))
    workload.setup()
    result = {"t_ready": time.monotonic(), "machine": machine()}

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    workload.run()
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failures = workload.check()
    result.update(
        wall_s=t1 - t0,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=peak,
        ops=len(failures),
        failures={k: v for k, v in failures.items() if v},
    )
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer, t0, t1)
        result["missing"] = tracer.missing
        tracer.write(Path(workdir) / "spans.csv")
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
