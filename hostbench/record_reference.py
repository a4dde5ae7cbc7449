"""Record the reference digests ``run.py`` holds each workload to.

    python3 hostbench/record_reference.py [num_seeds]

Runs every workload once per seed in ``range(num_seeds)`` (default 32)
at its configured request count and writes ``reference_digests.json``.
Re-record only for a change that is meant to move the simulated outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads and sys.path on import)
from hostbench import workloads  # noqa: E402


def main() -> int:
    num_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    digests = {}
    for name in workloads.WORKLOADS:
        digests[name] = {}
        system = workloads.build_system(name)
        for seed in range(num_seeds):
            built = workloads.build(system, seed)
            result = built.session.run(built.requests)
            digests[name][str(seed)] = workloads.digest(result)
        print(f"{name}: {num_seeds} seeds", flush=True)
    core, threads = run._openblas()
    record = {
        "recorded_with": {
            "git_sha": run._git_sha(),
            "numpy": run.np.__version__,
            "openblas_core": core,
        },
        "digests": digests,
    }
    run.REFERENCE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
