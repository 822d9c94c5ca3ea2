"""Write ``perfbench/reference.json``: the simulated output of every
``measure`` job, at full and at tiny sizes.

    python3 perfbench/make_reference.py

The ``measure`` checks compare each job's ``MemStats`` (or sweep points)
with this file field for field.  Regenerate it only with a change that
is meant to alter simulated results, and say so in that change.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory() as scratch:
        run.isolate(Path(scratch))
        import workloads
        from tracing import NullRecorder

        for tiny in (False, True):
            wl = workloads.build("measure", 0, run.ROOT, tiny=tiny)
            for job in wl.jobs:
                reference[job.name] = workloads.record(job.run(NullRecorder()))
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(reference)} jobs written to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
