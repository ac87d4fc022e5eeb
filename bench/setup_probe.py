"""Set-up of one benchmark run: import storagg, write the template, ingest.

Run as a script it does one timed set-up in a fresh interpreter and prints the
timings as JSON, so the benchmark can repeat set-up and report a median::

    python3 bench/setup_probe.py <workdir> <days> <seed>
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def timed_setup(workdir: Path, days: int, seed: int, on_import=None):
    """Return (timings, storagg, config, system, data).

    ``on_import`` runs between the import and the template, outside the
    timed spans; the traced run installs its wrappers there.
    """
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import storagg
    t1 = time.perf_counter()
    if on_import is not None:
        on_import(storagg)
    t2 = time.perf_counter()
    pipeline = storagg.pipeline
    path = pipeline.emit_scenario_template(Path(workdir) / "scenario", vision=1,
                                           days=days, seed=seed)
    config = pipeline.load_scenario(path)
    t3 = time.perf_counter()
    system, data = pipeline.stage_ingest(config)
    t4 = time.perf_counter()
    timings = {"import_s": t1 - t0, "template_s": t3 - t2, "ingest_s": t4 - t3,
               "setup_s": (t1 - t0) + (t4 - t2)}
    return timings, storagg, config, system, data


if __name__ == "__main__":
    workdir, days, seed = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
    print(json.dumps(timed_setup(workdir, days, seed)[0]))
