"""Run one ``annodiff`` CLI command in this fresh process and time it.

    python3 perfbench/child.py <spawn_time> <mode> [annodiff argv ...]

``spawn_time`` is the parent's ``time.monotonic()`` just before it started
this process; the clock is system-wide, so ``setup_s`` spans interpreter
start-up and the import of ``annodiff``. ``mode`` is ``probe`` (import only),
``time`` (run the command) or ``trace`` (run it under the layer tracer).

Around the command, and right after the import, the process times a fixed
calibration kernel (``calibration_s``) so that the parent can scale each
time to one reference machine speed. The last line of standard output is
one JSON object.
"""

import sys
import time

spawned = float(sys.argv[1])
import annodiff.cli  # noqa: E402  (the import is what setup_s measures)

setup_s = time.monotonic() - spawned

import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402


def calibration_s(doc: str) -> float:
    """Seconds for a fixed mix of the three kinds of work annodiff is made
    of: interpreter loops, small NumPy calls, and JSON parsed into small
    objects (``doc``, made by ``calibration_doc``)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(250_000):
        s += i * i
    a = np.arange(2000, dtype=np.int64)
    for i in range(1500):
        b = a * i
        b.sort()
        np.count_nonzero(b > i)
    for _ in range(3):
        rows = [(d["id"], tuple(d["bbox"]), tuple(map(tuple, d["segmentation"]))) for d in json.loads(doc)]
        rows.sort(key=lambda r: -r[0])
    return time.perf_counter() - t0


def calibration_doc() -> str:
    return json.dumps([
        {"id": i, "bbox": [i * 0.5, i * 0.25, 10.5, 20.25], "segmentation": [[float(j) for j in range(16)]]}
        for i in range(1500)
    ])


def main() -> int:
    mode, argv = sys.argv[2], sys.argv[3:]
    doc = calibration_doc()
    after_import = calibration_s(doc)
    result = {"setup_s": setup_s, "setup_calibration_s": after_import}
    if mode != "probe":
        if mode == "trace":
            from tracer import Tracer

            with Tracer() as tracer:
                t0 = time.perf_counter()
                code = annodiff.cli.main(argv)
                wall_s = time.perf_counter() - t0
            result["layers"] = tracer.metrics()
        else:
            t0 = time.perf_counter()
            code = annodiff.cli.main(argv)
            wall_s = time.perf_counter() - t0
        result.update(exit_code=code, wall_s=wall_s, calibration_s=(after_import + calibration_s(doc)) / 2)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
