"""One fresh interpreter: import rtpol, load the config, optionally run
the report, and print one JSON line with the measurements.

    python3 child.py setup  CONFIG
    python3 child.py report CONFIG
    python3 child.py traced CONFIG SPANS_JSONL

`setup_s` is the time from the first statement to a built
`PipelineConfig`, the cost every `rtpol report` call pays before any
analysis; interpreter start-up is not included. Errors propagate, so a
failed report exits non-zero with its traceback on stderr.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> None:
    mode, config = argv[1], argv[2]
    from rtpol.pipeline import load_config, run_report

    cfg = load_config(config)
    out = {"setup_s": time.perf_counter() - T0}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            from spans import Tracer

            tracer = Tracer(run=Path(config).stem)
            tracer.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        manifest = run_report(cfg)
        out["report_s"] = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        out["cpu_s"] = (after.ru_utime + after.ru_stime
                        - before.ru_utime - before.ru_stime)
        out["peak_rss_mb"] = after.ru_maxrss / 1024.0
        out["stages"] = {s["name"]: s["seconds"] for s in manifest["stages"]}
        if tracer is not None:
            tracer.write(Path(argv[3]))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
