"""Scale probe: one `rtpol report` on a 50k-account benchmark graph.

    python3 scripts/scale_probe.py [--n-per-bloc N] [--work DIR] [--json PATH]

Run from anywhere. The probe's inputs come from `perfbench/gen.py` (seed 1,
instance 0) with two blocs of `--n-per-bloc` accounts, 10 expected
within-bloc and 0.5 cross-bloc retweet partners per account (the default
25,000 per bloc gives the 50k-account probe). The report runs in a child
interpreter, `python -m rtpol report`, with gammas 1.0,5.0, n_perm 2000
and the keyword #Charlottesville. The script prints each stage's seconds
from the report's manifest, the report's wall time and its peak RSS, then
the Louvain k and Q and the Infomap k and description length from the
report's communities.json, so a change that moves partitions shows its
objectives from the same run. `--json PATH` also writes those numbers as one
JSON record, with the commit of the checkout (`git rev-parse HEAD`, null
outside a git work tree).

The peak RSS is the report child's own `ru_maxrss`, from `os.wait4`.
Linux carries a process's resident high-water mark through `exec`, so a
child starts from the peak of the process that spawned it; the inputs are
therefore generated in a separate worker process (the generator peaks near
340 MB at the default size), which keeps this script small when it starts
the report, and `getrusage(RUSAGE_CHILDREN)` would mix in that worker.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from gen import GraphSpec, generate  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-per-bloc", type=int, default=25_000,
                        help="accounts per bloc (default 25000)")
    parser.add_argument("--work", type=Path,
                        help="directory for inputs and report (default: a "
                             "temporary directory, removed afterwards)")
    parser.add_argument("--json", type=Path,
                        help="also write the numbers printed as a JSON record")
    args = parser.parse_args(argv)
    if args.n_per_bloc < 1:
        parser.error("--n-per-bloc must be at least 1")
    if args.work is None:
        with tempfile.TemporaryDirectory(prefix="rtpol-probe-") as tmp:
            return probe(args.n_per_bloc, Path(tmp), args.json)
    return probe(args.n_per_bloc, args.work, args.json)


def commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def probe(n_per_bloc: int, work: Path, record: Path | None = None) -> int:
    spec = GraphSpec(n_per_bloc=n_per_bloc, p_in=10 / n_per_bloc,
                     p_out=0.5 / n_per_bloc)
    start = time.perf_counter()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        src = pool.submit(generate, spec, 1, 0, work / "inputs").result()
    print(f"inputs: {2 * n_per_bloc} accounts, {src.n_edge_lines} edge lines, "
          f"{src.n_retweets} retweets ({time.perf_counter() - start:.1f} s)")
    cfg = work / "probe.cfg"
    cfg.write_text(f"edges = {src.edges}\nfollowership = {src.followership}\n"
                   f"tweets = {src.tweets}\nout_dir = {work / 'out'}\n"
                   "gammas = 1.0,5.0\nn_perm = 2000\nseed = 0\n"
                   "keywords = #Charlottesville\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "rtpol", "report",
                             "--config", str(cfg)], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"report failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    manifest = json.loads((work / "out" / "manifest.json").read_text("utf-8"))
    stages = {stage["name"]: stage["seconds"] for stage in manifest["stages"]}
    for name, seconds in stages.items():
        print(f"{name:<14}{seconds:9.2f} s")
    peak_mb = usage.ru_maxrss / 1024.0
    print(f"{'report wall':<14}{wall:9.2f} s")
    print(f"{'peak RSS':<14}{peak_mb:9.1f} MB")
    found = json.loads((work / "out" / "communities.json").read_text("utf-8"))
    louvain, infomap = found["louvain"], found["infomap"]
    print(f"{'louvain':<14}k {louvain['k']}  Q {louvain['modularity']:.6f}")
    print(f"{'infomap':<14}k {infomap['k']}  "
          f"{infomap['description_length_bits']:.6f} bits")
    if record is not None:
        record.write_text(json.dumps({
            "commit": commit(), "n_per_bloc": n_per_bloc, "stages_s": stages,
            "report_wall_s": wall, "peak_rss_mb": peak_mb,
            "louvain_k": louvain["k"], "louvain_q": louvain["modularity"],
            "infomap_k": infomap["k"],
            "infomap_bits": infomap["description_length_bits"]},
            indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
