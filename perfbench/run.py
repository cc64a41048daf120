"""Benchmark for `rtpol report`: time, memory and optimizer quality.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 40 --trace 0

Run from the repository root. The benchmark generates its inputs from
`--seed` (see gen.py), runs every report through the library in a fresh
interpreter with `PYTHONPATH=src` (never the `rtpol` console script),
one process at a time, checks each report's outputs, and prints one
line per metric followed by a JSON result line:

- `--trace 0` measures the end-to-end metrics with tracing off.
- `--trace 1` spends half of `--seconds` on untraced reports and half on
  traced ones and prints the per-layer metrics; spans are written to
  `.perfbench_work/spans/`.
- `--workload all` runs every workload in both modes and writes
  `.perfbench_work/summary.json` with the per-layer shares.

Repeated reports cycle through input instances: reports 0 and 1 use
instance 0 (their outputs must be byte-identical), each later report a
fresh instance drawn from the same seed. A metric is the mean over the
run's reports without the lowest and the highest value (the median when
there are fewer than four). Averaging over instances damps the
instance-to-instance spread of the greedy community optimizers; dropping
the extremes keeps one report slowed by a noisy neighbour from moving it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import (analytical_digest, check_blocs, check_complete,
                    check_counts, compare_digests, read_json)
from gen import Generated, GraphSpec, generate
from spans import LAYERS, read_spans, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
# Every run must end well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    graph: GraphSpec
    n_perm: int
    gammas: tuple[float, ...]
    keywords: tuple[str, ...]
    check_blocs: bool = False


# Why each workload exists is recorded in BENCHMARK.json. Sizes keep a
# report at 3-8 s, so that a 40 s run holds several reports: the time of
# one report varies by about 10% between runs on a shared 2-core machine,
# and by about 20% between instances of sparse-hubs, because the number of
# Louvain and Infomap passes depends on the input.
WORKLOADS = {
    # README quick-start shape: 1,000 accounts, about 10.5k dyads; the
    # permutation null dominates.
    "demo": Workload(GraphSpec(n_per_bloc=500, p_in=0.02, p_out=0.001),
                     n_perm=20_000, gammas=(0.01, 1.0),
                     keywords=("#Charlottesville",), check_blocs=True),
    # 2,000 accounts, mean out-degree 5, Zipf(1) retweet targets: hubs and
    # the fine gamma=5 resolution make community detection dominate.
    "sparse-hubs": Workload(
        GraphSpec(n_per_bloc=1000, p_in=5.0 / 1000, p_out=0.25 / 1000,
                  zipf=1.0),
        n_perm=200, gammas=(1.0, 5.0), keywords=("#Charlottesville",)),
    # 500 accounts with the demo's mean degree and about 80 original
    # tweets each: parsing and the text statistics dominate.
    "text-heavy": Workload(
        GraphSpec(n_per_bloc=250, p_in=0.04, p_out=0.002,
                  tweets_per_account=80.0),
        n_perm=200, gammas=(1.0,),
        keywords=("#Charlottesville", "#StandTogether", "#HoldTheLine")),
}

END_TO_END = {"setup_s": "s", "report_s": "s", "peak_rss_mb": "MB",
              "louvain_q": "Q", "infomap_bits": "bits"}
STAGES = ("ingest", "lwcc", "scores", "centrality", "communities",
          "profiles", "assortativity", "text")
# Per-layer timing metric -> the spans whose durations it sums.
SPAN_TIMES = {
    "io.parse_edges_s": ("io.parse_edges",),
    "io.parse_followership_s": ("io.parse_followership",),
    "io.parse_tweets_s": ("io.parse_tweets",),
    "io.write_s": ("io.write_csv", "io.write_json"),
    "graph.build_graph_s": ("graph.build_graph",),
    "graph.lwcc_s": ("graph.largest_weak_component",),
    "pca.fit_s": ("pca.first_principal_component",),
    "pca.score_s": ("pca.score_accounts", "pca.node_score_array"),
    "centrality.pagerank_s": ("centrality.pagerank",),
    "centrality.hits_s": ("centrality.hits",),
    "centrality.modular_degree_s": ("centrality.modular_degree_ratio",),
    "community.infomap_s": ("community.infomap",),
    "community.quality_s": ("community.modularity", "community.map_equation"),
    "community.profiles_s": ("community.community_profiles",),
    "polarization.permutation_s": ("polarization.permutation_test",),
    "polarization.dyad_correlation_s": ("polarization.dyad_correlation",),
    "polarization.mixing_s": ("polarization.mixing_matrix",),
    "text.word_counts_s": ("text.word_counts_by_class",),
    "text.chi_square_s": ("text.chi_square",),
    "text.hashtags_s": ("text.hashtag_top_per_community",),
    "text.keyword_s": ("text.keyword_subset",),
    "text.unique_s": ("text.unique_fraction",),
}
# Per-layer count metric -> the span whose work count it reports.
SPAN_COUNTS = {"io.edge_records": "io.parse_edges",
               "io.tweets": "io.parse_tweets",
               "text.tokens": "text.word_counts_by_class"}
PER_LAYER = {
    **{f"pipeline.{s}_s": "s" for s in STAGES},
    "pipeline.cpu_s": "s", "pipeline.unattributed_s": "s",
    "trace.overhead_s": "s", "trace.stage_coverage_min": "ratio",
    **{f"{layer}.self_s": "s" for layer in (*LAYERS, "pipeline")},
    **{name: "s" for name in SPAN_TIMES},
    "polarization.perm_per_1k_s": "s",
    "polarization.dyads": "count", "polarization.replicates": "count",
    "polarization.skipped": "count", "polarization.kept_ratio": "ratio",
    "community.louvain_s": "s", "community.sweep_louvain_s": "s",
    "community.sweep_s": "s", "community.louvain_k": "count",
    "community.infomap_k": "count", "community.sweep_calls": "count",
    **{name: "count" for name in SPAN_COUNTS},
    "io.input_bytes": "bytes", "graph.nodes": "count", "graph.edges": "count",
    "graph.lwcc_nodes": "count", "text.excluded_tweets": "count",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RTPOL_OUT_DIR", None)  # it would redirect the outputs
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value; for three or fewer
    values this is the median."""
    values = sorted(values)
    if len(values) >= 3:
        values = values[1:-1]
    return statistics.fmean(values)


def layer_metrics(spans, report_s: float, stages: dict[str, float],
                  out_dir: Path, inputs: Generated) -> dict[str, float]:
    """Per-layer numbers of one traced report. A metric whose spans never
    occurred is left out rather than reported as zero."""
    own = self_times(spans)
    m: dict[str, float] = {}
    for metric, names in SPAN_TIMES.items():
        hits = [s.end - s.start for s in spans if s.name in names]
        if hits:
            m[metric] = sum(hits)
    for metric, name in SPAN_COUNTS.items():
        counts = [s.count for s in spans if s.name == name and s.count is not None]
        if counts:
            m[metric] = sum(counts)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own)
                                   if s.name.startswith(layer + "."))
    top = [s for s in spans if s.parent is None]
    m["pipeline.self_s"] = report_s - sum(s.end - s.start for s in top)
    coverage = []
    for stage, seconds in stages.items():
        if seconds >= 0.05:
            covered = sum(s.end - s.start for s in top if s.stage == stage)
            coverage.append(covered / seconds)
    if coverage:
        m["trace.stage_coverage_min"] = min(coverage)

    sweeps = {i for i, s in enumerate(spans)
              if s.name == "community.resolution_sweep"}
    louvain = [s for s in spans if s.name == "community.louvain"]
    in_sweep = [s for s in louvain if s.parent in sweeps]
    if louvain:
        m["community.louvain_s"] = sum(s.end - s.start for s in louvain
                                       if s.parent not in sweeps)
    if sweeps:
        m["community.sweep_louvain_s"] = sum(s.end - s.start for s in in_sweep)
        m["community.sweep_s"] = sum(own[i] for i in sweeps)
        m["community.sweep_calls"] = len(in_sweep)

    m["io.input_bytes"] = sum(p.stat().st_size for p in
                              (inputs.edges, inputs.followership, inputs.tweets))
    ingest = read_json(out_dir / "ingest.json")
    m["graph.nodes"] = ingest["n_nodes"]
    m["graph.edges"] = ingest["n_edges"]
    m["graph.lwcc_nodes"] = read_json(out_dir / "lwcc.json")["n_nodes"]
    assort = read_json(out_dir / "assortativity.json")
    replicates = assort["perm"]["n"]
    m["polarization.dyads"] = assort["n_dyads"]
    m["polarization.replicates"] = replicates
    m["polarization.skipped"] = assort["perm"]["skipped"]
    m["polarization.kept_ratio"] = (replicates - assort["perm"]["skipped"]) / replicates
    if "polarization.permutation_s" in m:
        m["polarization.perm_per_1k_s"] = (
            m["polarization.permutation_s"] / replicates * 1000)
    comms = read_json(out_dir / "communities.json")
    m["community.louvain_k"] = comms["louvain"]["k"]
    m["community.infomap_k"] = comms["infomap"]["k"]
    with (out_dir / "word_counts.csv").open(encoding="utf-8") as fh:
        provenance = fh.readline()
    for field in provenance.lstrip("# ").split():
        key, _, value = field.partition("=")
        if key == "excluded_tweets":
            m["text.excluded_tweets"] = int(value)
    return m


class Bench:
    """One run of one workload: inputs, reports, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / f"{workload}-{seed}"
        self.spans_dir = WORK / "spans"
        self.env = child_env()
        self.start = time.perf_counter()
        self.instances: list[Generated] = []
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        shutil.rmtree(self.dir, ignore_errors=True)
        self.spans_dir.mkdir(parents=True, exist_ok=True)

    def inputs(self, instance: int) -> Generated:
        while len(self.instances) <= instance:
            j = len(self.instances)
            self.instances.append(generate(self.workload.graph, self.seed, j,
                                           self.dir / f"inputs{j}"))
        return self.instances[instance]

    def config(self, instance: int, label: str) -> Path:
        src = self.inputs(instance)
        w = self.workload
        path = self.dir / f"{label}.cfg"
        path.write_text(
            f"edges = {src.edges}\nfollowership = {src.followership}\n"
            f"tweets = {src.tweets}\nout_dir = {self.dir / label}\n"
            f"gammas = {', '.join(map(str, w.gammas))}\nn_perm = {w.n_perm}\n"
            f"seed = {self.seed}\nkeywords = {', '.join(w.keywords)}\n",
            encoding="utf-8")
        return path

    def child(self, *args: str) -> tuple[dict | None, str]:
        left = HARD_LIMIT_S - (time.perf_counter() - self.start)
        if left <= 0:
            return None, "no time left before the run limit"
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), *args], cwd=ROOT,
                env=self.env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            return None, "timed out"
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["no output"]
            return None, f"exit {proc.returncode}: {lines[-1]}"
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""

    def setup_times(self) -> list[float]:
        cfg = self.config(0, "setup")
        times = []
        for i in range(SETUP_SAMPLES + 1):
            result, error = self.child("setup", str(cfg))
            if result is None:
                raise RuntimeError(f"set-up failed: {error}")
            if i:  # the first import fills the bytecode and file caches
                times.append(result["setup_s"])
        return times

    def report(self, instance: int, traced: bool) -> dict | None:
        """Run one report, check it and return its measurements, or None
        when it failed."""
        label = f"{'traced' if traced else 'report'}{self.attempted}"
        self.attempted += 1
        cfg = self.config(instance, label)
        out_dir = self.dir / label
        spans_path = self.spans_dir / f"{self.name}-{self.seed}-{label}.jsonl"
        args = ("traced", str(cfg), str(spans_path)) if traced else ("report", str(cfg))
        result, error = self.child(*args)
        problems = [error] if result is None else self.check(instance, out_dir)
        if not problems:
            comms = read_json(out_dir / "communities.json")
            result["louvain_q"] = comms["louvain"]["modularity"]
            result["infomap_bits"] = comms["infomap"]["description_length_bits"]
            if traced:
                result["layers"] = layer_metrics(
                    read_spans(spans_path), result["report_s"],
                    result["stages"], out_dir, self.inputs(instance))
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
            return None
        result["instance"] = instance
        return result

    def check(self, instance: int, out_dir: Path) -> list[str]:
        problems = check_complete(out_dir)
        if problems:
            return problems
        src = self.inputs(instance)
        problems = check_counts(out_dir, src.n_edge_lines, src.n_retweets)
        if self.workload.check_blocs:
            problems += check_blocs(out_dir)
        if instance == 0:
            digest = analytical_digest(out_dir)
            if self.reference is None:
                self.reference = digest
            else:
                problems += compare_digests(self.reference, digest)
        return problems

    def measure(self, until: float, traced: bool, min_reports: int) -> list[dict]:
        """Reports until the next one would end after `until`. Untraced
        report i uses instance max(0, i - 1); traced ones use instance 0,
        whose untraced outputs they must match."""
        results, took = [], []
        while True:
            instance = 0 if traced else max(0, len(took) - 1)
            t = time.perf_counter()
            result = self.report(instance, traced)
            took.append(time.perf_counter() - t)
            if result is not None:
                results.append(result)
            now = time.perf_counter()
            if now - self.start > HARD_LIMIT_S - 10:
                break
            if len(took) >= min_reports and now + statistics.median(took) > until:
                break
        return results

    def end_to_end(self) -> dict[str, float]:
        setup = self.setup_times()
        reports = self.measure(self.start + self.seconds, traced=False,
                               min_reports=2)
        m = {"setup_s": statistics.median(setup)}
        if reports:
            for key in ("report_s", "peak_rss_mb", "louvain_q", "infomap_bits"):
                m[key] = trimmed_mean(r[key] for r in reports)
        print(f"# {len(setup)} set-ups; {len(reports)} reports over "
              f"{len({r['instance'] for r in reports})} instances; report_s "
              f"samples {[round(r['report_s'], 3) for r in reports]}")
        return m

    def per_layer(self) -> dict[str, float]:
        plain = self.measure(self.start + self.seconds / 2, traced=False,
                             min_reports=2)
        traced = self.measure(self.start + self.seconds, traced=True,
                              min_reports=1)
        m: dict[str, float] = {}
        if plain:
            for stage in STAGES:
                samples = [r["stages"][stage] for r in plain
                           if stage in r["stages"]]
                if samples:
                    m[f"pipeline.{stage}_s"] = trimmed_mean(samples)
            m["pipeline.cpu_s"] = trimmed_mean(r["cpu_s"] for r in plain)
            m["pipeline.unattributed_s"] = trimmed_mean(
                r["report_s"] - sum(r["stages"].values()) for r in plain)
        if traced:
            keys = sorted({k for r in traced for k in r["layers"]})
            for key in keys:
                m[key] = statistics.median(r["layers"][key] for r in traced
                                           if key in r["layers"])
            base = [r["report_s"] for r in plain if r["instance"] == 0]
            if base:
                m["trace.overhead_s"] = (
                    statistics.median(r["report_s"] for r in traced)
                    - statistics.median(base))
            m["trace.report_s"] = statistics.median(r["report_s"] for r in traced)
        print(f"# {len(plain)} untraced and {len(traced)} traced reports")
        return m

    def finish(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        for name in units:
            if name not in metrics:
                print(f"# {name}: missing (its spans or outputs did not occur)")
        for problem in self.problems[:20]:
            print(f"# FAILED {problem}")
        print(f"{self.name} failure_rate = "
              f"{self.failed / max(1, self.attempted)} ratio "
              f"({self.failed} of {self.attempted} reports)")
        for name, unit in units.items():
            if name in metrics:
                print(f"{self.name} {name} = {metrics[name]!r} {unit}")
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in units.items() if name in metrics}}


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            ) -> tuple[dict, dict[str, float]]:
    bench = Bench(workload, seed, seconds)
    if trace:
        metrics = bench.per_layer()
        return bench.finish(metrics, PER_LAYER), metrics
    metrics = bench.end_to_end()
    return bench.finish(metrics, END_TO_END), metrics


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced; writes summary.json."""
    import numpy
    import scipy

    summary = {"environment": {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__},
        "seed": seed, "seconds": seconds, "workloads": {}}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (False, True):
            result, metrics = run_one(name, seed, seconds, trace)
            for key in ("attempted", "failed"):
                combined[key] += result[key]
            combined["correct"] &= result["correct"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
            entry["per_layer" if trace else "end_to_end"] = metrics
        layers = entry["per_layer"]
        total = layers.get("trace.report_s")
        if total:
            entry["layer_shares"] = {
                layer: layers[f"{layer}.self_s"] / total
                for layer in (*LAYERS, "pipeline") if f"{layer}.self_s" in layers}
        summary["workloads"][name] = entry
    (WORK / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                       encoding="utf-8")
    print(f"# wrote {WORK / 'summary.json'}")
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rtpol" / "pipeline.py").is_file():
        print(f"rtpol sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result, _ = run_one(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
