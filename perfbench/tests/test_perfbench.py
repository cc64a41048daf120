"""Tests of the benchmark itself: input determinism, the output checker
and the metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from gen import GraphSpec, generate  # noqa: E402
from spans import Span, read_spans, self_times  # noqa: E402

SMALL = GraphSpec(n_per_bloc=60, p_in=0.1, p_out=0.005, zipf=1.0,
                  tweets_per_account=3.0)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def file_hashes(d: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    generate(SMALL, 3, 0, tmp_path / "a")
    generate(SMALL, 3, 0, tmp_path / "b")
    generate(SMALL, 4, 0, tmp_path / "c")
    generate(SMALL, 3, 1, tmp_path / "d")
    a = file_hashes(tmp_path / "a")
    assert set(a) == {"edges.tsv", "followership.csv", "tweets.jsonl"}
    assert a == file_hashes(tmp_path / "b")
    for other in ("c", "d"):
        differs = file_hashes(tmp_path / other)
        assert all(a[name] != differs[name] for name in a)


def write_config(path: Path, src, out_dir: Path) -> Path:
    path.write_text(
        f"edges = {src.edges}\nfollowership = {src.followership}\n"
        f"tweets = {src.tweets}\nout_dir = {out_dir}\ngammas = 1.0\n"
        f"n_perm = 50\nseed = 5\nkeywords = #Charlottesville\n")
    return path


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    from rtpol.pipeline import load_config, run_report

    base = tmp_path_factory.mktemp("report")
    src = generate(SMALL, 5, 0, base / "inputs")
    run_report(load_config(write_config(base / "run.cfg", src, base / "out")))
    return base / "out", src


def test_checker_accepts_a_clean_report(report_dir):
    out, src = report_dir
    assert checks.check_complete(out) == []
    assert checks.check_counts(out, src.n_edge_lines, src.n_retweets) == []


@pytest.mark.parametrize("corrupt", ["edit", "delete", "abort"])
def test_checker_rejects_a_corrupted_copy(report_dir, tmp_path, corrupt):
    out, _ = report_dir
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    reference = checks.analytical_digest(out)
    if corrupt == "edit":
        path = copy / "partition_louvain.csv"
        lines = path.read_text().splitlines(keepends=True)
        node, comm = lines[2].rstrip("\n").split(",")
        lines[2] = f"{node},{int(comm) + 1}\n"
        path.write_text("".join(lines))
        assert checks.compare_digests(reference, checks.analytical_digest(copy))
    elif corrupt == "delete":
        (copy / "hashtags.csv").unlink()
        assert checks.check_complete(copy)
        assert checks.compare_digests(reference, checks.analytical_digest(copy))
    else:
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["status"] = "aborted"
        (copy / "manifest.json").write_text(json.dumps(manifest))
        assert checks.check_complete(copy)


def test_digest_ignores_stage_seconds_only(report_dir, tmp_path):
    out, _ = report_dir
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    for stage in manifest["stages"]:
        stage["seconds"] += 1.0
    (copy / "manifest.json").write_text(json.dumps(manifest))
    reference = checks.analytical_digest(out)
    assert checks.compare_digests(reference, checks.analytical_digest(copy)) == []
    manifest["seed"] += 1
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert checks.compare_digests(reference, checks.analytical_digest(copy))


def test_traced_report_matches_untraced_and_nests_spans(report_dir, tmp_path):
    out, src = report_dir
    cfg = write_config(tmp_path / "traced.cfg", src, tmp_path / "out")
    spans_path = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "traced", str(cfg),
         str(spans_path)], env=run.child_env(), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["report_s"] > 0
    assert checks.compare_digests(checks.analytical_digest(out),
                                  checks.analytical_digest(tmp_path / "out")) == []
    spans = read_spans(spans_path)
    name_of = {i: s.name for i, s in enumerate(spans)}
    parents = {(s.name, name_of.get(s.parent)) for s in spans}
    assert ("community.louvain", None) in parents
    assert ("community.louvain", "community.resolution_sweep") in parents
    assert ("polarization.permutation_test",
            "polarization.assortativity_report") in parents
    top = [s for s in spans if s.parent is None]
    assert all(s.stage in run.STAGES for s in top[:-1])
    assert (top[-1].name, top[-1].stage) == ("io.write_json", None)  # manifest
    assert all(t >= 0 for t in self_times(spans))


def test_bloc_agreement(tmp_path):
    path = tmp_path / "partition.csv"
    rows = ["# seed=0", "node_id,community"]
    rows += [f"L{i:05d},0" for i in range(10)] + [f"R{i:05d},1" for i in range(9)]
    rows += ["R00009,0"]
    path.write_text("\n".join(rows) + "\n")
    assert checks.bloc_agreement(path) == pytest.approx(19 / 20)
    path.write_text("\n".join(rows[:2] + [f"L{i:05d},0" for i in range(10)]
                              + [f"R{i:05d},0" for i in range(10)]) + "\n")
    assert checks.bloc_agreement(path) == pytest.approx(0.5)


def test_self_times_subtract_children():
    spans = [Span("a", 0.0, 10.0, None, "r"), Span("b", 1.0, 4.0, 0, "r"),
             Span("c", 5.0, 6.0, 0, "r"), Span("d", 2.0, 3.0, 1, "r")]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for table in (run.END_TO_END, run.PER_LAYER):
        assert all(NAME.fullmatch(name) for name in table)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
