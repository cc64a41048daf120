import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rtpol
from rtpol import SyntheticSpec, generate_bundle
from rtpol.cli import main
from rtpol.errors import ConvergenceError, InputError, StageError
from rtpol.io import parse_partition_csv, parse_scores_csv
from rtpol.pipeline import (STAGES, PipelineConfig, auto_size_floor,
                            load_config, run_report)

SMALL = SyntheticSpec(n_left=30, n_right=30, p_in=0.15, p_out=0.01, seed=5)

EXPECTED_FILES = [
    "ingest.json", "lwcc.json", "nodes.csv", "loadings.csv", "scores.csv",
    "centrality_pagerank.csv", "centrality_hub.csv", "centrality_authority.csv",
    "centrality_in_degree.csv", "centrality_out_degree.csv", "rankings.csv",
    "partition_louvain.csv", "partition_infomap.csv", "sweep.csv",
    "communities.json", "profiles_louvain.csv", "profiles_infomap.csv",
    "modular_degree.csv", "assortativity.json", "word_counts.csv",
    "hashtags.csv", "unique.json", "manifest.json",
]


def small_config(bundle, out_dir: Path) -> PipelineConfig:
    return PipelineConfig(edges=bundle.edges, followership=bundle.followership,
                          tweets=bundle.tweets, out_dir=out_dir,
                          gammas=(0.01, 1.0), n_perm=400, seed=0,
                          keywords=("#Charlottesville",))


@pytest.fixture(scope="module")
def report_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    bundle = generate_bundle(SMALL, root / "bundle")
    out_dir = root / "out"
    manifest = run_report(small_config(bundle, out_dir))
    return bundle, out_dir, manifest


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# report configuration\n"
        "edges = in/edges.tsv\n"
        "followership = in/follow.csv\n"
        "tweets = in/tweets.jsonl\n"
        "out_dir = out\n"
        "anchor = metro_ledger\n"
        "gammas = 0.5, 1.0, 2.0\n"
        "tau = 0.2\n"
        "n_perm = 5000\n"
        "seed = 7\n"
        "size_floor = 25\n"
        "top_k = 5\n"
        "keywords = Trump, #Charlottesville\n"
        "drop_media_accounts = true\n")
    cfg = load_config(p)
    assert cfg.edges == Path("in/edges.tsv")
    assert cfg.tweets == Path("in/tweets.jsonl")
    assert cfg.anchor == "metro_ledger"
    assert cfg.gammas == (0.5, 1.0, 2.0)
    assert (cfg.tau, cfg.n_perm, cfg.seed) == (0.2, 5000, 7)
    assert (cfg.size_floor, cfg.top_k) == (25, 5)
    assert cfg.keywords == ("Trump", "#Charlottesville")
    assert cfg.drop_media_accounts is True


def test_load_config_defaults_and_auto_floor(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("edges=e\nfollowership=f\ntweets=t\nout_dir=o\n"
                 "size_floor=auto\n")
    cfg = load_config(p)
    assert cfg.size_floor is None
    assert cfg.tau == 0.15
    assert cfg.n_perm == 100_000
    assert cfg.drop_media_accounts is False
    # the text stage needs a corpus, so a config without one fails at load
    p.write_text("edges=e\nfollowership=f\nout_dir=o\n")
    with pytest.raises(InputError, match="missing required key 'tweets'"):
        load_config(p)


def test_load_config_rejects_bad_input(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("edges=e\nfollowership=f\nout_dir=o\nshiny=1\n")
    with pytest.raises(InputError, match="unknown config key 'shiny'"):
        load_config(p)
    p.write_text("edges=e\nout_dir=o\n")
    with pytest.raises(InputError, match="missing required key 'followership'"):
        load_config(p)
    p.write_text("edges=e\nfollowership=f\nout_dir=o\njust a line\n")
    with pytest.raises(InputError, match="key=value"):
        load_config(p)
    p.write_text("edges=e\nfollowership=f\nout_dir=o\ngammas=one,two\n")
    with pytest.raises(InputError, match="gammas"):
        load_config(p)
    p.write_text("edges=e\nfollowership=f\nout_dir=o\nn_perm=lots\n")
    with pytest.raises(InputError, match="n_perm"):
        load_config(p)
    p.write_text("edges = a.tsv\nfollowership=f\nedges = b.tsv\nout_dir=o\n")
    with pytest.raises(InputError, match="run.cfg:3: repeated config key 'edges'"):
        load_config(p)
    p.write_bytes(b"edges=e\nfollowership=f\xff\nout_dir=o\n")
    with pytest.raises(InputError, match="run.cfg:2: not UTF-8"):
        load_config(p)


def test_load_config_rejects_bad_gamma_and_tau(tmp_path):
    """A non-finite or out-of-range gamma or tau fails at load, not at the
    communities stage of a report."""
    p = tmp_path / "run.cfg"
    for line in ("gammas = nan", "gammas = 1.0, inf", "gammas = 0",
                 "tau = nan", "tau = 1.0"):
        p.write_text(f"edges=e\nfollowership=f\ntweets=t\nout_dir=o\n{line}\n")
        with pytest.raises(InputError, match="gamma|tau"):
            load_config(p)


def test_config_rejects_n_perm_and_top_k_below_their_layer_bounds(tmp_path, capsys):
    """n_perm = 1 and top_k = 0 fail when the config is built, before the
    report makes its output directory, not at assortativity or rankings."""
    bundle = generate_bundle(SMALL, tmp_path / "bundle")
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    for key, value, least in (("n_perm", 1, 2), ("n_perm", 0, 2),
                              ("top_k", 0, 1), ("top_k", -3, 1)):
        cfg.write_text(f"edges={bundle.edges}\nfollowership={bundle.followership}\n"
                       f"tweets={bundle.tweets}\nout_dir={out}\n{key}={value}\n")
        with pytest.raises(InputError, match=f"{key} must be at least {least}, got {value}"):
            load_config(cfg)
        assert main(["report", "--config", str(cfg)]) == 1
        assert f"{key} must be at least" in capsys.readouterr().err
        assert not out.exists()


def test_auto_size_floor():
    assert auto_size_floor(100) == 10
    assert auto_size_floor(5000) == 25
    assert auto_size_floor(9999) == 49
    assert auto_size_floor(10_000) == 1000
    assert auto_size_floor(2_000_000) == 1000


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_report_writes_everything(report_run):
    _, out_dir, manifest = report_run
    assert manifest["status"] == "complete"
    assert [s["name"] for s in manifest["stages"]] == list(STAGES)
    assert all(s["status"] == "complete" for s in manifest["stages"])
    for name in EXPECTED_FILES:
        assert (out_dir / name).exists(), name
    assert not list(out_dir.glob("*.partial"))


def test_report_manifest_contents(report_run):
    bundle, out_dir, manifest = report_run
    on_disk = json.loads((out_dir / "manifest.json").read_text())
    assert on_disk["seed"] == 0
    assert set(on_disk["inputs"]) == {"edges", "followership", "tweets"}
    assert on_disk["inputs"]["edges"] == hashlib.sha256(
        bundle.edges.read_bytes()).hexdigest()
    assert on_disk["params"]["n_perm"] == 400
    # every analytical file records its provenance on the first line
    for name in EXPECTED_FILES:
        if name.endswith(".csv"):
            first = (out_dir / name).read_text().splitlines()[0]
            assert first.startswith("# "), name


def test_report_output_sanity(report_run):
    _, out_dir, _ = report_run
    lwcc = json.loads((out_dir / "lwcc.json").read_text())
    ingest = json.loads((out_dir / "ingest.json").read_text())
    assert 0 < lwcc["n_nodes"] <= ingest["n_nodes"]
    part = parse_partition_csv(out_dir / "partition_louvain.csv")
    assert len(part) == lwcc["n_nodes"]
    comm = json.loads((out_dir / "communities.json").read_text())
    assert comm["louvain"]["k"] == len(set(part.values()))
    # the planted blocs dominate, so the gamma=1 partition is nearly 2-way
    assert 2 <= comm["louvain"]["k"] <= 6
    scores = parse_scores_csv(out_dir / "scores.csv")
    assert len(scores.scores) == sum(
        1 for line in (out_dir / "scores.csv").read_text().splitlines()[2:])
    sides = set(scores.classes.values())
    assert {"left", "right"} <= sides
    assortativity = json.loads((out_dir / "assortativity.json").read_text())
    assert assortativity["rho"] > 0.5
    assert assortativity["z"] > 5.0
    assert assortativity["r"] > 0.5
    unique = json.loads((out_dir / "unique.json").read_text())
    assert set(unique["overall"]) == {"left", "right"}
    assert "#Charlottesville" in unique["keywords"]



def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows after the provenance comment: header first."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_report_float_cells_are_plain_floats(report_run):
    _, out_dir, _ = report_run
    header, *rows = _data_rows(out_dir / "loadings.csv")
    assert header == ["media", "loading"] and rows
    for _, loading in rows:
        float(loading)
    header, *rows = _data_rows(out_dir / "modular_degree.csv")
    ratio = header.index("ratio")
    assert rows
    for row in rows:
        float(row[ratio])


def test_cli_subcommands_write_the_report_formats(report_run, tmp_path,
                                                  capsys):
    bundle, out_dir, _ = report_run
    assert main(["score", "--followership", str(bundle.followership),
                 "--out", str(tmp_path / "scores.csv")]) == 0
    assert main(["text", "--tweets", str(bundle.tweets),
                 "--scores", str(out_dir / "scores.csv"),
                 "--partition", str(out_dir / "partition_louvain.csv"),
                 "--keyword", "#Charlottesville",
                 "--out-dir", str(tmp_path / "text")]) == 0
    capsys.readouterr()
    pairs = [(tmp_path / "scores.csv", out_dir / "scores.csv")]
    pairs += [(tmp_path / "text" / name, out_dir / name)
              for name in ("word_counts.csv", "hashtags.csv")]
    for cli_file, report_file in pairs:
        assert len(_data_rows(report_file)) > 1
        assert _data_rows(cli_file) == _data_rows(report_file)
    unique = json.loads((out_dir / "unique.json").read_text())
    del unique["seed"]
    assert json.loads((tmp_path / "text" / "unique.json").read_text()) == unique

def test_cli_moddeg_covers_every_node(report_run, tmp_path, capsys):
    bundle, _, _ = report_run
    part = tmp_path / "louvain.csv"
    assert main(["communities", "--edges", str(bundle.edges),
                 "--out", str(part)]) == 0
    assert main(["centrality", "--edges", str(bundle.edges),
                 "--measure", "moddeg", "--partition", str(part),
                 "--out", str(tmp_path / "moddeg.csv")]) == 0
    capsys.readouterr()
    header, *rows = _data_rows(tmp_path / "moddeg.csv")
    assert header == ["node_id", "in_degree", "inter_in", "intra_in", "ratio"]
    assert [r[0] for r in rows] == sorted(parse_partition_csv(part))
    assert any(r[3] == "0" for r in rows) and any(r[3] != "0" for r in rows)
    for node, in_degree, inter, intra, ratio in rows:
        assert int(inter) + int(intra) == int(in_degree), node
        if int(intra) == 0:
            assert ratio == "", node
        else:
            assert float(ratio) == int(inter) / int(intra), node


def test_cli_moddeg_topk_keeps_the_report_order(report_run, tmp_path, capsys):
    bundle, out_dir, _ = report_run
    report_rows = _data_rows(out_dir / "modular_degree.csv")
    for k in (5, 20):
        out = tmp_path / f"moddeg{k}.csv"
        assert main(["centrality", "--edges", str(bundle.edges),
                     "--measure", "moddeg", "--topk", str(k),
                     "--partition", str(out_dir / "partition_louvain.csv"),
                     "--out", str(out)]) == 0
        header, *rows = _data_rows(out)
        assert len(rows) == k
        # the report writes its top_k = 20 nodes by in-degree
        assert [header, *rows] == report_rows[:k + 1]
        degrees = [int(r[1]) for r in rows]
        assert degrees == sorted(degrees, reverse=True)
    capsys.readouterr()


def test_report_reruns_are_byte_identical(report_run, tmp_path):
    bundle, out_dir, _ = report_run
    again = tmp_path / "again"
    run_report(small_config(bundle, again))
    for name in EXPECTED_FILES:
        if name == "manifest.json":
            continue
        assert (again / name).read_bytes() == (out_dir / name).read_bytes(), name
    # manifests agree once wall-clock times are removed
    m1 = json.loads((out_dir / "manifest.json").read_text())
    m2 = json.loads((again / "manifest.json").read_text())
    for m in (m1, m2):
        for stage in m["stages"]:
            stage.pop("seconds")
    assert m1 == m2


def test_report_ignores_edge_line_order(report_run, tmp_path):
    """Shuffling edges.tsv and splitting one count over two lines changes
    no output byte: node indices follow the sorted account ids, not the
    order of the lines."""
    bundle, out_dir, _ = report_run
    lines = bundle.edges.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    random.Random(3).shuffle(body)
    i = next(i for i, ln in enumerate(body) if int(ln.split("\t")[2]) > 1)
    target, source, count = body[i].split("\t")
    body[i:i + 1] = [f"{target}\t{source}\t1",
                     f"{target}\t{source}\t{int(count) - 1}"]
    edges = tmp_path / "edges.tsv"
    edges.write_text("\n".join(head + body) + "\n")
    cfg = small_config(bundle, tmp_path / "out")
    run_report(PipelineConfig(**{**cfg.__dict__, "edges": edges}))
    for name in EXPECTED_FILES:
        if name != "manifest.json":
            assert ((tmp_path / "out" / name).read_bytes()
                    == (out_dir / name).read_bytes()), name
    m1 = json.loads((out_dir / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert m1["inputs"].pop("edges") != m2["inputs"].pop("edges")
    for m in (m1, m2):
        for stage in m["stages"]:
            stage.pop("seconds")
    assert m1 == m2


def test_report_abort_keeps_prior_stages(tmp_path):
    bundle = generate_bundle(SMALL, tmp_path / "bundle")
    cfg = small_config(bundle, tmp_path / "out")
    cfg = PipelineConfig(**{**cfg.__dict__, "tweets": tmp_path / "missing.jsonl"})
    with pytest.raises(StageError) as exc:
        run_report(cfg)
    assert exc.value.stage == "text"
    out = tmp_path / "out"
    assert (out / "assortativity.json").exists()
    assert not (out / "word_counts.csv").exists()
    assert not (out / "manifest.json").exists()
    partial = json.loads((out / "manifest.json.partial").read_text())
    assert partial["status"] == "aborted"
    assert partial["stages"][-1]["name"] == "text"
    assert partial["stages"][-1]["status"] == "failed"
    assert partial["stages"][-1]["error_class"] == "InputError"


def test_report_failure_records_solver_state(tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise ConvergenceError("no convergence", residual=0.25, iterations=17)

    monkeypatch.setattr(rtpol.pipeline, "pagerank", diverge)
    bundle = generate_bundle(SMALL, tmp_path / "bundle")
    with pytest.raises(StageError) as exc:
        run_report(small_config(bundle, tmp_path / "out"))
    assert exc.value.stage == "centrality"
    partial = json.loads((tmp_path / "out" / "manifest.json.partial").read_text())
    failed = partial["stages"][-1]
    assert failed["name"] == "centrality"
    assert failed["error_class"] == "ConvergenceError"
    assert failed["error"] == "no convergence"
    assert failed["residual"] == 0.25
    assert failed["iterations"] == 17


def test_out_dir_env_override(tmp_path, monkeypatch):
    """The override reaches both entry routes: a config built in code and
    one read from a file, as `rtpol report` does."""
    bundle = generate_bundle(SMALL, tmp_path / "bundle")
    override = tmp_path / "env_out"
    monkeypatch.setenv("RTPOL_OUT_DIR", str(override))
    run_report(small_config(bundle, tmp_path / "configured"))
    assert (override / "manifest.json").exists()
    assert not (tmp_path / "configured").exists()

    shutil.rmtree(override)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"edges = {bundle.edges}\nfollowership = {bundle.followership}\n"
        f"tweets = {bundle.tweets}\nout_dir = {tmp_path / 'from_file'}\n"
        "gammas = 1.0\nn_perm = 50\n")
    run_report(load_config(cfg_path))
    assert (override / "manifest.json").exists()
    assert not (tmp_path / "from_file").exists()


def test_empty_out_dir_env_counts_as_unset(tmp_path, monkeypatch):
    """An empty RTPOL_OUT_DIR leaves the configured directory in charge;
    it used to be Path(""), the working directory."""
    bundle = generate_bundle(SMALL, tmp_path / "bundle")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("RTPOL_OUT_DIR", "")
    run_report(small_config(bundle, tmp_path / "configured"))
    assert (tmp_path / "configured" / "manifest.json").exists()
    assert list(cwd.iterdir()) == []


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_chain(tmp_path, capsys):
    work = tmp_path
    assert main(["synth", "--out-dir", str(work / "bundle"), "--n-left", "30",
                 "--n-right", "30", "--p-in", "0.15", "--p-out", "0.01",
                 "--seed", "5"]) == 0
    bundle = work / "bundle"

    assert main(["ingest", "--edges", str(bundle / "edges.tsv"),
                 "--json", str(work / "summary.json")]) == 0
    summary = json.loads((work / "summary.json").read_text())
    assert summary["lwcc_nodes"] <= summary["n_nodes"]

    assert main(["score", "--followership", str(bundle / "followership.csv"),
                 "--out", str(work / "scores.csv"),
                 "--loadings-out", str(work / "loadings.csv")]) == 0
    scores = parse_scores_csv(work / "scores.csv")
    assert {"left", "right"} <= set(scores.classes.values())

    assert main(["communities", "--edges", str(bundle / "edges.tsv"),
                 "--method", "louvain", "--out", str(work / "louvain.csv"),
                 "--scores", str(work / "scores.csv"),
                 "--profiles-out", str(work / "profiles.csv")]) == 0
    part = parse_partition_csv(work / "louvain.csv")
    assert len(set(part.values())) >= 2

    assert main(["centrality", "--edges", str(bundle / "edges.tsv"),
                 "--measure", "pagerank", "--topk", "5",
                 "--out", str(work / "pr.csv")]) == 0
    pr_lines = (work / "pr.csv").read_text().splitlines()
    assert len(pr_lines) == 2 + 5  # provenance + header + top 5

    assert main(["centrality", "--edges", str(bundle / "edges.tsv"),
                 "--measure", "hits", "--out", str(work / "hits.csv")]) == 0
    assert (work / "hits_hub.csv").exists()
    assert (work / "hits_authority.csv").exists()

    assert main(["centrality", "--edges", str(bundle / "edges.tsv"),
                 "--measure", "moddeg", "--partition", str(work / "louvain.csv"),
                 "--out", str(work / "moddeg.csv")]) == 0

    assert main(["assort", "--edges", str(bundle / "edges.tsv"),
                 "--scores", str(work / "scores.csv"),
                 "--permutations", "400", "--out", str(work / "assort.json")]) == 0
    report = json.loads((work / "assort.json").read_text())
    assert report["z"] > 5.0

    assert main(["text", "--tweets", str(bundle / "tweets.jsonl"),
                 "--scores", str(work / "scores.csv"),
                 "--partition", str(work / "louvain.csv"),
                 "--keyword", "#Charlottesville",
                 "--out-dir", str(work / "text")]) == 0
    assert (work / "text" / "word_counts.csv").exists()
    assert (work / "text" / "hashtags.csv").exists()
    capsys.readouterr()


def _child_env() -> dict:
    """Environment in which a child process imports the rtpol under test."""
    env = dict(os.environ)
    root = str(Path(rtpol.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def _check_report_subprocess(tmp_path, command):
    bundle = generate_bundle(SMALL, tmp_path / "bundle")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"edges={bundle.edges}\n"
        f"followership={bundle.followership}\n"
        f"tweets={bundle.tweets}\n"
        f"out_dir={tmp_path / 'out'}\n"
        "gammas=0.01,1.0\n"
        "n_perm=400\n"
        "keywords=#Charlottesville\n")
    proc = subprocess.run([*command, "report", "--config", str(cfg)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    printed = json.loads(proc.stdout)
    assert printed["status"] == "complete"
    assert printed["stages"] == list(STAGES)
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_report_subprocess(tmp_path):
    _check_report_subprocess(tmp_path, [sys.executable, "-m", "rtpol"])


@pytest.mark.skipif(shutil.which("rtpol") is None,
                    reason="rtpol console script not installed")
def test_cli_report_console_script(tmp_path):
    _check_report_subprocess(tmp_path, ["rtpol"])


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.skipif(not (PERFBENCH / "child.py").is_file(),
                    reason="perfbench/ is absent")
def test_traced_report_fires_every_benchmark_span(tmp_path):
    """perfbench/run.py leaves out a per-layer metric whose spans never
    occur. Its tracer rebinds the layer functions in rtpol.pipeline's
    globals (and a few nested ones), so a layer call that bypasses those
    names loses its metric. Runs in a child because of that rebinding."""
    env = _child_env()
    names = subprocess.run(
        [sys.executable, "-B", "-c",
         "import json, run; print(json.dumps([sorted({n for v in "
         "run.SPAN_TIMES.values() for n in v}), "
         "sorted(set(run.SPAN_COUNTS.values()))]))"],
        cwd=PERFBENCH, capture_output=True, text=True, env=env)
    assert names.returncode == 0, names.stderr
    timed, counted = json.loads(names.stdout)
    bundle = generate_bundle(SMALL, tmp_path / "bundle")
    cfg = tmp_path / "traced.cfg"
    cfg.write_text(f"edges={bundle.edges}\nfollowership={bundle.followership}\n"
                   f"tweets={bundle.tweets}\nout_dir={tmp_path / 'out'}\n"
                   "gammas=0.01,1.0\nn_perm=400\nkeywords=#Charlottesville\n")
    spans_path = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "child.py"), "traced", str(cfg),
         str(spans_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    fired = {s["name"] for s in spans}
    required = {*timed, *counted, "community.resolution_sweep",
                "community.louvain"}
    assert sorted(required - fired) == []
    assert [name for name in counted
            if all(s["count"] is None for s in spans if s["name"] == name)] == []


@pytest.mark.skipif(not (PERFBENCH / "gen.py").is_file(),
                    reason="perfbench/ is absent")
def test_scale_probe_script_runs_at_small_size(tmp_path):
    script = PERFBENCH.parent / "scripts" / "scale_probe.py"
    proc = subprocess.run(
        [sys.executable, "-B", str(script), "--n-per-bloc", "200",
         "--work", str(tmp_path), "--json", str(tmp_path / "probe.json")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("inputs: 400 accounts")
    assert [line.split()[0] for line in lines[1:-4]] == list(STAGES)
    assert lines[-3].startswith("peak RSS") and lines[-3].endswith(" MB")
    assert float(lines[-3].split()[-2]) > 0
    found = json.loads((tmp_path / "out" / "communities.json").read_text())
    louvain, infomap = found["louvain"], found["infomap"]
    assert lines[-2].split() == ["louvain", "k", str(louvain["k"]),
                                 "Q", f"{louvain['modularity']:.6f}"]
    assert lines[-1].split() == ["infomap", "k", str(infomap["k"]),
                                 f"{infomap['description_length_bits']:.6f}", "bits"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["params"]["n_perm"] == 2000
    assert manifest["params"]["gammas"] == [1.0, 5.0]
    record = json.loads((tmp_path / "probe.json").read_text())
    assert record["commit"] is None or len(record["commit"]) == 40
    assert record["n_per_bloc"] == 200
    assert record["stages_s"] == {s["name"]: s["seconds"] for s in manifest["stages"]}
    assert record["report_wall_s"] >= sum(record["stages_s"].values())
    assert f"{record['peak_rss_mb']:.1f}" == lines[-3].split()[-2]
    assert (record["louvain_k"], record["louvain_q"]) == (louvain["k"], louvain["modularity"])
    assert (record["infomap_k"], record["infomap_bits"]) == (
        infomap["k"], infomap["description_length_bits"])


def test_import_loads_no_scipy_solver_modules():
    # scipy.sparse.csgraph pulls in scipy.linalg and scipy.sparse.linalg,
    # about 10 MB of resident memory and 60 ms per process start
    heavy = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")
    code = ("import sys, rtpol.pipeline, rtpol.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_exit_code_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rtpol", "ingest",
         "--edges", str(tmp_path / "nope.tsv")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")



def test_cli_count_overflow_subprocess(tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_text(f"a\tb\t{10**30}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "rtpol", "ingest", "--edges", str(edges)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")

def test_cli_non_utf8_input_subprocess(tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_bytes(b"\xff\xfea\tb\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"edges={edges}\nfollowership={tmp_path / 'f.csv'}\n"
                   f"tweets={tmp_path / 't.jsonl'}\nout_dir={tmp_path / 'out'}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "rtpol", "report", "--config", str(cfg)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "not UTF-8" in proc.stderr


def test_cli_rejects_non_finite_parameters(tmp_path, capsys):
    ring = tmp_path / "ring.tsv"
    ring.write_text("a\tb\nb\tc\nc\ta\n")
    bundle = generate_bundle(SMALL, tmp_path / "bundle")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"edges={bundle.edges}\nfollowership={bundle.followership}\n"
                   f"tweets={bundle.tweets}\nout_dir={tmp_path / 'report'}\n"
                   "gammas=nan,1.0\n")
    out = str(tmp_path / "out.csv")
    cases = [
        ["communities", "--edges", str(ring), "--gamma", "nan", "--out", out],
        ["communities", "--edges", str(ring), "--gamma", "inf", "--out", out],
        ["centrality", "--edges", str(ring), "--measure", "hits",
         "--tol", "-1", "--out", out],
        ["synth", "--out-dir", str(tmp_path / "s1"), "--p-in", "nan"],
        ["synth", "--out-dir", str(tmp_path / "s2"), "--p-in", "1e19"],
        ["report", "--config", str(cfg)],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, argv
    assert not (tmp_path / "out.csv").exists()


def _check_combination_rejected(tmp_path, capsys, argv, message):
    """`argv` exits 1 naming the missing option, both when its edge list
    exists and when it does not (so the check comes before any read), and
    leaves no output file behind."""
    ring = tmp_path / "ring.tsv"
    ring.write_text("a\tb\nb\tc\nc\ta\n")
    for edges in (ring, tmp_path / "nope.tsv"):
        assert main([argv[0], "--edges", str(edges), *argv[1:],
                     "--out", str(tmp_path / "out.csv")]) == 1
        assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ring.tsv"]


def test_cli_profiles_out_without_scores_writes_nothing(tmp_path, capsys):
    _check_combination_rejected(
        tmp_path, capsys, ["communities", "--profiles-out", str(tmp_path / "prof.csv")],
        "--profiles-out requires --scores")


def test_cli_moddeg_without_partition_writes_nothing(tmp_path, capsys):
    _check_combination_rejected(
        tmp_path, capsys, ["centrality", "--measure", "moddeg"],
        "--measure moddeg requires --partition")


def test_cli_drop_media_without_followership_writes_nothing(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    _check_combination_rejected(
        tmp_path, capsys, ["assort", "--scores", str(scores), "--drop-media-accounts"],
        "--drop-media-accounts requires --followership")


def test_cli_exit_codes(tmp_path, capsys):
    # 1: input problems
    assert main(["ingest", "--edges", str(tmp_path / "nope.tsv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")

    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\t0\n")
    assert main(["ingest", "--edges", str(bad)]) == 1
    capsys.readouterr()

    # a --topk below 1 is an input error, not "all rows"
    ring = tmp_path / "ring.tsv"
    ring.write_text("a\tb\nb\tc\nc\ta\n")
    for k in ("0", "-1"):
        assert main(["centrality", "--edges", str(ring), "--measure", "indeg",
                     "--topk", k, "--out", str(tmp_path / "top.csv")]) == 1
        assert "k must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "top.csv").exists()

    # 1 via report: StageError wrapping an input problem
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"edges={tmp_path / 'nope.tsv'}\nfollowership=f\n"
                   f"tweets=t\nout_dir={tmp_path / 'out'}\n")
    assert main(["report", "--config", str(cfg)]) == 1
    capsys.readouterr()

    # 2: non-convergence. The walk on this star alternates between the hub
    # and the leaves, so with damping this close to 1 the iteration cannot
    # mix within the budget.
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tb\nb\ta\na\tc\nc\ta\n")
    assert main(["centrality", "--edges", str(edges), "--measure", "pagerank",
                 "--damping", "0.9999999999",
                 "--out", str(tmp_path / "pr.csv")]) == 2
    err = capsys.readouterr().err
    assert "did not converge" in err
