"""End-to-end report pipeline.

Runs ingest, largest-component reduction, media scoring, centralities,
community detection, community profiles, the assortativity suite, and the
text suite, writing one or more CSV/JSON files per stage plus a manifest
with input hashes, seeds, parameters and wall-clock times. Stage outputs
are written under a .partial suffix and renamed on stage completion, so an
aborted run leaves completed stages intact and the failing stage's files
clearly marked.

`run_report` lets a non-empty RTPOL_OUT_DIR environment variable override
the configured output directory. Analytical outputs are deterministic for
a fixed config and seed; wall-clock times live only in the manifest.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy

from . import __version__
from .errors import ConvergenceError, InputError, StageError
from .graph import RetweetGraph, build_graph, largest_weak_component
from .centrality import (MIN_TOP_K, CentralityScores, PageRankParams, degree_scores,
                         hits, pagerank, modular_degree_ratio, top_k)
from .community import (DEFAULT_GAMMA_GRID, MapEquationParams,
                        ModularityParams, Partition, community_profiles,
                        infomap, louvain, map_equation, modularity,
                        resolution_sweep)
from .io import (open_utf8, parse_edges, parse_followership, parse_tweets,
                 write_csv, write_json)
from .pca import (MediaLoadings, MediaScores, first_principal_component,
                  node_score_array, score_accounts)
from .polarization import MIN_PERM, AssortativityReport, assortativity_report
from .rng import derive_seed
from .text import (TweetRecord, chi_square, hashtag_top_per_community,
                   keyword_subset, scan_corpus, unique_fraction,
                   word_counts_by_class)

ENV_OUT_DIR = "RTPOL_OUT_DIR"

STAGES = ("ingest", "lwcc", "scores", "centrality", "communities",
          "profiles", "assortativity", "text")


@dataclass(frozen=True)
class PipelineConfig:
    edges: Path
    followership: Path
    out_dir: Path
    tweets: Path
    anchor: str | None = None
    gammas: tuple[float, ...] = DEFAULT_GAMMA_GRID
    tau: float = 0.15
    n_perm: int = 100_000
    seed: int = 0
    size_floor: int | None = None
    top_k: int = 20
    keywords: tuple[str, ...] = ()
    drop_media_accounts: bool = False

    def __post_init__(self):
        # the layers own the rules for gamma, tau, n_perm and top_k
        for gamma in self.gammas:
            ModularityParams(gamma=gamma)
        MapEquationParams(tau=self.tau)
        for name, least in (("n_perm", MIN_PERM), ("top_k", MIN_TOP_K)):
            if (value := getattr(self, name)) < least:
                raise InputError(f"{name} must be at least {least}, got {value}")


#: fields recorded under the manifest's "params"
_PARAMS = ("anchor", "gammas", "tau", "n_perm", "size_floor", "top_k",
           "keywords", "drop_media_accounts")


def _gammas(value: str) -> tuple[float, ...]:
    gammas = tuple(float(x) for x in value.split(",") if x.strip())
    if not gammas:
        raise ValueError("empty gamma list")
    return gammas


#: config key -> converter of its text value; a converter raises ValueError
#: or KeyError on a value it rejects
_CONVERTERS: dict[str, Callable[[str], object]] = {
    "edges": Path, "followership": Path, "out_dir": Path, "tweets": Path,
    "anchor": str, "gammas": _gammas, "tau": float, "n_perm": int,
    "seed": int, "top_k": int,
    "size_floor": lambda v: None if v.lower() == "auto" else int(v),
    "keywords": lambda v: tuple(k.strip() for k in v.split(",") if k.strip()),
    "drop_media_accounts": lambda v: {"true": True, "1": True, "false": False,
                                      "0": False}[v.lower()],
}


def load_config(path: str | Path) -> PipelineConfig:
    """Flat key=value config file; '#' starts a comment line. Keys the file
    does not set keep the `PipelineConfig` defaults."""
    path = Path(path)
    values: dict[str, object] = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError("expected key=value", path=path, line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONVERTERS:
                raise InputError(f"unknown config key {key!r}", path=path, line=lineno)
            if key in values:
                raise InputError(f"repeated config key {key!r}", path=path, line=lineno)
            try:
                values[key] = _CONVERTERS[key](value)
            except (ValueError, KeyError):
                raise InputError(f"config key {key!r} has invalid value {value!r}",
                                 path=path, line=lineno) from None
    for f in fields(PipelineConfig):
        if f.default is MISSING and f.name not in values:
            raise InputError(f"config is missing required key {f.name!r}", path=path)
    return PipelineConfig(**values)


def read_graph(path: Path) -> RetweetGraph:
    """Graph of an edge list with nodes indexed in sorted id order, so that
    the report does not depend on the order of the lines."""
    records = parse_edges(path)
    ids = {r.target for r in records} | {r.source for r in records}
    return build_graph(records, nodes=sorted(ids))


def auto_size_floor(n_nodes: int) -> int:
    """Default reporting floor: 1000, scaled down for small graphs."""
    if n_nodes < 10_000:
        return max(10, n_nodes // 200)
    return 1000


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class _StageWriter:
    """Writes stage outputs under .partial names, renames on completion."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.pending: list[tuple[Path, Path]] = []

    def path(self, name: str) -> Path:
        final = self.out_dir / name
        partial = self.out_dir / (name + ".partial")
        self.pending.append((partial, final))
        return partial

    def commit(self) -> list[str]:
        done, self.pending = self.pending, []
        for partial, final in done:
            os.replace(partial, final)
        return [final.name for _, final in done]


# Writers of the formats that both `run_report` and the CLI produce; callers
# pass their provenance prefix, possibly empty. Layer calls go through this
# module's globals.


def write_scores(path: Path, scores: MediaScores, prov: str) -> None:
    write_csv(path, ("account_id", "score", "class"),
              ((a, scores.scores[a], scores.classes[a])
               for a in sorted(scores.scores)), prov)


def write_loadings(path: Path, loadings: MediaLoadings, dropped: int,
                   prov: str) -> None:
    write_csv(path, ("media", "loading"),
              zip(loadings.media, loadings.loadings),
              f"{prov} anchor={loadings.anchor} explained_variance="
              f"{loadings.explained_variance!r} eigengap={loadings.eigengap!r}"
              f" dropped_zero_rows={dropped}".lstrip())


def write_partition(path: Path, g: RetweetGraph, part: Partition,
                    prov: str) -> None:
    write_csv(path, ("node_id", "community"),
              ((g.ids[i], int(part.assignment[i])) for i in range(g.n)), prov)


def write_profiles(path: Path, part: Partition, node_scores: np.ndarray,
                   prov: str) -> None:
    write_csv(path, ("community", "size", "n_left", "n_right", "mean_score",
                     "shannon"),
              ((p.community, p.size, p.n_left, p.n_right, p.mean_score,
                p.shannon) for p in community_profiles(part, node_scores)),
              prov)


#: measure -> its scores, in report order, given (graph, damping d, tol).
#: Each entry looks its layer function up in this module's globals when
#: called, so that a function rebound there is the one that runs.
CENTRALITY: dict[str, Callable[..., list[CentralityScores]]] = {
    "pagerank": lambda g, d, tol: [pagerank(g, PageRankParams(d, tol))],
    "hits": lambda g, d, tol: list(hits(g, tol=tol)),
    "indeg": lambda g, d, tol: [degree_scores(g, "in")],
    "outdeg": lambda g, d, tol: [degree_scores(g, "out")],
}


def write_centrality(path: Path, g: RetweetGraph, cs: CentralityScores,
                     order: Iterable[int], prov: str) -> None:
    write_csv(path, ("node_id", "score"),
              ((g.ids[i], float(cs.values[i])) for i in order), prov)


def write_modular_degree(path: Path, g: RetweetGraph, assignment: Sequence[int],
                         order: Iterable[int], prov: str) -> None:
    """The nodes of `order` with their in-degree split by retweeter
    community; the ratio inter_in / intra_in is empty where intra_in is 0."""
    inter, intra = modular_degree_ratio(g, assignment)
    write_csv(path, ("node_id", "in_degree", "inter_in", "intra_in", "ratio"),
              ((g.ids[i], int(g.in_strength[i]), inter[i], intra[i],
                inter[i] / intra[i] if intra[i] else None)
               for i in map(int, order)), prov)


def write_assortativity(path: Path, report: AssortativityReport, seed: int,
                        dropped: Sequence[str]) -> None:
    write_json(path, {**report.to_json_dict(), "seed": seed,
                      "dropped_accounts": list(dropped)})


def _unique_by_side(counts: Mapping[str, list[int]]) -> dict:
    return {side: asdict(unique_fraction(*counts[side])) for side in ("left", "right")}


def write_text(path_of: Callable[[str], Path], corpus: list[TweetRecord],
               scores: MediaScores, community_of: Mapping[str, int] | None,
               keywords: Sequence[str], prov: str, meta: Mapping) -> None:
    """word_counts.csv, hashtags.csv if `community_of` is given, and
    unique.json plus the `meta` keys, each at `path_of(file name)`."""
    scan = scan_corpus(corpus, scores.classes, community_of, keywords)
    table = word_counts_by_class(scan)
    write_csv(path_of("word_counts.csv"),
              ("token", "left_count", "right_count", "chi2"),
              ((r.token, r.f_left, r.f_right, r.chi2) for r in chi_square(table)),
              f"{prov} excluded_tweets={table.n_excluded_tweets}".lstrip())
    if community_of is not None:
        tags = hashtag_top_per_community(scan)
        write_csv(path_of("hashtags.csv"), ("community", "hashtag", "count"),
                  ((c, tag, cnt) for c, (tag, cnt) in sorted(tags.items())),
                  f"{prov} skipped_tweets={scan.n_skipped_tweets}".lstrip())
    write_json(path_of("unique.json"), {
        "overall": _unique_by_side(scan.overall),
        "keywords": {kw: _unique_by_side(keyword_subset(scan, kw)) for kw in keywords},
        **meta})


def run_report(config: PipelineConfig) -> dict:
    """Run all stages; returns the manifest dictionary.

    Raises StageError naming the first stage that failed; outputs written
    before the failure stay on disk, the failing stage's files keep their
    .partial suffix.
    """
    out_dir = Path(os.environ.get(ENV_OUT_DIR) or config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = _StageWriter(out_dir)
    seed = config.seed
    manifest: dict = {
        "package": "rtpol",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "params": {name: getattr(config, name) for name in _PARAMS},
        "inputs": {},
        "stages": [],
    }
    state: dict = {}

    def run_stage(name: str, fn) -> None:
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:
            failure = {"name": name, "status": "failed", "error": str(exc),
                       "error_class": type(exc).__name__}
            if isinstance(exc, ConvergenceError):
                failure.update(residual=exc.residual, iterations=exc.iterations)
            manifest["stages"].append(failure)
            manifest["status"] = "aborted"
            write_json(out_dir / "manifest.json.partial", manifest)
            raise StageError(name, exc) from exc
        manifest["stages"].append({
            "name": name,
            "status": "complete",
            "seconds": time.perf_counter() - start,
            "outputs": writer.commit(),
        })

    prov = f"seed={seed} tau={config.tau} n_perm={config.n_perm}"

    def input_path(key: str) -> Path:
        """The configured input file `key`, hashed into the manifest."""
        path = getattr(config, key)
        if not path.exists():
            raise InputError(f"{key} file {path} does not exist")
        manifest["inputs"][key] = _sha256(path)
        return path

    def stage_ingest():
        g = read_graph(input_path("edges"))
        state["g_full"] = g
        write_json(writer.path("ingest.json"), {
            "n_nodes": g.n, "n_edges": g.n_edges, "n_retweets": g.w,
            "seed": seed})

    def stage_lwcc():
        g_full = state.pop("g_full")  # freed once the component is taken
        g = largest_weak_component(g_full)
        state["g"] = g
        write_json(writer.path("lwcc.json"), {
            "n_nodes": g.n, "n_edges": g.n_edges, "n_retweets": g.w,
            "n_dropped_nodes": g_full.n - g.n, "seed": seed})
        write_csv(writer.path("nodes.csv"), ("index", "node_id"),
                  ((i, ext) for i, ext in enumerate(g.ids)), prov)

    def stage_scores():
        matrix, dropped = parse_followership(input_path("followership"))
        loadings = first_principal_component(matrix, config.anchor)
        scores = score_accounts(matrix, loadings)
        state["media_labels"] = list(matrix.media)
        state["scores"] = scores
        state["node_scores"] = node_score_array(scores, state["g"].ids)
        write_loadings(writer.path("loadings.csv"), loadings, dropped, prov)
        write_scores(writer.path("scores.csv"), scores, prov)

    def stage_centrality():
        g = state["g"]
        params = PageRankParams()
        scores = [cs for measure in CENTRALITY.values()
                  for cs in measure(g, params.damping, params.tol)]
        for cs in scores:
            write_centrality(writer.path(f"centrality_{cs.kind}.csv"), g, cs,
                             range(g.n), prov)
        write_csv(writer.path("rankings.csv"),
                  ("measure", "rank", "node_id", "score"),
                  [(cs.kind, rank, g.ids[i], float(cs.values[i]))
                   for cs in scores
                   for rank, i in enumerate(top_k(cs, config.top_k), start=1)],
                  prov)

    def stage_communities():
        g = state["g"]
        part_l = louvain(g, ModularityParams(gamma=1.0),
                         seed=derive_seed(seed, 20))
        part_i = infomap(g, MapEquationParams(tau=config.tau),
                         seed=derive_seed(seed, 21))
        state["part_louvain"] = part_l
        state["part_infomap"] = part_i
        q = modularity(g, part_l, ModularityParams(gamma=1.0))
        ell = map_equation(g, part_i, MapEquationParams(tau=config.tau))
        for name, part in (("louvain", part_l), ("infomap", part_i)):
            write_partition(writer.path(f"partition_{name}.csv"), g, part, prov)
        floor = (config.size_floor if config.size_floor is not None
                 else auto_size_floor(g.n))
        sweep = resolution_sweep(g, state["node_scores"], config.gammas,
                                 seed=derive_seed(seed, 22), size_floor=floor)
        write_csv(writer.path("sweep.csv"),
                  ("gamma", "community", "size", "mean_score"),
                  ((gamma, *entry) for gamma, entries in sweep
                   for entry in entries), prov + f" size_floor={floor}")
        write_json(writer.path("communities.json"), {
            "louvain": {"k": part_l.k, "modularity": q},
            "infomap": {"k": part_i.k, "description_length_bits": ell},
            "size_floor": floor, "seed": seed})

    def stage_profiles():
        g = state["g"]
        node_scores = state["node_scores"]
        for name in ("louvain", "infomap"):
            write_profiles(writer.path(f"profiles_{name}.csv"),
                           state[f"part_{name}"], node_scores, prov)
        write_modular_degree(writer.path("modular_degree.csv"), g,
                             state["part_louvain"].assignment,
                             top_k(degree_scores(g, "in"), config.top_k), prov)

    def stage_assortativity():
        g = state["g"]
        drop = state["media_labels"] if config.drop_media_accounts else ()
        report = assortativity_report(g, state["node_scores"],
                                      n_perm=config.n_perm,
                                      seed=derive_seed(seed, 23),
                                      drop_nodes=drop)
        write_assortativity(writer.path("assortativity.json"), report, seed,
                            drop)

    def stage_text():
        corpus = parse_tweets(input_path("tweets"))
        community_of = dict(zip(state["g"].ids,
                                state["part_louvain"].assignment.tolist()))
        write_text(writer.path, corpus, state["scores"], community_of,
                   config.keywords, prov, {"seed": seed})

    for name, fn in zip(STAGES, (stage_ingest, stage_lwcc, stage_scores,
                                 stage_centrality, stage_communities,
                                 stage_profiles, stage_assortativity,
                                 stage_text)):
        run_stage(name, fn)

    manifest["status"] = "complete"
    write_json(out_dir / "manifest.json", manifest)
    return manifest
