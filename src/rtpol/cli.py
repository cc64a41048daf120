"""Command line interface.

Exit codes: 0 on success, 1 for input problems (missing or malformed
files, degenerate data, bad anchors), 2 for numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (AnchorError, ConvergenceError, DegenerateInputError,
                     InputError, StageError)
from .graph import largest_weak_component
from .centrality import degree_scores, top_k
from .community import MapEquationParams, ModularityParams, infomap, louvain
from .io import (parse_followership, parse_partition_csv, parse_scores_csv,
                 parse_tweets, write_json)
from .pca import first_principal_component, node_score_array, score_accounts
from .pipeline import (CENTRALITY, load_config, read_graph, run_report,
                       write_assortativity, write_centrality, write_loadings,
                       write_modular_degree, write_partition, write_profiles,
                       write_scores, write_text)
from .polarization import assortativity_report
from .synth import SyntheticSpec, generate_bundle


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtpol",
        description="Retweet-network polarization analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate inputs and print graph summary")
    p.add_argument("--edges", required=True, type=Path)
    p.add_argument("--json", type=Path, help="write the summary here instead of stdout")

    p = sub.add_parser("score", help="media-preference scores from followership")
    p.add_argument("--followership", required=True, type=Path)
    p.add_argument("--anchor", help="media label forced to a positive loading "
                                    "(default: first column)")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--loadings-out", type=Path)

    p = sub.add_parser("communities", help="community detection on the edge list")
    p.add_argument("--edges", required=True, type=Path)
    p.add_argument("--method", choices=("louvain", "infomap"), default="louvain")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--scores", type=Path, help="scores CSV for community profiles")
    p.add_argument("--profiles-out", type=Path)

    p = sub.add_parser("centrality", help="node centrality scores")
    p.add_argument("--edges", required=True, type=Path)
    p.add_argument("--measure", required=True,
                   choices=(*CENTRALITY, "moddeg"))
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--topk", type=int, help="limit output to the k best nodes")
    p.add_argument("--partition", type=Path, help="partition CSV, needed for moddeg")
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("assort", help="dyad assortativity suite")
    p.add_argument("--edges", required=True, type=Path)
    p.add_argument("--scores", required=True, type=Path)
    p.add_argument("--permutations", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drop-media-accounts", action="store_true",
                   help="remove the media accounts named by --followership first")
    p.add_argument("--followership", type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("text", help="tweet-content statistics")
    p.add_argument("--tweets", required=True, type=Path)
    p.add_argument("--scores", required=True, type=Path)
    p.add_argument("--keyword", action="append", default=[])
    p.add_argument("--partition", type=Path,
                   help="account partition CSV for per-community hashtags")
    p.add_argument("--out-dir", required=True, type=Path)

    p = sub.add_parser("synth", help="generate a planted synthetic bundle")
    p.add_argument("--out-dir", required=True, type=Path)
    p.add_argument("--n-left", type=int, default=500)
    p.add_argument("--n-right", type=int, default=500)
    p.add_argument("--p-in", type=float, default=0.02)
    p.add_argument("--p-out", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True, type=Path)
    return parser


def _cmd_ingest(args) -> None:
    g = read_graph(args.edges)
    lwcc = largest_weak_component(g)
    summary = {"n_nodes": g.n, "n_edges": g.n_edges, "n_retweets": g.w,
               "lwcc_nodes": lwcc.n, "lwcc_edges": lwcc.n_edges,
               "lwcc_retweets": lwcc.w}
    if args.json:
        write_json(args.json, summary)
    else:
        print(json.dumps(summary, indent=2, sort_keys=True))


def _cmd_score(args) -> None:
    matrix, dropped = parse_followership(args.followership)
    loadings = first_principal_component(matrix, args.anchor)
    scores = score_accounts(matrix, loadings)
    write_scores(args.out, scores,
                 f"anchor={loadings.anchor} dropped_zero_rows={dropped}")
    if args.loadings_out:
        write_loadings(args.loadings_out, loadings, dropped, "")


def _cmd_communities(args) -> None:
    if args.profiles_out and not args.scores:
        raise InputError("--profiles-out requires --scores")
    g = read_graph(args.edges)
    if args.method == "louvain":
        part = louvain(g, ModularityParams(gamma=args.gamma), seed=args.seed)
    else:
        part = infomap(g, MapEquationParams(tau=args.tau), seed=args.seed)
    prov = f"method={args.method} gamma={args.gamma} tau={args.tau} seed={args.seed}"
    write_partition(args.out, g, part, prov)
    if args.profiles_out:
        node_scores = node_score_array(parse_scores_csv(args.scores), g.ids)
        write_profiles(args.profiles_out, part, node_scores, prov)


def _cmd_centrality(args) -> None:
    if args.measure == "moddeg" and not args.partition:
        raise InputError("--measure moddeg requires --partition")
    g = read_graph(args.edges)
    prov = f"measure={args.measure} damping={args.damping}"
    if args.measure == "moddeg":
        comm_of = parse_partition_csv(args.partition)
        try:
            assignment = [comm_of[ext] for ext in g.ids]
        except KeyError as exc:
            raise InputError(f"partition does not cover node {exc.args[0]!r}") from None
        order = (top_k(degree_scores(g, "in"), args.topk)
                 if args.topk is not None else range(g.n))
        write_modular_degree(args.out, g, assignment, order, prov)
        return
    scores = CENTRALITY[args.measure](g, args.damping, args.tol)
    for cs in scores:
        out = args.out
        if len(scores) > 1:
            out = out.with_name(f"{out.stem}_{cs.kind}{out.suffix}")
        order = top_k(cs, args.topk) if args.topk is not None else range(g.n)
        write_centrality(out, g, cs, order, prov + f" kind={cs.kind}")


def _cmd_assort(args) -> None:
    if args.drop_media_accounts and not args.followership:
        raise InputError("--drop-media-accounts requires --followership "
                         "to name the media accounts")
    g = read_graph(args.edges)
    node_scores = node_score_array(parse_scores_csv(args.scores), g.ids)
    drop: tuple[str, ...] = ()
    if args.drop_media_accounts:
        matrix, _ = parse_followership(args.followership)
        drop = matrix.media
    report = assortativity_report(g, node_scores, n_perm=args.permutations,
                                  seed=args.seed, drop_nodes=drop)
    write_assortativity(args.out, report, args.seed, drop)


def _cmd_text(args) -> None:
    corpus = parse_tweets(args.tweets)
    scores = parse_scores_csv(args.scores)
    community_of = (parse_partition_csv(args.partition) if args.partition
                    else None)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_text(args.out_dir.joinpath, corpus, scores, community_of,
               args.keyword, "", {})


def _cmd_synth(args) -> None:
    spec = SyntheticSpec(n_left=args.n_left, n_right=args.n_right,
                         p_in=args.p_in, p_out=args.p_out, seed=args.seed)
    bundle = generate_bundle(spec, args.out_dir)
    print(json.dumps({"edges": str(bundle.edges),
                      "followership": str(bundle.followership),
                      "tweets": str(bundle.tweets)}, indent=2, sort_keys=True))


def _cmd_report(args) -> None:
    manifest = run_report(load_config(args.config))
    print(json.dumps({"status": manifest["status"],
                      "stages": [s["name"] for s in manifest["stages"]]},
                     indent=2, sort_keys=True))


_COMMANDS = {
    "ingest": _cmd_ingest,
    "score": _cmd_score,
    "communities": _cmd_communities,
    "centrality": _cmd_centrality,
    "assort": _cmd_assort,
    "text": _cmd_text,
    "synth": _cmd_synth,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (InputError, DegenerateInputError, AnchorError, ConvergenceError,
            StageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, StageError) else exc
        return 2 if isinstance(cause, ConvergenceError) else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
