"""Checks on the files one `run_report` call wrote.

Every function returns a list of problems; an empty list means the
report passed. A report with any problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

MANIFEST = "manifest.json"


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def analytical_digest(out_dir: Path) -> dict[str, str]:
    """sha256 per output file; the manifest is hashed without its
    wall-clock `seconds` fields."""
    digest = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == MANIFEST:
            manifest = read_json(path)
            for stage in manifest.get("stages", []):
                stage.pop("seconds", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        else:
            data = path.read_bytes()
        digest[path.name] = hashlib.sha256(data).hexdigest()
    return digest


def compare_digests(reference: dict[str, str],
                    digest: dict[str, str]) -> list[str]:
    problems = []
    for name in sorted(set(reference) | set(digest)):
        if reference.get(name) != digest.get(name):
            problems.append(f"{name} differs from the reference report")
    return problems


def check_complete(out_dir: Path) -> list[str]:
    """The manifest says complete and every stage's outputs exist."""
    path = out_dir / MANIFEST
    if not path.is_file():
        return [f"{MANIFEST} is missing"]
    manifest = read_json(path)
    problems = []
    if manifest.get("status") != "complete":
        problems.append(f"manifest status is {manifest.get('status')!r}")
    if not manifest.get("stages"):
        problems.append("manifest lists no stages")
    for stage in manifest.get("stages", []):
        if stage.get("status") != "complete":
            problems.append(f"stage {stage.get('name')} is {stage.get('status')}")
        for name in stage.get("outputs", []):
            if not (out_dir / name).is_file():
                problems.append(f"stage {stage.get('name')} output {name} is missing")
    problems += [f"{p.name} left behind" for p in out_dir.glob("*.partial")]
    return problems


def check_counts(out_dir: Path, n_edge_lines: int, n_retweets: int,
                 ) -> list[str]:
    """Ingest saw every generated edge, and the planted blocs show in z."""
    ingest = read_json(out_dir / "ingest.json")
    problems = []
    if ingest["n_edges"] != n_edge_lines or ingest["n_retweets"] != n_retweets:
        problems.append(
            f"ingest counted {ingest['n_edges']} edges / {ingest['n_retweets']}"
            f" retweets, generated {n_edge_lines} / {n_retweets}")
    z = read_json(out_dir / "assortativity.json")["z"]
    if not z > 10:
        problems.append(f"permutation z = {z}, planted blocs need z > 10")
    return problems


def bloc_agreement(partition_csv: Path) -> float:
    """Share of nodes whose planted bloc (id prefix L or R) matches the
    bloc matched to their community, with the two largest communities
    matched to the two blocs; nodes elsewhere count as wrong."""
    members: dict[str, list[str]] = {}
    with partition_csv.open(encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    for node, comm in rows[1:]:
        members.setdefault(comm, []).append(node[0])
    n = sum(len(m) for m in members.values())
    big = sorted(members.values(), key=len, reverse=True)[:2] + [[], []]
    a, b = big[0], big[1]
    straight = a.count("L") + b.count("R")
    crossed = a.count("R") + b.count("L")
    return max(straight, crossed) / n


def check_blocs(out_dir: Path, need: float = 0.95) -> list[str]:
    share = bloc_agreement(out_dir / "partition_louvain.csv")
    if share < need:
        return [f"Louvain matches the planted blocs on {share:.3f} of nodes,"
                f" need {need}"]
    return []
