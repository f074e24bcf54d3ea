"""Seeded input cache: the edge-list files of each (workload, seed).

Inputs are generated from the seed once, written as ``src dst weight``
edge lists under ``.perfbench/inputs/<cache name>-<seed>/`` in the
checkout, and recorded in a ``manifest.json`` with each file's sha256
and generation time. The cache name is the workload's name and a digest
of its settings, so a changed workload never reuses a stale input.
Every later use re-hashes the file first; a file that no longer matches
is regenerated, and a regeneration that does not reproduce the recorded
hash is an error (the generator lost its determinism). Nothing here is committed.

The same directory keeps ``expected.json``: the result digests of the
first verified run of that seed, which every later run must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

CACHE_DIR = ".perfbench"


class InputError(RuntimeError):
    """A cached input that cannot be trusted."""


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path: Path, payload: Dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)


def seed_dir(root: Path, cache_name: str, seed: int) -> Path:
    return root / CACHE_DIR / "inputs" / f"{cache_name}-{seed}"


def ensure_inputs(
    root: Path,
    cache_name: str,
    seed: int,
    sub_seeds: List[int],
    generate: Callable[[int], object],
) -> Tuple[List[Path], Dict]:
    """The verified edge-list paths for ``(cache_name, seed)`` and the manifest.

    A workload's input is one graph per entry of ``sub_seeds``;
    ``generate(sub_seed)`` builds one graph and runs only when its
    cached file is missing or fails its hash.
    """
    from repro.graph.io import write_edge_list

    directory = seed_dir(root, cache_name, seed)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / "manifest.json"
    recorded = (
        json.loads(manifest_path.read_text())["files"]
        if manifest_path.exists()
        else []
    )
    files, paths = [], []
    for index, sub_seed in enumerate(sub_seeds):
        path = directory / f"graph-{index}.el"
        entry = recorded[index] if index < len(recorded) else None
        if entry is None or not path.exists() or sha256_file(path) != entry["sha256"]:
            started = time.perf_counter()
            graph = generate(sub_seed)
            generate_s = time.perf_counter() - started
            tmp = path.with_suffix(".tmp")
            write_edge_list(
                graph, tmp, header=f"perfbench {cache_name} seed={seed}.{index}"
            )
            digest = sha256_file(tmp)
            if entry is not None and digest != entry["sha256"]:
                raise InputError(
                    f"{cache_name} seed {seed} graph {index}: regenerated input "
                    f"hashes to {digest[:12]}, manifest recorded "
                    f"{entry['sha256'][:12]}"
                )
            os.replace(tmp, path)
            entry = {
                "file": path.name,
                "sub_seed": sub_seed,
                "sha256": digest,
                "vertices": int(graph.num_vertices),
                "edges": int(graph.num_edges),
                "generate_s": generate_s,
            }
        files.append(entry)
        paths.append(path)
    manifest = {"cache": cache_name, "seed": seed, "files": files}
    if files != recorded:
        _write_json(manifest_path, manifest)
    return paths, manifest


def load_expected(root: Path, cache_name: str, seed: int) -> Dict[str, str]:
    path = seed_dir(root, cache_name, seed) / "expected.json"
    return json.loads(path.read_text()) if path.exists() else {}


def save_expected(
    root: Path, cache_name: str, seed: int, digests: Dict[str, str]
) -> None:
    _write_json(seed_dir(root, cache_name, seed) / "expected.json", digests)
