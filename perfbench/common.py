"""Paths, provenance and the digest record shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
# Everything a run leaves behind: serving artifacts, traces, digests.
STATE = BENCH / ".state"


def require_program() -> None:
    """Exit non-zero when the program's sources are not beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")


def child_env() -> dict[str, str]:
    """Environment for child processes: the program and this package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def state_dir(*parts: str) -> Path:
    path = STATE.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def commit() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """A hash of the program's sources and the pinned report reference.

    It names the code a run measured even where the checkout is not a git
    work tree, and it keys the dataset digests: runs of one source tree
    form one set.
    """
    digest = hashlib.sha256()
    reference = ROOT / "benchmarks" / "bench_analysis_legacy.py"
    for path in sorted(SRC.rglob("*.py")) + [reference]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "commit": commit(),
        "source_digest": source_digest(),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def record_digest(
    workload: str, seed: int, size: str, digest: str, source: str | None = None
) -> bool:
    """Remember ``digest`` for this code, workload, seed and size; False on a mismatch.

    Every run of one seed on one source tree (``source``, by default
    :func:`source_digest`) must collect the same dataset, so a digest that
    differs from the one an earlier run of the same code recorded in this
    checkout is a correctness failure.  Changed code may collect another
    dataset: it starts its own record.
    """
    path = state_dir() / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{source or source_digest()}/{workload}/{size}/{seed}"
    previous = known.setdefault(key, digest)
    if previous == digest:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
    return previous == digest


def emit(result: dict, detail: dict, out_name: str) -> None:
    """Write the run's detail file, print its warnings, then the result line last."""
    path = state_dir("results") / f"{out_name}.json"
    path.write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    print(f"perfbench: detail in {path.relative_to(ROOT)}", file=sys.stderr)
    for problem in detail.get("problems", []):
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    for phase in detail.get("generator_behind", []):
        print(f"perfbench: generator fell behind its schedule in {phase}", file=sys.stderr)
    print(json.dumps(result))
