"""Golden outputs: the bytes ``chainuq analyze`` and ``chainuq bench`` write.

Each run goes through ``main`` from inside ``tests/golden/``, so a report's
``config.inputs`` reads ``["abc.txt"]``, and every file it writes must equal,
byte for byte, the file of the same name recorded there. Float bytes hold
only under the numpy version, CPU dispatch set and libm they were recorded
with, so the comparison runs only where this environment's fingerprint equals
``recorded.json``; elsewhere the test skips and names both environments.

Regenerate the recorded files only in a change that means to alter output
bytes, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from chainuq.cli import main

GOLDEN = Path(__file__).parent / "golden"
# every optional section, a never-sampled row (Q) and the k_top_reduced warning
ANALYZE = ["analyze", "--input", "abc.txt", "--seed", "3", "--draws", "300", "--top-k", "5",
           "--declared", "A,Q", "--bf", "A,B", "--subset", "s=A,C"]
# output name (a prefix for bench) -> argv
RUNS = {
    **{f"analyze.{fmt}": [*ANALYZE, "--out-format", fmt] for fmt in ("json", "csv", "text")},
    "lines-fixed.json": ["analyze", "--input", "abc.txt", "--format", "lines", "--epsilon", "fixed:.5",
                         "--seed", "1", "--draws", "200", "--out-format", "json"],
    "bench": ["bench", "--beta-grid", "0,0.8", "--iterations", "300", "--replications", "5",
              "--draws", "300", "--seed", "3"],
}


def environment() -> dict:
    """numpy's version and a digest of float bytes that its dispatch set and libm decide."""
    digest = hashlib.sha256()
    for array in (
        np.random.default_rng(1).dirichlet([0.05, 0.5, 2.0], 256),
        np.log(np.geomspace(1e-300, 1e300, 4097)),
        np.exp(np.linspace(-700, 700, 4097)),
    ):
        digest.update(array.tobytes())
    return {"numpy": np.__version__, "float_sha256": digest.hexdigest()}


def write_outputs(out: Path) -> dict:
    """Run every golden command from the working directory; each written file's name -> bytes."""
    for name, argv in RUNS.items():
        assert main([*argv, "--out", str(out / name)]) == 0, name
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_outputs_match_the_recorded_bytes(tmp_path, monkeypatch):
    recorded = json.loads((GOLDEN / "recorded.json").read_text(encoding="utf-8"))
    here = environment()
    if here != recorded:
        pytest.skip(f"golden bytes were recorded under {recorded}; this run has {here}")
    monkeypatch.chdir(GOLDEN)
    outputs = write_outputs(tmp_path)
    assert len(outputs) == 6
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    os.chdir(GOLDEN)
    write_outputs(GOLDEN)
    with open("recorded.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(environment(), indent=2) + "\n")
