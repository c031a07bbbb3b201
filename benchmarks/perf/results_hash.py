"""Print the sha256 of the results file that `parset suite ARGS` writes.

    python3 benchmarks/perf/results_hash.py all --samples 100 --seed 0

Run from the root of a checkout.  The suite runs in this process on the
checkout's src/, writes to a temporary directory under .bench_work/ (the
script supplies --out), and the digest is printed with the suite's exit
code.  A change that claims byte-identical results regenerates the digest
on both commits with the same arguments and compares the two.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path


def main(argv: list[str]) -> int:
    root = Path.cwd()
    if not (root / "src" / "parset" / "__init__.py").is_file():
        print("error: run from the root of a parset checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from parset import cli
    from workloads import results_digest

    (root / ".bench_work").mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="results-hash-", dir=root / ".bench_work"))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["suite", *argv, "--out", str(out)])
        if rc == 2:
            return 2
        print(f"{results_digest(out)}  suite {' '.join(argv)} (exit {rc})")
        return 0
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
