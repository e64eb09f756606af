"""Regenerate the golden ``enumerate`` CSVs that the benchmark gates on.

Run from the repository root, only at a commit whose CSV output is known
to be right:

    python3 perfbench/make_golden.py

Writes ``perfbench/golden/<box>.csv.gz`` and ``perfbench/golden/SHA256SUMS``
(the digests of the uncompressed CSV bytes).
"""

import gzip
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    sums = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for box in workloads.ENUMERATE_BOXES:
            name = workloads.box_name(box)
            out = Path(tmp) / name
            code, _ = workloads.run_cli(workloads.enumerate_argv(box, out))
            if code != 0:
                print(f"enumerate {name} exited {code}", file=sys.stderr)
                return 1
            data = out.read_bytes()
            (workloads.GOLDEN_DIR / f"{name}.gz").write_bytes(gzip.compress(data, mtime=0))
            sums.append(f"{hashlib.sha256(data).hexdigest()}  {name}\n")
            print(f"{name}: {len(data)} bytes")
    workloads.GOLDEN_SUMS.write_text("".join(sums), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
