"""Record the answers that workloads.py cannot derive from first principles.

    python3 bench/record_expected.py [catalog12|classify12 ...]

catalog12: exit code and stdout digest of every command whose output does not
depend on the seed, with the node count cut from ``equiv`` verdicts.  classify12: the class label of every point of the
order-4 grid of each classified family, so that any seeded sample has a known
partition.  Run it only at a commit whose answers are trusted; the files are
the benchmark's ground truth.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)
from confhad import catalog  # noqa: E402


def record_catalog12() -> dict:
    recorded = {}
    for argv in workloads.catalog12_argvs(seed=0):
        if "--numeric" in argv:
            continue  # judged by its exit code and verdict line instead
        code, out = workloads.cli(argv)
        recorded[" ".join(argv)] = [code, workloads.digest(workloads.recorded_text(argv, out))]
    return recorded


LABEL_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def record_classify12() -> dict:
    """Class labels of the order-4 grid, one digit per point in grid order."""
    pools = {}
    for name in workloads.CLASSIFY_FAMILIES:
        matrix = catalog.build_verified(name)
        symbols = sorted(matrix.symbols())
        size = 4 ** len(symbols)
        classes = workloads.classify_points(matrix, symbols, range(size), 4)
        labels = [-1] * size
        for label, (members, undecided) in enumerate(classes):
            if undecided:
                raise SystemExit(f"{name}: undecided bucket; raise the budget")
            for i in members:
                labels[i] = label
        if -1 in labels:
            raise SystemExit(f"{name}: a grid point is not Hadamard")
        if len(classes) > len(LABEL_DIGITS):
            raise SystemExit(f"{name}: too many classes for one-digit labels")
        digits = "".join(LABEL_DIGITS[label] for label in labels)
        pools[name] = {"symbols": symbols, "classes": len(classes), "labels": digits}
        print(f"{name}: {size} points, {len(classes)} classes", file=sys.stderr)
    return pools


def main(which: list[str]) -> None:
    recorders = {"catalog12": record_catalog12, "classify12": record_classify12}
    for name in which or list(recorders):
        data = recorders[name]()
        path = workloads.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
