"""Record the simon_2d reference counts for every lambda the workload can draw.

Run from the repository root (about a minute and a half):

    python3 perfbench/record_simon_counts.py

One ``semispec simon`` call counts the whole grid: the channel-rule box and
the 773 x 83 grid depend only on the top lambda, which every simon_2d job
shares.  A BoundaryWarning (lambda within 1e-12 of an eigenvalue) aborts the
recording, since such a count would be ambiguous.
"""

import json
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import Simon2D, _csv_rows, run_cli  # noqa: E402


def main() -> int:
    argv = Simon2D.argv(Simon2D.LAMBDA_GRID + (Simon2D.LAMBDA_TOP,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, text = run_cli(argv)
    if rc != 0:
        print(f"semispec {' '.join(argv)} exited {rc}", file=sys.stderr)
        return 1
    lams = argv[argv.index("--lambda") + 1].split(",")
    counts = {row[0]: int(row[1]) for row in _csv_rows(text)[1 : 1 + len(lams)]}
    if list(counts) != lams:
        print(f"unexpected output:\n{text}", file=sys.stderr)
        return 1
    with open(Simon2D.TABLE, "w") as fh:
        json.dump({"command": ["semispec", *argv], "counts": counts}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
