"""Regenerate perfbench/fig2_reference.json from the checked-out sources.

    python3 perfbench/make_reference.py

Runs the fig2 workload at each size scale and stores every
REFERENCE_STRIDE-th row of each alpha's coefficient columns at full
precision.  The stored file was made from the commit that introduced the
benchmark; rerun this only when the fig2 sizes change, never to absorb a
change in the numbers.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gqbm  # noqa: E402
import gqbm.cli  # noqa: E402
from workloads import (FIG2_COLUMNS, REFERENCE_PATH, REFERENCE_STRIDE,  # noqa: E402
                       SIZES, fig2_columns, run_fig2)


def main():
    ref = {}
    for scale, stride in REFERENCE_STRIDE.items():
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            run_fig2(gqbm, SIZES[scale]["fig2"], 0, Path(tmp))
            columns = {alpha: {name: table[name][::stride].tolist()
                               for name in FIG2_COLUMNS}
                       for alpha, table in fig2_columns(Path(tmp)).items()}
        ref[scale] = {"stride": stride, "size": SIZES[scale]["fig2"],
                      "columns": columns}
    REFERENCE_PATH.write_text(json.dumps(ref) + "\n")


if __name__ == "__main__":
    main()
