"""perfbench/traced_cli.py still finds every bellpart name it wraps.

The tracer looks functions up by name, so deleting or renaming one of them
breaks the benchmark's per-layer run and nothing else.  This runs it once in
a fresh interpreter on a small ``verify`` call.
"""

import json
import os
import subprocess
import sys

from conftest import ENV, ROOT

# every layer that traced_cli.install() wraps, whether the call runs it or not
LAYERS = {
    "kernels",
    "triangles.stirling",
    "triangles.bell",
    "triangles.verify_identity",
    "dobinski.exp_neg_bounds",
    "dobinski.enclose",
    "series.egf_coefficients",
    "series.egf_stirling_d_column",
    "partitions.next",
    "partitions.count_by_pairs",
    "partitions.count_single_positive_zero_block",
    "partitions.render",
}


def test_traced_cli_wraps_every_layer():
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(write_fd),
             "verify", "all", "--max-n", "3"],
            capture_output=True,
            text=True,
            env=ENV,
            pass_fds=(write_fd,),
            timeout=60,
        )
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd) as f:
        record = f.read()
    assert proc.returncode == 0, proc.stderr
    record = json.loads(record)
    assert LAYERS <= set(record["layers"])
    # B_FROM_CLASSICAL reads classical rows 0..3 through extend_weighted_rows
    assert record["counters"]["kernels.cells"] == 10
