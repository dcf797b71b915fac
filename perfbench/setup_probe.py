"""Set-up probe, run in a fresh interpreter by run.py:

    python3 -s setup_probe.py SRC PHI DIM R S_FRAC U

Times ``import finslerlab`` from SRC, the parse of PHI and the evaluation of
the one grid point (R, S_FRAC * R, U) through ``cli.run``.  numpy, a
dependency, is imported before the clock starts.  Prints
``[raw seconds, scale]`` (see calibration.py); exits non-zero if finslerlab
does not come from SRC or the point does not evaluate.
"""

import json
import os
import sys

from calibration import calibrated, kernel_seconds

src, phi, dim, r, frac, u = sys.argv[1:]
sys.path.insert(0, src)
kernel_seconds()  # the first call pays numpy's lazy set-up
result = {}


def first_point():
    from finslerlab import cli

    result["cli"] = cli
    result["run"] = cli.run(cli.RunConfig("report", phi, int(dim), [float(r)], [float(frac)], [float(u)]))


timing = calibrated(first_point)
cli, (doc, code) = result["cli"], result["run"]
if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"finslerlab imported from {cli.__file__}, not from {src}")
if code != 0 or len(doc["points"]) != 1:
    sys.exit(f"first point did not evaluate: exit {code}, skipped {doc['skipped']}")
print(json.dumps(timing))
