"""The reference import that setup_s is measured against, in a fresh interpreter.

    python3 perfbench/refimport.py

It times importing a fixed set of the modules invseq depends on (numpy
and the standard-library modules its sources import) and prints the
seconds as JSON.  run.py alternates it with set-up probes (child.py
--setup-only) and reports set-up time over this time, so setup_s is in
seconds on a host where this import takes REF_IMPORT_S.  The set is fixed
here, not read from invseq, so a change to what invseq imports shows in
setup_s.  Host speed moves the two alike: both load shared libraries and
unmarshal and run module code, which the calibration kernel of speed.py
does not model.
"""

import time

_T0 = time.perf_counter()
import argparse  # noqa: E402, F401
import dataclasses  # noqa: E402, F401
import enum  # noqa: E402, F401
import fractions  # noqa: E402, F401
import itertools  # noqa: E402, F401
import json  # noqa: E402
import math  # noqa: E402, F401
import typing  # noqa: E402, F401

import numpy  # noqa: E402, F401

print(json.dumps({"ref_import_s": time.perf_counter() - _T0}))
