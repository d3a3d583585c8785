"""The benchmark tracer wraps package functions by name; each must exist.

``perfbench/tracer.py`` patches ``(module, attribute)`` pairs from the
outside, so a rename inside the package would silently break
``perfbench/run.py --trace 1``. This test only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

from aoi_shs import cli, des_sim, shs_core, two_sensor

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_is_callable():
    points = load_tracer()._patch_points(cli, two_sensor, shs_core, des_sim)
    assert points
    missing = [name for name, module, attr in points
               if not callable(getattr(module, attr, None))]
    assert missing == []
