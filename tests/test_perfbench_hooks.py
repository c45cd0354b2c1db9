"""The benchmark's per-layer hooks still find their targets.

``perfbench/rep.py`` wraps program methods by name and, when a target
is gone, notes it and reports that layer as zero instead of failing.
This test installs the simulation and producer hooks on a tiny grid and
pins the notes to the two known gaps, so a renamed ``GIIS.query_all``
or ``SiteSelector.select`` fails here rather than reading 0 in a
benchmark run.
"""

import sys
from pathlib import Path

from repro import Grid3, Grid3Config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

KNOWN_GAPS = [
    "rrd: MonALISARepository.ingest is gone, not measured",
    "producer.service-health: no object holds 'collect', not measured",
]


def test_hook_targets_exist():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from layers import LayerTracer
        from rep import install_producer_hooks, install_sim_hooks
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = LayerTracer()
    try:
        install_sim_hooks(tracer)
        grid = Grid3(Grid3Config(seed=1, scale=2000.0, duration_days=1.0,
                                 apps=["ivdgl"]))
        grid.deploy()
        install_producer_hooks(tracer, grid)
        grid.start_applications()
        grid.run()
    finally:
        tracer.uninstall()
    assert tracer.notes == KNOWN_GAPS
    for layer in ("select", "candidates", "mds", "sitecatalog", "acdc",
                  "producer.ganglia", "producer.monalisa"):
        assert tracer.layers[layer].calls > 0, layer
