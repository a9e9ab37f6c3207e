"""perfbench times slopewatch by wrapping names it looks up from outside; they must resolve."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Wrapped by perfbench but no longer called by these names in
# slopewatch.alert; perfbench reports them as missing until it wraps the
# engine's new calls (ROADMAP item 4).
KNOWN_MISSING = {
    "slopewatch.alert.ar_fit",
    "slopewatch.alert.ar_forecast",
    "slopewatch.alert.compute_rainfall_features",
}

# Wrapped outside tracer.BOUNDARIES: by station_child.py, by the event
# counter and by the service probe.
EXTRA = (
    ("slopewatch.wire", "read_frame"),
    ("slopewatch.replay", "heapq"),
    ("slopewatch.station", "ServerEngine.handle_data_frame"),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_perfbench_wraps_resolves():
    tracer = load_tracer()
    patches = tracer.Patches()
    try:
        for module, path, _ in tracer.BOUNDARIES:
            patches.wrap(module, path, lambda original: original)
        for module, path in EXTRA:
            patches.wrap(module, path, lambda original: original)
    finally:
        patches.restore()
    assert set(patches.missing) <= KNOWN_MISSING
