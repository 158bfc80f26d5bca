"""Every lookup site that ``bench/tracer.py`` wraps exists in the package.

The tracer lists a site it cannot find as missing and reads its metrics as 0,
so a renamed or deleted function would silently blank a per-layer metric.
Sites are resolved read-only, without installing the tracer.
"""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_site_resolves():
    tracer = load_tracer()
    missing = []
    for sites in tracer.HOOKS.values():
        for site in sites:
            try:
                _, _, found = tracer._resolve(site)
            except (ImportError, AttributeError):
                found = None
            if found is None:
                missing.append(site)
    assert missing == []
