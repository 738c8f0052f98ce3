"""The names the benchmark's traced runs patch exist in the package.

``Run.patch_layers`` in ``bench/worker.py`` wraps these module and class
attributes in timing spans, and ``Tracer.patch`` in ``bench/tracing.py``
raises when one is not an own attribute of its owner. Without this check
a renamed or removed name would only show up in the traced bench
self-tests.
"""

import os
import sys
from types import SimpleNamespace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))

from worker import Run  # noqa: E402


class _Recorder:
    def __init__(self):
        self.targets = []

    def patch(self, owner, attr, name):
        self.targets.append((owner, attr))


def test_every_attribute_the_benchmark_patches_exists():
    recorder = _Recorder()
    Run.patch_layers(SimpleNamespace(tracer=recorder))
    assert recorder.targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr in recorder.targets
               if attr not in vars(owner)]
    assert missing == []
