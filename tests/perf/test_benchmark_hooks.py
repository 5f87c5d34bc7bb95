"""The benchmark's traced runs wrap program calls by owner and name.

``perfbench.layers`` patches classes and modules through
``owner.__dict__[attr]``, so renaming or moving a wrapped call breaks the
traced benchmark run.  Installing every hook here makes that a tier-1
failure instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
try:
    from perfbench.layers import install_serving, install_simulation
    from perfbench.spans import Tracer
finally:
    sys.path.pop(0)


def test_every_hook_installs_and_restores():
    tracer = Tracer()
    try:
        install_simulation(tracer)
        install_serving(tracer)
        hooks = list(tracer._patched)
        for owner, attr, original in hooks:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.restore()
    assert hooks
    for owner, attr, original in hooks:
        assert owner.__dict__[attr] is original, (owner, attr)
