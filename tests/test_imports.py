"""Import footprint: the numpy-only paths must not load scipy."""

import os
import subprocess
import sys
from pathlib import Path

import priorsid
from priorsid import discretize, estimate, priors, realize, statespace

SCRIPT = """
import sys

import numpy as np

import priorsid
import priorsid.cli
from priorsid import (
    DcGain, FirstOrderDecay, IdentDataset, ZeroChannel, identify_pipeline, simulate,
    zoh_first_order,
)

rng = np.random.default_rng(5)
plant = zoh_first_order(K=2.0, tau=3.0, Ts=1.0)
U = rng.standard_normal((60, 1))
data = IdentDataset(U=U, Y=simulate(plant, U) + 0.1 * rng.standard_normal((60, 1)), Ts=1.0)
priors = [FirstOrderDecay(i=1, j=1, tau=3.0), DcGain(i=1, j=1, value=2.0)]
for mode in ("exact", "weighted"):
    identify_pipeline(data, priors, ell=15, mode=mode)
# 5 data rows against a constraint rank of 16: the weighted solve's K is wide
short = IdentDataset(U=U[:20], Y=data.Y[:20], Ts=1.0)
identify_pipeline(short, priors, ell=15, mode="weighted")
U2 = rng.standard_normal((80, 2))
data2 = IdentDataset(U=U2, Y=rng.standard_normal((80, 2)), Ts=1.0)
for mode in ("exact", "weighted"):
    identify_pipeline(data2, [ZeroChannel(i=1, j=2)], ell=6, mode=mode)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_full_rank_pipeline_leaves_scipy_unloaded():
    src = str(Path(priorsid.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_package_exports_each_module_name_once():
    modules = (statespace, discretize, priors, estimate, realize)
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)  # no name has two home modules
    assert sorted(priorsid.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(priorsid, name) is getattr(module, name)
