"""The benchmark's workloads: ground truth, generated inputs, one op, checks.

Every workload is a closed loop with one client: the next op starts when
the previous one ends.  Inputs are generated from the seed through the
library (``discretize``, ``simulate``, ``fileio.write_dataset``); the
program then receives only the generated files and config.  Each ground
truth is assembled from ``priorsid.discretize`` prototypes, one per channel,
so every declared prior holds exactly for it; DC-gain and gain-ratio values
are taken from the truth's truncated Markov sums.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TS = 1.0
SNR_DB = 10.0

# Stated correctness bounds, each over two decades above what the parent
# commit shows.  Exact mode eliminates the constraints, so its residual
# (times max(1, ||b_eq||)) is rounding only; the method of weighting leaves
# one of order 1/weight.  Estimates are compared with the plain-numpy KKT
# solution relative to its norm.
RESIDUAL_BOUND = {"exact": 1e-9, "weighted": 1e-8}
REFERENCE_RTOL = {"exact": 1e-9, "weighted": 1e-6}
# Monte Carlo errors are compared per run with the KKT and lstsq references.
MC_ERROR_RTOL = 1e-8

OUTPUT_FILES = ("model.txt", "markov.csv", "report.txt")


def import_priorsid():
    """Import priorsid from this checkout's sources, never from elsewhere."""
    if not (SRC / "priorsid" / "__init__.py").is_file():
        raise FileNotFoundError(f"no priorsid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import priorsid
    import priorsid.cli

    if Path(priorsid.__file__).resolve().parent != SRC / "priorsid":
        raise ImportError(f"priorsid was imported from {priorsid.__file__}, not {SRC}")
    return priorsid


def _truth(channels: dict, n_y: int, n_u: int):
    """Block-diagonal MIMO model with one prototype per (i, j) channel."""
    from priorsid import discretize, fileio, statespace

    parts = [
        (i, j, discretize.prototype_statespace(fileio.prototype_from_dict(proto), TS))
        for (i, j), proto in sorted(channels.items())
    ]
    n = sum(model.n for _, _, model in parts)
    A, B, C = np.zeros((n, n)), np.zeros((n, n_u)), np.zeros((n_y, n))
    at = 0
    for i, j, model in parts:
        span = slice(at, at + model.n)
        A[span, span] = model.A
        B[span, j - 1] = model.B[:, 0]
        C[i - 1, span] = model.C[0]
        at += model.n
    return statespace.StateSpaceModel(A=A, B=B, C=C, D=np.zeros((n_y, n_u)), Ts=TS)


def _read_markov(text: bytes, n_y: int, n_u: int) -> np.ndarray:
    rows = np.loadtxt(io.BytesIO(text), delimiter=",", skiprows=1, ndmin=2)
    blocks = np.zeros((int(rows[:, 0].max()) + 1, n_y, n_u))
    blocks[rows[:, 0].astype(int), rows[:, 1].astype(int) - 1, rows[:, 2].astype(int) - 1] = rows[:, 3]
    return blocks


@dataclass
class IdentifyInputs:
    config: Path
    dataset: Path
    out_dir: Path
    priors: list[dict]
    truth_markov: np.ndarray


class IdentifyWorkload:
    """One op is ``priorsid.cli.main(["identify", "--config", ...])``."""

    n_y = n_u = 3

    def __init__(self, name, channels, priors, n_samples, ell, mode):
        self.name, self.channels, self.priors = name, channels, priors
        self.n_samples, self.ell, self.mode = n_samples, ell, mode

    def generate(self, seed: int, work_dir: Path) -> IdentifyInputs:
        from priorsid import estimate, fileio, statespace

        truth = _truth(self.channels, self.n_y, self.n_u)
        markov = statespace.markov_sequence(truth, self.ell).blocks
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((self.n_samples, self.n_u))
        Y = reference.add_noise(statespace.simulate(truth, U), SNR_DB, rng)
        work_dir.mkdir(parents=True, exist_ok=True)
        dataset = work_dir / "data.csv"
        fileio.write_dataset(dataset, estimate.IdentDataset(U=U, Y=Y, Ts=TS))
        priors = self.priors(markov)
        config = work_dir / "run.json"
        out_dir = work_dir / "out"
        config.write_text(json.dumps({
            "dataset": str(dataset), "ts": TS, "ell": self.ell, "mode": self.mode,
            "priors": priors, "output_dir": str(out_dir),
        }))
        return IdentifyInputs(config, dataset, out_dir, priors, markov)

    def prepare(self, inputs: IdentifyInputs) -> None:
        shutil.rmtree(inputs.out_dir, ignore_errors=True)

    def run(self, inputs: IdentifyInputs) -> int:
        from priorsid import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["identify", "--config", str(inputs.config)])

    def collect(self, inputs: IdentifyInputs, exit_code: int) -> dict:
        files = {}
        for name in OUTPUT_FILES:
            path = inputs.out_dir / name
            if path.is_file():
                files[name] = path.read_bytes()
        return {"exit_code": exit_code, "files": files}

    def reference(self, inputs: IdentifyInputs) -> dict:
        table = np.loadtxt(inputs.dataset, delimiter=",", skiprows=1)
        U, Y = table[:, 1 : 1 + self.n_u], table[:, 1 + self.n_u :]
        phi, y = reference.fir_regression(U, Y, self.ell)
        A, b = reference.constraint_rows(inputs.priors, self.n_y, self.n_u, self.ell, TS)
        return {"m": reference.kkt_solve(phi, y, A, b), "b_norm": float(np.linalg.norm(b))}

    def check(self, outcome: dict, first: dict | None, ref: dict) -> list[str]:
        """Reasons the op failed; empty when every check passes."""
        if outcome["exit_code"] != 0:
            return [f"exit code {outcome['exit_code']}"]
        missing = [name for name in OUTPUT_FILES if name not in outcome["files"]]
        if missing:
            return [f"missing output files {missing}"]
        failures = []
        if first is not None and outcome["files"] != first["files"]:
            failures.append("output files differ from the first op's")
        report = outcome["files"]["report.txt"].decode()
        match = re.search(r"^constraint_residual: (\S+)$", report, re.M)
        bound = RESIDUAL_BOUND[self.mode] * max(1.0, ref["b_norm"])
        if match is None:
            failures.append("report.txt has no constraint_residual line")
        elif not float(match.group(1)) <= bound:
            failures.append(f"constraint residual {match.group(1)} above {bound:g}")
        try:
            m_hat = _read_markov(outcome["files"]["markov.csv"], self.n_y, self.n_u)
        except (ValueError, IndexError) as err:
            return failures + [f"markov.csv unreadable: {err}"]
        if m_hat.shape[0] != self.ell + 1:
            return failures + [f"markov.csv has {m_hat.shape[0]} lags, expected {self.ell + 1}"]
        err = reference.rel_err(reference.vec(m_hat), ref["m"])
        if not err <= REFERENCE_RTOL[self.mode]:
            failures.append(f"estimate off the KKT reference by {err:.3g} relative")
        return failures

    def markov_rel_err(self, inputs: IdentifyInputs, outcome: dict) -> float:
        m_hat = _read_markov(outcome["files"]["markov.csv"], self.n_y, self.n_u)
        return reference.rel_err(reference.vec(m_hat), reference.vec(inputs.truth_markov))


@dataclass
class McInputs:
    config: object  # priorsid.cli.RunConfig
    truth: object  # priorsid.statespace.StateSpaceModel
    truth_markov: np.ndarray


class McWorkload:
    """One op is ``priorsid.cli.mc_compare(RunConfig)`` on criterion 7."""

    name = "paper-mc"
    generator = {"proto": "first_order", "gain": 2.0, "tau": 10.0}
    priors = [{"type": "first_order_decay", "i": 1, "j": 1, "tau": 10.0}]

    def __init__(self, n_samples=80, ell=30, mc_runs=50):
        self.n_samples, self.ell, self.mc_runs = n_samples, ell, mc_runs

    def generate(self, seed: int, work_dir: Path) -> McInputs:
        from priorsid import cli, discretize, fileio, statespace

        truth = discretize.prototype_statespace(fileio.prototype_from_dict(self.generator), TS)
        config = cli.RunConfig(
            Ts=TS, ell=self.ell, mode="exact", seed=seed, mc_runs=self.mc_runs,
            snr_db=SNR_DB, generator=dict(self.generator), input_kind="white",
            n_samples=self.n_samples, priors=[fileio.prior_from_dict(p) for p in self.priors],
        )
        markov = statespace.markov_sequence(truth, self.ell).blocks
        return McInputs(config, truth, markov)

    def prepare(self, inputs: McInputs) -> None:
        pass

    def run(self, inputs: McInputs):
        from priorsid import cli

        return cli.mc_compare(inputs.config)

    def collect(self, inputs: McInputs, result) -> dict:
        runs, summary = result
        return {"records": json.dumps([runs, summary], sort_keys=True), "runs": runs, "summary": summary}

    def reference(self, inputs: McInputs) -> dict:
        """Per-run constrained (KKT) and unconstrained (lstsq) Markov errors.

        The data of run r are drawn as mc-compare documents them: a generator
        seeded with (seed, r) gives the white input, then the output noise.
        """
        truth, cfg = inputs.truth, inputs.config
        m_true = reference.vec(inputs.truth_markov)
        A, b = reference.constraint_rows(self.priors, 1, 1, self.ell, TS)
        errors = []
        for run in range(cfg.mc_runs):
            rng = np.random.default_rng([cfg.seed, run])
            U = rng.standard_normal((self.n_samples, 1))
            Y = reference.add_noise(reference.simulate(truth.A, truth.B, truth.C, truth.D, U), SNR_DB, rng)
            phi, y = reference.fir_regression(U, Y, self.ell)
            m_u = np.linalg.lstsq(phi, y, rcond=None)[0]
            m_c = reference.kkt_solve(phi, y, A, b)
            errors.append((reference.rel_err(m_u, m_true), reference.rel_err(m_c, m_true)))
        return {"errors": errors}

    def check(self, outcome: dict, first: dict | None, ref: dict) -> list[str]:
        failures = []
        if first is not None and outcome["records"] != first["records"]:
            failures.append("records differ from the first op's")
        runs = outcome["runs"]
        if len(runs) != len(ref["errors"]):
            return failures + [f"{len(runs)} records for {len(ref['errors'])} runs"]
        for record, (err_u, err_c) in zip(runs, ref["errors"]):
            for key, want in (("markov_err_unconstrained", err_u), ("markov_err_constrained", err_c)):
                if not abs(record[key] - want) <= MC_ERROR_RTOL * want:
                    failures.append(f"run {int(record['run'])}: {key} {record[key]!r}, reference {want!r}")
        return failures

    def markov_rel_err(self, inputs: McInputs, outcome: dict) -> float:
        return outcome["summary"]["markov_err_constrained"]["median"]


def _channel_sum(markov: np.ndarray, i: int, j: int) -> float:
    return float(markov[:, i - 1, j - 1].sum())


# mimo-long: long 3x3 data, a few priors, none coupling two outputs.
MIMO_LONG_CHANNELS = {
    (1, 1): {"proto": "first_order", "gain": 2.0, "tau": 8.0},
    (1, 2): {"proto": "first_order", "gain": 0.5, "tau": 5.0},
    (2, 1): {"proto": "two_time_constants", "gain": 0.8, "tau1": 6.0, "tau2": 2.0},
    (2, 2): {"proto": "first_order", "gain": 1.5, "tau": 12.0},
    (2, 3): {"proto": "first_order", "gain": -0.7, "tau": 9.0},
    (3, 1): {"proto": "second_order_osc", "gain": 0.6, "omega0": 0.5, "xi": 0.4},
    (3, 2): {"proto": "first_order", "gain": 0.3, "tau": 15.0},
    (3, 3): {"proto": "two_time_constants", "gain": 1.0, "tau1": 10.0, "tau2": 3.0},
}


def _mimo_long_priors(markov: np.ndarray) -> list[dict]:
    return [
        {"type": "first_order_decay", "i": 1, "j": 1, "tau": 8.0},
        {"type": "zero_channel", "i": 1, "j": 3},
        {"type": "first_order_decay", "i": 2, "j": 2, "tau": 12.0},
        {"type": "dc_gain", "i": 2, "j": 2, "value": _channel_sum(markov, 2, 2)},
    ]


# prior-heavy: short 3x3 data where every channel carries a prior.
PRIOR_HEAVY_TAUS = {(1, 1): 10.0, (1, 3): 6.0, (2, 1): 15.0, (2, 2): 8.0, (3, 2): 20.0, (3, 3): 4.0}
PRIOR_HEAVY_GAINS = {(1, 1): 2.0, (1, 3): 0.8, (2, 1): 1.2, (2, 2): -1.0, (3, 2): 0.5, (3, 3): 1.5}
PRIOR_HEAVY_ZERO = ((1, 2), (2, 3), (3, 1))
PRIOR_HEAVY_CHANNELS = {
    ch: {"proto": "first_order", "gain": PRIOR_HEAVY_GAINS[ch], "tau": tau}
    for ch, tau in PRIOR_HEAVY_TAUS.items()
}


def _prior_heavy_priors(markov: np.ndarray) -> list[dict]:
    priors = [
        {"type": "first_order_decay", "i": i, "j": j, "tau": tau}
        for (i, j), tau in sorted(PRIOR_HEAVY_TAUS.items())
    ]
    priors += [{"type": "zero_channel", "i": i, "j": j} for i, j in PRIOR_HEAVY_ZERO]
    ratio = _channel_sum(markov, 1, 1) / _channel_sum(markov, 2, 1)
    priors.append({"type": "gain_ratio", "i": 1, "j": 1, "p": 2, "q": 1, "ratio": ratio})
    return priors


def make(name: str, tiny: bool = False):
    """The named workload; ``tiny`` shrinks it for the harness's self test."""
    if name == "paper-mc":
        return McWorkload(40, 10, 4) if tiny else McWorkload()
    if name == "mimo-long":
        n_samples, ell = (300, 20) if tiny else (1500, 100)
        return IdentifyWorkload(name, MIMO_LONG_CHANNELS, _mimo_long_priors, n_samples, ell, "exact")
    if name == "prior-heavy":
        n_samples, ell = (60, 30) if tiny else (200, 120)
        return IdentifyWorkload(name, PRIOR_HEAVY_CHANNELS, _prior_heavy_priors, n_samples, ell, "weighted")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper-mc", "mimo-long", "prior-heavy")
