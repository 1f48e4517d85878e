"""Batch front end: simulate, identify, compile-priors and mc-compare.

Exit codes: 0 success, 2 input error, 3 infeasible constraints,
4 numerical failure.  Every emission is a deterministic function of the
configuration and the seed, so reruns are byte-identical and the Monte
Carlo harness can be scripted safely.

Configuration may come from a JSON file (``--config``), from flags, or
both; flags win.  Per-run Monte Carlo seeds are derived from the master
seed and the run index, so results do not depend on scheduling.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from . import fileio
from .estimate import (
    IdentDataset,
    build_fir_regression,
    ls_equality_exact,
    ls_equality_weighted,
    ls_unconstrained,
)
from .fileio import load_dataset
from .priors import InfeasibleConstraintsError, MarkovIndexing, PriorSpec, compile_priors
from .realize import MODES, identify_pipeline
from .statespace import StateSpaceModel, dc_gain, markov_sequence, simulate

__all__ = [
    "RunConfig",
    "PipelineStageError",
    "load_dataset",
    "generate_input",
    "apply_delays",
    "run_simulate",
    "run_identify",
    "mc_compare",
    "run_mc_compare",
    "main",
]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

INPUT_KINDS = ("impulse", "step", "prbs", "white")

# Two Monte Carlo error metrics closer than this count as a tie.
MC_TIE_TOL = 1e-6


@dataclass
class RunConfig:
    """Batch-run settings; JSON keys match the field names below."""

    dataset: str | None = None
    Ts: float | None = None
    ell: int | None = None
    q: int | None = None
    p: int | None = None
    mode: str = "exact"
    weight: float | None = None
    priors: list[PriorSpec] = field(default_factory=list)
    delays: list[int] = field(default_factory=list)
    order: int | None = None
    order_tol: float = 1e-8
    seed: int = 0
    mc_runs: int = 100
    snr_db: float | None = None
    generator: dict[str, Any] | None = None
    model_file: str | None = None
    input_kind: str = "white"
    n_samples: int = 200
    output_dir: str = "out"


class PipelineStageError(RuntimeError):
    """An error raised inside a named pipeline stage."""

    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"{stage}: {original}")
        self.stage = stage
        self.original = original


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, InfeasibleConstraintsError):
        return EXIT_INFEASIBLE
    if isinstance(
        exc, (np.linalg.LinAlgError, FloatingPointError, OverflowError, ZeroDivisionError)
    ):
        return EXIT_NUMERICAL
    if isinstance(
        exc, (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError)
    ):
        return EXIT_INPUT
    return 1


def _fmt6(value: float) -> str:
    return f"{float(value):.6g}"


# ---------------------------------------------------------------------------
# signal generation and noise

def generate_input(kind: str, n_samples: int, n_u: int, rng: np.random.Generator) -> np.ndarray:
    """Test input of shape (n_samples, n_u): impulse, step, prbs or white."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if kind == "impulse":
        U = np.zeros((n_samples, n_u))
        U[0, :] = 1.0
    elif kind == "step":
        U = np.ones((n_samples, n_u))
    elif kind == "prbs":
        U = 2.0 * rng.integers(0, 2, size=(n_samples, n_u)).astype(float) - 1.0
    elif kind == "white":
        U = rng.standard_normal((n_samples, n_u))
    else:
        raise ValueError(f"unknown input kind {kind!r}; expected one of {INPUT_KINDS}")
    return U


def _add_output_noise(
    Y: np.ndarray, snr_db: float, rng: np.random.Generator
) -> np.ndarray:
    """White Gaussian noise scaled per channel to the requested SNR (dB)."""
    power = np.mean(Y**2, axis=0)
    for channel, p in enumerate(power, start=1):
        if p <= 0.0:
            raise ValueError(
                f"noise-free output of channel y{channel} is identically zero; "
                "the requested SNR is undefined"
            )
    sigma = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    return Y + rng.standard_normal(Y.shape) * sigma


def _simulate_noisy(
    model: StateSpaceModel,
    U: np.ndarray,
    snr_db: float | None,
    rng: np.random.Generator,
) -> IdentDataset:
    Y = simulate(model, U)
    if snr_db is not None:
        Y = _add_output_noise(Y, snr_db, rng)
    return IdentDataset(U=U, Y=Y, Ts=model.Ts)


def apply_delays(U: np.ndarray, delays: list[int]) -> np.ndarray:
    """Shift input column j down by delays[j] samples, zero-filling the head.

    This is the standard pre-treatment for known integer-sample input
    delays: after the shift a delayed channel looks like a zero-delay one.
    """
    if not delays:
        return U
    if len(delays) != U.shape[1]:
        raise ValueError(
            f"got {len(delays)} delays for {U.shape[1]} input channels"
        )
    out = np.zeros_like(U)
    for j, d in enumerate(delays):
        if d != int(d) or d < 0:
            raise ValueError(f"delays must be nonnegative integers, got {d!r}")
        d = int(d)
        if d == 0:
            out[:, j] = U[:, j]
        elif d < U.shape[0]:
            out[d:, j] = U[: U.shape[0] - d, j]
    return out


# ---------------------------------------------------------------------------
# subcommand drivers

def run_simulate(
    model: StateSpaceModel,
    input_kind: str,
    n_samples: int,
    snr_db: float | None,
    seed: int,
    output: str,
) -> str:
    """Simulate a model over a generated input and write the dataset CSV."""
    rng = np.random.default_rng(seed)
    U = generate_input(input_kind, n_samples, model.n_u, rng)
    data = _simulate_noisy(model, U, snr_db, rng)
    fileio.write_dataset(output, data)
    return output


def run_identify(config: RunConfig) -> dict[str, str]:
    """Load a dataset, run the identification pipeline, emit report files.

    Writes ``model.txt``, ``markov.csv`` and ``report.txt`` into
    ``config.output_dir`` and returns their paths.
    """
    with _stage("configuration"):
        if config.dataset is None:
            raise ValueError("an input dataset path is required")
        if config.Ts is None:
            raise ValueError("the sampling period Ts is required")
        if config.ell is None:
            raise ValueError("the Markov horizon ell is required")
        if config.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {config.mode!r}")

    with _stage("dataset loading"):
        data = load_dataset(config.dataset, config.Ts)

    with _stage("delay shifting"):
        if config.delays:
            data = IdentDataset(
                U=apply_delays(data.U, config.delays), Y=data.Y, Ts=data.Ts
            )

    mode = config.mode
    if not config.priors and mode != "unconstrained":
        print(
            "notice: no priors declared; mode coerced to unconstrained",
            file=sys.stderr,
        )
        mode = "unconstrained"

    with _stage("estimation and realization"):
        result = identify_pipeline(
            data,
            config.priors,
            config.ell,
            q=config.q,
            p=config.p,
            mode=mode,
            weight=config.weight,
            order=config.order,
            tol=config.order_tol,
        )

    with _stage("report emission"):
        os.makedirs(config.output_dir, exist_ok=True)
        model_path = os.path.join(config.output_dir, "model.txt")
        markov_path = os.path.join(config.output_dir, "markov.csv")
        report_path = os.path.join(config.output_dir, "report.txt")
        fileio.write_model_file(model_path, result.model)
        fileio.write_markov_csv(markov_path, result.estimate.markov)
        _write_report(report_path, config, data, result)

    return {"model": model_path, "markov": markov_path, "report": report_path}


def _write_report(path, config, data, result):
    est = result.estimate
    consistency = result.constraints.consistency
    lines = [
        "identification report",
        f"mode: {est.method}",
        f"n_samples: {data.n_samples}",
        f"n_u: {data.n_u}",
        f"n_y: {data.n_y}",
        f"Ts: {_fmt6(data.Ts)}",
        f"ell: {config.ell}",
        f"q: {result.q}",
        f"p: {result.p}",
        f"delays: {','.join(str(d) for d in config.delays) if config.delays else 'none'}",
        f"order: {result.order}",
        "singular_values: " + " ".join(_fmt6(v) for v in result.singular_values),
        f"residual_norm: {_fmt6(est.residual_norm)}",
        f"constraint_rows: {result.constraints.n_rows}",
        f"constraint_rank: {consistency.rank}",
        f"constraint_redundant_rows: {list(consistency.redundant_rows)}",
        f"constraint_infeasible: {str(consistency.infeasible).lower()}",
        f"constraint_residual: {_fmt6(est.constraint_residual)}",
    ]
    if result.realized_constraint_residual is not None:
        lines.append(
            f"realized_constraint_residual: {_fmt6(result.realized_constraint_residual)}"
        )
    lines += [
        f"estimator_rank: {est.diagnostics.get('rank')}",
        f"estimator_columns: {est.diagnostics.get('columns')}",
        f"estimator_rank_deficient: {str(est.diagnostics.get('rank_deficient')).lower()}",
        f"estimator_cond: {_fmt6(est.diagnostics.get('cond', float('nan')))}",
        f"reconstruction_error: {_fmt6(result.reconstruction_error)}",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _generator_model(config: RunConfig) -> StateSpaceModel:
    if config.generator is not None:
        if config.Ts is None:
            raise ValueError("Ts is required to discretize a prototype generator")
        from .discretize import prototype_statespace

        proto = fileio.prototype_from_dict(config.generator)
        return prototype_statespace(proto, config.Ts)
    if config.model_file is not None:
        return fileio.read_model_file(config.model_file)
    raise ValueError("mc-compare needs a ground-truth generator (prototype or model file)")


def mc_compare(config: RunConfig) -> tuple[list[dict[str, float]], dict[str, Any]]:
    """Seeded Monte Carlo comparison of constrained vs unconstrained estimates.

    For each run: simulate noisy data from the ground-truth generator,
    estimate the Markov parameters with and without the declared priors,
    and record the relative Markov error and the absolute DC-gain error of
    both.  Returns the per-run records and a summary (medians, IQRs, win
    rate).  Two errors closer than ``MC_TIE_TOL`` count as a tie.
    """
    if config.mc_runs < 2:
        raise ValueError(f"mc_runs must be >= 2, got {config.mc_runs}")
    if config.ell is None:
        raise ValueError("the Markov horizon ell is required")
    if not config.priors:
        raise ValueError("mc-compare needs at least one prior to compare against")
    if config.mode not in ("exact", "weighted"):
        raise ValueError(
            f"mc-compare mode must be 'exact' or 'weighted', got {config.mode!r}"
        )

    model = _generator_model(config)
    ell = config.ell
    indexing = MarkovIndexing(n_y=model.n_y, n_u=model.n_u, ell=ell)
    m_true = indexing.vec(markov_sequence(model, ell))
    scale = float(np.linalg.norm(m_true))
    if scale == 0.0:
        raise ValueError("the ground-truth Markov sequence is identically zero")
    try:
        dc_true = dc_gain(model)
    except ValueError:
        dc_true = None  # marginally stable generator: no DC-gain metric

    cs = compile_priors(config.priors, indexing, model.Ts)
    runs: list[dict[str, float]] = []
    for run_index in range(config.mc_runs):
        rng = np.random.default_rng([config.seed, run_index])
        U = generate_input(config.input_kind, config.n_samples, model.n_u, rng)
        data = _simulate_noisy(model, U, config.snr_db, rng)
        reg = build_fir_regression(data, ell)
        est_u = ls_unconstrained(reg)
        if config.mode == "exact":
            est_c = ls_equality_exact(reg, cs)
        else:
            est_c = ls_equality_weighted(reg, cs, config.weight)
        record: dict[str, float] = {
            "run": float(run_index),
            "markov_err_unconstrained": float(
                np.linalg.norm(indexing.vec(est_u.markov) - m_true) / scale
            ),
            "markov_err_constrained": float(
                np.linalg.norm(indexing.vec(est_c.markov) - m_true) / scale
            ),
        }
        if dc_true is not None:
            record["dc_err_unconstrained"] = float(
                np.linalg.norm(est_u.markov.blocks.sum(axis=0) - dc_true)
            )
            record["dc_err_constrained"] = float(
                np.linalg.norm(est_c.markov.blocks.sum(axis=0) - dc_true)
            )
        runs.append(record)

    summary = _summarize_runs(runs, dc_available=dc_true is not None)
    return runs, summary


def _summarize_runs(runs: list[dict[str, float]], dc_available: bool) -> dict[str, Any]:
    def stats(key: str) -> dict[str, float]:
        values = np.array([r[key] for r in runs])
        q25, q50, q75 = np.percentile(values, [25.0, 50.0, 75.0])
        return {"median": float(q50), "iqr": float(q75 - q25)}

    diff = np.array(
        [r["markov_err_unconstrained"] - r["markov_err_constrained"] for r in runs]
    )
    summary: dict[str, Any] = {
        "runs": len(runs),
        "markov_err_unconstrained": stats("markov_err_unconstrained"),
        "markov_err_constrained": stats("markov_err_constrained"),
        "wins_constrained": int(np.sum(diff > MC_TIE_TOL)),
        "wins_unconstrained": int(np.sum(diff < -MC_TIE_TOL)),
        "ties": int(np.sum(np.abs(diff) <= MC_TIE_TOL)),
    }
    decisive = summary["wins_constrained"] + summary["wins_unconstrained"]
    summary["win_rate_constrained"] = (
        summary["wins_constrained"] / decisive if decisive else float("nan")
    )
    if dc_available:
        summary["dc_err_unconstrained"] = stats("dc_err_unconstrained")
        summary["dc_err_constrained"] = stats("dc_err_constrained")
    return summary


def run_mc_compare(config: RunConfig) -> dict[str, str]:
    """Run :func:`mc_compare` and write runs.csv plus summary.txt."""
    runs, summary = mc_compare(config)
    os.makedirs(config.output_dir, exist_ok=True)
    runs_path = os.path.join(config.output_dir, "runs.csv")
    summary_path = os.path.join(config.output_dir, "summary.txt")

    keys = list(runs[0].keys())
    lines = [",".join(keys)]
    for record in runs:
        fields_out = []
        for key in keys:
            if key == "run":
                fields_out.append(str(int(record[key])))
            else:
                fields_out.append(f"{record[key]:.17g}")
        lines.append(",".join(fields_out))
    with open(runs_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_format_summary(summary) + "\n")
    print(_format_summary(summary))
    return {"runs": runs_path, "summary": summary_path}


def _format_summary(summary: dict[str, Any]) -> str:
    lines = [f"monte carlo comparison over {summary['runs']} runs"]
    for key in (
        "markov_err_unconstrained",
        "markov_err_constrained",
        "dc_err_unconstrained",
        "dc_err_constrained",
    ):
        if key in summary:
            entry = summary[key]
            lines.append(
                f"{key}: median {_fmt6(entry['median'])}, iqr {_fmt6(entry['iqr'])}"
            )
    lines.append(
        f"wins constrained/unconstrained/ties: {summary['wins_constrained']}"
        f"/{summary['wins_unconstrained']}/{summary['ties']}"
    )
    rate = summary["win_rate_constrained"]
    lines.append(
        "win rate constrained: "
        + ("all ties" if math.isnan(rate) else _fmt6(rate))
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# configuration plumbing

_CONFIG_KEYS = {
    "dataset": "dataset",
    "ts": "Ts",
    "ell": "ell",
    "q": "q",
    "p": "p",
    "mode": "mode",
    "weight": "weight",
    "delays": "delays",
    "order": "order",
    "order_tol": "order_tol",
    "seed": "seed",
    "mc_runs": "mc_runs",
    "snr_db": "snr_db",
    "generator": "generator",
    "model_file": "model_file",
    "input": "input_kind",
    "n_samples": "n_samples",
    "output_dir": "output_dir",
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON object")
        for key, value in raw.items():
            if key == "priors":
                config.priors = [fileio.prior_from_dict(entry) for entry in value]
            elif key in _CONFIG_KEYS:
                setattr(config, _CONFIG_KEYS[key], value)
            else:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
    field_names = {f.name for f in fields(RunConfig)}
    for attr in field_names:
        value = getattr(args, attr, None)
        if value is not None:
            setattr(config, attr, value)
    if getattr(args, "priors_file", None):
        config.priors = fileio.priors_from_file(args.priors_file)
    if getattr(args, "delays_csv", None):
        config.delays = [int(part) for part in args.delays_csv.split(",") if part != ""]
    return config


def _add_common_identify_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--dataset", help="input dataset CSV")
    sub.add_argument("--ts", dest="Ts", type=float, help="sampling period in seconds")
    sub.add_argument("--ell", type=int, help="Markov horizon (lags 0..ell)")
    sub.add_argument("--q", type=int, help="Hankel block rows")
    sub.add_argument("--p", type=int, help="Hankel block columns")
    sub.add_argument("--mode", choices=MODES, help="estimation mode")
    sub.add_argument("--weight", type=float, help="weighting factor for weighted mode")
    sub.add_argument("--priors", dest="priors_file", help="JSON file with prior entries")
    sub.add_argument(
        "--delays", dest="delays_csv", help="comma-separated per-input sample delays"
    )
    sub.add_argument("--order", type=int, help="fixed model order (default: automatic)")
    sub.add_argument(
        "--order-tol", dest="order_tol", type=float,
        help="relative singular-value cutoff for automatic order selection",
    )
    sub.add_argument("--output-dir", dest="output_dir", help="directory for report files")


def _add_generator_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--proto",
        choices=(
            "integrator",
            "first_order",
            "integrator_first_order",
            "two_time_constants",
            "second_order_osc",
        ),
        help="prototype generator model",
    )
    sub.add_argument("--gain", type=float, help="prototype gain K")
    sub.add_argument("--tau", type=float, help="time constant (first-order prototypes)")
    sub.add_argument("--tau1", type=float, help="first time constant")
    sub.add_argument("--tau2", type=float, help="second time constant")
    sub.add_argument("--omega0", type=float, help="natural frequency (rad/s)")
    sub.add_argument("--xi", type=float, help="damping ratio in (0, 1)")
    sub.add_argument("--model-file", dest="model_file", help="state-space model file")


def _prototype_dict_from_args(args: argparse.Namespace) -> dict[str, Any] | None:
    if args.proto is None:
        return None
    entry: dict[str, Any] = {"proto": args.proto}
    for key in ("gain", "tau", "tau1", "tau2", "omega0", "xi"):
        value = getattr(args, key, None)
        if value is not None:
            entry[key] = value
    return entry


def _cmd_simulate(args: argparse.Namespace) -> int:
    proto_entry = _prototype_dict_from_args(args)
    if proto_entry is not None:
        if args.Ts is None:
            raise ValueError("--ts is required with a prototype generator")
        from .discretize import prototype_statespace

        model = prototype_statespace(fileio.prototype_from_dict(proto_entry), args.Ts)
    elif args.model_file is not None:
        model = fileio.read_model_file(args.model_file)
    else:
        raise ValueError("simulate needs either --proto or --model-file")
    path = run_simulate(
        model, args.input, args.n, args.snr_db, args.seed, args.output
    )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_identify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    paths = run_identify(config)
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")
    return EXIT_OK


def _cmd_compile_priors(args: argparse.Namespace) -> int:
    priors = fileio.priors_from_file(args.priors_file)
    indexing = MarkovIndexing(n_y=args.ny, n_u=args.nu, ell=args.ell)
    cs = compile_priors(priors, indexing, args.Ts)
    report = cs.consistency
    fileio.write_constraints_csv(args.output, cs)
    print(
        f"wrote {args.output}: {cs.n_rows} rows, rank {report.rank}, "
        f"redundant {list(report.redundant_rows)}, "
        f"infeasible {str(report.infeasible).lower()}"
    )
    return EXIT_OK


def _cmd_mc_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    proto_entry = _prototype_dict_from_args(args)
    if proto_entry is not None:
        config.generator = proto_entry
    run_mc_compare(config)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priorsid",
        description=(
            "Markov-parameter estimation under prior-knowledge equality "
            "constraints, with Kung realization"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    _add_generator_flags(sim)
    sim.add_argument("--input", choices=INPUT_KINDS, default="white")
    sim.add_argument("--n", type=int, default=200, help="number of samples")
    sim.add_argument("--ts", dest="Ts", type=float, help="sampling period in seconds")
    sim.add_argument("--snr-db", dest="snr_db", type=float, help="output SNR in dB")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", required=True, help="dataset CSV to write")
    sim.set_defaults(func=_cmd_simulate)

    ident = sub.add_parser("identify", help="estimate and realize from a dataset")
    _add_common_identify_flags(ident)
    ident.set_defaults(func=_cmd_identify)

    comp = sub.add_parser(
        "compile-priors", help="dump the compiled A_eq/b_eq rows as CSV"
    )
    comp.add_argument("--priors", dest="priors_file", required=True)
    comp.add_argument("--ny", type=int, required=True, help="number of outputs")
    comp.add_argument("--nu", type=int, required=True, help="number of inputs")
    comp.add_argument("--ell", type=int, required=True, help="Markov horizon")
    comp.add_argument("--ts", dest="Ts", type=float, required=True)
    comp.add_argument("--output", required=True, help="constraints CSV to write")
    comp.set_defaults(func=_cmd_compile_priors)

    mc = sub.add_parser(
        "mc-compare", help="Monte Carlo comparison with vs without priors"
    )
    _add_common_identify_flags(mc)
    _add_generator_flags(mc)
    mc.add_argument("--input", dest="input_kind", choices=INPUT_KINDS)
    mc.add_argument("--n", dest="n_samples", type=int, help="samples per run")
    mc.add_argument("--snr-db", dest="snr_db", type=float, help="output SNR in dB")
    mc.add_argument("--seed", type=int, help="master seed")
    mc.add_argument("--mc-runs", dest="mc_runs", type=int, help="number of runs")
    mc.set_defaults(func=_cmd_mc_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineStageError as err:
        print(f"error: {err}", file=sys.stderr)
        return _exit_code(err.original)
    except Exception as err:  # noqa: BLE001 - single funnel to exit codes
        print(f"error: {err}", file=sys.stderr)
        return _exit_code(err)


if __name__ == "__main__":
    sys.exit(main())
