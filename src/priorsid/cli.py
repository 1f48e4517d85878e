"""Batch front end: simulate, identify, compile-priors and mc-compare.

Exit codes: 0 success, 2 input error, 3 infeasible constraints,
4 numerical failure.  Every emission is a deterministic function of the
configuration and the seed, so reruns are byte-identical and the Monte
Carlo harness can be scripted safely.

Configuration may come from a JSON file (``--config``), from flags, or
both; flags win.  Each command reads only the settings that its entry in
``_COMMANDS`` lists and refuses any other config key.  Per-run Monte Carlo
seeds are derived from the master seed and the run index, so results do
not depend on scheduling.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
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
from .priors import InfeasibleConstraintsError, MarkovIndexing, PriorSpec, compile_priors
from .realize import DEFAULT_ORDER_TOL, MODES, identify_pipeline
from .statespace import StateSpaceModel, dc_gain, markov_sequence, simulate

__all__ = [
    "RunConfig",
    "generate_input",
    "apply_delays",
    "run_identify",
    "mc_compare",
    "main",
]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

INPUT_KINDS = ("impulse", "step", "prbs", "white")
# mc-compare compares a constrained estimate with the unconstrained one
MC_MODES = ("exact", "weighted")

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
    order_tol: float = DEFAULT_ORDER_TOL
    seed: int = 0
    mc_runs: int = 100
    snr_db: float | None = None
    generator: dict[str, Any] | None = None
    model_file: str | None = None
    input_kind: str = "white"
    n_samples: int = 200
    output_dir: str = "out"


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, InfeasibleConstraintsError):
        return EXIT_INFEASIBLE
    if isinstance(exc, (np.linalg.LinAlgError, ArithmeticError)):
        return EXIT_NUMERICAL
    # a json.JSONDecodeError is a ValueError
    if isinstance(exc, (ValueError, TypeError, KeyError, OSError)):
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
    """White Gaussian noise scaled per channel to the requested SNR (dB); +inf adds none."""
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db}")
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
        if d < U.shape[0]:
            out[d:, j] = U[: U.shape[0] - d, j]
    return out


# ---------------------------------------------------------------------------
# subcommand drivers

def run_identify(config: RunConfig) -> dict[str, str]:
    """Load a dataset, run the identification pipeline, emit report files.

    Writes ``model.txt``, ``markov.csv`` and ``report.txt`` into
    ``config.output_dir`` and returns their paths.
    """
    if config.dataset is None:
        raise ValueError("an input dataset path is required")
    if config.Ts is None:
        raise ValueError("the sampling period Ts is required")
    if config.ell is None:
        raise ValueError("the Markov horizon ell is required")

    data = fileio.load_dataset(config.dataset, config.Ts)
    if config.delays:
        data = IdentDataset(U=apply_delays(data.U, config.delays), Y=data.Y, Ts=data.Ts)

    mode = config.mode
    # identify_pipeline refuses any other mode
    if not config.priors and mode in ("exact", "weighted"):
        print(
            "notice: no priors declared; mode coerced to unconstrained",
            file=sys.stderr,
        )
        mode = "unconstrained"

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
        f"order_saturated: {str(result.order_saturated).lower()}",
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
    fileio._write_lines(path, lines)


def _generator_model(config: RunConfig) -> StateSpaceModel:
    if config.generator is not None and config.model_file is not None:
        raise ValueError("give --proto or --model-file (keys 'generator', 'model_file'), not both")
    if config.generator is not None:
        if config.Ts is None:
            raise ValueError("Ts (--ts) is required to discretize a prototype generator")
        from .discretize import prototype_statespace

        proto = fileio.prototype_from_dict(config.generator)
        return prototype_statespace(proto, config.Ts)
    if config.model_file is not None:
        model = fileio.read_model_file(config.model_file)
        if config.Ts is not None and config.Ts != model.Ts:
            raise ValueError(
                f"ts {config.Ts:g} differs from the Ts {model.Ts:g} of model file "
                f"{config.model_file}; the model file sets the sampling period"
            )
        return model
    raise ValueError("a generator model is required: give --proto or --model-file")


def mc_compare(config: RunConfig) -> tuple[list[dict[str, float]], dict[str, Any]]:
    """Seeded Monte Carlo comparison of constrained vs unconstrained estimates.

    For each run: simulate noisy data from the ground-truth generator,
    estimate the Markov parameters with and without the declared priors,
    and record the relative Markov error and the absolute DC-gain error of
    both.  Returns the per-run records and a summary (medians, IQRs, win
    rate).  Two errors closer than ``MC_TIE_TOL`` count as a tie.
    """
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    if config.mc_runs < 2:
        raise ValueError(f"mc_runs must be >= 2, got {config.mc_runs}")
    if config.ell is None:
        raise ValueError("the Markov horizon ell is required")
    if not config.priors:
        raise ValueError("mc-compare needs at least one prior to compare against")
    if config.mode not in MC_MODES:
        raise ValueError(f"mc-compare mode must be one of {MC_MODES}, got {config.mode!r}")

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

# JSON config key -> RunConfig field: the field names, but "ts" and "input"
# for Ts and input_kind
_CONFIG_KEYS = {
    {"Ts": "ts", "input_kind": "input"}.get(f.name, f.name): f for f in fields(RunConfig)
}

# JSON config key -> (flag, help).  A flag sets its key's field (dest) from
# its text, read as the same key given as a JSON string would be.
_FLAGS = {
    "ts": ("--ts", "sampling period in seconds"),
    "ell": ("--ell", "Markov horizon (lags 0..ell)"),
    "mode": ("--mode", "estimation mode"),
    "weight": ("--weight", "weighting factor for weighted mode"),
    "output_dir": ("--output-dir", "directory for report files"),
    "dataset": ("--dataset", "input dataset CSV"),
    "delays": ("--delays", "comma-separated per-input sample delays"),
    "q": ("--q", "Hankel block rows"),
    "p": ("--p", "Hankel block columns"),
    "order": ("--order", "fixed model order (default: automatic)"),
    "order_tol": ("--order-tol", "relative singular-value cutoff for automatic order selection"),
    "model_file": ("--model-file", "state-space model file"),
    "input": ("--input", "test input signal"),
    "n_samples": ("--n", "number of samples (per run)"),
    "snr_db": ("--snr-db", "output SNR in dB"),
    "seed": ("--seed", "seed of the input and noise (master seed in mc-compare)"),
    "mc_runs": ("--mc-runs", "number of runs"),
}

# command -> each config key it reads, with the values it accepts (None: any).
# A command gets the flags of its keys and refuses any other config key.
# "priors" brings --config and --priors; "generator" brings --proto and the
# prototype parameter flags.
_ESTIMATE = {"priors": None, "ts": None, "ell": None, "mode": MODES, "weight": None,
             "output_dir": None}
_GENERATOR = {"generator": None, "model_file": None, "input": INPUT_KINDS, "n_samples": None,
              "snr_db": None, "seed": None}
_COMMANDS = {
    "simulate": {**_GENERATOR, "ts": None},
    "identify": _ESTIMATE | dict.fromkeys(("dataset", "delays", "q", "p", "order", "order_tol")),
    "mc-compare": _ESTIMATE | _GENERATOR | {"mode": MC_MODES, "mc_runs": None},
    "compile-priors": {"ts": None, "ell": None},
}

# prototype parameter key -> the prototypes that take it
_PROTO_TAKERS = {
    key: [name for name, cls in fileio._PROTO_TYPES.items() if key in fileio._proto_params(cls)]
    for cls in fileio._PROTO_TYPES.values()
    for key in fileio._proto_params(cls)
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    reads = _COMMANDS[args.command]
    config = RunConfig()
    given = []  # (key, value, where to blame); flags come last, so they win
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON object")
        for key, value in raw.items():
            where = f"{args.config}: config key {key!r}"
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            if key not in reads:
                raise ValueError(f"{where} is not read by {args.command}")
            if key == "priors":
                config.priors = [fileio.prior_from_dict(entry) for entry in value]
            else:
                given.append((key, value, where))
    for key, (flag, _) in _FLAGS.items():
        text = getattr(args, _CONFIG_KEYS[key].name, None)
        if text is not None:
            value = [part for part in text.split(",") if part] if key == "delays" else text
            given.append((key, value, f"flag {flag}"))
    for key, value, where in given:
        f = _CONFIG_KEYS[key]
        value = fileio._parse_field(f, value, where)
        if reads[key] is not None and value not in reads[key]:
            raise ValueError(f"{where}: {value!r} is not one of {reads[key]}")
        setattr(config, f.name, value)
    if getattr(args, "proto", None) is not None:
        config.generator = {"proto": args.proto} | {
            key: getattr(args, key) for key in _PROTO_TAKERS if getattr(args, key) is not None
        }
    if getattr(args, "priors_file", None):
        config.priors = fileio.priors_from_file(args.priors_file)
    return config


def _add_flags(sub: argparse.ArgumentParser, command: str) -> None:
    """The flags of the config keys that ``command`` reads, with their choices."""
    for key, choices in _COMMANDS[command].items():
        if key == "priors":
            sub.add_argument("--config", help="JSON config file; flags override its values")
            sub.add_argument("--priors", dest="priors_file", help="JSON file with prior entries")
        elif key == "generator":
            sub.add_argument(
                "--proto", choices=tuple(fileio._PROTO_TYPES), help="prototype generator model"
            )
            for param, names in _PROTO_TAKERS.items():
                sub.add_argument(f"--{param}", help=f"prototype parameter of {', '.join(names)}")
        else:
            flag, text = _FLAGS[key]
            sub.add_argument(flag, dest=_CONFIG_KEYS[key].name, choices=choices, help=text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Simulate the generator over a generated input and write the dataset CSV."""
    config = _config_from_args(args)
    model = _generator_model(config)
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    rng = np.random.default_rng(config.seed)
    U = generate_input(config.input_kind, config.n_samples, model.n_u, rng)
    fileio.write_dataset(args.output, _simulate_noisy(model, U, config.snr_db, rng))
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_identify(args: argparse.Namespace) -> int:
    for kind, path in run_identify(_config_from_args(args)).items():
        print(f"wrote {kind}: {path}")
    return EXIT_OK


def _cmd_compile_priors(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if config.Ts is None or config.ell is None:
        raise ValueError("compile-priors needs the sampling period --ts and the horizon --ell")
    indexing = MarkovIndexing(n_y=args.ny, n_u=args.nu, ell=config.ell)
    cs = compile_priors(config.priors, indexing, config.Ts)
    report = cs.consistency
    fileio.write_constraints_csv(args.output, cs)
    print(
        f"wrote {args.output}: {cs.n_rows} rows, rank {report.rank}, "
        f"redundant {list(report.redundant_rows)}, "
        f"infeasible {str(report.infeasible).lower()}"
    )
    return EXIT_OK


def _cmd_mc_compare(args: argparse.Namespace) -> int:
    """Run :func:`mc_compare` and write runs.csv plus summary.txt."""
    config = _config_from_args(args)
    runs, summary = mc_compare(config)
    os.makedirs(config.output_dir, exist_ok=True)
    keys = list(runs[0].keys())
    fileio._write_lines(os.path.join(config.output_dir, "runs.csv"), [",".join(keys)] + [
        ",".join(str(int(r[k])) if k == "run" else f"{r[k]:.17g}" for k in keys) for r in runs
    ])
    text = _format_summary(summary)
    fileio._write_lines(os.path.join(config.output_dir, "summary.txt"), [text])
    print(text)
    return EXIT_OK


@functools.cache
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
    sim.set_defaults(func=_cmd_simulate)
    ident = sub.add_parser("identify", help="estimate and realize from a dataset")
    ident.set_defaults(func=_cmd_identify)
    comp = sub.add_parser("compile-priors", help="dump the compiled A_eq/b_eq rows as CSV")
    comp.add_argument("--priors", dest="priors_file", required=True)
    comp.add_argument("--ny", type=int, required=True, help="number of outputs")
    comp.add_argument("--nu", type=int, required=True, help="number of inputs")
    comp.add_argument("--output", required=True, help="constraints CSV to write")
    comp.set_defaults(func=_cmd_compile_priors)
    mc = sub.add_parser("mc-compare", help="Monte Carlo comparison with vs without priors")
    mc.set_defaults(func=_cmd_mc_compare)
    for command in _COMMANDS:
        _add_flags(sub.choices[command], command)
    sim.add_argument("--output", required=True, help="dataset CSV to write")
    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # library warnings print as one line, like the error: and notice: lines;
    # a caller that records warnings still receives them unchanged
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001 - single funnel to exit codes
        print(f"error: {err}", file=sys.stderr)
        return _exit_code(err)
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
