"""Command-line front end: single runs, sweeps, plotting, LLPF baselines.

Configs are JSON files with nested sections; unknown keys are hard errors
and missing keys fall back to the simulation-table defaults.  Metrics are
written as CSV, plots as standalone SVG; all outputs are atomic writes and
byte-identical across repeat runs of the same config.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

import numpy as np

from . import nn, plotting
from .aggregation import AGGREGATOR_KINDS, Aggregator
from .attacks import ATTACK_MODES, DEPLOYMENTS, AttackPlan
from .channel import ChannelConfig
from .llpf import LlpfConfig
from .orchestrator import ExperimentConfig, MetricsRecord, run_experiment

CSV_FIELDS = (
    "round", "mse_gamma", "mse_delta", "mse_beta",
    "aggregator", "attack_mode", "deployment", "r_a", "seed",
)


class ConfigError(ValueError):
    pass


# --------------------------- config parsing --------------------------------

def _check_keys(data: dict, allowed: set, section: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {section} config")


def _typed(value, kind: type, name: str):
    """`value` as `kind` without lossy casts: a bool is not a number, an
    int field takes no fraction, and a bool field takes only true/false."""
    if (kind is bool) != isinstance(value, bool):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return kind(value)


def _network_from_dict(data: dict) -> nn.NetworkSpec:
    _check_keys(data, {"input_height", "input_width", "layers"}, "network")
    height = _typed(data.get("input_height", 72), int, "input_height")
    width = _typed(data.get("input_width", 14), int, "input_width")
    layers = data.get("layers")
    if layers is None:
        return nn.default_network_spec(height, width)
    parsed = []
    for entry in layers:
        if len(entry) != 4:
            raise ConfigError(f"network layer {entry!r} must be [kh, kw, filters, activation]")
        kh, kw, filters = (_typed(v, int, "network layer size") for v in entry[:3])
        parsed.append(nn.LayerSpec(kh, kw, filters, str(entry[3])))
    return nn.NetworkSpec(layers=tuple(parsed), input_shape=(height, width, 2))


def _channel_from_dict(data: dict) -> ChannelConfig:
    fields = {f.name for f in dataclasses.fields(ChannelConfig)}
    _check_keys(data, fields, "channel")
    defaults = ChannelConfig()
    return ChannelConfig(**{k: _typed(v, type(getattr(defaults, k)), k) for k, v in data.items()})


def _attack_from_dict(data: Optional[dict]) -> Optional[AttackPlan]:
    if data is None:
        return None
    fields = {f.name for f in dataclasses.fields(AttackPlan)}
    _check_keys(data, fields, "attack")
    if "mode" not in data:
        raise ConfigError("attack config needs a 'mode'")
    kwargs = dict(data)
    if kwargs.get("collusion_payload") is not None:
        kwargs["collusion_payload"] = np.asarray(kwargs["collusion_payload"], dtype=np.float64)
    return AttackPlan(**kwargs)


def _aggregator_from_dict(data: dict) -> Aggregator:
    fields = {f.name for f in dataclasses.fields(Aggregator)}
    _check_keys(data, fields, "aggregator")
    return Aggregator(**data)


def _llpf_from_dict(data: dict) -> LlpfConfig:
    fields = {f.name for f in dataclasses.fields(LlpfConfig)}
    _check_keys(data, fields, "llpf")
    return LlpfConfig(**data)


_SCALAR_FIELDS = {
    "n_sbs": int, "rounds": int, "mu_count": int, "cache_len_lo": int,
    "cache_len_hi": int, "i_min": int, "pretrain_size": int,
    "validation_size": int, "epochs": int, "batch_size": int,
    "learning_rate": float, "momentum": float, "sgd_steps": int,
    "local_mode": str, "persist_caches": bool, "exclude_fraction": float,
    "master_seed": int,
}


def config_from_dict(data: dict) -> ExperimentConfig:
    allowed = set(_SCALAR_FIELDS) | {"pretrain_epochs", "network", "channel",
                                     "attack", "aggregator", "llpf"}
    _check_keys(data, allowed, "experiment")
    kwargs = {}
    for key, kind in _SCALAR_FIELDS.items():
        if key in data:
            kwargs[key] = _typed(data[key], kind, key)
    if "pretrain_epochs" in data and data["pretrain_epochs"] is not None:
        kwargs["pretrain_epochs"] = _typed(data["pretrain_epochs"], int, "pretrain_epochs")
    if "network" in data:
        kwargs["network"] = _network_from_dict(data["network"])
    if "channel" in data:
        kwargs["channel"] = _channel_from_dict(data["channel"])
    if "attack" in data:
        kwargs["attack"] = _attack_from_dict(data["attack"])
    if "aggregator" in data:
        kwargs["aggregator"] = _aggregator_from_dict(data["aggregator"])
    if "llpf" in data:
        kwargs["llpf"] = _llpf_from_dict(data["llpf"])
    config = ExperimentConfig(**kwargs)
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def parse_config(path) -> ExperimentConfig:
    """Load an experiment config; an empty file means all defaults."""
    text = Path(path).read_text()
    if not text.strip():
        data = {}
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# --------------------------- metrics CSV -----------------------------------

def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def metrics_to_csv(records: list[MetricsRecord]) -> str:
    lines = [",".join(CSV_FIELDS)]
    for r in records:
        lines.append(",".join([
            str(r.round), _fmt(r.mse_gamma), _fmt(r.mse_delta), _fmt(r.mse_beta),
            r.aggregator, r.attack_mode, r.deployment, repr(float(r.r_a)), str(r.seed),
        ]))
    return "\n".join(lines) + "\n"


def write_metrics_csv(path, records: list[MetricsRecord]) -> None:
    _atomic_write(Path(path), metrics_to_csv(records))


def read_metrics_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_FIELDS:
            raise ValueError(f"{path}: unexpected CSV header {reader.fieldnames}")
        rows = []
        for row in reader:
            parsed = dict(row)
            parsed["round"] = int(row["round"])
            for key in ("mse_gamma", "mse_delta", "mse_beta"):
                parsed[key] = float(row[key]) if row[key] else None
            rows.append(parsed)
    return rows


# --------------------------- plotting --------------------------------------

def _series_for_metric(rows: list[dict], metric: str):
    keys = sorted({
        (r["aggregator"], r["attack_mode"], r["deployment"], r["r_a"], r["seed"])
        for r in rows
    })
    varying = [len({k[i] for k in keys}) > 1 for i in range(5)]
    series = []
    for key in keys:
        pts = sorted(
            (r["round"], r[metric]) for r in rows
            if (r["aggregator"], r["attack_mode"], r["deployment"], r["r_a"], r["seed"]) == key
            and r[metric] is not None
        )
        if not pts:
            continue
        parts = [key[0]] if not any(varying) else [
            part for i, part in enumerate([
                key[0], key[1], key[2], f"ra={key[3]}", f"seed={key[4]}",
            ]) if varying[i]
        ]
        series.append((" ".join(parts) if parts else key[0], pts))
    return series


def plot_metrics(rows: list[dict], out_dir: Path, prefix: str = "plot") -> list[Path]:
    written = []
    for metric in ("mse_gamma", "mse_delta", "mse_beta"):
        series = _series_for_metric(rows, metric)
        if not series:
            continue
        svg = plotting.render_line_chart(series, title=metric, y_label=metric)
        path = out_dir / f"{prefix}_{metric}.svg"
        _atomic_write(path, svg)
        written.append(path)
    return written


# --------------------------- baselines -------------------------------------

def baseline_modes(config: ExperimentConfig) -> tuple[ExperimentConfig, ExperimentConfig]:
    """The two attack-free pre-filtering baselines: full data, and data with
    the attack-ratio share of authentic samples excluded per cache."""
    ratio = config.attack.ratio if config.attack is not None else 0.0
    baseline1 = dataclasses.replace(config, attack=None, exclude_fraction=0.0)
    baseline2 = dataclasses.replace(config, attack=None, exclude_fraction=ratio)
    return baseline1, baseline2


# --------------------------- commands --------------------------------------

def _run_cell(args: tuple[ExperimentConfig, str]) -> tuple[str, str]:
    config, name = args
    records = run_experiment(config)
    return name, metrics_to_csv(records)


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    config.validate()
    records = run_experiment(config)
    out = Path(args.out)
    write_metrics_csv(out / "metrics.csv", records)
    print(f"wrote {out / 'metrics.csv'} ({len(records)} rows)")
    return 0


def _sweep_attack(base: Optional[AttackPlan], mode: str, deployment: str,
                  ratio: float) -> Optional[AttackPlan]:
    if mode == "none" or ratio == 0.0:
        return None
    stub = base if base is not None else AttackPlan(mode=mode)
    target = stub.target_sbs if stub.target_sbs is not None else 0
    return dataclasses.replace(
        stub, mode=mode, deployment=deployment, ratio=ratio,
        target_sbs=target if deployment == "targeted" else stub.target_sbs,
    )


def _cmd_sweep(args) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    base_attack = config.attack
    aggregators = args.aggregators.split(",") if args.aggregators else [config.aggregator.kind]
    modes = args.attack_modes.split(",") if args.attack_modes else (
        [base_attack.mode] if base_attack else ["none"])
    deployments = args.deployments.split(",") if args.deployments else (
        [base_attack.deployment] if base_attack else ["widespread"])
    ratios = [float(x) for x in args.ratios.split(",")] if args.ratios else (
        [base_attack.ratio] if base_attack else [0.0])
    seeds = [int(x) for x in args.seeds.split(",")] if args.seeds else [config.master_seed]
    for agg in aggregators:
        if agg not in AGGREGATOR_KINDS:
            raise ConfigError(f"unknown aggregator {agg!r}")
    for mode in modes:
        if mode != "none" and mode not in ATTACK_MODES:
            raise ConfigError(f"unknown attack mode {mode!r}")
    for dep in deployments:
        if dep not in DEPLOYMENTS:
            raise ConfigError(f"unknown deployment {dep!r}")

    cells = []
    for agg, mode, dep, ratio, seed in itertools.product(
            aggregators, modes, deployments, ratios, seeds):
        cell_cfg = dataclasses.replace(
            config,
            aggregator=dataclasses.replace(config.aggregator, kind=agg),
            attack=_sweep_attack(base_attack, mode, dep, ratio),
            master_seed=seed,
        )
        cell_cfg.validate()
        name = f"run_{agg}_{mode}_{dep}_ra{ratio:g}_seed{seed}.csv"
        cells.append((cell_cfg, name))

    out = Path(args.out)
    written: list[Path] = []
    try:
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(_run_cell, cells))
        else:
            results = [_run_cell(cell) for cell in cells]
        all_rows = []
        for name, text in results:
            path = out / name
            _atomic_write(path, text)
            written.append(path)
        for path in written:
            all_rows.extend(read_metrics_csv(path))
        series = _series_for_metric(all_rows, "mse_delta")
        svg = plotting.render_line_chart(series, title="mse_delta", y_label="mse_delta")
        _atomic_write(out / "sweep_mse_delta.svg", svg)
        written.append(out / "sweep_mse_delta.svg")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    print(f"wrote {len(written)} files to {out}")
    return 0


def _cmd_plot(args) -> int:
    rows = []
    for path in args.csv:
        rows.extend(read_metrics_csv(path))
    written = plot_metrics(rows, Path(args.out))
    print(f"wrote {len(written)} plots to {args.out}")
    return 0


def _cmd_baselines(args) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    out = Path(args.out)
    written = []
    try:
        for name, cfg in zip(("baseline1", "baseline2"), baseline_modes(config)):
            cfg.validate()
            records = run_experiment(cfg)
            path = out / f"{name}.csv"
            write_metrics_csv(path, records)
            written.append(path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    print(f"wrote {len(written)} baselines to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcsi",
        description="Federated channel-estimation poisoning/robustness simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment, write metrics.csv")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a grid of experiments")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--aggregators", default=None, help="comma list")
    sweep_p.add_argument("--attack-modes", dest="attack_modes", default=None)
    sweep_p.add_argument("--deployments", default=None)
    sweep_p.add_argument("--ratios", default=None)
    sweep_p.add_argument("--seeds", default=None)
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.set_defaults(func=_cmd_sweep)

    plot_p = sub.add_parser("plot", help="render CSV metrics to SVG charts")
    plot_p.add_argument("csv", nargs="+")
    plot_p.add_argument("--out", required=True)
    plot_p.set_defaults(func=_cmd_plot)

    base_p = sub.add_parser("baselines", help="run the two attack-free baselines")
    base_p.add_argument("--config", required=True)
    base_p.add_argument("--out", required=True)
    base_p.add_argument("--seed", type=int, default=None)
    base_p.set_defaults(func=_cmd_baselines)
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, RuntimeError, ValueError) as exc:
        print(f"fedcsi: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
