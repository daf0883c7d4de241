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
import math
import os
import pickle
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

from . import engine, nn, plotting
from ._fields import FieldTypeError
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
# The config dataclasses are the schema: a section's keys are its class's
# fields, and each class checks its own field types and ranges when built.

# the sections of an experiment config; the network is built on the channel's grid
_SECTIONS = {"channel": ChannelConfig, "attack": AttackPlan, "aggregator": Aggregator,
             "llpf": LlpfConfig}


def _object(data, section: str, allowed) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{section} config must be an object, got {data!r}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {section} config")


def _fields(cls, data, section: str) -> dict:
    """JSON object `data` as keyword arguments of dataclass `cls`, checked for
    unknown and missing keys; absent keys keep the field defaults."""
    fields = dataclasses.fields(cls)
    _object(data, section, {f.name for f in fields})
    for f in fields:
        if f.name not in data and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{section} config needs {f.name!r}")
    return dict(data)


def _build(cls, prefix: str, *args, **kwargs):
    """`cls(*args, **kwargs)`, whose checks raise a ConfigError; a field of
    the wrong type is named after `prefix`."""
    try:
        return cls(*args, **kwargs)
    except FieldTypeError as exc:
        raise ConfigError(prefix + str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _network_from_dict(data, channel: ChannelConfig) -> nn.NetworkSpec:
    """The network on the channel's grid, its layers listed as [kh, kw,
    filters, activation]; absent layers give the default stack."""
    _object(data, "network", {"layers"})
    height, width = channel.grid_height, channel.grid_width
    layers = data.get("layers")
    if layers is None:
        return nn.default_network_spec(height, width)
    if not isinstance(layers, list):
        raise ConfigError(f"network.layers must be a list, got {layers!r}")
    parsed = []
    for entry in layers:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ConfigError(f"network layer {entry!r} must be [kh, kw, filters, activation]")
        parsed.append(_build(nn.LayerSpec, "network layer size or activation: ", *entry))
    return _build(nn.NetworkSpec, "network.", layers=tuple(parsed), input_shape=(height, width, 2))


def config_from_dict(data: dict) -> ExperimentConfig:
    kwargs = _fields(ExperimentConfig, data, "experiment")
    for name, cls in _SECTIONS.items():
        if name in kwargs and not (name == "attack" and kwargs[name] is None):  # null: no attack
            kwargs[name] = _build(cls, f"{name}.", **_fields(cls, kwargs[name], name))
    kwargs["network"] = _network_from_dict(
        kwargs.get("network", {}), kwargs.get("channel", ChannelConfig()))
    return _build(ExperimentConfig, "", **kwargs)


def parse_config(path) -> ExperimentConfig:
    """Load an experiment config; an empty file means all defaults."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not text.strip():
        data = {}
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:  # an integer of more digits than int() takes
            raise ConfigError(f"{path}: {exc}") from exc
    try:
        return config_from_dict(data)
    except ConfigError as exc:
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


def read_metrics_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return _metrics_rows(fh, path)


def _metrics_rows(lines, source) -> list[dict]:
    """The rows of a metrics CSV given as an iterable of lines.  `round` and
    the metrics are parsed; `r_a` and `seed` are checked and kept as text.
    A bad row is named by its line."""
    reader = csv.reader(lines)
    rows = []
    try:
        header = next(reader, None)
        if header is None or tuple(header) != CSV_FIELDS:
            raise ValueError(f"{source}:1: unexpected CSV header {header}")
        for fields in reader:
            if not fields:
                continue  # a blank line
            where = f"{source}:{reader.line_num}"
            if len(fields) != len(CSV_FIELDS):
                raise ValueError(f"{where}: {len(fields)} fields, expected {len(CSV_FIELDS)}")
            row = dict(zip(CSV_FIELDS, fields))
            row["round"] = _number(int, row["round"], "round", where)
            _number(float, row["r_a"], "r_a", where)
            _number(int, row["seed"], "seed", where)
            for key in ("mse_gamma", "mse_delta", "mse_beta"):
                row[key] = _number(float, row[key], key, where) if row[key] else None
            rows.append(row)
    except csv.Error as exc:
        raise ValueError(f"{source}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: {exc}") from exc
    return rows


def _number(kind: type, text: str, name: str, where: str):
    """`text` as an int or a finite float, or a ValueError naming `where`."""
    try:
        value = kind(text)
        if math.isfinite(value):  # an int beyond the float range overflows
            return value
    except (ValueError, OverflowError):
        pass
    wanted = "an integer" if kind is int else "a finite number"
    raise ValueError(f"{where}: {name} must be {wanted}, got {text!r}")


def _write_all(out: Path, files: list[tuple[str, str]]) -> None:
    """Write each (name, text) file under `out` atomically: all of them, or
    none if one write fails."""
    written: list[Path] = []
    try:
        for name, text in files:
            _atomic_write(out / name, text)
            written.append(out / name)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


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


# --------------------------- baselines -------------------------------------

def baseline_modes(config: ExperimentConfig) -> tuple[ExperimentConfig, ExperimentConfig]:
    """The two attack-free pre-filtering baselines: full data, and data with
    the attack-ratio share of authentic samples excluded per cache."""
    ratio = config.attack.ratio if config.attack is not None else 0.0
    baseline1 = dataclasses.replace(config, attack=None, exclude_fraction=0.0)
    baseline2 = dataclasses.replace(config, attack=None, exclude_fraction=ratio)
    return baseline1, baseline2


# --------------------------- commands --------------------------------------

def _config(args) -> ExperimentConfig:
    """The `--config` file, with `--seed` as its master seed if given."""
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    return config


def _run_config(config: ExperimentConfig) -> str:
    return metrics_to_csv(run_experiment(config))


def _run_cells(cells: list[tuple[str, ExperimentConfig]]) -> list[tuple[str, str]]:
    """The (file name, metrics CSV) of each (file name, config) cell, in
    order; the file names are checked before the first experiment runs, and
    each distinct config runs once, on at most one process per usable CPU."""
    names = set()
    for name, _ in cells:
        if name in names:
            raise ConfigError(f"two cells would write {name}")
        names.add(name)
    # pickles differ for any two configs that differ (a repr can elide a
    # large array such as a collusion payload); the type rule stores
    # `rounds=2.0` as the int 2, so it shares the key of `rounds=2`
    keys = [pickle.dumps(config) for _, config in cells]
    configs = dict(zip(keys, (config for _, config in cells)))
    # whole experiments share no data, so a pool of them beats one process
    # with helpers: on 2 CPUs, two paper-grid experiments took 22.6 s in a
    # pool and 26.6 s here with a helper
    workers = min(len(configs), engine.usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            texts = dict(zip(configs, pool.map(_run_config, configs.values())))
    else:  # here the engine's helper processes can share the large calls
        texts = {key: _run_config(config) for key, config in configs.items()}
    return [(name, texts[key]) for (name, _), key in zip(cells, keys)]


def _cmd_run(args) -> int:
    out = Path(args.out)
    files = _run_cells([("metrics.csv", _config(args))])
    _write_all(out, files)
    print(f"wrote {out / 'metrics.csv'} ({len(files[0][1].splitlines()) - 1} rows)")
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
    config = _config(args)
    base_attack = config.attack
    aggregators = args.aggregators.split(",") if args.aggregators else [config.aggregator.kind]
    modes = args.attack_modes.split(",") if args.attack_modes else (
        [base_attack.mode] if base_attack else ["none"])
    deployments = args.deployments.split(",") if args.deployments else (
        [base_attack.deployment] if base_attack else ["widespread"])
    ratios = [float(x) for x in args.ratios.split(",")] if args.ratios else (
        [base_attack.ratio] if base_attack else [0.0])
    seeds = [int(x) for x in args.seeds.split(",")] if args.seeds else [config.master_seed]
    for axis, values, known in (("aggregator", aggregators, AGGREGATOR_KINDS),
                                ("attack mode", modes, ("none", *ATTACK_MODES)),
                                ("deployment", deployments, DEPLOYMENTS)):
        for value in values:
            if value not in known:
                raise ConfigError(f"unknown {axis} {value!r}")

    # every attack-free (mode, deployment, ratio) is the one "none" cell
    attacks = []
    for mode, dep, ratio in itertools.product(modes, deployments, ratios):
        attack = _sweep_attack(base_attack, mode, dep, ratio)
        if attack is not None or all(a is not None for _, a in attacks):
            attacks.append((f"{mode}_{dep}_ra{ratio:g}" if attack else "none", attack))
    cells = [
        (f"run_{agg}_{label}_seed{seed}.csv", dataclasses.replace(
            config,
            aggregator=dataclasses.replace(config.aggregator, kind=agg),
            attack=attack,
            master_seed=seed,
        ))
        for agg, (label, attack), seed in itertools.product(aggregators, attacks, seeds)
    ]
    files = _run_cells(cells)
    rows = [row for name, text in files for row in _metrics_rows(text.splitlines(), name)]
    svg = plotting.render_line_chart(
        _series_for_metric(rows, "mse_delta"), title="mse_delta", y_label="mse_delta")
    files.append(("sweep_mse_delta.svg", svg))
    out = Path(args.out)
    _write_all(out, files)
    print(f"wrote {len(files)} files to {out}")
    return 0


def _cmd_plot(args) -> int:
    rows = [row for path in args.csv for row in read_metrics_csv(path)]
    files = []
    for metric in ("mse_gamma", "mse_delta", "mse_beta"):
        series = _series_for_metric(rows, metric)
        if series:
            svg = plotting.render_line_chart(series, title=metric, y_label=metric)
            files.append((f"plot_{metric}.svg", svg))
    _write_all(Path(args.out), files)
    print(f"wrote {len(files)} plots to {args.out}")
    return 0


def _cmd_baselines(args) -> int:
    out = Path(args.out)
    files = _run_cells(list(zip(("baseline1.csv", "baseline2.csv"),
                                baseline_modes(_config(args)))))
    _write_all(out, files)
    print(f"wrote {len(files)} baselines to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcsi",
        description="Federated channel-estimation poisoning/robustness simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--out", required=True)
    common.add_argument("--seed", type=int, default=None)

    run_p = sub.add_parser("run", parents=[common], help="run one experiment, write metrics.csv")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[common], help="run a grid of experiments")
    sweep_p.add_argument("--aggregators", default=None, help="comma list")
    sweep_p.add_argument("--attack-modes", dest="attack_modes", default=None)
    sweep_p.add_argument("--deployments", default=None)
    sweep_p.add_argument("--ratios", default=None)
    sweep_p.add_argument("--seeds", default=None)
    sweep_p.set_defaults(func=_cmd_sweep)

    plot_p = sub.add_parser("plot", help="render CSV metrics to SVG charts")
    plot_p.add_argument("csv", nargs="+")
    plot_p.add_argument("--out", required=True)
    plot_p.set_defaults(func=_cmd_plot)

    base_p = sub.add_parser("baselines", parents=[common],
                            help="run the two attack-free baselines")
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
