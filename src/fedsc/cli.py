"""Command line front end.

Subcommands: ``generate`` (write train/test dataset files), ``run`` (one
federated experiment, metrics to CSV), ``compare`` (two metrics files side by
side), ``theory`` (bound calculators on a constants file).

Configuration is layered: built-in defaults, then ``--preset``, then an
INI-style config file of ``key = value`` lines under ``[data]``,
``[partition]``, ``[federation]`` and ``[output]`` sections, then flags.
Every ``[partition]`` and ``[federation]`` key, and its flag, is the
same-named field of :class:`PartitionConfig`, :class:`FederationConfig` or
:class:`OptimizerConfig` and takes its type and default from there, except
that ``threads`` defaults to the CPUs this process may use; only the
``[data]`` knobs and the output directory live in :class:`RunConfig`.
Unknown config keys are hard errors.  Exit codes: 0 success, 2 configuration
error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .data import (
    apply_long_tail,
    generate_gaussian_blobs,
    load_dataset,
    PartitionConfig,
    save_dataset,
    split_holdout,
)
from .errors import (
    FedscError,
    InvalidArgumentError,
    InvalidConfigError,
    InvalidConstantsError,
)
from .federation import (
    FederationConfig,
    read_metrics_csv,
    rounds_to_accuracy,
    run_experiment,
    usable_cpus,
    write_metrics_csv,
    write_run_metadata,
)
from .model import OptimizerConfig
from .theory import (
    TheoryConstants,
    theorem1_bound,
    theorem2_eta_threshold,
    theorem3_min_rounds,
)

@dataclass
class RunConfig:
    """The knobs no library config has: the ``[data]`` section and ``out``.

    ``generate`` reads them all; ``run`` reads only ``out`` and describes
    its data from the files it loads.
    """

    num_classes: int = 10
    per_class: int = 500
    dim: int = 16
    separation: float = 4.0
    rho: float = 1.0  # long-tail ratio of the train split; 1 keeps every sample
    out: str = "runs"


def _names(config, *skip: str) -> tuple[str, ...]:
    return tuple(f.name for f in fields(config) if f.name not in skip)


# config-file schema: section -> keys, each the field of the same name
# (``[output] dir`` is ``out``); num_clients is keyed under [partition] and
# seed under [federation], though each feeds both configs
_SCHEMA = {
    "data": _names(RunConfig, "out"),
    "partition": _names(PartitionConfig, "seed"),
    "federation": (_names(FederationConfig, "num_clients", "optimizer")
                   + _names(OptimizerConfig)),
    "output": ("dir",),
}

_PRESETS = {
    "desk": {"rounds": 30, "local_epochs": 5},
}

# a field's annotation (a string under postponed evaluation) -> its parser
_PARSERS = {"int": int, "float": float}

# num_clients and seed feed both PartitionConfig and FederationConfig
_FIELD_TYPES = {
    f.name: _PARSERS.get(f.type, str)
    for config in (RunConfig, PartitionConfig, FederationConfig, OptimizerConfig)
    for f in fields(config) if f.name != "optimizer"
}


def _coerce(field_name: str, raw: str):
    try:
        return _FIELD_TYPES[field_name](raw)
    except ValueError as exc:
        raise InvalidConfigError(f"key '{field_name}': {exc}") from exc


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config file: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot parse config file: {exc}") from exc
    out = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise InvalidConfigError(f"unknown config section '[{section}]'")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise InvalidConfigError(
                    f"unknown config key '{key}' in section '[{section}]'"
                )
            field_name = "out" if (section, key) == ("output", "dir") else key
            out[field_name] = _coerce(field_name, raw)
    return out


def _resolve_run_config(
    args: argparse.Namespace,
) -> tuple[RunConfig, PartitionConfig, FederationConfig]:
    """Layer defaults, preset, config file and flags, then build the three
    configs; any invalid value is a config error."""
    values: dict = {"threads": usable_cpus()}
    if args.preset:
        if args.preset not in _PRESETS:
            raise InvalidConfigError(f"unknown preset '{args.preset}'")
        values.update(_PRESETS[args.preset])
    if args.config:
        values.update(_load_config_file(args.config))
    for name in _FIELD_TYPES:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    for name, value in values.items():
        if _FIELD_TYPES[name] is float and not math.isfinite(value):
            raise InvalidConfigError(f"{name} must be finite, got {value}")

    def build(config, **nested):
        return config(**{f.name: values[f.name] for f in fields(config)
                         if f.name in values}, **nested)

    try:
        return (build(RunConfig), build(PartitionConfig),
                build(FederationConfig, optimizer=build(OptimizerConfig)))
    except InvalidArgumentError as exc:
        raise InvalidConfigError(str(exc)) from exc


def _cmd_generate(cfg: RunConfig, seed: int) -> int:
    """Write train.fsd (thinned by ``rho``), test.fsd and a per-class count table."""
    try:
        dataset = generate_gaussian_blobs(cfg.num_classes, cfg.per_class,
                                          cfg.dim, cfg.separation, seed)
        train, test = split_holdout(dataset, seed=seed)
        train = apply_long_tail(train, cfg.rho, seed)
    except InvalidArgumentError as exc:
        # every input to generate is configuration
        raise InvalidConfigError(str(exc)) from exc
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(out / "train.fsd", train)
    save_dataset(out / "test.fsd", test)
    print(f"wrote {out / 'train.fsd'} ({train.num_samples} samples)")
    print(f"wrote {out / 'test.fsd'} ({test.num_samples} samples)")
    print("class train_count test_count")
    for j in range(cfg.num_classes):
        print(f"{j + 1} {train.class_counts[j]} {test.class_counts[j]}")
    return 0


def _cmd_run(out: str, partition: PartitionConfig, federation: FederationConfig) -> int:
    """Run one experiment against previously generated dataset files."""
    out = Path(out)
    train = load_dataset(out / "train.fsd")
    test = load_dataset(out / "test.fsd")
    result = run_experiment(federation, train, partition, test=test)

    metrics_path = out / f"metrics_{federation.algorithm}.csv"
    write_metrics_csv(metrics_path, result.metrics)
    meta = {"num_classes": train.num_classes, "dim": train.dim,
            "train_samples": train.num_samples, "test_samples": test.num_samples}
    for config in (partition, federation, federation.optimizer):
        meta.update((f.name, getattr(config, f.name)) for f in fields(config)
                    if f.name != "optimizer")
    meta["aggregation_weights"] = "renormalized-sigmoid"
    meta["bootstrap"] = "ce-only-until-prototypes-exist"
    meta["prototype_refresh"] = "latest-report-per-client"
    write_run_metadata(out / f"meta_{federation.algorithm}.txt", meta)

    for m in result.metrics:
        print(f"round {m.round} accuracy {m.accuracy:.6f} loss {m.loss_total:.6f}")
    print(f"wrote {metrics_path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Key=value comparison of two metrics files."""
    if args.threshold is not None and not math.isfinite(args.threshold):
        raise InvalidConfigError(f"threshold must be finite, got {args.threshold}")
    metrics_a = read_metrics_csv(args.metrics_a)
    metrics_b = read_metrics_csv(args.metrics_b)
    if not metrics_a or not metrics_b:
        raise InvalidArgumentError("metrics files must contain at least one round")
    final_a, final_b = metrics_a[-1].accuracy, metrics_b[-1].accuracy
    threshold = args.threshold if args.threshold is not None else 0.9 * final_a
    hit_a = rounds_to_accuracy(metrics_a, threshold)
    hit_b = rounds_to_accuracy(metrics_b, threshold)
    print(f"final_accuracy_a={final_a:.6f}")
    print(f"final_accuracy_b={final_b:.6f}")
    print(f"delta_final_accuracy={final_b - final_a:.6f}")
    print(f"threshold={threshold:.6f}")
    print(f"rounds_to_threshold_a={'none' if hit_a is None else hit_a}")
    print(f"rounds_to_threshold_b={'none' if hit_b is None else hit_b}")
    if hit_a is not None and hit_b is not None:
        print(f"delta_rounds_to_threshold={hit_b - hit_a}")
    else:
        print("delta_rounds_to_threshold=none")
    return 0


# TheoryConstants' fields, plus l_re: the loss theorem 1 starts from
_CONSTANT_KEYS = {f.name: _PARSERS.get(f.type, float)
                  for f in fields(TheoryConstants)} | {"l_re": float}


def _load_constants(path: str) -> dict:
    values, line_of = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConstantsError(f"cannot read constants file: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConstantsError(f"line {lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _CONSTANT_KEYS:
            raise InvalidConstantsError(f"line {lineno}: unknown constant '{key}'")
        if line_of.setdefault(key, lineno) != lineno:
            raise InvalidConstantsError(
                f"line {lineno}: constant '{key}' already set on line {line_of[key]}")
        try:
            values[key] = _CONSTANT_KEYS[key](raw)
        except ValueError as exc:
            raise InvalidConstantsError(f"line {lineno}: {exc}") from exc
        if _CONSTANT_KEYS[key] is float and not math.isfinite(values[key]):
            raise InvalidConstantsError(f"line {lineno}: {key} must be finite")
    return values


def _cmd_theory(args: argparse.Namespace) -> int:
    """Evaluate the bound calculators on a key=value constants file."""
    values = _load_constants(args.constants)
    l_re = values.pop("l_re", None)
    missing = [f.name for f in fields(TheoryConstants)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise InvalidConstantsError(f"missing constants: {', '.join(missing)}")
    constants = TheoryConstants(**values)
    if l_re is not None:
        print(f"theorem1_bound={theorem1_bound(l_re, constants):.6f}")
    print(f"theorem2_eta_threshold={theorem2_eta_threshold(constants):.6f}")
    if constants.xi is not None:
        plan = theorem3_min_rounds(constants)
        print(f"theorem3_min_rounds={plan.min_rounds:.6f}")
        print(f"theorem3_eta_max={plan.eta_max:.6f}")
    return 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI-style config file")
    parser.add_argument("--preset", help="named preset (desk)")
    for name, kind in _FIELD_TYPES.items():
        parser.add_argument("--" + name.replace("_", "-"), type=kind, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsc",
        description="Desk-scale federated learning sandbox with prototype "
                    "collaboration and executable convergence bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write train/test dataset files")
    _add_run_flags(gen)

    run = sub.add_parser("run", help="run one federated experiment")
    _add_run_flags(run)

    cmp_ = sub.add_parser("compare", help="compare two metrics CSV files")
    cmp_.add_argument("metrics_a")
    cmp_.add_argument("metrics_b")
    cmp_.add_argument("--threshold", type=float, default=None,
                      help="accuracy target (default: 90%% of file A's final)")

    theory = sub.add_parser("theory", help="evaluate the bound calculators")
    theory.add_argument("constants", help="key=value constants file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("generate", "run"):
            cfg, partition, federation = _resolve_run_config(args)
        if args.command == "generate":
            return _cmd_generate(cfg, partition.seed)
        if args.command == "run":
            return _cmd_run(cfg.out, partition, federation)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_theory(args)
    except (InvalidConfigError, InvalidConstantsError) as exc:
        print(f"fedsc: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except FedscError as exc:
        print(f"fedsc: {exc.code}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"fedsc: io-error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
