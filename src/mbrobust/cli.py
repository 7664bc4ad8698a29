"""Command-line front end.

Subcommands: ``diagnose``, ``split``, ``perturb``, ``train``, ``evaluate``,
``sweep``, ``gradcheck``.  Exit codes: 0 success, 1 usage/config error,
2 data error, 3 numerical failure.

Training options can come from a flat ``key = value`` config file; explicit
flags override file values, which override built-in defaults.  Commands that
write an output directory echo the effective configuration into it so a run
is reproducible from that file alone.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace

from . import seeds
from .data import (
    DatasetError,
    PerturbationSpec,
    diagnose,
    drop_behaviors,
    load_dataset,
    load_split,
    perturb,
    save_dataset,
    split_leave_one_out,
    write_split,
)
from .evaluation import evaluate, robustness_sweep, sweep_csv
from .gradcheck import DEFAULT_TOLERANCE, run_gradcheck
from .losses import CHOICES, IRM_VARIANTS, ORM_SCOPES, RRM_MODES, Hyperparameters
from .training import (
    NonFiniteGradientError,
    TrainConfig,
    format_log,
    load_checkpoint,
    manifest_hash,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _split_list(raw: str) -> tuple[str, ...]:
    """The entries of a comma-separated list, stripped, empty ones dropped."""
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _behavior_list(raw: str) -> tuple[str, ...]:
    """A ``--behaviors`` list; one that names no behavior is a config error."""
    behaviors = _split_list(raw)
    if not behaviors:
        raise ValueError(f"--behaviors names no behavior: {raw!r}")
    return behaviors


def _parse_ks(raw: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(tok) for tok in _split_list(raw))
    except ValueError:
        ks = ()
    if not ks or any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError(f"bad cutoff list {raw!r}")
    return ks


def _parse_seed(raw: str) -> int:
    try:
        seed = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if seed < 0:  # numpy seeds every sub-stream from it and takes no negatives
        raise argparse.ArgumentTypeError(f"root seed must be >= 0, got {seed}")
    return seed


# Config keys and their value parsers.  The Hyperparameters fields and
# TrainConfig's run fields are derived from the dataclasses (typed by their
# defaults), so a new field reaches the config file, the flags and the echo
# at once; ``drop_behaviors`` is not a training-config field.  A loss term is
# switched off by its zero weight, ``lambda_rrm = 0`` or ``lambda_orm = 0``.
_HP_KEYS = {f.name: type(f.default) for f in fields(Hyperparameters)}
_RUN_KEYS = {f.name: type(f.default) for f in fields(TrainConfig) if f.name != "hp"}
_CONFIG_KEYS = {**_HP_KEYS, **_RUN_KEYS, "drop_behaviors": str}


def read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file (``#`` comments, blank lines ok)."""
    values = {}
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](raw)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: bad value {raw!r} for {key!r}"
            ) from None
    return values


def resolve_run_config(args) -> tuple[TrainConfig, tuple[str, ...]]:
    """Merge defaults, config file, and flags (flags win).

    Returns the training config and the auxiliary behaviors to drop.
    """
    values = read_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    hp = Hyperparameters(**{k: values[k] for k in _HP_KEYS if k in values})
    cfg = TrainConfig(hp=hp, **{k: values[k] for k in _RUN_KEYS if k in values})
    return cfg, _split_list(values.get("drop_behaviors", ""))


def echo_config(cfg: TrainConfig, drop: tuple[str, ...], out_dir: str) -> None:
    items = [(k, getattr(cfg.hp, k)) for k in _HP_KEYS]
    items += [(k, getattr(cfg, k)) for k in _RUN_KEYS]
    items.append(("drop_behaviors", ",".join(drop)))
    lines = [f"{k} = {v}" for k, v in items]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.cfg"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_any_split(path: str):
    """Accept either a raw dataset directory or a pre-split directory, which
    is recognized by its ``users.map``: only `write_split` writes one, and no
    behavior file can have that name."""
    if os.path.isfile(os.path.join(path, "users.map")):
        return load_split(path)
    return split_leave_one_out(load_dataset(path))


def _drop_auxiliary(ds, drop: tuple[str, ...]):
    """``ds`` without ``drop`` (a config key, so naming the target is a config error)."""
    if ds.manifest.target in drop:
        raise ValueError("drop_behaviors must not name the target behavior")
    return drop_behaviors(ds, drop) if drop else ds


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_diagnose(args) -> int:
    ds = load_dataset(args.dataset)
    report = diagnose(ds)
    payload = report.to_json_dict()
    if args.behaviors is not None:
        wanted = _behavior_list(args.behaviors)
        unknown = set(wanted) - set(ds.manifest.behaviors)
        if unknown:
            raise DatasetError(f"unknown behaviors {sorted(unknown)}")
        payload["bar"] = {b: payload["bar"][b] for b in wanted}
        payload["counts"] = {b: payload["counts"][b] for b in wanted}
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_split(args) -> int:
    ds = load_dataset(args.dataset)
    split = split_leave_one_out(ds)
    out = args.out or "split_out"
    write_split(split, out)
    print(
        f"wrote split to {out}: {len(split.test)} test users, "
        f"{len(split.validation)} validation users, "
        f"{split.users_without_holdout} users without holdout"
    )
    return EXIT_OK


def cmd_perturb(args) -> int:
    ds = load_dataset(args.dataset)
    behaviors = (ds.manifest.auxiliary if args.behaviors is None
                 else _behavior_list(args.behaviors))
    root_seed = args.seed if args.seed is not None else 0
    spec = PerturbationSpec(
        mode=args.mode,
        ratio=args.ratio,
        behaviors=behaviors,
        seed=seeds.stream_seed(root_seed, "perturbation"),
    )
    out = args.out or "perturbed_out"
    save_dataset(perturb(ds, spec), out)
    print(f"wrote perturbed dataset to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, drop = resolve_run_config(args)
    split = _load_any_split(args.dataset)
    split = replace(split, train=_drop_auxiliary(split.train, drop))

    out = args.out or "train_out"
    echo_config(cfg, drop, out)
    state, rows = train(split, cfg)

    with open(os.path.join(out, "train_log.csv"), "w", encoding="utf-8") as fh:
        fh.write(format_log(rows, split.train.active_behaviors))
    save_checkpoint(state, split.train.manifest, os.path.join(out, "checkpoint.npz"))
    if split.validation:
        report = evaluate(state, split, pairs=split.validation)
        _write_json(report.to_json_dict(), os.path.join(out, "validation_report.json"))
    print(f"wrote checkpoint and log to {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    split = _load_any_split(args.dataset)
    state, meta = load_checkpoint(args.checkpoint)
    # a model trained with --drop-behaviors is evaluated on its own behaviors
    absent = tuple(b for b in split.train.manifest.behaviors if b not in meta["behaviors"])
    if absent:
        split = replace(split, train=drop_behaviors(split.train, absent))
    expected = manifest_hash(split.train.manifest)
    if meta["manifest_hash"] != expected:
        raise DatasetError(
            "checkpoint manifest hash does not match the dataset; "
            "was it trained on different data?"
        )
    if not split.test:
        raise DatasetError(f"{args.dataset}: no held-out pairs to evaluate")
    report = evaluate(state, split, ks=args.ks, exclude_train=not args.no_exclusion)
    _write_json(report.to_json_dict(), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, drop = resolve_run_config(args)
    ds = _drop_auxiliary(load_dataset(args.dataset), drop)
    ratios = [float(tok) for tok in _split_list(args.ratios)]
    modes = _split_list(args.modes)
    if not ratios or not modes:  # an empty grid would hide a bad mode or ratio
        raise ValueError("sweep needs at least one ratio and one mode")
    out = args.out or "sweep_out"
    # a bad cell or data without held-out pairs fails before any output
    rows = robustness_sweep(ds, cfg, ratios=ratios, modes=modes, seed=cfg.hp.seed,
                            on_checked=lambda: echo_config(cfg, drop, out))
    csv_text = sweep_csv(rows)
    with open(os.path.join(out, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    sizes = []
    for token in _split_list(args.sizes):
        try:
            u, i, b = (int(part) for part in token.split("x"))
        except ValueError:
            raise ValueError(f"bad size {token!r}; expected UxIxB") from None
        sizes.append((u, i, b))
    seed = args.seed if args.seed is not None else 0
    results = run_gradcheck(
        seed=seed,
        sizes=tuple(sizes),
        variants=(args.variant,) if args.variant else IRM_VARIANTS,
        modes=(args.mode,) if args.mode else RRM_MODES,
        scopes=(args.scope,) if args.scope else ORM_SCOPES,
    )
    worst = 0.0
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.path}  max_rel_error={r.max_rel_error:.3e}")
        worst = max(worst, r.max_rel_error)
        ok = ok and r.passed
    print(f"{'all paths passed' if ok else 'FAILURES above'}; "
          f"worst max_rel_error={worst:.3e} (tolerance {DEFAULT_TOLERANCE:.0e})")
    return EXIT_OK if ok else EXIT_NUMERIC


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for key, parse in {**_HP_KEYS, **_RUN_KEYS}.items():
        if key != "seed":  # the global --seed
            p.add_argument("--" + key.replace("_", "-"), type=parse,
                           choices=CHOICES.get(key))
    p.add_argument("--drop-behaviors",
                   help="comma-separated auxiliary behaviors to drop")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mbrobust", description=__doc__)
    parser.add_argument("--seed", type=_parse_seed, default=None,
                        help="root seed for every random sub-stream (default 0)")
    parser.add_argument("--out", help="output file or directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagnose", help="alignment/direct-target diagnostics")
    p.add_argument("dataset")
    p.add_argument("--behaviors", help="restrict the report to these behaviors")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("split", help="write the leave-one-out split")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("perturb", help="add/remove auxiliary edges")
    p.add_argument("dataset")
    p.add_argument("--mode", required=True, choices=("add", "remove"))
    p.add_argument("--ratio", required=True, type=float)
    p.add_argument("--behaviors", help="defaults to all auxiliary behaviors")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("train", help="train and write a checkpoint")
    p.add_argument("dataset")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="full-ranking evaluation of a checkpoint")
    p.add_argument("dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ks", type=_parse_ks, default=(10, 20))
    p.add_argument("--no-exclusion", dest="no_exclusion", action="store_true",
                   help="rank against all items, training positives included")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="noise-injection robustness sweep")
    p.add_argument("dataset")
    p.add_argument("--ratios", default="0.1,0.3,0.5")
    p.add_argument("--modes", default="add,remove")
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--sizes", default="6x6x2,8x8x3")
    p.add_argument("--variant", choices=IRM_VARIANTS)
    p.add_argument("--mode", choices=RRM_MODES)
    p.add_argument("--scope", choices=ORM_SCOPES)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (DatasetError, OSError) as exc:  # an OS error's message names the path
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteGradientError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
