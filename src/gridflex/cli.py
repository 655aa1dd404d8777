"""Command-line entry points: generate / train / select / run / sweep."""

from __future__ import annotations

import os

# One BLAS thread per matmul unless the user chose otherwise, set before numpy
# loads the library: training then runs one sample per CPU (forecaster.WORKERS),
# and the bytes it writes do not depend on the host's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import typing  # noqa: E402
from dataclasses import MISSING, asdict, dataclass, fields  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from .community import (  # noqa: E402
    Community,
    ScenarioConfig,
    emergency_schedule,
    generate_community,
    load_community,
    save_community,
    utf8_lines,
)
from .errors import InvalidSpecError, ReferentialIntegrityError, ValidationError  # noqa: E402
from .forecaster import (  # noqa: E402
    Hyper,
    build_model,
    make_dataset,
    similarity_matrix,
    train,
)
from .harness import (  # noqa: E402
    CommunitySpec,
    SweepSpec,
    noise_experiment,
    oracle_truth,
    run_scenario,
    sweep_incentive,
    sweep_rate_hike,
    sweep_reduction,
)
from .selector import run_selection  # noqa: E402


def _write_table(path: Path, header, rows) -> None:
    """A UTF-8 CSV table: the header, then `rows`, each cell as its caller formatted it."""
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def rows_to_csv(rows: list[dict], path: Path) -> None:
    """The rows as a CSV table under the first row's keys, floats as %.10g."""
    if not rows:
        raise InvalidSpecError("no rows to write")
    _write_table(path, rows[0], ([f"{r[c]:.10g}" if isinstance(r[c], float) else r[c]
                                  for c in rows[0]] for r in rows))


def _write_similarity(path: Path, ids: tuple[str, ...], matrix: np.ndarray) -> None:
    _write_table(path, ids, (map(repr, row) for row in matrix.tolist()))


def _read_similarity(path: Path, ids: tuple[str, ...]) -> np.ndarray:
    """The similarity CSV's matrix, its rows and columns put in the order of `ids`."""
    with utf8_lines(path), path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path.name}: empty file, no header row")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValidationError(f"{path.name} row {lineno}: non-numeric entry") from None
    column = {hid: j for j, hid in enumerate(header)}
    if len(column) != len(header) or column.keys() != set(ids):
        raise ReferentialIntegrityError(f"{path.name}: header ids do not match the community's")
    if len(rows) != len(header) or any(len(row) != len(header) for row in rows):
        raise ValidationError(f"{path.name}: matrix is not {len(header)} x {len(header)}")
    order = [column[hid] for hid in ids]
    return np.array(rows)[np.ix_(order, order)]


def _load_or_generate(args) -> Community:
    if args.seed < 0:  # also for a loaded community: train and select still draw with it
        raise InvalidSpecError(f"--seed must be >= 0, got {args.seed}")
    if args.households_csv and args.loads_csv:
        return load_community(args.households_csv, args.loads_csv)
    return generate_community(
        args.counties, args.neighborhoods, args.households,
        seed=args.seed, days=args.days,
    )


def _add_size_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--counties", type=int, default=5)
    p.add_argument("--neighborhoods", type=int, default=1)
    p.add_argument("--households", type=int, default=50)
    p.add_argument("--days", type=int, default=30)


def _add_community_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--households-csv", type=Path, default=None)
    p.add_argument("--loads-csv", type=Path, default=None)
    _add_size_args(p)


@dataclass(frozen=True)
class _RunOptions:
    """The keys of a `run` config outside its sections."""

    hidden_size: int = 32
    head_count: int = 4
    stride: int = 24
    shortfall_kwh_per_day: float = 0.0


def _fits(value, hint) -> bool:
    """Whether a JSON value can stand for a field annotated `hint`: a finite int
    or float for a float, a list of those of the right length for a tuple of floats."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return (isinstance(value, list) and all(_fits(v, float) for v in value)
                and (args[-1] is Ellipsis or len(value) == len(args)))
    if hint is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    return isinstance(value, hint) and not isinstance(value, bool)


def _read_json(path: Path):
    """The file's JSON value; malformed JSON raises InvalidSpecError naming the spot."""
    with utf8_lines(path, InvalidSpecError):
        text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidSpecError(f"{path.name} line {e.lineno} column {e.colno}: {e.msg}") from None


def _from_json(cls, raw, where: str, sections: tuple[str, ...] = (), **given):
    """`cls` from the JSON object `raw`, its lists made tuples. The caller sets
    the fields in `given` and reads the nested objects under `sections` itself.
    Any other key that `cls` does not take, a required one that `raw` lacks, or
    a value of the wrong type raises InvalidSpecError naming the key."""
    if not isinstance(raw, dict):
        raise InvalidSpecError(f"{where}: expected a JSON object")
    known = {f.name for f in fields(cls)} - given.keys()
    hints = typing.get_type_hints(cls)
    for key, value in raw.items():
        if key not in known and key not in sections:
            raise InvalidSpecError(f"{where}: unexpected key {key!r}")
        hint = hints.get(key)
        if key in known and not _fits(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else hint
            raise InvalidSpecError(f"{where}: {key!r} must be {expected}, got {value!r}")
    for f in fields(cls):
        if (f.name not in raw and f.name not in given
                and f.default is MISSING and f.default_factory is MISSING):
            raise InvalidSpecError(f"{where}: missing key {f.name!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v
                  for k, v in raw.items() if k in known}, **given)


def cmd_generate(args) -> int:
    out = args.out_dir
    community = generate_community(
        args.counties, args.neighborhoods, args.households,
        seed=args.seed, days=args.days, baseline_rate=args.baseline_rate,
    )
    save_community(community, out / "households.csv", out / "loads.csv")
    _write_manifest(out, vars_serializable(args), [args.seed], "households.csv", "loads.csv")
    print(f"wrote {len(community)} households to {out}")
    return 0


def cmd_train(args) -> int:
    out = args.out_dir
    community = _load_or_generate(args)
    data = make_dataset(community, window=24, stride=args.stride)
    hyper = Hyper(epochs=args.epochs, learning_rate=args.learning_rate,
                  batch_size=args.batch_size)
    if hyper.epochs < 1:
        raise InvalidSpecError(f"--epochs must be >= 1: loss_history.csv has one row per "
                               f"epoch, got {args.epochs}")
    model = build_model(np.random.default_rng(args.seed), hidden_size=args.hidden,
                        head_count=args.heads, socio_width=data.socio.shape[1])
    result = train(model, data, hyper)
    similarity = similarity_matrix(model, data)
    _write_similarity(out / "similarity.csv", community.ids, similarity)
    rows_to_csv(
        [{"epoch": i, "train_mse": t, "val_mse": v}
         for i, (t, v) in enumerate(zip(result.train_mse, result.val_mse))],
        out / "loss_history.csv",
    )
    _write_manifest(out, vars_serializable(args), [args.seed],
                    "similarity.csv", "loss_history.csv")
    print(f"initial val MSE {result.initial_val_mse:.6f} -> final "
          f"{result.val_mse[-1]:.6f}")
    return 0


def cmd_select(args) -> int:
    out = args.out_dir
    community = _load_or_generate(args)
    similarity = _read_similarity(args.similarity_csv, community.ids)
    fewest, most = ScenarioConfig.emergency_day_count, community.daily.shape[1]
    if not fewest <= args.days <= most:
        raise InvalidSpecError(f"--days {args.days} must lie between the {fewest} emergency "
                               f"days and the {most} days the loads cover")
    config = ScenarioConfig(cycle_days=args.days, rng_seed=args.seed,
                            default_incentive=args.incentive,
                            target_reduction_pct=args.reduction)
    rng = np.random.default_rng(args.seed)
    emergency_days = emergency_schedule(config, rng)
    truth = oracle_truth(community, args.incentive, args.reduction,
                         emergency_days, args.days)
    result = run_selection(community, similarity, truth, seed=args.seed)
    _write_table(out / "selection.csv",
                 ("household_id", "cluster", "queried", "true_label", "predicted_label"),
                 ((hid, int(cluster), int(hid in result.queried), int(truth[hid]), int(label))
                  for hid, cluster, label in zip(result.household_ids, result.clusters,
                                                 result.predicted)))
    _write_manifest(out, vars_serializable(args), [args.seed], "selection.csv")
    print(f"selection accuracy on unqueried households: {result.accuracy_pct:.2f}%")
    return 0


def cmd_run(args) -> int:
    out = args.out_dir
    raw = _read_json(args.config)
    options = _from_json(_RunOptions, raw, "config",
                         sections=("scenario", "community", "hyper"))
    scenario = _from_json(ScenarioConfig, raw.get("scenario", {}), "scenario")
    community_spec = _from_json(CommunitySpec, raw.get("community", {}), "community")
    hyper = _from_json(Hyper, raw.get("hyper", {}), "hyper",
                       split_ratios=scenario.split_ratios)
    report, details = run_scenario(scenario, community_spec, hyper, **asdict(options))
    text = json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
    (out / "report.json").write_text(text, encoding="utf-8")
    _write_similarity(out / "similarity.csv", details["community"].ids, details["similarity"])
    outputs = ["report.json", "similarity.csv"]
    if details["outcomes"]:
        rows_to_csv([{"household_id": o.offer.household_id, "accepted": int(o.accepted),
                      "min_incentive": o.min_incentive, "cost_baseline": o.cost_baseline,
                      "cost_program": o.cost_program} for o in details["outcomes"]],
                    out / "offers.csv")
        outputs.append("offers.csv")
    _write_manifest(out, raw, [scenario.rng_seed], *outputs)
    print(text, end="")
    return 0


def cmd_sweep(args) -> int:
    out = args.out_dir
    raw = _read_json(args.spec)
    # The noise study runs on its own planted population, seeded 0, 1, ...
    noise = isinstance(raw, dict) and raw.get("variable") == "noise_level"
    spec = _from_json(SweepSpec, raw, "spec",
                      sections=() if noise else ("scenario", "community"))
    if noise:
        rows, first_seed = noise_experiment(spec), 0
    else:
        scenario = _from_json(ScenarioConfig, raw.get("scenario", {}), "scenario")
        community_spec = _from_json(CommunitySpec, raw.get("community", {}), "community")
        sweep = {"incentive": sweep_incentive, "reduction_pct": sweep_reduction,
                 "participation_pct": sweep_rate_hike}[spec.variable]
        rows, first_seed = sweep(spec, scenario, community_spec), scenario.rng_seed
    rows_to_csv(rows, out / spec.outputs)
    _write_manifest(out, raw, range(first_seed, first_seed + spec.repetitions), spec.outputs)
    print(f"wrote {len(rows)} rows to {out / spec.outputs}")
    return 0


def _write_manifest(out: Path, config: dict, seeds, *outputs: str) -> None:
    """`out/manifest.json`: the config, the seeds, the package version and each
    output file's sha256."""
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in outputs}
    manifest = {"config": config, "seeds": list(seeds), "version": __version__,
                "digests": digests}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")


def vars_serializable(args) -> dict:
    return {k: (str(v) if isinstance(v, Path) else v)
            for k, v in vars(args).items() if k != "func"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridflex",
        description="Emergency demand-response program simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic community")
    _add_size_args(p)
    p.add_argument("--baseline-rate", type=float, default=0.16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", type=Path, default=Path("out"))
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the forecaster, export the similarity matrix")
    _add_community_args(p)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--learning-rate", type=float, default=3e-4)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--stride", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", type=Path, default=Path("out"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("select", help="run the selection pipeline on a similarity matrix")
    _add_community_args(p)
    p.add_argument("--similarity-csv", type=Path, required=True)
    p.add_argument("--incentive", type=float, default=100.0)
    p.add_argument("--reduction", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", type=Path, default=Path("out"))
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("run", help="end-to-end scenario from a JSON config")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, default=Path("out"))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a sweep described by a JSON spec")
    p.add_argument("--spec", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, default=Path("out"))
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
