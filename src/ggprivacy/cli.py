"""Command-line interface.

Every run is reproducible.  The subcommands that draw (``sample``,
``simulate-argmax``, ``pate-label`` and ``train``) take their seed from
``--seed``, else the ``GG_PRIVACY_SEED`` environment variable, else the
documented default (61803398); the accountant and calibration subcommands
draw nothing and take no seed.  Every file-producing run writes a
``<output>.manifest.json`` next to its artifact recording the subcommand,
the fully resolved arguments, the seed of a subcommand that takes one, and
the SHA-256 of each output.

Grids are written either as comma lists (``1,1.5,2``) or as
``start:stop:count`` (``1:4:13``).  A ``--config FILE`` of ``key = value``
lines (keys matching the long flag names) supplies defaults; explicit flags
win.  ``replay <manifest>`` applies a manifest's recorded arguments the way a
config file applies its values, so both are checked the same way; it then
re-runs the subcommand, writing its outputs next to the manifest, and checks
that every output reproduces its recorded hash.
Exit codes: 0 on success, 1 on domain errors, bad config or manifest values
and unreadable files, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from . import __version__, ggdist
from .accountant import DEFAULT_BINS, DEFAULT_SEED, account, derive_rng
from .calibrate import (DEFAULT_TOLERANCE, FamilyResult, PrivacyTarget,
                        _cutoff_list, equivalent_family, family_from_csv,
                        family_to_csv, solve_sigma, tail_weight,
                        tail_weights_to_csv)
from .errors import GGPrivacyError, ParameterError
from .ggdist import GGParams
from .mechanisms import (LogisticModel, MLPModel, TrainConfig, load_dataset_csv,
                         make_blobs, train_noisy_sgd)
from .prv import MechanismSpec
from .simulate import (ResultRow, SimConfig, hardmax_utility, histograms_from_csv,
                       make_histograms, normalized_auc, pate_label_accuracy,
                       results_to_csv)

_SUBCOMMANDS: dict[str, argparse.ArgumentParser] = {}


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _convert(kind, token: str, what: str):
    """``kind(token)``, or a `ParameterError` naming ``what`` and the token."""
    try:
        return kind(token)
    except ValueError:
        raise ParameterError(f"{what}: {token!r} is not a valid "
                             f"{kind.__name__}") from None


def parse_grid(text: str) -> list[float]:
    """'1,1.5,2' -> that list; '1:4:13' -> 13 evenly spaced points."""
    text = text.strip()
    where = f"grid {text!r}"
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError(f"{where} must be start:stop:count")
        start, stop = (_convert(float, p, where) for p in parts[:2])
        count = _convert(int, parts[2], where)
        if count < 1:
            raise ParameterError("grid count must be >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    values = [_convert(float, p, where) for p in text.split(",") if p.strip()]
    if not values:
        raise ParameterError(f"{where} is empty")
    return values


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("GG_PRIVACY_SEED", "").strip()
    if env:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(
                f"GG_PRIVACY_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _require(args: argparse.Namespace, parser: argparse.ArgumentParser,
             *names: str) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            parser.error(f"--{name} is required (as a flag, config key "
                         "or manifest key)")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_manifest(args: argparse.Namespace, outputs: list[str]) -> str:
    """Write ``<args.out>.manifest.json`` listing the written ``outputs``."""
    arguments = {k: v for k, v in sorted(vars(args).items())
                 if not k.startswith("_") and k not in ("config", "command")}
    manifest = {
        "command": args.command,
        "arguments": arguments,
        "version": __version__,
        "outputs": [{"name": os.path.basename(p), "sha256": _sha256(p)}
                    for p in outputs],
    }
    if hasattr(args, "seed"):
        manifest["seed"] = args.seed
    path = f"{args.out}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _emit(text: str, args: argparse.Namespace) -> None:
    """Print, or write plus manifest when --out was given."""
    if args.out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    with open(args.out, "w") as fh:
        fh.write(text)
    manifest = _write_manifest(args, [args.out])
    print(f"wrote {args.out} (manifest: {manifest})")


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for line_num, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, _, value = line.partition(sep)
                    break
            else:
                raise ParameterError(
                    f"{path}:{line_num}: expected 'key = value', got {line!r}")
            values[key.strip()] = value.strip()
    return values


_FLAG_TRUE = ("1", "true", "yes", "on")
_FLAG_FALSE = ("0", "false", "no", "off")


def _config_value(action: argparse.Action, raw: str, what: str):
    """One config text converted the way ``action``'s flag converts it."""
    if isinstance(action, argparse._StoreTrueAction):
        word = raw.lower()
        if word not in _FLAG_TRUE + _FLAG_FALSE:
            raise ParameterError(
                f"{what}: {raw!r} is not a flag value "
                f"(one of {', '.join(_FLAG_TRUE + _FLAG_FALSE)})")
        return word in _FLAG_TRUE
    value = raw if action.type is None else _convert(action.type, raw, what)
    if action.choices is not None and value not in action.choices:
        raise ParameterError(f"{what}: {raw!r} is not one of "
                             f"{', '.join(map(str, action.choices))}")
    return value


def _apply_config_defaults(sub: argparse.ArgumentParser,
                           values: dict[str, str | list[str]],
                           source: str = "config") -> None:
    """Set ``sub``'s defaults from ``{key: text}``; a list holds the repeated
    values of an append flag.  ``source`` labels the error messages."""
    by_dest = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, raw in values.items():
        what = f"{source} key {key!r}"
        dest = key.replace("-", "_")
        action = by_dest.get(dest)
        if action is None:
            raise ParameterError(f"{what} matches no flag of this subcommand")
        if isinstance(action, argparse._AppendAction):
            defaults[dest] = [_config_value(action, text, what) for text in
                              (raw if isinstance(raw, list) else [raw])]
        elif isinstance(raw, list):
            raise ParameterError(f"{what}: {raw!r} is a list, but the flag "
                                 "takes one value")
        else:
            defaults[dest] = _config_value(action, raw, what)
    sub.set_defaults(**defaults)


def _config_text(value) -> str | list[str]:
    """A recorded argument as the text a config file would hold."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return [repr(v) if isinstance(v, float) else str(v) for v in value]
    return repr(value) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------


def _add_seed(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help="integer seed (default: GG_PRIVACY_SEED env var, "
                          f"else {DEFAULT_SEED})")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, metavar="FILE",
                     help="key = value file of flag defaults")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write the result here (plus a .manifest.json)")


def _add_accountant_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bins", type=int, default=DEFAULT_BINS,
                     help="grid cells; rounded up to a fast FFT length, the "
                          "next odd count with prime factors in {3, 5, 7} "
                          "(default %(default)s)")


def _add_target_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epsilon", type=float, default=None)
    sub.add_argument("--delta", type=float, default=None)
    sub.add_argument("--compositions", type=int, default=1)
    sub.add_argument("--sample-rate", type=float, default=None,
                     help="Poisson inclusion probability (omit: no subsampling)")


def _add_calibration_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                     help="solver tolerance in epsilon (default %(default)s)")
    _add_target_args(sub)
    _add_accountant_args(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggprivacy",
        description="Generalized Gaussian mechanisms and their numerical "
                    "privacy-loss accountant")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def register(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(_handler=handler, command=name)
        _SUBCOMMANDS[name] = sub
        return sub

    sub = register("sample", "draw noise variates", _cmd_sample)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--sigma", type=float, default=None)
    sub.add_argument("-n", "--count", type=int, default=None)
    sub.add_argument("--center", type=float, default=0.0)
    _add_seed(sub)
    _add_common(sub)

    sub = register("epsilon", "account one mechanism pattern", _cmd_epsilon)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--sigma", type=float, default=None)
    sub.add_argument("--sensitivity", type=float, default=1.0)
    _add_target_args(sub)
    _add_accountant_args(sub)
    sub.add_argument("--curve-points", type=int, default=129)
    _add_common(sub)

    sub = register("solve-sigma", "invert the accountant in sigma", _cmd_solve_sigma)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--sensitivity", type=float, default=1.0)
    _add_calibration_args(sub)
    _add_common(sub)

    sub = register("family", "equal-privacy noise family over shapes", _cmd_family)
    sub.add_argument("--betas", default=None,
                     help="shape grid, '1,1.5,2' or start:stop:count")
    _add_calibration_args(sub)
    _add_common(sub)

    sub = register("tail-weight", "tail mass of equal-privacy noises",
                   _cmd_tail_weight)
    sub.add_argument("--betas", default=None)
    sub.add_argument("--cutoff", type=float, action="append", default=None,
                     help="tail cutoff (repeatable)")
    sub.add_argument("--smooth", action="store_true",
                     help="attach a Savitzky-Golay smoothed column")
    _add_calibration_args(sub)
    _add_common(sub)

    sub = register("simulate-argmax", "hardmax utility sweep over gap ratios",
                   _cmd_simulate_argmax)
    sub.add_argument("--classes", type=int, default=2)
    sub.add_argument("--betas", default=None)
    sub.add_argument("--total-votes", type=int, default=1000)
    sub.add_argument("--histograms-per-r", type=int, default=500)
    sub.add_argument("--trials", type=int, default=50)
    sub.add_argument("--r-grid", default="0.001:0.2:20")
    _add_calibration_args(sub)
    _add_seed(sub)
    _add_common(sub)

    sub = register("pate-label", "label accuracy over teacher-vote histograms",
                   _cmd_pate_label)
    sub.add_argument("--histograms", default=None, metavar="CSV")
    sub.add_argument("--family", default=None, metavar="CSV",
                     help="beta,sigma pairs from the family subcommand")
    sub.add_argument("--betas", default=None)
    sub.add_argument("--sigmas", default=None)
    sub.add_argument("--trials", type=int, default=25)
    sub.add_argument("--epsilon", type=float, default=None,
                     help="annotate rows with this epsilon")
    sub.add_argument("--delta", type=float, default=None)
    _add_seed(sub)
    _add_common(sub)

    sub = register("train", "clipped noisy SGD with a privacy halt", _cmd_train)
    sub.add_argument("--dataset", default="synthetic",
                     help="'synthetic' or a CSV (features..., integer label)")
    sub.add_argument("--model", choices=["logistic", "mlp"], default="logistic")
    sub.add_argument("--beta", type=float, default=2.0)
    sub.add_argument("--sigma", type=float, default=math.sqrt(2.0))
    sub.add_argument("--clip-norm", type=float, default=1.0)
    sub.add_argument("--batch-size", type=int, default=64)
    sub.add_argument("--epochs", type=int, default=5)
    sub.add_argument("--learning-rate", type=float, default=0.5)
    sub.add_argument("--target-epsilon", type=float, default=None)
    sub.add_argument("--delta", type=float, default=1e-5)
    sub.add_argument("--train-size", type=int, default=800)
    sub.add_argument("--test-size", type=int, default=200)
    sub.add_argument("--dim", type=int, default=10)
    sub.add_argument("--separation", type=float, default=3.0)
    _add_seed(sub)
    _add_common(sub)

    sub = register("replay", "re-run a recorded manifest", _cmd_replay)
    sub.add_argument("manifest", help="path to a .manifest.json file")

    return parser


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_sample(args, sub) -> int:
    _require(args, sub, "beta", "sigma", "count")
    params = GGParams(args.beta, args.sigma)
    rng = derive_rng(args.seed, "cli-sample", params.beta, params.sigma,
                     args.center, args.count)
    values = args.center + ggdist.sample(params, rng, args.count)
    text = "\n".join(repr(float(v)) for v in values) + "\n"
    _emit(text, args)
    return 0


def _mechanism_from(args) -> MechanismSpec:
    return MechanismSpec(GGParams(args.beta, args.sigma), args.sensitivity,
                         args.sample_rate, args.compositions)


def _target_from(args) -> PrivacyTarget:
    return PrivacyTarget(args.epsilon, args.delta, args.compositions,
                         args.sample_rate)


def _family_from(args) -> FamilyResult:
    return equivalent_family(parse_grid(args.betas), _target_from(args),
                             tolerance=args.tolerance, bins=args.bins)


def _cmd_epsilon(args, sub) -> int:
    _require(args, sub, "beta", "sigma")
    if (args.epsilon is None) == (args.delta is None):
        sub.error("provide exactly one of --epsilon / --delta")
    spec = _mechanism_from(args)
    result = account(spec, epsilon=args.epsilon, delta=args.delta,
                     curve_points=args.curve_points, bins=args.bins)
    if args.delta is not None:
        print(f"epsilon = {result.epsilon:.6f} at delta = {args.delta:g} "
              "(point estimate)")
    else:
        print(f"delta = {result.delta:.6e} at epsilon = {args.epsilon:g} "
              "(point estimate)")
    if args.out is not None:
        _emit(result.curve.to_json(indent=2) + "\n", args)
    return 0


def _cmd_solve_sigma(args, sub) -> int:
    _require(args, sub, "beta", "epsilon", "delta")
    target = _target_from(args)
    result = solve_sigma(args.beta, target, tolerance=args.tolerance,
                         sensitivity=args.sensitivity, bins=args.bins)
    print(f"sigma = {result.sigma:.9g}")
    print(f"bracket = [{result.bracket[0]:.9g}, {result.bracket[1]:.9g}]")
    per_grid = Counter(cells for _, _, cells in result.evaluations)
    on_grids = ", ".join(f"{n} on {cells} cells"
                         for cells, n in per_grid.items())
    print(f"epsilon at sigma = {result.epsilon:.6f} "
          f"(target {target.epsilon:g}, {result.probes} probes: {on_grids})")
    if args.out is not None:
        payload = {"sigma": result.sigma, "bracket": list(result.bracket),
                   "epsilon": result.epsilon, "probes": result.probes}
        _emit(json.dumps(payload, indent=2) + "\n", args)
    return 0


def _cmd_family(args, sub) -> int:
    _require(args, sub, "betas", "epsilon", "delta")
    result = _family_from(args)
    print(f"sigma monotone in beta: {result.sigma_monotone}")
    _emit(family_to_csv(result), args)
    return 0


def _cmd_tail_weight(args, sub) -> int:
    _require(args, sub, "betas", "epsilon", "delta", "cutoff")
    _cutoff_list(args.cutoff)  # fail before the family is solved
    result = tail_weight(_family_from(args), args.cutoff, smooth=args.smooth)
    _emit(tail_weights_to_csv(result), args)
    return 0


def _cmd_simulate_argmax(args, sub) -> int:
    _require(args, sub, "betas", "epsilon", "delta")
    family = _family_from(args)
    target = family.target
    sim_cfg = SimConfig(num_classes=args.classes, total_votes=args.total_votes,
                        runner_up_grid=tuple(parse_grid(args.r_grid)),
                        histograms_per_r=args.histograms_per_r,
                        trials=args.trials)
    hists = make_histograms(sim_cfg, derive_rng(
        args.seed, "simulate-hists", sim_cfg.num_classes, sim_cfg.total_votes,
        sim_cfg.runner_up_grid, sim_cfg.histograms_per_r))
    rows: list[ResultRow] = []
    curves = {}
    for point in family.points:
        noise = GGParams(point.beta, point.sigma)
        utility = hardmax_utility(hists, noise, sim_cfg.trials,
                                  derive_rng(args.seed, "simulate-noise",
                                                  point.beta, point.sigma))
        curves[point.beta] = utility
        for u in sorted(utility, key=lambda p: p.runner_up):
            rows.append(ResultRow(point.beta, point.sigma, target.epsilon,
                                  target.delta,
                                  f"hardmax_utility[r={u.runner_up:g}]",
                                  u.value, u.stderr))
    for beta, auc in normalized_auc(curves).items():
        sigma = next(p.sigma for p in family.points if p.beta == beta)
        rows.append(ResultRow(beta, sigma, target.epsilon, target.delta,
                              "hardmax_auc_normalized", auc, None))
        print(f"beta {beta:g}: normalized AUC = {auc:.4f}")
    _emit(results_to_csv(rows), args)
    return 0


def _cmd_pate_label(args, sub) -> int:
    _require(args, sub, "histograms")
    hists = histograms_from_csv(args.histograms)
    if args.family is not None:
        with open(args.family) as fh:
            pairs = [(p.beta, p.sigma) for p in family_from_csv(fh.read())]
    else:
        _require(args, sub, "betas", "sigmas")
        betas, sigmas = parse_grid(args.betas), parse_grid(args.sigmas)
        if len(betas) != len(sigmas):
            sub.error("--betas and --sigmas must have equal length")
        pairs = list(zip(betas, sigmas))
    noises = [GGParams(b, s) for b, s in pairs]
    rows_out = pate_label_accuracy(hists, noises, args.trials,
                                   derive_rng(args.seed, "pate",
                                              tuple(pairs), args.trials))
    rows = [ResultRow(r.beta, r.sigma, args.epsilon, args.delta,
                      "pate_label_accuracy", r.mean, r.stderr)
            for r in rows_out]
    for r in rows_out:
        print(f"beta {r.beta:g} sigma {r.sigma:g}: accuracy "
              f"{r.mean:.4f} +/- {r.std:.4f}")
    _emit(results_to_csv(rows), args)
    return 0


def _cmd_train(args, sub) -> int:
    # A CSV seeds by its content, so every spelling of its path agrees.
    dataset_key = ("synthetic" if args.dataset == "synthetic"
                   else _sha256(args.dataset))
    rng = derive_rng(args.seed, "train", dataset_key, args.model)
    if args.dataset == "synthetic":
        X, y = make_blobs(args.train_size + args.test_size, args.dim,
                          args.separation, rng)
        train_data = (X[:args.train_size], y[:args.train_size])
        test_data = (X[args.train_size:], y[args.train_size:])
    else:
        train_data = load_dataset_csv(args.dataset)
        test_data = None
    dim = train_data[0].shape[1]
    model = LogisticModel(dim) if args.model == "logistic" else MLPModel(dim)
    cfg = TrainConfig(clip_norm=args.clip_norm,
                      noise=GGParams(args.beta, args.sigma),
                      batch_size=args.batch_size, epochs=args.epochs,
                      learning_rate=args.learning_rate,
                      target_epsilon=args.target_epsilon,
                      target_delta=args.delta)
    result = train_noisy_sgd(model, train_data, cfg, rng, test_data=test_data)
    lines = [json.dumps({k: rec[k] for k in
                         ("epoch", "epsilon", "delta", "train_acc", "test_acc")})
             for rec in result.history]
    _emit("\n".join(lines) + "\n", args)
    last = result.history[-1]
    print(f"finished after {result.steps} steps"
          + (" (halted by privacy budget)" if result.halted else "")
          + f": train_acc = {last['train_acc']:.4f}"
          + (f", test_acc = {last['test_acc']:.4f}"
             if last["test_acc"] is not None else "")
          + (f", epsilon = {last['epsilon']:.4f}"
             if last["epsilon"] is not None else ""))
    return 0


def _cmd_replay(args, sub) -> int:
    """Re-run a manifest, then check each output against its recorded hash.

    The recorded arguments become the subcommand's defaults exactly as a
    config file's values would, and a usage error of the re-run names the
    manifest.  Outputs are written and checked next to the manifest,
    whatever the working directory.  The recorded manifest is written back
    afterwards, so the re-run cannot overwrite the hashes it is checked
    against.
    """
    with open(args.manifest) as fh:
        recorded = fh.read()
    command, stored, expected = _read_manifest(args.manifest, recorded)
    label = f"manifest {args.manifest}"
    out_dir = os.path.dirname(args.manifest)
    values = {k: _config_text(v) for k, v in stored.items() if v is not None}
    values["out"] = os.path.join(out_dir, os.path.basename(stored["out"]))
    run = _SUBCOMMANDS[command]
    _apply_config_defaults(run, values, label)

    def refuse(message: str):
        raise ParameterError(f"{label}: {message}")
    run.error = refuse
    _run(run.parse_args([]))
    with open(args.manifest, "w") as fh:
        fh.write(recorded)
    for name, digest in expected.items():
        path = os.path.join(out_dir, name)
        if digest is None:
            problem = "has no recorded SHA-256"
        elif not os.path.isfile(path) or _sha256(path) != digest:
            problem = f"does not reproduce its recorded SHA-256 {digest}"
        else:
            continue
        print(f"error: replayed output {path} {problem}", file=sys.stderr)
        return 1
    return 0


def _read_manifest(path: str, text: str) -> tuple[str, dict, dict]:
    """``(command, arguments, {output name: SHA-256 or None})`` of a
    manifest, or a `ParameterError` naming the field that is malformed."""
    def bad(problem: str) -> ParameterError:
        return ParameterError(f"manifest {path}: {problem}")

    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise bad(f"not JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise bad("not a JSON object")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _SUBCOMMANDS \
            or command == "replay":
        raise bad(f"'command' names unknown subcommand {command!r}")
    stored = manifest.get("arguments")
    if not isinstance(stored, dict) or not isinstance(stored.get("out"), str):
        raise bad("'arguments' must be an object holding the 'out' path")
    outputs = manifest.get("outputs")
    if not isinstance(outputs, list) or not outputs:
        raise bad(f"'outputs' must be a non-empty list, got {outputs!r}")
    expected = {}
    for entry in outputs:
        if isinstance(entry, str):  # a bare name: no hash was recorded
            expected[entry] = None
        elif isinstance(entry, dict) and set(entry) == {"name", "sha256"} \
                and all(isinstance(v, str) for v in entry.values()):
            expected[entry["name"]] = entry["sha256"]
        else:
            raise bad(f"'outputs' entry {entry!r} is neither a name nor a "
                      "{'name', 'sha256'} object")
    return command, stored, expected


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _run(args: argparse.Namespace) -> int:
    """Resolve the seed of a subcommand that takes one into ``args.seed``,
    then run the subcommand."""
    if hasattr(args, "seed"):
        args.seed = _resolve_seed(args)
    return args._handler(args, _SUBCOMMANDS[args.command])


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
        if getattr(args, "config", None) is not None:
            # Config values are subcommand defaults, so explicit flags win.
            _apply_config_defaults(_SUBCOMMANDS[args.command],
                                   _load_config_file(args.config))
            args = parser.parse_args(argv)
        return _run(args)
    except (GGPrivacyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
