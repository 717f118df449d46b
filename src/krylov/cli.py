"""Command-line entry point.

Subcommands:

- ``krylov run <config-file>``: run a named experiment from a config file
  (INI-style sections mirroring :class:`ExperimentConfig`), writing CSV.
- ``krylov list-experiments``: print available experiment names.
- ``krylov matrix-info <spec>``: summarize a matrix spec string or file
  (a Matrix Market file of at most ``DENSE_ORACLE_LIMIT`` rows).
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import replace

from .errors import InvalidSpec, KrylovError
from .experiments import ExperimentConfig, list_experiments, run_experiment
from .matrices import _exact_spectrum, _spec_from_fields, parse_matrix_spec

_EXPERIMENT_KEYS = {"name", "k", "m", "seed"}
_OUTPUT_KEYS = {"out_dir"}


def _matrix_from_section(sec) -> object:
    fields = dict(sec)
    if "kind" not in fields:
        raise KrylovError("matrix section needs a 'kind' key")
    return _spec_from_fields(fields.pop("kind"), fields)


def _integer(section, key: str) -> int:
    value = section[key]
    try:
        return int(value)
    except ValueError:
        raise InvalidSpec(f"[{section.name}] {key} must be an integer, not {value!r}") from None


def load_config(path: str) -> ExperimentConfig:
    """Parse an experiment config file; unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise KrylovError(f"cannot read config file {path!r}")

    # the keys of [matrix] are its kind's, checked as its spec is read
    known = {"experiment": _EXPERIMENT_KEYS, "matrix": None, "output": _OUTPUT_KEYS}
    for section in parser.sections():
        if section not in known:
            raise KrylovError(f"unknown config section [{section}]")
        for key in parser[section]:
            if known[section] is not None and key not in known[section]:
                raise KrylovError(f"unknown key {key!r} in section [{section}]")

    if "experiment" not in parser or "name" not in parser["experiment"]:
        raise KrylovError("config must set [experiment] name")
    exp = parser["experiment"]
    matrix = (
        _matrix_from_section(parser["matrix"]) if "matrix" in parser else None
    )
    out_dir = parser["output"].get("out_dir") if "output" in parser else None
    return ExperimentConfig(
        experiment=exp["name"],
        matrix=matrix,
        k=_integer(exp, "k") if "k" in exp else None,
        m=_integer(exp, "m") if "m" in exp else None,
        seed=_integer(exp, "seed") if "seed" in exp else 0,
        out_dir=out_dir,
    )


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.k is not None:
        cfg = replace(cfg, k=args.k)
    if args.m is not None:
        cfg = replace(cfg, m=args.m)
    if args.out_dir is not None:
        cfg = replace(cfg, out_dir=args.out_dir)
    if cfg.out_dir is None:
        cfg = replace(cfg, out_dir=".")

    report = run_experiment(cfg)
    print(f"experiment: {report.experiment}")
    if report.csv_path:
        print(f"csv: {report.csv_path}")
    for a in report.assertions:
        status = "PASS" if a.passed else "FAIL"
        print(f"  [{status}] {a.name}: measured {a.measured:.6g}, expected {a.expected}")
    return 0 if report.passed else 1


def _cmd_list(_args) -> int:
    for name in list_experiments():
        print(name)
    return 0


def _cmd_matrix_info(args) -> int:
    # A Matrix Market file above DENSE_ORACLE_LIMIT raises DimensionTooLarge.
    A, vals, _ = _exact_spectrum(parse_matrix_spec(args.spec))
    print(f"dim: {A.dim}")
    lam_min, lam_max = float(vals.min()), float(vals.max())
    print(f"lam_min: {lam_min:.17g}")
    print(f"lam_max: {lam_max:.17g}")
    if lam_min > 0:
        print(f"condition_number: {lam_max / lam_min:.17g}")
    else:
        print("condition_number: undefined (spectrum not positive)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krylov", description="Krylov subspace experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--k", type=int, default=None)
    p_run.add_argument("--m", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list-experiments", help="list experiment names")
    p_list.set_defaults(func=_cmd_list)

    p_info = sub.add_parser("matrix-info", help="summarize a matrix spec")
    p_info.add_argument("spec")
    p_info.set_defaults(func=_cmd_matrix_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # stdout closed early, as by ``| head -1``
        # what is still buffered would raise again at exit: drop it quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (KrylovError, configparser.Error) as exc:
        # configparser's messages span lines; the report is one line
        print("error: " + " ".join(str(exc).split()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
