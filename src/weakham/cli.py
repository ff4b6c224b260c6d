"""Command-line interface: generate instances, check them, run experiments,
and render plots.

Exit codes: 0 success, 1 input error (bad flags, malformed files, violated
preconditions), 2 capability error (the request is well-formed but exceeds
an implementation bound, e.g. exact checking above the oracle cutoff).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .errors import CapabilityError, InputError
from .harness import EXPERIMENTS, ExperimentConfig, make_config, parse_config_text, run_experiment
from .hypercore import _read_text, dump_hypergraph, load_hypergraph
from .oracle import decide_weak_hamiltonian, exact_weak_hamiltonian
from .plotting import emit_plot
from .randmodels import GnmParams, GnpParams, SeededRng, m_from_c, p_from_c, sample_gnm, sample_gnp
from .weakpaths import weak_to_json

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="weakham", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a random hypergraph to a text file")
    gen.add_argument("--n", type=int, required=True, help="number of vertices")
    gen.add_argument("--d", type=int, required=True, help="edge arity")
    gen.add_argument("--model", choices=("gnp", "gnm"), required=True)
    gen.add_argument("--p", type=float, default=None, help="edge probability (gnp)")
    gen.add_argument("--m", type=int, default=None, help="edge count (gnm)")
    gen.add_argument(
        "--c", type=float, default=None,
        help="threshold offset; maps to p or m via the critical window",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, metavar="FILE")

    check = sub.add_parser("check", help="decide weak Hamiltonicity of a file")
    check.add_argument("--in", dest="infile", required=True, metavar="FILE")
    check.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    check.add_argument("--seed", type=int, default=0, help="heuristic search seed")
    check.add_argument(
        "--budget", type=int, default=0,
        help="heuristic rotation budget (0 = default)",
    )

    exp = sub.add_parser(
        "exp", help="run an experiment to a CSV table",
        description="Run an experiment to a CSV table. The flags are the config "
        "keys, with dashes for underscores; a flag overrides the --config file. "
        "Grids are comma-separated: write --c-grid=-1,0,1 for negatives.",
    )
    exp.add_argument("kind", choices=EXPERIMENTS)
    exp.add_argument("--config", default=None, metavar="FILE", help="key = value file")
    # one flag per config field; flags stay strings, so make_config parses
    # them like config-file values
    for field in fields(ExperimentConfig):
        if field.name != "experiment":
            exp.add_argument("--" + field.name.replace("_", "-"), default=None)
    exp.add_argument("--out", default=None, metavar="FILE")

    plot = sub.add_parser("plot", help="render a threshold CSV to SVG")
    plot.add_argument("--in", dest="infile", required=True, metavar="FILE")
    plot.add_argument("--out", required=True, metavar="FILE")

    return parser


def _cmd_gen(args) -> int:
    if args.model == "gnp":
        if (args.p is None) == (args.c is None):
            raise InputError("gnp needs exactly one of --p or --c")
        if args.m is not None:
            raise InputError("--m applies to gnm only")
        p = args.p if args.p is not None else p_from_c(args.n, args.d, args.c)
        H = sample_gnp(GnpParams(args.n, args.d, p), SeededRng(args.seed, 0))
    else:
        if (args.m is None) == (args.c is None):
            raise InputError("gnm needs exactly one of --m or --c")
        if args.p is not None:
            raise InputError("--p applies to gnp only")
        m = args.m if args.m is not None else m_from_c(args.n, args.d, args.c)
        H = sample_gnm(GnmParams(args.n, args.d, m), SeededRng(args.seed, 0))
    dump_hypergraph(H, args.out)
    print(f"wrote {args.out}: n={H.n} d={H.d} m={H.m}")
    return 0


def _cmd_check(args) -> int:
    H = load_hypergraph(args.infile)
    if args.mode == "exact":
        verdict = exact_weak_hamiltonian(H)
        print(verdict.to_json())
        return 0
    budget = args.budget if args.budget > 0 else None
    verdict = decide_weak_hamiltonian(H, budget=budget, rng=SeededRng(args.seed, 0))
    doc = {
        "answer": verdict.answer, "method": "heuristic", "note": verdict.note,
        "witness": json.loads(weak_to_json(verdict.witness)) if verdict.witness else None,
        "rotations": verdict.search.rotations if verdict.search else 0,
    }
    print(json.dumps(doc, separators=(",", ":"), sort_keys=True))
    return 0


def _cmd_exp(args) -> int:
    options: dict[str, str] = {}
    if args.config is not None:
        options.update(parse_config_text(_read_text(args.config)))
    for field in fields(ExperimentConfig):
        value = getattr(args, field.name, None)  # None: unset, or experiment
        if value is not None:
            options[field.name] = value
    out = options.pop("out", None)
    out = args.out or out or f"{args.kind}.csv"
    cfg = make_config(args.kind, options)
    table = run_experiment(cfg)
    table.save(out)
    print(f"wrote {out}: {len(table.rows)} rows")
    return 0


def _cmd_plot(args) -> int:
    emit_plot(args.infile, args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {"gen": _cmd_gen, "check": _cmd_check, "exp": _cmd_exp, "plot": _cmd_plot}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
