"""Command line front end.

Subcommands: compute, test, conditions, null-sample, be-study,
slln-study, generate, enumerate-check.  Every run echoes its resolved
statistical configuration (defaults and master seed included) into its
output; execution-only knobs (--threads, --out) are deliberately left
out of the echo so that runs which must produce identical results also
produce identical bytes.  Exit codes: 0 success (also -h), 2 invalid
input (a malformed, missing or unknown argument, --threads below 1, or
a file that cannot be read or written), 3 domain error, 4 any other
failure (an internal error, or e.g. a MemoryError on an extreme input);
failed runs print a single-line JSON object {"code", "message",
"context"} on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

# modnull calls no BLAS routine, yet OpenBLAS starts one idle worker per
# extra core when numpy loads, at ~0.1 s CPU each; a value the caller set
# wins.  The imports below leave ~31k objects that live until exit, which
# the cyclic GC would only scan again and again: it is off while they
# load, and they are then frozen out of its generations (gc.freeze).  A
# process that already holds numpy keeps its environment and its GC.
_FRESH = "numpy" not in sys.modules
_GC_WAS_ON = gc.isenabled()
if _FRESH:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()

import numpy as np

from .colors import ColorDistribution, ColoringError, parse_probability_text, validate_coloring
from .conditions import condition_statistics
from .errors import DomainError, InputError
from .generators import parse_generator_spec
from .graph import edge_list_blocks, int_rows, parse_edge_list, write_edge_list
from .moments import exact_moments_by_enumeration, modularity, null_moments
from .serialize import dumps, write_csv
from .simulation import RateRow, be_rate_study, significance_test, simulate_null, slln_study

if _FRESH:
    gc.freeze()
    if _GC_WAS_ON:
        gc.enable()

SEED_ENV = "MODNULL_SEED"


class _Parser(argparse.ArgumentParser):
    """Raises argument errors as InputError, so they follow the JSON stderr contract."""

    def error(self, message: str):
        raise InputError(message)


def _u64(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be an integer") from None
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from None


def _read(path: str, table: bool = False) -> str | bytes:
    """The contents of ``path``, read once and decoded as UTF-8.  An ASCII
    ``table`` of integer rows stays bytes, which the row reader splits
    without decoding."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if table and data.isascii():
        return data
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from None


def _load_graph(args):
    return parse_edge_list(_read(args.graph, table=True))


def _load_partition(path: str, n: int, K: int | None) -> np.ndarray:
    """The colors of a partition file, one on each of ``n`` lines, as
    :func:`validate_coloring` with ``K`` accepts them.  A refusal carries
    its message after the file's name and, for a bad color, its line."""
    rows = int_rows(_read(path, table=True), 1)
    if rows.line.size == 0:
        raise InputError(f"{path}: partition file is empty")
    try:
        return validate_coloring(rows.values[:, 0], n, K)
    except ColoringError as exc:
        # A malformed token reads 0, so the first fault is at or before it.
        if not rows.well_formed[exc.index]:
            exc = ColoringError(exc.index, "integer")
        raise InputError(f"{path} line {rows.line[exc.index]}: {exc}") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return _u64(env)
        except argparse.ArgumentTypeError as exc:
            raise InputError(f"bad {SEED_ENV}: {exc}") from None
    return 0


def _distribution(args, g=None) -> tuple[ColorDistribution, np.ndarray | None]:
    """The null distribution and the ``--partition`` colors, if any: the
    distribution is ``--probs``, else the partition's color frequencies,
    else uniform on ``--K`` colors (2 by default).  A partition must give
    one color in 1..K to each of ``g``'s vertices."""
    if args.K is not None and args.K < 1:
        raise InputError("need at least one color")
    dist = parse_probability_text(_read(args.probs)) if args.probs else None
    K = args.K if dist is None else dist.K
    if not getattr(args, "partition", None):
        return dist or ColorDistribution.uniform(2 if K is None else K), None
    colors = _load_partition(args.partition, g.n, K)
    return dist or ColorDistribution._observed(colors, K), colors


def _emit(args, payload: dict) -> None:
    text = dumps(payload) + "\n"
    if args.out:
        Path(args.out).write_bytes(text.encode())
    else:
        sys.stdout.write(text)


def _write_csv_with_summary(out: str, header, columns, summary: dict) -> None:
    write_csv(out, header, columns)
    Path(out.removesuffix(".csv") + ".summary.json").write_bytes((dumps(summary) + "\n").encode())


def cmd_compute(args) -> int:
    g = _load_graph(args)
    dist, colors = _distribution(args, g)
    q = modularity(g, colors)
    mom = null_moments(g, dist)
    _emit(
        args,
        {
            "config": {
                "command": "compute",
                "graph": args.graph,
                "partition": args.partition,
                "probs": args.probs,
                "K": dist.K,
            },
            "n": g.n,
            "m": g.m,
            "K": dist.K,
            "Q": q,
            "mu": mom.mu,
            "sigma2": mom.sigma2,
            "delta2": mom.delta2,
            "r1": mom.r1,
            "r2": mom.r2,
        },
    )
    return 0


def cmd_test(args) -> int:
    g = _load_graph(args)
    dist, colors = _distribution(args, g)
    report = significance_test(
        g, colors, dist, sided=args.sided, standardization=args.standardize
    )
    _emit(
        args,
        {
            "config": {
                "command": "test",
                "graph": args.graph,
                "partition": args.partition,
                "probs": args.probs,
                "K": dist.K,
                "standardize": args.standardize,
                "sided": args.sided,
            },
            **report._asdict(),
            # The normal approximation is never gated; the degree-sequence
            # diagnostics ride along so the reader can judge it.
            "conditions": condition_statistics(g),
        },
    )
    return 0


def cmd_conditions(args) -> int:
    g = _load_graph(args)
    report = condition_statistics(g)
    _emit(args, {"config": {"command": "conditions", "graph": args.graph}, **report._asdict()})
    return 0


def cmd_null_sample(args) -> int:
    g = _load_graph(args)
    dist, _ = _distribution(args, g)
    seed = _resolve_seed(args)
    sample = simulate_null(
        g, dist, args.reps, seed, standardization=args.standardize, threads=args.threads
    )
    summary = {
        "config": {
            "command": "null-sample",
            "graph": args.graph,
            "partition": args.partition,
            "probs": args.probs,
            "K": dist.K,
            "reps": args.reps,
            "master_seed": seed,
            "standardize": args.standardize,
        },
        "n": g.n,
        "m": g.m,
        "mu": sample.moments.mu,
        "sigma": sample.moments.sigma,
        "delta": sample.moments.delta,
        "mean": sample.mean,
        "variance": sample.variance,
        "ks": sample.ks,
    }
    _write_csv_with_summary(args.out, ["replicate", "q", "z"],
                            [np.arange(args.reps), sample.q, sample.samples], summary)
    return 0


def cmd_be_study(args) -> int:
    seed = _resolve_seed(args)
    dist, _ = _distribution(args)
    spec = parse_generator_spec(args.model)
    rows = be_rate_study(spec, args.sizes, args.reps, seed, distribution=dist,
                         standardization=args.standardize, threads=args.threads)
    summary = {
        "config": {
            "command": "be-study",
            "model": str(spec),
            "sizes": list(args.sizes),
            "reps": args.reps,
            "master_seed": seed,
            "standardize": args.standardize,
            "probs": list(dist.p),
        },
        "per_size": [
            {"n": r.n, "seed_used": r.seed_used, "ks": r.ks, "fitted_C": r.fitted_C}
            for r in rows
        ],
    }
    # Integer fields are exact as uint64: seed_used spans the whole 64-bit range.
    columns = [np.array(c, np.uint64 if isinstance(c[0], int) else np.float64) for c in zip(*rows)]
    _write_csv_with_summary(args.out, list(RateRow._fields), columns, summary)
    return 0


def cmd_slln_study(args) -> int:
    seed = _resolve_seed(args)
    dist, _ = _distribution(args)
    spec = parse_generator_spec(args.model)
    result = slln_study(spec, args.sizes, args.reps, seed, distribution=dist)
    summary = {
        "config": {
            "command": "slln-study",
            "model": str(spec),
            "sizes": list(args.sizes),
            "paths": args.reps,
            "master_seed": seed,
            "probs": list(dist.p),
        },
        "paths": result.paths,
        "decayed_paths": result.decayed_paths,
        "per_path": result.path_summaries,
    }
    columns = [np.repeat(np.arange(result.paths), len(result.sizes)),
               np.tile(result.sizes, result.paths), result.values.reshape(-1)]
    _write_csv_with_summary(args.out, ["path", "n", "value"], columns, summary)
    return 0


def cmd_generate(args) -> int:
    seed = _resolve_seed(args)
    spec = parse_generator_spec(args.model)
    g = spec.build(args.n, seed)
    echo = dumps(
        {
            "config": {
                "command": "generate",
                "model": str(spec),
                "n": args.n,
                "master_seed": seed,
            },
            "n": g.n,
            "m": g.m,
        }
    ) + "\n"
    if args.out:
        with open(args.out, "wb") as fh:
            fh.writelines(edge_list_blocks(g))
        sys.stdout.write(echo)
    else:
        sys.stdout.write(write_edge_list(g))
        sys.stderr.write(echo)
    return 0


def cmd_enumerate_check(args) -> int:
    g = _load_graph(args)
    dist, _ = _distribution(args)
    mom = null_moments(g, dist)
    mu_enum, var_enum = exact_moments_by_enumeration(g, dist)
    rel_mu = _rel_err(mom.mu, mu_enum)
    rel_var = _rel_err(mom.sigma2, var_enum)
    _emit(
        args,
        {
            "config": {
                "command": "enumerate-check",
                "graph": args.graph,
                "probs": args.probs,
                "K": dist.K,
            },
            "n": g.n,
            "m": g.m,
            "K": dist.K,
            "mu_closed_form": mom.mu,
            "mu_enumeration": mu_enum,
            "sigma2_closed_form": mom.sigma2,
            "sigma2_enumeration": var_enum,
            "rel_err_mu": rel_mu,
            "rel_err_sigma2": rel_var,
            "max_rel_err": max(rel_mu, rel_var),
        },
    )
    return 0


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _add_common_dist_flags(sp) -> None:
    dist_flags = sp.add_mutually_exclusive_group()
    dist_flags.add_argument("--probs", help="probability file, one value per line")
    dist_flags.add_argument("--K", type=int, help="number of colors")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modnull",
        description="Modularity under a random-labeling null: exact moments, "
        "significance tests, and seeded Monte Carlo studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("compute", help="modularity and exact null moments")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--partition", required=True)
    _add_common_dist_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_compute)

    sp = sub.add_parser("test", help="z-test of a partition against the null")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--partition", required=True)
    _add_common_dist_flags(sp)
    sp.add_argument("--standardize", choices=["sigma", "delta"], default="sigma")
    sp.add_argument("--sided", choices=["upper", "two"], default="upper")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_test)

    sp = sub.add_parser("conditions", help="degree-sequence condition statistics")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_conditions)

    sp = sub.add_parser("null-sample", help="Monte Carlo sample of standardized Q")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--partition", help="partition file, one color (>=1) per vertex line")
    _add_common_dist_flags(sp)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--seed", type=_u64)
    sp.add_argument("--standardize", choices=["sigma", "delta"], default="sigma")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_null_sample)

    sp = sub.add_parser("be-study", help="Kolmogorov distance across sizes vs the rate shape")
    sp.add_argument("--model", required=True, help="er:p=<f> | reg:d=<i> | hub:p=<f>")
    sp.add_argument("--sizes", type=_sizes, required=True)
    sp.add_argument("--reps", type=int, required=True)
    _add_common_dist_flags(sp)
    sp.add_argument("--seed", type=_u64)
    sp.add_argument("--standardize", choices=["sigma", "delta"], default="delta")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_be_study)

    sp = sub.add_parser("slln-study", help="path-wise decay of b_n (Q - mu)")
    sp.add_argument("--model", required=True)
    sp.add_argument("--sizes", type=_sizes, required=True)
    sp.add_argument("--reps", type=int, required=True, help="number of independent paths")
    _add_common_dist_flags(sp)
    sp.add_argument("--seed", type=_u64)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_slln_study)

    sp = sub.add_parser("generate", help="write a canonical edge list for a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=_u64)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser(
        "enumerate-check", help="closed-form moments vs exhaustive enumeration"
    )
    sp.add_argument("--graph", required=True)
    _add_common_dist_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_enumerate_check)

    return parser


def main(argv=None) -> int:
    # Parsing fills this namespace in place, so an argument error after the
    # subcommand still names it in the error context.
    args = argparse.Namespace(command=None)
    try:
        build_parser().parse_args(argv, namespace=args)
        return args.fn(args)
    except (InputError, OSError) as exc:
        _print_error(2, str(exc), args)
        return 2
    except DomainError as exc:
        _print_error(3, str(exc), args)
        return 3
    except Exception as exc:  # the documented catch-all: exit 4, no traceback
        _print_error(4, f"{type(exc).__name__}: {exc}", args)
        return 4


def _print_error(code: int, message: str, args) -> None:
    sys.stderr.write(
        dumps({"code": code, "message": message, "context": {"command": args.command}})
        + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
