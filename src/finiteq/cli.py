"""Command-line frontend.

Subcommands: state, zeros, reconstruct, overlap, verify, plot.
Exit codes: 0 success, 1 usage or input error, 2 verification failure.
Complex flag values use the literal form ``re+imi``, e.g. ``1+1i`` or
``0.3-0.2i``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import serialization as ser
from .analytic import AnalyticState
from .hilbert import position_state, momentum_state
from .wavefunctions import sampled_from_csv
from .zak import SystemParams, coherent_overlap, coherent_overlap_direct, coherent_state_closed, number_state, zak_map
from .zeros import LATTICE_TOL, find_zeros, reconstruct_from_zeros

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def parse_complex(text: str) -> complex:
    """Parse the CLI literal form: '1+1i', '0.3-0.2i', '-2i', 'i', '0.7'."""
    s = text.strip().replace(" ", "")
    try:
        if any(c in s for c in "jJ("):  # Python's forms 1+1j and (1+1j), which complex() takes too
            raise ValueError(s)
        return complex(s[:-1] + "j" if s.endswith("i") else s)
    except ValueError:
        raise _UsageError(f"cannot parse complex literal {text!r} (expected e.g. 0.3-0.2i)") from None


def build_parser() -> _Parser:
    """A fresh parser for the finiteq command line."""
    parser = _Parser(prog="finiteq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="generate a state file")
    p_state.add_argument("kind", choices=["number", "coherent", "position", "momentum", "sampled"])
    p_state.add_argument("--N", type=int, help="number-state index")
    p_state.add_argument("--A", help="coherent label, e.g. 1+1i")
    p_state.add_argument("--m", type=int, help="basis index")
    p_state.add_argument("--csv", help="CSV of x,re,im samples (kind 'sampled')")

    p_zeros = sub.add_parser("zeros", help="locate the d zeros of a state's representation")
    p_zeros.add_argument("--state", required=True, help="input state JSON")
    p_zeros.add_argument("--svg", help="also write an SVG scatter")

    p_rec = sub.add_parser("reconstruct", help="rebuild a state from a zeros CSV")
    p_rec.add_argument("--zeros", required=True, help="input zeros CSV")
    p_rec.add_argument("--tol", type=float, default=LATTICE_TOL,
                       help=f"largest lattice residual of the zero sum (default {LATTICE_TOL:g})")

    p_ov = sub.add_parser("overlap", help="overlap of two coherent states or two state files")
    p_ov.add_argument("--A1", help="first coherent label")
    p_ov.add_argument("--A2", help="second coherent label")
    p_ov.add_argument("--in1", help="first state JSON")
    p_ov.add_argument("--in2", help="second state JSON")

    p_ver = sub.add_parser("verify", help="run seeded identity suites")
    p_ver.add_argument("--suite", default="all",
                       choices=["all", "theta", "hilbert", "zak", "analytic", "zeros"])
    p_ver.add_argument("--d", type=int, default=4, help="Hilbert-space dimension (default 4)")
    p_ver.add_argument("--seed", type=int, default=0, help="seed of the randomized checks (default 0)")

    p_plot = sub.add_parser("plot", help="SVG scatter of a state's zeros")
    p_plot.add_argument("--state", required=True, help="input state JSON")
    p_plot.add_argument("--overlay", help="second state JSON, drawn with triangles")
    p_plot.add_argument("--svg", required=True, help="output SVG path")

    shared = {  # the flags several subcommands take, each added only where it is read
        "--d": dict(type=int, help="Hilbert-space dimension"),
        "--lambda": dict(dest="lam", type=float, default=1.0, help="squeezing scale (default 1)"),
        "--cell-a": dict(type=float, default=0.0, help="real cell anchor (default 0)"),
        "--cell-b": dict(type=float, default=0.0, help="imaginary cell anchor (default 0)"),
        "--out": dict(help="output path"),
    }
    for p, flags in ((p_state, "--d --lambda --out"), (p_zeros, "--out --cell-a --cell-b"),
                     (p_rec, "--out --lambda --cell-a --cell-b"), (p_ov, "--d --lambda --out"),
                     (p_plot, "--cell-a --cell-b")):
        for flag in flags.split():
            p.add_argument(flag, **shared[flag])
    return parser


def _params(args) -> SystemParams:
    if args.d is None:
        raise _UsageError("--d is required for this command")
    return SystemParams(args.d, args.lam)


def _need(flag, value):
    if value is None:
        raise _UsageError(f"{flag} is required for this subcommand")
    return value


def _refuse_overwrite(source, *outputs):
    """Raise ValueError if an output path is the input file `source`, under any name or link."""
    src = os.stat(source)
    for out in outputs:
        try:
            same = out is not None and os.path.samestat(os.stat(out), src)
        except FileNotFoundError:
            continue  # not written yet, so not the input
        if same:
            raise ValueError(f"output {out} would overwrite the input {source}")


def _load_analytic(path, args) -> AnalyticState:
    state, lam = ser.load_state(path)
    return AnalyticState(state, SystemParams(state.d, lam, args.cell_a, args.cell_b))


def _cmd_state(args) -> int:
    params = _params(args)
    if args.kind == "number":
        st = number_state(_need("--N", args.N), params)
    elif args.kind == "coherent":
        st = coherent_state_closed(parse_complex(_need("--A", args.A)), params)
    elif args.kind == "position":
        st = position_state(_need("--m", args.m), params.d)
    elif args.kind == "momentum":
        st = momentum_state(_need("--m", args.m), params.d)
    else:  # sampled
        st = zak_map(sampled_from_csv(_need("--csv", args.csv)), params)
    out = _need("--out", args.out)
    ser.save_state(out, st, params)
    print(f"wrote {out}")
    return 0


def _cmd_zeros(args) -> int:
    out = _need("--out", args.out)
    _refuse_overwrite(args.state, out, ser.sidecar_path(out), args.svg)
    zs = find_zeros(_load_analytic(args.state, args))
    ser.save_zeros_csv(out, zs)
    print(f"wrote {out} and {ser.sidecar_path(out)} "
          f"({zs.total} zeros, M={zs.M}, N={zs.N}, residual={zs.residual:.2e})")
    if args.svg:
        ser.save_svg(args.svg, zs)
        print(f"wrote {args.svg}")
    return 0


def _cmd_reconstruct(args) -> int:
    out = _need("--out", args.out)
    _refuse_overwrite(args.zeros, out)
    positions, mults = ser.load_zeros_csv(args.zeros)
    params = SystemParams(int(mults.sum()), args.lam, args.cell_a, args.cell_b)
    st = reconstruct_from_zeros(positions, params, mults, residual_tol=args.tol)
    ser.save_state(out, st, params)
    print(f"wrote {out}")
    return 0


def _cmd_overlap(args) -> int:
    if args.A1 is not None or args.A2 is not None:
        params = _params(args)
        a1 = parse_complex(_need("--A1", args.A1))
        a2 = parse_complex(_need("--A2", args.A2))
        closed = coherent_overlap(a1, a2, params)
        direct = coherent_overlap_direct(a1, a2, params)
        payload = {
            "re": closed.real, "im": closed.imag, "abs": abs(closed),
            "direct_re": direct.real, "direct_im": direct.imag,
            "closed_vs_direct": abs(closed - direct),
        }
    elif args.in1 and args.in2:
        s1, _ = ser.load_state(args.in1)
        s2, _ = ser.load_state(args.in2)
        if s1.d != s2.d:
            raise ValueError(f"dimension mismatch: {s1.d} vs {s2.d}")
        val = s1.inner(s2)
        payload = {"re": val.real, "im": val.imag, "abs": abs(val)}
    else:
        raise _UsageError("overlap needs either --A1/--A2 or --in1/--in2")
    text = json.dumps(payload, indent=1)
    if args.out:
        ser.write_atomic(args.out, text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite  # imported here: no other subcommand needs the suites

    results = run_suite(args.suite, args.d, args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed (d={args.d}, seed={args.seed}, suite={args.suite})")
    if passed != len(results):
        print("verification failed", file=sys.stderr)
        return 2
    return 0


def _cmd_plot(args) -> int:
    for source in filter(None, (args.state, args.overlay)):
        _refuse_overwrite(source, args.svg)
    zs = find_zeros(_load_analytic(args.state, args))
    overlay = find_zeros(_load_analytic(args.overlay, args)) if args.overlay else None
    ser.save_svg(args.svg, zs, overlay)
    print(f"wrote {args.svg}")
    return 0


_COMMANDS = {
    "state": _cmd_state,
    "zeros": _cmd_zeros,
    "reconstruct": _cmd_reconstruct,
    "overlap": _cmd_overlap,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


@functools.cache
def _shared_parser() -> _Parser:
    """One parser per process for :func:`main`: building it costs more than a parse,
    and each parse fills a fresh namespace, so no value carries over between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
