"""Command-line interface.

Subcommands: measure (compute a value), encode (write DIMACS/WCNF),
emit-asp (write a solver-ready program), generate (write a random corpus),
bench (run the method matrix and write CSV reports).

Exit codes: 0 success, 1 usage or input error, 2 backend failure,
3 timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import asp as asp_mod
from . import bench, encodings
from .kb import KbSyntaxError, KnowledgeBase, load_kb
from .oracles import CapExceededError, MeasureUndefinedError
from .search import METHODS, RunConfig, SearchOutcome, compute
from .solver import (MAX_TIMEOUT, BackendConfig, BackendUnavailableError, SolverOutputError,
                     emit_dimacs, emit_wcnf)
from .values import MEASURES, format_value

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BACKEND = 2
EXIT_TIMEOUT = 3

SAT_SOLVER_ENV = "INCMETER_SAT_SOLVER"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="incmeter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_backend_flags(p):
        p.add_argument("--timeout", type=float, default=600.0,
                       help="seconds for the whole computation (bench: for each run), "
                       f"at most {MAX_TIMEOUT:.0f}")
        p.add_argument("--sat-solver", default=os.environ.get(SAT_SOLVER_ENV) or None,
                       help=f"external DIMACS solver binary (default: ${SAT_SOLVER_ENV}, "
                       "else the built-in engine)")
        p.add_argument("--asp-solver", help="external ASP solver binary")

    p = sub.add_parser("measure", help="compute an inconsistency value")
    p.add_argument("input", help="KB file")
    p.add_argument("--measure", required=True, choices=MEASURES)
    p.add_argument(
        "--method", default="sat", choices=["sat", "maxsat", "naive", "asp"]
    )
    p.add_argument("--search", default="binary", choices=["binary", "linear"])
    add_backend_flags(p)

    p = sub.add_parser("encode", help="write the DIMACS/WCNF upper-bound instance")
    p.add_argument("input", help="KB file")
    p.add_argument("--measure", required=True, choices=MEASURES)
    p.add_argument("-u", "--bound", type=int, help="candidate upper bound")
    p.add_argument(
        "--maxsat", action="store_true", help="write the WCNF instance (contension)"
    )
    p.add_argument("-o", "--output", help="output path (default: stdout)")

    p = sub.add_parser("emit-asp", help="write the answer-set program")
    p.add_argument("input", help="KB file")
    p.add_argument("--measure", required=True, choices=MEASURES)
    p.add_argument("-o", "--output", help="output path (default: stdout)")

    p = sub.add_parser("generate", help="write a random KB corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--atoms", type=int, default=3)
    p.add_argument("--formulas", default="5:15", help="formula count range LO:HI")
    p.add_argument("--pd", type=float, default=0.3)
    p.add_argument("--pc", type=float, default=0.3)
    p.add_argument("--pn", type=float, default=0.3)
    p.add_argument("--discount", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="run the measure/method matrix")
    p.add_argument("inputs", nargs="+", help=".kb files or directories of them")
    p.add_argument("--measures", default=",".join(MEASURES), help="comma-separated")
    p.add_argument(
        "--methods", default="sat-binary,naive", help=f"comma-separated, from {METHODS}"
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="report directory")
    add_backend_flags(p)
    return parser


def _run_config(args) -> RunConfig:
    backend = BackendConfig(solver_path=args.sat_solver, timeout=args.timeout)
    return RunConfig(backend=backend, asp_solver=args.asp_solver)


def _method_name(args) -> str:
    if args.method == "sat":
        return f"sat-{args.search}"
    return args.method


def _outcome_json(outcome: SearchOutcome) -> str:
    payload = {
        "measure": outcome.measure,
        "method": outcome.method,
        "status": outcome.status,
        "value": None if outcome.value is None else format_value(outcome.value),
        # the range a timed-out search left undecided
        "bounds": None if outcome.bounds is None else list(outcome.bounds),
        "solverCalls": outcome.solver_calls,
        "engineCounters": outcome.engine_counters,
        "phaseTimes": {k: round(v, 6) for k, v in outcome.phase_times.items()},
        "totalSeconds": round(outcome.total_seconds, 6),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _cmd_measure(args) -> int:
    kb = load_kb(args.input)
    outcome = compute(args.measure, kb, _method_name(args), _run_config(args))
    if outcome.timed_out:
        print("timeout")
        print(_outcome_json(outcome))
        return EXIT_TIMEOUT
    print(format_value(outcome.value))
    print(_outcome_json(outcome))
    return EXIT_OK


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_encode(args) -> int:
    kb = load_kb(args.input)
    if args.maxsat:
        if args.measure != "contension":
            raise MeasureUndefinedError("--maxsat is only defined for contension")
        inst = encodings.encode_contension_maxsat(kb)
        _write_text(args.output, emit_wcnf(inst.hard, inst.soft_units))
        return EXIT_OK
    if args.bound is None:
        print("incmeter encode: error: -u/--bound is required", file=sys.stderr)
        return EXIT_USAGE
    enc = encodings.encode(args.measure, kb, args.bound)
    _write_text(args.output, emit_dimacs(enc.cnf))
    return EXIT_OK


def _cmd_emit_asp(args) -> int:
    kb = load_kb(args.input)
    program = asp_mod.emit_asp(args.measure, kb)
    _write_text(args.output, program.text())
    return EXIT_OK


def _cmd_generate(args) -> int:
    lo, sep, hi = args.formulas.partition(":")
    params = bench.SrsParams(
        signature_size=args.atoms,
        formulas_min=int(lo),
        formulas_max=int(hi) if sep else int(lo),
        pd=args.pd,
        pc=args.pc,
        pn=args.pn,
        discount=args.discount,
        seed=args.seed,
    )
    names = bench.write_corpus(params, args.count, args.out)
    print(f"wrote {len(names)} instances to {args.out}")
    return EXIT_OK


def _collect_kbs(inputs: list[str]) -> list[tuple[str, KnowledgeBase]]:
    paths: list[Path] = []
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            paths.extend(sorted(path.glob("*.kb")))
        else:
            paths.append(path)
    return [(path.stem, load_kb(str(path))) for path in paths]


def _cmd_bench(args) -> int:
    kbs = _collect_kbs(args.inputs)
    measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in measures:
        if m not in MEASURES:
            raise MeasureUndefinedError(f"unknown measure {m!r}")
    for m in methods:
        if m not in METHODS:
            raise MeasureUndefinedError(f"unknown method {m!r}")
    records = bench.run_matrix(kbs, measures, methods, _run_config(args), args.workers)
    written = bench.emit_reports(records, args.out)
    timeouts = sum(1 for r in records if r.timed_out)
    backend_errors = sum(1 for r in records if r.status == "backend-error")
    not_run = sum(1 for r in records if r.status in ("cap", "undefined"))
    print(f"{len(records)} runs, {timeouts} timeouts, {not_run} over a cap or undefined, "
          f"{backend_errors} backend errors; reports in {args.out}")
    for name in written:
        print(f"  {name}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "measure": _cmd_measure,
        "encode": _cmd_encode,
        "emit-asp": _cmd_emit_asp,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (BackendUnavailableError, SolverOutputError) as exc:
        print(f"incmeter: backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (KbSyntaxError, MeasureUndefinedError, CapExceededError, ValueError, OSError) as exc:
        print(f"incmeter: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
