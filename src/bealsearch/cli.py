"""Command-line surface.

Commands: search, oracle, verify-identities, classify, emit-plot.
Exit codes are the only success/failure channel:
    0  success
    2  invalid flags, IO failure, or schema mismatch
    3  a search hit failed verification (anomaly signal)
    4  an exact identity failed (arithmetic bug signal)
    5  a forked scan worker of search --workers > 1 failed (raised, exited
       non-zero or died), so the search has no result

main runs each command, from building the parser to the last line of
output, with CPython's cyclic garbage collector paused (gc.disable), and
then restores the collector as its caller had it.  No command makes a
reference cycle: every object it builds is freed by reference counting as
soon as it is dropped, and the tests check that gc.collect() finds nothing
after each command.  Only argparse makes a few: building the parser, once
per process, leaves about 70 of its help-formatter objects in cycles, and
a usage error 6; the collector's next pass frees them.  So the collector's
passes, about 1 ms of a 21 ms search at 10**12, were pure cost.  A forked
scan worker inherits the pause and ends through os._exit.  Library calls
such as search_solutions leave the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from fractions import Fraction

from . import identity, records
from .coprime import check_coprimality_propagation, exponent_orientation, exponent_restriction
from .errors import BealsearchError, NoRealRoot, ScanWorkerFailed, ZeroDenominator
from .exact_arith import RATIONAL, Radical
from .reparam import Plane, canonical_alpha_beta, scalar_estimate
from .search import SearchConfig, brute_force_oracle, search_solutions
from .slopes import slope_set, smallest_lattice_point
from .triples import BealTriple


# Far past any bound a search can finish, and instant to build.
_FLAG_MAX_BITS = 4096
# classify's powers stay within this many bits, so every integer it prints
# (the radicands reach denominators of about 4 times as many bits) stays
# under CPython's 4,300-digit limit on int-to-str conversion.
_CLASSIFY_MAX_BITS = 2048


def _flag_power(base: int, exp: int, text: str) -> int:
    """base**exp, refused before it is built unless it is a modest integer."""
    if exp < 0 or exp * base.bit_length() > _FLAG_MAX_BITS:
        raise argparse.ArgumentTypeError(f"{text}: need exponent >= 0 and "
                                         f"exponent * bits(base) <= {_FLAG_MAX_BITS}")
    return base ** exp


def _int_flag(text: str) -> int:
    """Parse an integer flag, allowing 10^12 / 1e12 / 1_000_000 spellings."""
    t = text.strip().replace("_", "")
    if "^" in t:
        base, _, exp = t.partition("^")
        return _flag_power(int(base), int(exp), text)
    lower = t.lower()
    if "e" in lower and "." not in lower:
        base, _, exp = lower.partition("e")
        return int(base) * _flag_power(10, int(exp), text)
    return int(t)


def build_parser() -> argparse.ArgumentParser:
    bounded = argparse.ArgumentParser(add_help=False)
    bounded.add_argument("--bound", type=_int_flag, required=True,
                         help="maximum C^Z (accepts 10^12 / 1e12 spellings)")
    bounded.add_argument("--min-x", type=int, default=3)
    bounded.add_argument("--min-y", type=int, default=3)
    bounded.add_argument("--min-z", type=int, default=3)
    bounded.add_argument("--out", required=True, help="CSV output path")
    bounded.add_argument("--report", help="optional JSON report path")

    parser = argparse.ArgumentParser(
        prog="bealsearch",
        description="Exact search and verification for A^X + B^Y = C^Z.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", parents=[bounded],
                              help="bounded exhaustive search (scan over the non-cube powers)")
    p_search.add_argument("--workers", type=int, default=1,
                          help="parallel workers for the pair scan, at most the CPU count")
    p_search.add_argument("--seed", type=int, default=0,
                          help="recorded in the report's config echo only; "
                               "the search is deterministic")
    p_search.set_defaults(func=cmd_search)

    p_oracle = sub.add_parser("oracle", parents=[bounded],
                              help="naive triple-enumeration oracle (bound <= 10^7)")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify-identities", help="randomized exact-identity suite")
    p_verify.add_argument("--cases", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0, help="seed of the random cases")
    p_verify.set_defaults(func=cmd_verify_identities)

    p_classify = sub.add_parser("classify", help="full classification bundle for one triple")
    p_classify.add_argument("--triple", required=True, metavar="A,X,B,Y,C,Z")
    p_classify.set_defaults(func=cmd_classify)

    p_plot = sub.add_parser("emit-plot", help="2-D SVG scatter from a hits CSV")
    p_plot.add_argument("--in", dest="infile", required=True)
    p_plot.add_argument("--out", required=True)
    # svgplot.AXIS_CHOICES, spelled out so that only emit-plot imports svgplot
    p_plot.add_argument("--axes", choices=["abc", "axbycz"], default="axbycz")
    p_plot.add_argument("--log", action="store_true", help="log10 scale")
    p_plot.set_defaults(func=cmd_emit_plot)

    return parser


def _finish(report, args, summary: str) -> int:
    """Write the CSV and JSON outputs, print the summary, and name failed checks.

    The time to build and write the CSV goes into the report's phases as
    emit_s; it follows the search, so wall_time_s does not count it.
    """
    started = time.perf_counter()
    hit_records = records.records_from_report(report)
    records.write_text(args.out, records.emit_csv(hit_records))
    report.phases["emit_s"] = time.perf_counter() - started
    if args.report:
        records.write_text(args.report, records.emit_json(report, hit_records=hit_records))
    print(summary)
    failures = [hit for hit in report.hits if not hit.passed]
    for hit in failures:
        print(f"VERIFICATION FAILED for {hit.triple}: "
              f"{hit.failed_checks()}", file=sys.stderr)
    return 3 if failures else 0


def cmd_search(args) -> int:
    cpus = os.cpu_count() or 1
    if args.workers > cpus:
        raise ValueError(f"--workers {args.workers} exceeds the {cpus} CPUs of this machine")
    config = SearchConfig(
        bound=args.bound,
        min_x=args.min_x, min_y=args.min_y, min_z=args.min_z,
        workers=args.workers, seed=args.seed,
    )
    report = search_solutions(config)
    return _finish(report, args, f"search: bound={config.bound} hits={len(report.hits)} "
                                 f"pairs_tested={report.counts['pairs_tested']} "
                                 f"wall={report.wall_time_s:.2f}s -> {args.out}")


def cmd_oracle(args) -> int:
    report = brute_force_oracle(args.bound, (args.min_x, args.min_y, args.min_z))
    return _finish(report, args, f"oracle: bound={args.bound} hits={len(report.hits)} "
                                 f"wall={report.wall_time_s:.2f}s -> {args.out}")


def cmd_verify_identities(args) -> int:
    if args.cases < 1:
        raise ValueError(f"--cases must be >= 1, got {args.cases}")
    failures = identity.run_random_suite(args.cases, args.seed)
    if failures:
        for description in failures[:10]:
            print(f"IDENTITY FAILED: {description}", file=sys.stderr)
        print(f"verify-identities: {len(failures)}/{args.cases} instances FAILED")
        return 4
    print(f"verify-identities: {args.cases} instances held exactly (seed={args.seed})")
    return 0


def _radical_obj(radical: Radical) -> dict:
    cls = radical.classification
    return {
        "sign": radical.sign,
        "radicand": str(radical.radicand),
        "degree": radical.degree,
        "class": cls.kind,
        "value": str(cls.value) if cls.value is not None else None,
    }


def _slope_obj(value) -> dict:
    if isinstance(value, Fraction):
        return {"class": RATIONAL, "value": str(value),
                "smallest_lattice_point": list(smallest_lattice_point(value))}
    obj = _radical_obj(value)
    obj.pop("sign")
    obj["smallest_lattice_point"] = None
    return obj


def _coprimality_obj(triple: BealTriple) -> dict | None:
    if not triple.equation_holds:
        return None
    report = check_coprimality_propagation(triple)
    shared = {
        pair: None if factors is None else [[str(p), m] for p, m in factors]
        for pair, factors in report.shared_primes.items()
    }
    return {
        "gcd_ab": str(report.gcd_ab),
        "gcd_ac": str(report.gcd_ac),
        "gcd_bc": str(report.gcd_bc),
        "gcd_abc": str(report.gcd_abc),
        "pairwise_all_one": report.pairwise_all_one,
        "shared_primes": shared,
    }


def _scalar_obj(triple: BealTriple, pair) -> dict:
    try:
        m = scalar_estimate(triple, pair)
    except (NoRealRoot, ZeroDenominator) as exc:
        return {"estimate": None, "exact": None, "error": str(exc)}
    if isinstance(m, str):
        return {"estimate": m, "exact": None, "error": None}
    return {"estimate": str(m), "exact": str(m), "error": None}


def classify_obj(triple: BealTriple) -> dict:
    """The full classification bundle for one triple, JSON-serializable."""
    pair_cb = canonical_alpha_beta(triple, Plane.CB)
    pair_ca = canonical_alpha_beta(triple, Plane.CA)
    slopes = slope_set(triple)
    exponents_ok = min(triple.X, triple.Y, triple.Z) >= 3
    return {
        "triple": {name: str(getattr(triple, name)) for name in ("A", "X", "B", "Y", "C", "Z")},
        "powers": {
            "A_pow_X": str(triple.ax),
            "B_pow_Y": str(triple.by),
            "C_pow_Z": str(triple.cz),
        },
        "equation_holds": triple.equation_holds,
        "gcd_abc": str(triple.gcd_abc),
        "coprimality": _coprimality_obj(triple),
        "exponent_restriction": (
            exponent_restriction(triple.X, triple.Y, triple.Z).value if exponents_ok else None),
        "exponent_orientation": (
            exponent_orientation(triple.X, triple.Y, triple.Z).value if exponents_ok else None),
        "alpha": _radical_obj(pair_cb.alpha),
        "beta": _radical_obj(pair_cb.beta),
        "alpha_ca": _radical_obj(pair_ca.alpha),
        "beta_ca": _radical_obj(pair_ca.beta),
        "scalar_m": _scalar_obj(triple, pair_cb),
        "slopes": {
            "m_cb": _slope_obj(slopes.m_cb),
            "m_ca": _slope_obj(slopes.m_ca),
            "m_ba": _slope_obj(slopes.m_ba),
        },
    }


def cmd_classify(args) -> int:
    triple = BealTriple.parse(args.triple)
    size = max(triple.X, triple.Y, triple.Z) * max(
        triple.A.bit_length(), triple.B.bit_length(), triple.C.bit_length())
    if size > _CLASSIFY_MAX_BITS:
        raise ValueError(f"--triple {args.triple}: need max(X, Y, Z) * max(bits(A), bits(B), "
                         f"bits(C)) <= {_CLASSIFY_MAX_BITS}, got {size}")
    print(records.json_text(classify_obj(triple)))
    return 0


def cmd_emit_plot(args) -> int:
    from . import svgplot

    hit_records = records.read_csv(args.infile)
    records.write_text(args.out, svgplot.emit_scatter(
        hit_records, axes=args.axes, log_scale=args.log, title=f"{len(hit_records)} hits"))
    print(f"emit-plot: {len(hit_records)} markers -> {args.out}")
    return 0


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused (module
    docstring), and leave the collector as the caller had it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    global _parser
    if _parser is None:
        # parse_args keeps no state on the parser, so one serves every call
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ScanWorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (BealsearchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
