"""Command-line surface.

Commands: search, oracle, verify-identities, classify, emit-plot.
Exit codes are the only success/failure channel:
    0  success
    2  invalid flags, IO failure, or schema mismatch
    3  a search hit failed verification (anomaly signal)
    4  an exact identity failed (arithmetic bug signal)
    5  a forked scan worker of search --workers > 1 failed (raised, exited
       non-zero or died), so the search has no result

main parses a command's arguments with that command's own parser, built on
the command's first call in a process and kept for later calls.  No
argument, -h, an unknown command, an option before the command and an
argument the command does not know go through the full tree
(build_parser), so every help and error text is the tree's.  Each command's
flags are declared once, in the function of _COMMANDS that adds them.

main runs each command, from building its parser to the last line of
output, with CPython's cyclic garbage collector paused (gc.disable), and
then restores the collector as its caller had it.  No command makes a
reference cycle: every object it builds is freed by reference counting as
soon as it is dropped, and the tests check that gc.collect() finds nothing
after each command.  Only argparse makes a few: building a command's
parser leaves 6 (classify) to 27 (search) of its objects in cycles, and a
usage error 6; the collector's next pass frees them.  So the collector's
passes, about 1 ms of a 21 ms search at 10**12, were pure cost.  A forked
scan worker inherits the pause and ends through os._exit.  Library calls
such as search_solutions leave the collector alone.

classify prints its bundle from % string templates, the bytes json.dumps(bundle,
indent=2) writes; tests/test_cli.py's test_classify_output_bytes_are_pinned pins them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import identity, records
from .coprime import check_coprimality_propagation, exponent_orientation, exponent_restriction
from .errors import BealsearchError, NoRealRoot, ScanWorkerFailed, ZeroDenominator
from .exact_arith import Radical
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


def _bounded_flags(parser: argparse.ArgumentParser) -> None:
    """The flags that search and oracle share."""
    parser.add_argument("--bound", type=_int_flag, required=True,
                        help="maximum C^Z (accepts 10^12 / 1e12 spellings)")
    parser.add_argument("--min-x", type=int, default=3)
    parser.add_argument("--min-y", type=int, default=3)
    parser.add_argument("--min-z", type=int, default=3)
    parser.add_argument("--out", required=True, help="CSV output path")
    parser.add_argument("--report", help="optional JSON report path")


def _search_flags(parser: argparse.ArgumentParser) -> None:
    _bounded_flags(parser)
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers for the pair scan, at most the CPU count")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the report's config echo only; "
                             "the search is deterministic")
    parser.set_defaults(func=cmd_search)


def _oracle_flags(parser: argparse.ArgumentParser) -> None:
    _bounded_flags(parser)
    parser.set_defaults(func=cmd_oracle)


def _verify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cases", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0, help="seed of the random cases")
    parser.set_defaults(func=cmd_verify_identities)


def _classify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--triple", required=True, metavar="A,X,B,Y,C,Z")
    parser.set_defaults(func=cmd_classify)


def _plot_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="infile", required=True)
    parser.add_argument("--out", required=True)
    # svgplot.AXIS_CHOICES, spelled out so that only emit-plot imports svgplot
    parser.add_argument("--axes", choices=["abc", "axbycz"], default="axbycz")
    parser.add_argument("--log", action="store_true", help="log10 scale")
    parser.set_defaults(func=cmd_emit_plot)


# Each command's help and the function that adds its flags and its func to a
# parser, in the order of the full tree's help.
_COMMANDS = {
    "search": ("bounded exhaustive search (scan over the non-cube powers)", _search_flags),
    "oracle": ("naive triple-enumeration oracle (bound <= 10^7)", _oracle_flags),
    "verify-identities": ("randomized exact-identity suite", _verify_flags),
    "classify": ("full classification bundle for one triple", _classify_flags),
    "emit-plot": ("2-D SVG scatter from a hits CSV", _plot_flags),
}


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="bealsearch",
        description="Exact search and verification for A^X + B^Y = C^Z.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags) in _COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_text))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, as the full tree's subparser for it, built
    on the command's first call; parse_args keeps no state on a parser, so
    one serves every later call in the process."""
    parser = argparse.ArgumentParser(prog=f"bealsearch {name}")
    _COMMANDS[name][1](parser)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by its command's own parser, or else by the full tree
    (module docstring), whose usage names the arguments a command does not
    know."""
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


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
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if args.workers > cpus:
        raise ValueError(f"--workers {args.workers} exceeds the {cpus} CPUs this process can use")
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


# classify's bundle (module docstring): one template per kind of object, at its depth.  A
# quoted %s takes a decimal integer, a fraction or a class name, which need no escaping.
_BUNDLE = ('{\n  "triple": {\n    "A": "%s",\n    "X": "%s",\n    "B": "%s",\n    "Y": "%s",\n'
           '    "C": "%s",\n    "Z": "%s"\n  },\n  "powers": {\n    "A_pow_X": "%s",\n'
           '    "B_pow_Y": "%s",\n    "C_pow_Z": "%s"\n  },\n  "equation_holds": %s,\n'
           '  "gcd_abc": "%s",\n  "coprimality": %s,\n  "exponent_restriction": %s,\n'
           '  "exponent_orientation": %s,\n  "alpha": %s,\n  "beta": %s,\n  "alpha_ca": %s,\n'
           '  "beta_ca": %s,\n  "scalar_m": %s,\n  "slopes": {\n    "m_cb": %s,\n'
           '    "m_ca": %s,\n    "m_ba": %s\n  }\n}')
_RADICAL = ('{\n    "sign": %d,\n    "radicand": "%s",\n    "degree": %d,\n'
            '    "class": "%s",\n    "value": %s\n  }')
_RADICAL_SLOPE = ('{\n      "radicand": "%s",\n      "degree": %d,\n      "class": "%s",\n'
                  '      "value": %s,\n      "smallest_lattice_point": null\n    }')
_RATIONAL_SLOPE = ('{\n      "class": "rational",\n      "value": "%s",\n'
                   '      "smallest_lattice_point": [\n        %d,\n        %d\n      ]\n    }')
_COPRIMALITY = ('{\n    "gcd_ab": "%s",\n    "gcd_ac": "%s",\n    "gcd_bc": "%s",\n'
                '    "gcd_abc": "%s",\n    "pairwise_all_one": %s,\n    "shared_primes": {\n'
                '      "ab": %s,\n      "ac": %s,\n      "bc": %s\n    }\n  }')
_SHARED_PRIME = '\n        [\n          "%s",\n          %d\n        ]'
_SCALAR = '{\n    "estimate": %s,\n    "exact": %s,\n    "error": %s\n  }'


def _quoted(value) -> str:
    return "null" if value is None else '"%s"' % value


def _radical_text(radical: Radical) -> str:
    cls = radical.classification
    return _RADICAL % (*radical, cls.kind, _quoted(cls.value))  # sign, radicand, degree


def _slope_text(value) -> str:
    if isinstance(value, Radical):
        cls = value.classification
        return _RADICAL_SLOPE % (value.radicand, value.degree, cls.kind, _quoted(cls.value))
    return _RATIONAL_SLOPE % (value, *smallest_lattice_point(value))


def _shared_primes_text(factors) -> str:
    if not factors:
        return "null" if factors is None else "[]"
    return "[%s\n      ]" % ",".join([_SHARED_PRIME % (p, m) for p, m in factors])


def _coprimality_text(triple: BealTriple) -> str:
    if not triple.equation_holds:
        return "null"
    report = check_coprimality_propagation(triple)
    shared = [_shared_primes_text(report.shared_primes[pair]) for pair in ("ab", "ac", "bc")]
    return _COPRIMALITY % (report.gcd_ab, report.gcd_ac, report.gcd_bc, report.gcd_abc,
                           "true" if report.pairwise_all_one else "false", *shared)


def _scalar_text(triple: BealTriple, pair) -> str:
    try:
        m = scalar_estimate(triple, pair)
    except (NoRealRoot, ZeroDenominator) as exc:
        return _SCALAR % ("null", "null", encode_basestring_ascii(str(exc)))
    return _SCALAR % (_quoted(m), "null" if isinstance(m, str) else _quoted(m), "null")


def classify_text(triple: BealTriple) -> str:
    """The full classification bundle of one triple, as JSON text (module docstring)."""
    pair_cb = canonical_alpha_beta(triple, Plane.CB)
    pair_ca = canonical_alpha_beta(triple, Plane.CA)
    slopes = slope_set(triple)
    coprimality = _coprimality_text(triple)
    exponents = (triple.X, triple.Y, triple.Z)
    checks = ["null", "null"] if min(exponents) < 3 else [  # restriction, orientation
        encode_basestring_ascii(check(*exponents).value)
        for check in (exponent_restriction, exponent_orientation)]
    return _BUNDLE % (
        *triple, triple.ax, triple.by, triple.cz, "true" if triple.equation_holds else "false",
        triple.gcd_abc, coprimality, *checks,
        *map(_radical_text, (pair_cb.alpha, pair_cb.beta, pair_ca.alpha, pair_ca.beta)),
        _scalar_text(triple, pair_cb), *map(_slope_text, (slopes.m_cb, slopes.m_ca, slopes.m_ba)))


def cmd_classify(args) -> int:
    triple = BealTriple.parse(args.triple)
    size = max(triple.X, triple.Y, triple.Z) * max(
        triple.A.bit_length(), triple.B.bit_length(), triple.C.bit_length())
    if size > _CLASSIFY_MAX_BITS:
        raise ValueError(f"--triple {args.triple}: need max(X, Y, Z) * max(bits(A), bits(B), "
                         f"bits(C)) <= {_CLASSIFY_MAX_BITS}, got {size}")
    print(classify_text(triple))
    return 0


def cmd_emit_plot(args) -> int:
    from . import svgplot

    hit_records = records.read_csv(args.infile)
    records.write_text(args.out, svgplot.emit_scatter(
        hit_records, axes=args.axes, log_scale=args.log, title=f"{len(hit_records)} hits"))
    print(f"emit-plot: {len(hit_records)} markers -> {args.out}")
    return 0


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
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
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
