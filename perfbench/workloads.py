"""Workload definitions: seeded inputs, the timed call into the CLI, checks.

Every workload drives the program only through ``bealsearch.cli.main``, the
entry point of the ``bealsearch`` command, and checks what it printed or
wrote without trusting the program's own verdicts.  Each check outcome is
one operation, counted in the ``Check`` a workload's check returns.

This module imports bealsearch lazily, inside functions, so the driver can
import it without the program being present.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Search parameters: (bound, (min_x, min_y, min_z), workers); smoke variants
# run at 10^6, where the naive oracle is an independent reference.
SEARCH_PARAMS = {
    "search_desk": (10 ** 12, (3, 3, 3), 1),
    "search_split": (10 ** 13, (4, 3, 3), 2),
}
SMOKE_SEARCH_BOUND = 10 ** 6

# Per child process: family + random classify triples, identity cases.
CLASSIFY_BATCH = (100, 100)
SMOKE_CLASSIFY_BATCH = (3, 3)
IDENTITY_CASES = 500
SMOKE_IDENTITY_CASES = 20

# Family parameters keep c = a^n + b^n below 10^12 (2 * 30^7 < 4.5e10), so
# c has at most one prime factor above the trial-division limit of 10^6 and
# every shared-prime gcd factors completely without Brent's rho.
FAMILY_BASE_MAX = 30
FAMILY_EXP_RANGE = (3, 7)
FAMILY_K_RANGE = (1, 2)
RANDOM_BASE_RANGE = (2, 60)
RANDOM_EXP_RANGE = (3, 8)

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Outcome:
    """What the timed calls into the CLI returned and printed."""

    codes: list[int]
    stdout: list[str]


@dataclass(frozen=True)
class Check:
    attempted: int
    failed: int
    work: int              # pairs tested, triples classified or cases checked
    details: dict


def child_seed(seed: int, iteration: int) -> int:
    """Seed of one child process's inputs: same (seed, iteration), same inputs."""
    return seed * 1_000_003 + iteration


def call_main(argv: list[str]) -> tuple[int, str]:
    """Run the ``bealsearch`` command in-process, capturing its stdout."""
    from bealsearch.cli import main
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def run_single(argv: list[str]) -> Outcome:
    code, text = call_main(argv)
    return Outcome(codes=[code], stdout=[text])


# --- search_desk / search_split ------------------------------------------------

def search_argv(workload: str, seed: int, smoke: bool, workdir: str,
                workers: int | None = None) -> list[str]:
    bound, (min_x, min_y, min_z), default_workers = SEARCH_PARAMS[workload]
    if smoke:
        bound = SMOKE_SEARCH_BOUND
    return ["search", "--bound", str(bound),
            "--min-x", str(min_x), "--min-y", str(min_y), "--min-z", str(min_z),
            "--out", os.path.join(workdir, "hits.csv"),
            "--report", os.path.join(workdir, "report.json"),
            "--workers", str(workers or default_workers), "--seed", str(seed)]


def family_members(bound: int, minimums: tuple[int, int, int]) -> list:
    """Canonical members of two solution families within bound and minimums.

    2^n + 2^n = 2^(n+1), and (a*c^k)^n + (b*c^k)^n = c^(kn+1) with
    c = a^n + b^n.  The search must report every one of them.
    """
    from bealsearch.triples import BealTriple
    lo, hi = sorted(minimums[:2])
    min_z = minimums[2]
    members = set()

    def admit(triple):
        triple = triple.canonical()
        if (triple.cz <= bound and min(triple.X, triple.Y) >= lo
                and max(triple.X, triple.Y) >= hi and triple.Z >= min_z):
            members.add(triple)

    n = 3
    while 2 ** (n + 1) <= bound:
        admit(BealTriple(2, n, 2, n, 2, n + 1))
        a = 1
        while (a ** n + a ** n) ** (n + 1) <= bound:
            b = a
            while (a ** n + b ** n) ** (n + 1) <= bound:
                c = a ** n + b ** n
                k = 1
                while c ** (k * n + 1) <= bound:
                    admit(BealTriple(a * c ** k, n, b * c ** k, n, c, k * n + 1))
                    k += 1
                b += 1
            a += 1
        n += 1
    return sorted(members, key=lambda t: (t.cz, t.by, t.ax))


def check_search(workload: str, argv: list[str], outcome: Outcome, smoke: bool) -> Check:
    """Check the hits CSV and JSON report of one search run.

    Operations: one per hit (verify_hit and the power/gcd columns), one per
    family member (present in the hit set), and one for the run as a whole
    (exit code, CSV digest or oracle bytes, hit count, order, JSON = CSV).
    """
    from bealsearch import records
    from bealsearch.search import brute_force_oracle, verify_hit
    from bealsearch.triples import BealTriple
    bound = int(argv[argv.index("--bound") + 1])
    minimums = SEARCH_PARAMS[workload][1]
    with open(argv[argv.index("--out") + 1], "rb") as handle:
        csv_bytes = handle.read()
    with open(argv[argv.index("--report") + 1], "r", encoding="utf-8") as handle:
        json_text = handle.read()
    csv_records = records.parse_csv(csv_bytes.decode("utf-8"))
    json_records = records.parse_json(json_text)
    counts = json.loads(json_text)["counts"]

    problems = []
    if outcome.codes != [0]:
        problems.append(f"exit codes {outcome.codes}")
    if json_records != csv_records:
        problems.append("JSON report hits differ from the CSV")
    digest = hashlib.sha256(csv_bytes).hexdigest()
    if smoke:
        oracle = records.emit_csv(records.records_from_report(
            brute_force_oracle(bound, minimums))).encode("utf-8")
        if csv_bytes != oracle:
            problems.append("CSV differs from the brute-force oracle")
    else:
        with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
            expected = json.load(handle)[workload]
        if digest != expected["csv_sha256"]:
            problems.append(f"CSV sha256 {digest} != {expected['csv_sha256']}")
        if len(csv_records) != expected["hits"]:
            problems.append(f"{len(csv_records)} hits != {expected['hits']}")
    if counts["hits"] != len(csv_records):
        problems.append("report hit count differs from the CSV")

    bad_hits = 0
    triples = []
    for record in csv_records:
        triple = BealTriple(*(int(getattr(record, name)) for name in "AXBYCZ"))
        triples.append(triple)
        columns_ok = (int(record.A_pow_X) == triple.ax and int(record.B_pow_Y) == triple.by
                      and int(record.C_pow_Z) == triple.cz
                      and int(record.gcd_abc) == math.gcd(triple.A, triple.B, triple.C))
        if not (columns_ok and verify_hit(triple, minimums).passed):
            bad_hits += 1
    keys = [(t.cz, t.by, t.ax) for t in triples]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("hits are not strictly sorted by (C^Z, B^Y, A^X)")

    members = family_members(bound, minimums)
    found = set(triples)
    missing = [str(t) for t in members if t not in found]

    failed = bad_hits + len(missing) + (1 if problems else 0)
    attempted = len(csv_records) + len(members) + 1
    return Check(attempted, failed, counts["pairs_tested"], {
        "hits": len(csv_records), "pairs_tested": counts["pairs_tested"],
        "powers": counts["powers_enumerated"], "csv_sha256": digest,
        "family_members": len(members), "missing_members": missing[:5],
        "bad_hits": bad_hits, "problems": problems,
        "bytes_written": len(csv_bytes) + len(json_text.encode("utf-8"))})


# --- classify_batch ---------------------------------------------------------------

def classify_inputs(seed: int, smoke: bool) -> list[tuple[int, ...]]:
    """A family half of common-factor solutions, then random non-solutions."""
    n_family, n_random = SMOKE_CLASSIFY_BATCH if smoke else CLASSIFY_BATCH
    rng = random.Random(seed)
    triples = []
    for _ in range(n_family):
        a = rng.randint(1, FAMILY_BASE_MAX)
        b = rng.randint(1, FAMILY_BASE_MAX)
        n = rng.randint(*FAMILY_EXP_RANGE)
        k = rng.randint(*FAMILY_K_RANGE)
        c = a ** n + b ** n
        triples.append((a * c ** k, n, b * c ** k, n, c, k * n + 1))
    for _ in range(n_random):
        triples.append(tuple(rng.randint(*RANDOM_BASE_RANGE) if i % 2 == 0
                             else rng.randint(*RANDOM_EXP_RANGE) for i in range(6)))
    return triples


def run_classify(triples) -> Outcome:
    outcome = Outcome(codes=[], stdout=[])
    for triple in triples:
        code, text = call_main(["classify", "--triple", ",".join(map(str, triple))])
        outcome.codes.append(code)
        outcome.stdout.append(text)
    return outcome


def _bundle_problem(triple, code: int, text: str) -> str | None:
    """Why one classify bundle is wrong, or None; recomputes from the inputs."""
    if code != 0:
        return f"exit code {code}"
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    A, X, B, Y, C, Z = triple
    ax, by, cz = A ** X, B ** Y, C ** Z
    if [int(obj["triple"][name]) for name in ("A", "X", "B", "Y", "C", "Z")] != list(triple):
        return "triple echo differs from the input"
    powers = obj["powers"]
    if (int(powers["A_pow_X"]), int(powers["B_pow_Y"]), int(powers["C_pow_Z"])) != (ax, by, cz):
        return "powers differ"
    holds = ax + by == cz
    if obj["equation_holds"] is not holds:
        return "equation_holds differs"
    if int(obj["gcd_abc"]) != math.gcd(A, B, C):
        return "gcd_abc differs"
    coprimality = obj["coprimality"]
    if not holds:
        return None if coprimality is None else "coprimality reported for a non-solution"
    gcds = {"ab": math.gcd(ax, by), "ac": math.gcd(ax, cz), "bc": math.gcd(by, cz)}
    for pair, gcd in gcds.items():
        if int(coprimality[f"gcd_{pair}"]) != gcd:
            return f"gcd_{pair} differs"
        factors = coprimality["shared_primes"][pair]
        if factors is None:
            return f"gcd_{pair} was not factored"
        if math.prod(int(p) ** m for p, m in factors) != gcd:
            return f"shared primes of gcd_{pair} do not multiply back to it"
    return None


def check_classify(triples, outcome: Outcome) -> Check:
    problems = [(triple, _bundle_problem(triple, code, text))
                for triple, code, text in zip(triples, outcome.codes, outcome.stdout)]
    bad = [f"{triple}: {why}" for triple, why in problems if why is not None]
    solutions = sum(1 for a, x, b, y, c, z in triples if a ** x + b ** y == c ** z)
    return Check(len(triples), len(bad), len(triples),
                 {"triples": len(triples), "solutions": solutions, "bad_bundles": bad[:5]})


# --- identities -------------------------------------------------------------------

def identity_argv(seed: int, smoke: bool) -> list[str]:
    cases = SMOKE_IDENTITY_CASES if smoke else IDENTITY_CASES
    return ["verify-identities", "--cases", str(cases), "--seed", str(seed)]


def check_identities(argv: list[str], outcome: Outcome) -> Check:
    cases = int(argv[argv.index("--cases") + 1])
    code, text = outcome.codes[0], outcome.stdout[0]
    if code == 0 and f"{cases} instances held exactly" in text:
        failed = 0
    elif code == 4 and "instances FAILED" in text:
        failed = int(text.split("verify-identities: ")[1].split("/")[0])
    else:
        failed = cases
    return Check(cases, failed, cases, {"cases": cases, "exit_code": code})


@dataclass(frozen=True)
class Workload:
    """make_inputs(seed, smoke, workdir, workers) -> inputs; run(inputs) ->
    Outcome (the timed part); check(inputs, outcome, smoke) -> Check."""

    make_inputs: Callable
    run: Callable
    check: Callable
    min_cpus: int = 1


def _search(name: str) -> Workload:
    return Workload(
        make_inputs=lambda seed, smoke, workdir, workers:
            search_argv(name, seed, smoke, workdir, workers),
        run=run_single,
        check=lambda argv, outcome, smoke: check_search(name, argv, outcome, smoke),
        min_cpus=SEARCH_PARAMS[name][2])


WORKLOADS = {
    "search_desk": _search("search_desk"),
    "search_split": _search("search_split"),
    "classify_batch": Workload(
        make_inputs=lambda seed, smoke, workdir, workers: classify_inputs(seed, smoke),
        run=run_classify,
        check=lambda triples, outcome, smoke: check_classify(triples, outcome)),
    "identities": Workload(
        make_inputs=lambda seed, smoke, workdir, workers: identity_argv(seed, smoke),
        run=run_single,
        check=lambda argv, outcome, smoke: check_identities(argv, outcome)),
}
