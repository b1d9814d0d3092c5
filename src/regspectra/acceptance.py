"""The acceptance suite: every verifiable claim the package certifies, with
one result object per claim.

Each claim is declared once, by `@_claim(...)` on its check; CRITERIA,
SUITES, RUNTIME_CAPS and EXPECTED_FAILURES are filled from those
declarations, and both the `verify` CLI and tests/test_acceptance.py read
them.  Claim 5 is special: the universal-fat identity it quotes is off by a
-1 shift (see the hoffman module docstring), so the claim as stated fails
for every input with |lambda_min(q(H)) + lambda_max(co-H)| exactly 1.  It
is kept, honestly red, next to the corrected identity which holds to 1e-8
on the same sample.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import association, bounds, hoffman, ramsey, search
from .construct import (
    complement,
    complete_bipartite,
    complete_multipartite,
    coclique_extension,
    cycle,
    disjoint_union,
    edgeless,
    k_tilde,
    line_graph,
    petersen,
    random_graph,
)
from .graphs import regularity_params
from .hoffman import HoffmanGraph, attach_universal_fat, fatten
from .spectra import (
    GROUP_TOL,
    INTERLACING_TOL,
    coclique_extension_spectrum,
    eig_symmetric,
    lambda_min_at_least,
    quotient_matrix,
    spectrum,
    spectrum_is,
)


@dataclass
class ClaimResult:
    cid: str
    title: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.note}]" if self.note else ""
        return f"[{status}] {self.cid}: {self.title} ({self.seconds:.2f}s){extra}"

    def to_json_obj(self) -> dict:
        return {
            "id": self.cid,
            "title": self.title,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "details": self.details,
            "note": self.note,
        }


CRITERIA: dict[str, Callable[[], ClaimResult]] = {}
SUITES: dict[str, list[str]] = {
    name: [] for name in ("spectra", "hoffman", "association", "bounds", "search")
}
RUNTIME_CAPS: dict[str, int] = {}
# Claims that are implemented as quoted but cannot pass (documented defects).
EXPECTED_FAILURES: set[str] = set()


def _claim(cid: str, title: str, *, suite: str, cap: int, expected_failure: bool = False):
    """Register a check returning (passed, details, note) as claim `cid`.

    The decorated name becomes a no-argument function that times the check
    and returns its ClaimResult; it is entered in CRITERIA (in definition
    order), in SUITES[suite], in RUNTIME_CAPS and, when `expected_failure`,
    in EXPECTED_FAILURES.  `cap` is the wall-time budget in seconds asserted
    by the test suite: about 20x the slowest measured run of the claim,
    rounded up, never below 1 s and never above the earlier cap.
    """

    def register(check):
        @functools.wraps(check)
        def run() -> ClaimResult:
            start = time.perf_counter()
            passed, details, note = check()
            return ClaimResult(cid, title, passed, time.perf_counter() - start, details, note)

        CRITERIA[cid] = run
        SUITES[suite].append(cid)
        RUNTIME_CAPS[cid] = cap
        if expected_failure:
            EXPECTED_FAILURES.add(cid)
        return run

    return register


@_claim("A1", "biclique line-graph complement spectrum {a,1^a,-1^a,-a}", suite="spectra", cap=1)
def criterion_01():
    """Spectrum of the complement of the line graph of K_{2,a+1}, checked
    exactly by `spectrum_is`."""
    failures = [
        a
        for a in range(2, 11)
        if not spectrum_is(
            complement(line_graph(complete_bipartite(2, a + 1))), {a: 1, 1: a, -1: a, -a: 1}
        )
    ]
    return not failures, {"a_range": [2, 10], "failures": failures}, ""


@_claim("A2", "coclique-extension spectrum formula vs eigensolve", suite="spectra", cap=1)
def criterion_02():
    """Closed-form coclique-extension spectrum vs direct eigensolve."""
    rng = random.Random(20240)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        base = spectrum(g)
        for q in (2, 3):
            ext = coclique_extension(g, q)
            formula = coclique_extension_spectrum(base, q)
            direct = eig_symmetric(ext)
            expanded = formula.values()
            diffs = [abs(x - y) for x, y in zip(expanded, direct)]
            worst = max(worst, max(diffs))
            if len(expanded) != len(direct) or worst > GROUP_TOL:
                return False, {"worst": worst, "n": n, "q": q}, ""
    return True, {"graphs": 50, "q": [2, 3], "worst_abs_diff": worst}, ""


@_claim("A3", "coclique-extension witnesses: k-regular, order 2k+2*lambda, lambda_2 = lambda",
        suite="bounds", cap=1)
def criterion_03():
    """Certified lower-bound construction for lambda in 1..3, a in 2..6."""
    checked = []
    for lam in (1, 2, 3):
        for a in range(2, 7):
            g, cert = bounds.lower_bound_graph(lam, a)
            if not cert.verified:
                return False, {"lambda": lam, "a": a, "cert": cert.to_json_obj()}, ""
            checked.append((lam, a, g.n))
    return True, {"cases": len(checked)}, ""


@_claim("A4", "fattening lambda_min sequences converge onto the Hoffman value",
        suite="hoffman", cap=1)
def criterion_04():
    """Fattening sequences: monotone, bounded below, final gap < 0.1."""
    rows = {}
    for name, h in hoffman.catalog():
        lm = h.lambda_min()
        seq = hoffman.fattening_lambda_min_sequence(h, 30)
        monotone = all(seq[i + 1] <= seq[i] + INTERLACING_TOL for i in range(len(seq) - 1))
        bounded = all(x >= lm - INTERLACING_TOL for x in seq)
        gap = seq[-1] - lm
        rows[name] = {"lambda_min": lm, "final_gap": gap,
                      "monotone": monotone, "bounded_below": bounded}
        if not (monotone and bounded and gap < 0.1):
            return False, rows, f"first failure at {name}"
    return True, {"catalog_size": len(rows), "gaps": {k: v["final_gap"] for k, v in rows.items()}}, ""


@functools.cache
def _universal_fat_pairs() -> tuple[tuple[float, float], ...]:
    """(lambda_min(q(H)), lambda_max(co-H)) over the 100 random graphs H that
    A5 and A5b share."""
    rng = random.Random(513)
    sample = (random_graph(rng.randint(1, 10), rng.uniform(0.1, 0.9), rng) for _ in range(100))
    return tuple((attach_universal_fat(h).lambda_min(), eig_symmetric(complement(h))[0])
                 for h in sample)


@_claim("A5", "universal-fat identity in its commonly stated form (documented defect)",
        suite="hoffman", cap=1, expected_failure=True)
def criterion_05_as_stated():
    """|lambda_min(q(H)) + lambda_max(co-H)| <= 1e-8, as quoted.

    Expected to fail: the quoted identity omits a -1 shift, so the quantity
    equals exactly 1 for every graph.  Kept as an honest red check; see
    criterion A5b for the identity that actually holds.
    """
    worst = max(abs(lm + lmax) for lm, lmax in _universal_fat_pairs())
    return worst <= GROUP_TOL, {"sample": 100, "worst_abs": worst}, (
        "identity as quoted is off by one: S(q(H)) = A - J = -(I + A(co-H))"
    )


@_claim("A5b", "universal-fat identity, exact form lambda_min(q(H)) = -1 - lambda_max(co-H)",
        suite="hoffman", cap=1)
def criterion_05_corrected():
    """|lambda_min(q(H)) + 1 + lambda_max(co-H)| <= 1e-8 on the same sample."""
    worst = max(abs(lm + 1.0 + lmax) for lm, lmax in _universal_fat_pairs())
    return worst <= GROUP_TOL, {"sample": 100, "worst_abs": worst}, ""


@_claim("A6", "every order-7 graph with an isolated vertex has lambda_min(q) < -2",
        suite="bounds", cap=3)
def criterion_06():
    """Isolated-vertex bound, exhaustive at lambda = 2 over order-7 hosts."""
    free = search.enumerate_all_graphs(6)
    worst = -math.inf
    for g in free:
        h = disjoint_union(g, edgeless(1))
        cert = bounds.isolated_vertex_bound_check(2, h)
        if not (cert.verified and cert.evidence["order_exceeds_cap"]):
            return False, {"bad": cert.to_json_obj()}, ""
        worst = max(worst, cert.evidence["lambda_min_q"])
    return True, {"hosts": len(free), "max_lambda_min_q": worst}, ""


@_claim("A7", "t'/m' minimality and the 3x3 tilde quotient matrix", suite="bounds", cap=1)
def criterion_07():
    """Threshold minimality and the tilde-graph quotient matrix."""
    details: dict = {}
    for lam in (1, Fraction(3, 2), 2, Fraction(5, 2), 3):
        th = bounds.thresholds(lam)
        lam_fr = Fraction(lam)
        t = th.t_prime
        t_qualifies = not lambda_min_at_least(complete_bipartite(2, t), lam_fr)[0]
        t_minimal = t == 1 or lambda_min_at_least(complete_bipartite(2, t - 1), lam_fr)[0]
        if not (t_qualifies and t_minimal):
            return False, {"lambda": str(lam), "t_prime": t}, "t' not minimal"
        if th.m_prime > 1 and not lambda_min_at_least(k_tilde(th.m_prime - 1), lam_fr)[0]:
            return False, {"lambda": str(lam)}, "m' not minimal"
        if lambda_min_at_least(k_tilde(th.m_prime), lam_fr)[0]:
            return False, {"lambda": str(lam)}, "m' does not qualify"
        details[str(lam)] = {"t_prime": t, "m_prime": th.m_prime,
                             "t_prime_qualifies": t_qualifies, "t_prime_minimal": t_minimal}
    quotient_worst = 0.0
    for m in range(1, 7):
        g = k_tilde(m)
        parts = [list(range(m, 2 * m)), list(range(m)), [2 * m]]
        q = quotient_matrix(g, parts)
        expected = ((m - 1, m, 0), (m, m - 1, 1), (0, m, 0))
        if not q.equitable:
            return False, {"m": m}, "tilde partition should be equitable"
        if tuple(tuple(int(x) for x in row) for row in q.matrix) != expected:
            matrix = [[float(x) for x in row] for row in q.matrix]
            return False, {"m": m, "matrix": matrix}, "quotient matrix mismatch"
        qmin = q.spectrum().lambda_min()
        gmin = eig_symmetric(g)[-1]
        quotient_worst = max(quotient_worst, abs(qmin - gmin))
    details["quotient_vs_full_worst"] = quotient_worst
    return quotient_worst <= GROUP_TOL, details, ""


def _random_hoffman(rng: random.Random) -> HoffmanGraph:
    s = rng.randint(2, 4)
    slim = random_graph(s, rng.uniform(0.3, 0.8), rng)
    fat_count = rng.randint(1, 3)
    nbrs = []
    for _ in range(fat_count):
        size = rng.randint(1, s)
        nbrs.append(rng.sample(range(s), size))
    return HoffmanGraph.with_fats(slim, nbrs)


@_claim("A8", "clique relation transitive + associations valid on 50 generated graphs",
        suite="association", cap=5)
def criterion_08():
    """Equivalence-relation suite at m = 2, n = 9 on generated graphs."""
    rng = random.Random(88)
    accepted = 0
    attempts = 0
    nonempty_families = 0
    while accepted < 50 and attempts < 400:
        attempts += 1
        if attempts % 3 == 0:
            g = random_graph(rng.randint(4, 12), rng.uniform(0.2, 0.7), rng)
        else:
            g = fatten(_random_hoffman(rng), rng.randint(9, 12))
        if association.hypothesis_report(g, 2, 9):
            continue  # hypotheses violated; not part of this suite
        hg, part = association.associate(g, 2, 9)
        # partition_classes warns on every unrelated pair within a class
        if part.warnings:
            return False, {"warnings": list(part.warnings)}, ""
        if not hg.is_valid():
            return False, {"violations": hg.validate()}, ""
        if len(part.family) > 0:
            nonempty_families += 1
        accepted += 1
    return accepted >= 50, {
        "accepted": accepted,
        "attempts": attempts,
        "with_cliques": nonempty_families,
    }, ""


@_claim("A9", "fatten-then-associate round-trip contains the original Hoffman graph",
        suite="association", cap=1)
def criterion_09():
    """Association round-trip recovers every catalog Hoffman graph."""
    params = {}
    for name, h in hoffman.catalog():
        ok = False
        for p in (10, 12, 16):
            g = fatten(h, p)
            hg, part = association.associate(g, 2, 9)
            if part.warnings:
                continue
            found, _ = hoffman.contains_hoffman_subgraph(hg, h)
            if found:
                params[name] = {"m": 2, "n": 9, "p": p}
                ok = True
                break
        if not ok:
            return False, {"failed_entry": name}, ""
    return True, {"parameters": params}, ""


@_claim("A10", "exact small-case maxima with unique witnesses; pruning is lossless",
        suite="search", cap=2)
def criterion_10():
    """Exhaustive extremal searches and pruning equivalence."""
    from .construct import complete

    cases = [
        (2, 0, 8, 4, complete_bipartite(2, 2), True),
        (3, -0.5, 8, 4, complete(4), True),
        (2, 1, 10, 6, cycle(6), None),
        (3, 0, 10, 6, complete_bipartite(3, 3), True),
    ]
    details = {}
    for k, lam, n_max, want_v, want_graph, want_unique in cases:
        pruned = search.v_search(k, lam, n_max, prune=True)
        unpruned = search.v_search(k, lam, n_max, prune=False)
        if not pruned.same_result(unpruned):
            return False, {"case": (k, lam, n_max)}, "pruned != unpruned"
        if pruned.exact_v != want_v:
            return False, {"case": (k, lam, n_max), "got": pruned.exact_v}, ""
        if want_unique is not None and pruned.unique != want_unique:
            return False, {"case": (k, lam, n_max)}, "uniqueness mismatch"
        want_cert = search.canonical_form(want_graph).certificate
        if want_cert not in {e.certificate for e in pruned.extremal}:
            return False, {"case": (k, lam, n_max)}, "expected witness missing"
        details[f"v({k},{lam})<= {n_max}"] = {
            "exact_v": pruned.exact_v,
            "extremal": [e.certificate for e in pruned.extremal],
        }
    return True, details, ""


@_claim("A11", "mu-bound equals the lambda=2 threshold; classifications", suite="bounds", cap=1)
def criterion_11():
    """mu-bound vs C2(2), Petersen check, and multipartite classification."""
    if bounds.mu_bound(2) != 8:
        return False, {}, "mu_bound(2) != 8"
    pete = regularity_params(petersen())
    if not bounds.srg_mu_check(pete.srg_params(), 2):
        return False, {}, "Petersen fails mu check"
    cert = bounds.amply_regular_check(complete_multipartite([3, 3, 3]), 3)
    if not (cert.verified and cert.evidence["complete_multipartite"]):
        return False, {"cert": cert.to_json_obj()}, ""
    return True, {
        "mu_bound_2": bounds.mu_bound(2),
        "petersen": pete.srg_params(),
        "k333_status": cert.evidence["status"],
    }, ""


@_claim("A12", "Ramsey oracle values and premise-satisfying diameter-2 corpus",
        suite="bounds", cap=1)
def criterion_12():
    """Ramsey re-derivations and the diameter-2 verifier corpus."""
    table = ramsey.verify_small_table()
    if not all(table.values()):
        return False, {"ramsey": table}, ""
    corpus = [
        ("petersen", petersen(), 2, 1),
        ("K_{3,3,3}", complete_multipartite([3, 3, 3]), 3, 6),
        ("C5", cycle(5), 2, 1),
        ("C4", cycle(4), 2, 2),
        ("K_{4,4}", complete_bipartite(4, 4), 4, 4),
        ("octahedron", complete_multipartite([2, 2, 2]), 2, 4),
        ("K_{2x4}", complete_multipartite([2, 2, 2, 2]), 2, 6),
        ("co-petersen", complement(petersen()), 2, 4),
    ]
    rows = {}
    for name, g, lam, m_common in corpus:
        cert = bounds.prop13_verifier(g, lam, m_common)
        rows[name] = {
            "applicable": cert.evidence["applicable"],
            "verified": cert.verified,
        }
        if not (cert.verified and cert.evidence["applicable"]):
            return False, rows, f"corpus instance {name}"
    return True, {"ramsey": table, "corpus": rows}, (
        "constants defined via Ramsey numbers stay symbolic; property form checked"
    )


def run_suite(name: str) -> list[ClaimResult]:
    if name == "all":
        ids = list(CRITERIA)
    elif name in SUITES:
        ids = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose all|{'|'.join(SUITES)}")
    return [CRITERIA[cid]() for cid in ids]
