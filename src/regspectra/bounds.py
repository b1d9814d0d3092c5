"""Numeric thresholds, closed-form bounds, and verifiable bound certificates.

Real parameters are carried as exact Fractions wherever a floor or a boundary
comparison is taken (floats are converted at their exact binary value), so
quantities like floor(lambda^2) never misround at integer boundaries.
Every comparison of an eigenvalue with -lambda goes through
`spectra.eigenvalue_at_most` on the negated matrix, so it is settled exactly
at the boundary; the thresholds t'(lambda) and m'(lambda) need no eigensolve
and are exact (a closed form, and an exact root count on the tilde-graph
quotient).

The constants M(lambda), C1(lambda), C2(lambda), C3(lambda) are defined via
Ramsey numbers and non-explicit integers, so they are exposed symbolically
(lower bounds, plus Ramsey intervals when the caller supplies the missing
clique threshold); no invented numeric values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

from .construct import (
    complement,
    complete_bipartite,
    coclique_extension,
    line_graph,
)
from .errors import UnsupportedSizeError
from .graphs import Graph, components, distance_layers, members, regularity_params
from .hoffman import attach_universal_fat
from .ramsey import RamseyValue, ramsey_lookup
from .spectra import Real, eigenvalue_at_most_exact, lambda_min_at_least, spectrum_is

MU_CANDIDATE_CAP = 10**6  # most candidate divisors d of k that known_v tries


@dataclass(frozen=True)
class BoundCertificate:
    """Outcome of one verifiable claim: parameters, verdict, evidence.  Every
    verdict is settled exactly; none carries a float tolerance."""

    claim: str
    params: dict
    verified: bool
    evidence: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return asdict(self)


# -- thresholds t'(lambda), m'(lambda) -------------------------------------------


@dataclass(frozen=True)
class Thresholds:
    """Minimal biclique / tilde-graph orders whose smallest eigenvalue drops
    strictly below -lambda, plus the floor quantities used alongside them."""

    lam: Fraction
    t_prime: int
    m_prime: int
    gamma2_cap: int
    isolated_cap: int

    def to_json_obj(self) -> dict:
        return {
            "lambda": str(self.lam),
            "t_prime": self.t_prime,
            "m_prime": self.m_prime,
            "gamma2_cap": self.gamma2_cap,
            "isolated_cap": self.isolated_cap,
        }


def t_prime_closed_form(lam: Fraction) -> int:
    """Least t with lambda_min(K_{2,t}) = -sqrt(2t) < -lambda, i.e. t > lam^2/2."""
    return math.floor(lam * lam / 2) + 1


def _k_tilde_below(m: int, lam: Fraction) -> bool:
    """Whether lambda_min(K~_2m) < -lam, settled exactly.  The partition
    {apex neighbours, other clique vertices, apex} is equitable with quotient
    Q = ((m-1, m, 0), (m, m-1, 1), (0, m, 0)), and every other eigenvalue is
    -1 >= -lam; so it asks whether the largest eigenvalue of -Q exceeds lam."""
    return not eigenvalue_at_most_exact([[1 - m, -m, 0], [-m, 1 - m, -1], [0, -m, 0]], 1, lam)


def thresholds(lam: Real) -> Thresholds:
    """t'(lambda) by its closed form; m'(lambda) as the least m whose tilde
    graph K~_2m falls strictly below -lambda, settled exactly.  Since K~_2m is
    an induced subgraph of K~_2(m+1), lambda_min is non-increasing in m
    (interlacing), so m' is found by doubling and then bisection."""
    lam = Fraction(lam)
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    lo, hi = 0, 1  # not below at lo (vacuously at 0); below at hi once found
    while not _k_tilde_below(hi, lam):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _k_tilde_below(mid, lam):
            hi = mid
        else:
            lo = mid
    return Thresholds(
        lam=lam,
        t_prime=t_prime_closed_form(lam),
        m_prime=hi,
        gamma2_cap=math.floor(lam) * math.floor(lam * lam),
        isolated_cap=math.floor(lam * lam) + 1,
    )


# -- isolated-vertex bound (universal fat vertex) ---------------------------------


def isolated_vertex_bound_check(lam: Real, h: Graph) -> BoundCertificate:
    """Contrapositive instance of the isolated-vertex bound: a graph with an
    isolated vertex on more than floor(lam^2)+1 vertices must give
    lambda_min(q(H)) < -lambda."""
    lam = Fraction(lam)
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    if all(h.degree(v) > 0 for v in range(h.n)):
        raise ValueError("graph has no isolated vertex")
    cap = math.floor(lam * lam) + 1
    at_least, lam_min_q = lambda_min_at_least(attach_universal_fat(h).special_matrix(), lam)
    applicable = h.n > cap
    strictly_below = not at_least
    verified = (not applicable) or strictly_below
    return BoundCertificate(
        claim="isolated-vertex-bound",
        params={"lambda": str(lam), "order": h.n},
        verified=verified,
        evidence={
            "cap": cap,
            "order_exceeds_cap": applicable,
            "lambda_min_q": lam_min_q,
            "strictly_below_minus_lambda": strictly_below,
        },
    )


# -- diameter-2 / second-neighborhood verifier ------------------------------------


def m_lambda_lower(lam: Real) -> int:
    """Computable part of the common-neighbor constant: floor(lam^3 + 1)."""
    lam = Fraction(lam)
    return math.floor(lam**3) + 1


def m_lambda_interval(lam: Real, n_prime: Optional[int] = None) -> tuple[int, Optional[int]]:
    """Interval for max{R(n', t'(lambda)), floor(lam^3 + 1)}.

    n' is the non-explicit clique threshold; without it only the floor term
    bounds from below and no upper end exists.  With a hypothesized n', the
    Ramsey interval sharpens both ends.
    """
    lam = Fraction(lam)
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    lo = m_lambda_lower(lam)
    if n_prime is None:
        return lo, None
    r = ramsey_lookup(n_prime, t_prime_closed_form(lam))
    upper = None if r.upper is None else max(r.upper, lo)
    return max(r.lower, lo), upper


def prop13_verifier(g: Graph, lam: Real, m_common: int) -> BoundCertificate:
    """Check the diameter-2 statement instance-wise.

    Premises: (i) every pair at distance 2 has at least m_common common
    neighbors, (ii) lambda_min(g) >= -lambda.  Conclusions: no pair at finite
    distance >= 3, and |Gamma_2(x)| <= floor(lambda) * floor(lambda^2) for
    every x.  The certificate is verified when the premises fail (vacuous) or
    the conclusions hold.  The largest finite distance is the largest
    eccentricity and Gamma_2(x) the BFS layer at distance 2.
    """
    lam = Fraction(lam)
    d2_min = regularity_params(g).dist2_common_min
    around = [distance_layers(g, x) for x in range(g.n)]
    max_finite = max(dl.eccentricity for dl in around)
    gamma2_max = max(len(dl.layer(2)) for dl in around)

    premise_common = d2_min is None or d2_min >= m_common
    premise_eig, lmin = lambda_min_at_least(g, lam)

    gamma2_cap = math.floor(lam) * math.floor(lam * lam)
    concl_diameter = max_finite <= 2
    concl_gamma2 = gamma2_max <= gamma2_cap

    applicable = premise_common and premise_eig
    verified = (not applicable) or (concl_diameter and concl_gamma2)
    return BoundCertificate(
        claim="diameter2-second-neighborhood",
        params={"lambda": str(lam), "min_common_required": m_common, "order": g.n},
        verified=verified,
        evidence={
            "premise_common_neighbors": premise_common,
            "distance2_common_min": d2_min,
            "premise_lambda_min": premise_eig,
            "lambda_min": lmin,
            "applicable": applicable,
            "max_finite_distance": max_finite,
            "conclusion_diameter_le_2": concl_diameter,
            "gamma2_max": gamma2_max,
            "gamma2_cap": gamma2_cap,
            "conclusion_gamma2": concl_gamma2,
            "m_lambda_lower": m_lambda_lower(lam),
        },
    )


# -- known values of the maximum order --------------------------------------------


@dataclass(frozen=True)
class KnownValue:
    """Known value of the maximum order of a connected k-regular graph with
    second largest eigenvalue at most lambda: exact, interval, infinite, or
    none (no such graph exists)."""

    kind: str  # "exact" | "interval" | "infinite" | "none"
    lower: Optional[int] = None
    upper: Optional[int] = None
    note: str = ""

    @property
    def value(self) -> int:
        if self.kind != "exact":
            raise ValueError(f"no exact value: kind={self.kind}")
        return self.lower

    def contains(self, v: int) -> bool:
        if self.kind == "exact":
            return v == self.lower
        if self.kind == "interval":
            return self.lower <= v and (self.upper is None or v <= self.upper)
        return self.kind == "infinite"

    def to_json_obj(self) -> dict:
        return asdict(self)


def known_v(k: int, lam: Real) -> KnownValue:
    """Piecewise-known maximum order for degree k and eigenvalue bound lambda;
    UnsupportedSizeError when mu has more than MU_CANDIDATE_CAP candidates."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lam = Fraction(lam)

    if lam < -1:
        return KnownValue(
            kind="none",
            note="every graph on >= 2 vertices has second eigenvalue >= -1",
        )
    if k == 1:
        return KnownValue(kind="exact", lower=2, upper=2, note="K_2 is the only connected 1-regular graph")
    if lam < 0:
        return KnownValue(kind="exact", lower=k + 1, upper=k + 1, note="attained only by the complete graph")
    if lam == 0:
        return KnownValue(kind="exact", lower=2 * k, upper=2 * k, note="attained only by the balanced complete bipartite graph")
    if lam == 1 and k >= 11:
        return KnownValue(kind="exact", lower=2 * k + 2, upper=2 * k + 2,
                          note="complement of the line graph of K_{2,k+1}")
    if lam * lam >= 4 * (k - 1):
        return KnownValue(kind="infinite", note="bipartite Ramanujan families exceed every order")
    # the largest integer mu <= lam with k = mu * a, a >= 2: lower_bound_graph(mu, a)
    # has second eigenvalue mu <= lam on 2k + 2mu vertices (mu = 1: the paper's 2k + 2);
    # below lambda = 1, mu = 0 and K_{k,k} has second eigenvalue 0 on 2k vertices
    top = min(math.floor(lam), k // 2)
    if top > MU_CANDIDATE_CAP:
        raise UnsupportedSizeError(f"known_v would try {top} divisors of k, over {MU_CANDIDATE_CAP}")
    mu = max((d for d in range(1, top + 1) if k % d == 0), default=0)
    witness = f"lower_bound_graph({mu}, {k // mu})" if mu else "K_{k,k}"
    if lam > 1:
        return KnownValue(kind="interval", lower=2 * k + 2 * mu, upper=None,
                          note=f"finite, but the additive constant is not explicit; "
                          f"lower end from {witness}")
    # Nozaki's LP bound at lambda = 1, which holds below it too, since v is monotone in lambda
    return KnownValue(kind="interval", lower=2 * k + 2 * mu, upper=3 * k + 1,
                      note=f"lower end from {witness}; upper end 3k + 1 from the LP bound at lambda = 1 with "
                      "f = (x - 1)(x + (k + 1)/2)^2 (Nozaki, Graphs Combin. 31, 2015)")


# -- exactly checked lower-bound construction ----------------------------------------


def lower_bound_graph(lam: int, a: int) -> tuple[Graph, BoundCertificate]:
    """lambda-coclique extension of the complement of the line graph of
    K_{2,a+1}: a (lam*a)-regular graph on 2*lam*a + 2*lam vertices with
    spectrum {k, lam^a, 0^((lam-1)(2a+2)), -lam^a, -k}, checked exactly by
    `spectrum_is`, so its second largest eigenvalue is lambda."""
    if not isinstance(lam, int) or lam < 1:
        raise ValueError("lambda must be a positive integer")
    if a < 2:
        raise ValueError("a must be >= 2")
    base = complement(line_graph(complete_bipartite(2, a + 1)))
    g = coclique_extension(base, lam)
    k = lam * a
    order_expected = 2 * k + 2 * lam

    regular_ok = set(g.degrees()) == {k}
    order_ok = g.n == order_expected
    claimed = {k: 1, lam: a, 0: (lam - 1) * (2 * a + 2), -lam: a, -k: 1}
    claimed = {theta: m for theta, m in claimed.items() if m}
    spectrum_ok = spectrum_is(g, claimed)

    cert = BoundCertificate(
        claim="coclique-extension-lower-bound",
        params={"lambda": lam, "a": a, "k": k},
        verified=regular_ok and order_ok and spectrum_ok,
        evidence={
            "order": g.n,
            "order_expected": order_expected,
            "regular": regular_ok,
            "spectrum_holds": spectrum_ok,
            "second_largest": list(claimed)[1],  # k is simple
            "spectrum": {
                "eigenvalues": [{"value": v, "multiplicity": m} for v, m in claimed.items()]
            },
            "consequence": f"max order for (k={k}, lambda={lam}) >= {order_expected}",
        },
    )
    return g, cert


# -- co-edge-regular and amply regular applications --------------------------------


def is_complete_multipartite(g: Graph) -> bool:
    """True iff the complement is a disjoint union of cliques."""
    bits = complement(g).bits()
    # a component is a clique iff each member's closed neighbourhood is all of it
    return all(
        (bits[u] | 1 << u) == comp for comp in components(bits) for u in members(comp)
    )


def co_edge_bound_check(g: Graph, lam: Real) -> BoundCertificate:
    """Report (v, k, c2), lambda_min and v-k-1 against the (lambda-1)^2/4 + 1
    cap for a connected co-edge-regular graph; for lambda = 2 the computable
    threshold C2(2) = 8 makes the implication falsifiable and it is checked."""
    lam = Fraction(lam)
    rp = regularity_params(g)
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if not rp.co_edge_regular:
        raise ValueError("graph is not co-edge-regular")
    c2 = rp.c2_coedge
    vacuous = c2 is None  # complete graph: no non-adjacent pairs
    premise_eig, lmin = lambda_min_at_least(g, lam)
    ell = g.n - rp.k - 1
    ell_cap = (lam - 1) ** 2 / 4 + 1
    ell_ok = Fraction(ell) <= ell_cap

    c2_threshold = mu_bound(2) if lam == 2 else None
    falsified = (
        not vacuous
        and c2_threshold is not None
        and premise_eig
        and c2 > c2_threshold
        and not ell_ok
    )
    return BoundCertificate(
        claim="co-edge-regular-order-bound",
        params={"lambda": str(lam), "v": g.n, "k": rp.k, "c2": c2},
        verified=not falsified,
        evidence={
            "vacuous_complete_graph": vacuous,
            "lambda_min": lmin,
            "premise_lambda_min": premise_eig,
            "ell": ell,
            "ell_cap": float(ell_cap),
            "ell_within_cap": bool(ell_ok),
            "c2_threshold_at_lambda_2": c2_threshold,
        },
    )


def mu_bound(lam: int) -> int:
    """Common-neighbor cap lam^3 (2 lam - 3) for strongly regular graphs with
    integral smallest eigenvalue -lam <= -2."""
    if not isinstance(lam, int) or lam < 2:
        raise ValueError("lambda must be an integer >= 2")
    return lam**3 * (2 * lam - 3)


def srg_mu_check(params: tuple[int, int, Optional[int], Optional[int]], lam: int) -> bool:
    """c2 <= mu_bound(lam) for strongly-regular parameters (v, k, a1, c2)."""
    c2 = params[3]
    if c2 is None:
        raise ValueError("parameters carry no c2 value")
    return c2 <= mu_bound(lam)


def amply_regular_check(g: Graph, lam: int) -> BoundCertificate:
    """Either c2 stays within the computable part of the amply-regular cap or
    the graph is complete multipartite; 'indeterminate' marks instances where
    only the non-explicit part of the cap could decide."""
    if not isinstance(lam, int) or lam < 2:
        raise ValueError("lambda must be an integer >= 2")
    rp = regularity_params(g)
    if not rp.amply_regular:
        raise ValueError("graph is not amply regular")
    premise_eig, lmin = lambda_min_at_least(g, lam)
    multipartite = is_complete_multipartite(g)
    mu_cap = mu_bound(lam)
    c2 = rp.c2_dist2
    if not premise_eig:
        status = "premise-violated"
    elif multipartite:
        status = "complete-multipartite"
    elif c2 is not None and c2 <= mu_cap:
        status = "c2-within-mu-bound"
    elif c2 is None:
        status = "no-distance-2-pairs"
    else:
        status = "indeterminate"
    verified = status != "indeterminate"
    return BoundCertificate(
        claim="amply-regular-dichotomy",
        params={"lambda": lam, "v": g.n, "k": rp.k, "a1": rp.a1, "c2": c2},
        verified=verified,
        evidence={
            "lambda_min": lmin,
            "premise_lambda_min": premise_eig,
            "complete_multipartite": multipartite,
            "mu_bound": mu_cap,
            "c3_lower_bound": max(m_lambda_lower(lam) - 1, mu_cap),
            "status": status,
        },
    )


__all__ = [
    "BoundCertificate",
    "KnownValue",
    "RamseyValue",
    "Thresholds",
    "amply_regular_check",
    "co_edge_bound_check",
    "is_complete_multipartite",
    "isolated_vertex_bound_check",
    "known_v",
    "lower_bound_graph",
    "m_lambda_interval",
    "m_lambda_lower",
    "mu_bound",
    "prop13_verifier",
    "ramsey_lookup",
    "srg_mu_check",
    "t_prime_closed_form",
    "thresholds",
]
