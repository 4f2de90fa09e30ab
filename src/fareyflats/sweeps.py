"""Verification drivers: exhaustive sweeps and seeded fixture suites.

Every driver returns its report through :func:`_report`: the driver's
name, its parameters and counters, a pass flag decided there from the
violations alone, and the violating fixtures (reconstructible from their
string forms).  Exhaustive sweeps walk all slopes up to a height bound; a
bound of zero makes them vacuous but still well-formed.  Seeded suites
draw reproducible fixtures through the samplers in
:mod:`fareyflats.orbifold` and never invent expectations: each check
recomputes both sides from the crossing oracle or the boundary walk.  The
two move suites differ only in the components they draw and in which
boundary components may serve as witness; :func:`_move_suite` runs the
rest.  An object's projection is its slope, and projections are compared
with the Farey distance.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from .orbifold import (
    DegenerateRealization,
    ObjectKind,
    PieceKind,
    PieceObject,
    RealizationContext,
    curve,
    endpoint_linking,
    random_arcish,
    random_seam,
    random_slope,
    random_sphere_arc,
    random_torus_arc,
    random_wave,
    seam,
    seam_pairs,
    torus_arc,
    wave,
)
from .pieces import common_boundaries, projection_identity_report
from .ribbon import neighborhood_boundary
from .slopes import Slope, distance, neighbors, slopes_up_to

T = PieceKind.ONE_HOLED_TORUS
S = PieceKind.FOUR_HOLED_SPHERE


def _report(driver: str, violations: list, **fields) -> dict:
    """A driver's report: name, parameters and counters, verdict, violations."""
    return {
        "driver": driver,
        **fields,
        "pass": not violations,
        "violations": violations,
    }


def _pool(height: int) -> tuple[Slope, ...]:
    if height < 1:
        return ()
    return slopes_up_to(height)


def _all_seams(piece: PieceKind, height: int) -> list[PieceObject]:
    out = []
    for u in _pool(height):
        if piece is T:
            out.append(torus_arc(u))
        else:
            for pair in seam_pairs(u):
                out.append(seam(S, u, pair))
    return out


# ---------------------------------------------------------------------------
# closing-up identities (seam projected to its curve)


def identity_sweep(height: int) -> dict:
    """Exhaustive check of both closing-up identities on both pieces.

    Seam against seam: projecting one seam multiplies the crossing count
    by the strand factor and adds one crossing per shared end.  Seam
    against contained curve: the projection doubles (sphere) or keeps
    (torus) the count.  Every endpoint choice at every height up to the
    bound is visited.  Each piece's seams and curves are counted on one
    realization context; a pair's report is built only for a violation.
    """
    tallies: dict[str, dict[str, int]] = {}
    violations = []
    pool = _pool(height)
    for piece in (T, S):
        seams = _all_seams(piece, height)
        n = len(seams)
        objects = seams + [curve(piece, u) for u in pool]
        # the index of each seam's projection, the curve of its slope
        at = {u: n + k for k, u in enumerate(pool)}
        projected = [at[s_obj.slope] for s_obj in seams]
        ctx = RealizationContext(objects) if objects else None
        factor = 1 if piece is T else 2
        tally = tallies[piece.value] = {}
        for key, pairs in (
            ("seam_vs_seam", combinations(range(n), 2)),
            ("seam_vs_curve", product(range(n), range(n, len(objects)))),
        ):
            tally[key] = 0
            for i, j in pairs:
                tally[key] += 1
                lhs, base = ctx.count(projected[i], j), ctx.count(i, j)
                if lhs != factor * base + common_boundaries(objects[i], objects[j]):
                    violations.append(
                        projection_identity_report(objects[i], objects[j], (lhs, base))
                    )
    return _report("identity_sweep", violations, height=height, tallies=tallies)


# ---------------------------------------------------------------------------
# linked endpoints of distinct torus arcs


def linking_sweep(height: int) -> dict:
    """Every pair of distinct-slope torus arcs has linked endpoints."""
    checked = 0
    violations = []
    for a, b in combinations(_all_seams(T, height), 2):
        checked += 1
        if not endpoint_linking(a, b):
            violations.append({"a": str(a), "b": str(b)})
    return _report("linking_sweep", violations, height=height, checked=checked)


# ---------------------------------------------------------------------------
# disjointness forces projection distance <= 1 (sphere)


def _prs_case(ctx: RealizationContext, i: int, j: int) -> str | None:
    """How the disjointness lemma treats seam i of ctx and another object j.

    None when j is i or crosses it; "excluded" for a seam sharing both of
    i's ends (such twins project two steps apart); "checked" otherwise.
    """
    if ctx.objects[i] == ctx.objects[j] or ctx.count(i, j):
        return None
    if common_boundaries(ctx.objects[i], ctx.objects[j]) > 1:
        return "excluded"
    return "checked"


def disjoint_projection_sweep(height: int) -> dict:
    """Exhaustive sphere check: disjoint from a seam means one step away.

    Seams with two shared ends are excluded by hypothesis (those twins
    project two steps apart); the count of exclusions is reported.  Every
    pair is counted on one realization context.
    """
    seams = _all_seams(S, height)
    waves = [wave(s_obj, over) for s_obj in seams for over in s_obj.endpoints]
    curves = [curve(S, u) for u in _pool(height)]
    others = curves + seams + waves
    checked = excluded = 0
    violations = []
    ctx = RealizationContext(others) if others else None
    for i in range(len(curves), len(curves) + len(seams)):
        s_obj = others[i]
        for j, b_obj in enumerate(others):
            case = _prs_case(ctx, i, j)
            if case == "excluded":
                excluded += 1
            elif case == "checked":
                checked += 1
                if distance(s_obj.slope, b_obj.slope) > 1:
                    violations.append({"s": str(s_obj), "b": str(b_obj)})
    return _report(
        "disjoint_projection_sweep",
        violations,
        height=height,
        checked=checked,
        excluded_two_shared_ends=excluded,
    )


def disjoint_projection_suite(
    samples: int = 500, seed: int = 0, height: int = 8
) -> dict:
    """Seeded sphere fixtures of disjoint seam/other pairs.

    Disjoint pairs are rare among uniform draws, so the companion is
    biased toward the seam's own slope and its Farey neighborhood; the
    oracle then keeps exactly the pairs satisfying the hypotheses.
    """
    rng = random.Random(seed)
    checked = rejected = 0
    violations = []
    while checked < samples:
        s_obj = random_seam(rng, height)
        b_obj = random_arcish(rng, height)
        if rng.random() < 0.7:
            # bias: reuse the seam's slope for the companion
            b_obj = random_arcish(rng, height, s_obj.slope)
        if _prs_case(RealizationContext((s_obj, b_obj)), 0, 1) != "checked":
            rejected += 1
            continue
        checked += 1
        if distance(s_obj.slope, b_obj.slope) > 1:
            violations.append({"s": str(s_obj), "b": str(b_obj)})
    return _report(
        "disjoint_projection_suite",
        violations,
        samples=samples,
        seed=seed,
        height=height,
        checked=checked,
        rejected=rejected,
    )


# ---------------------------------------------------------------------------
# boundary components of move components


def _bound_holds(boundary, objects) -> bool:
    return all(distance(boundary.object.slope, o.slope) <= 1 for o in objects)


def _extras_disjoint(rng, gen, component, count: int) -> list[PieceObject]:
    """Up to ``count`` bystanders from ``gen``, disjoint from all accepted.

    Bystanders stand in for the rest of the trace: they must miss the
    component and each other, and their projections must stay within one
    step of every accepted projection.  The second filter drops the
    disjoint-yet-far pairs -- twin seams sharing both corners and the
    opposite waves doubling them -- whose gap already defeats a lone-arc
    component before any boundary is walked.  On the torus it never
    fires: disjoint objects there are always one step apart or equal.

    The filters are conjunctive and draw nothing, so they run cheapest
    first: equality, then the projection distances, and last the
    crossings, counted on one context of the accepted objects and the
    candidate.
    """
    extras: list[PieceObject] = []
    for _ in range(count):
        for _ in range(12):
            cand = gen(rng)
            accepted = list(component) + extras
            if any(cand == o for o in accepted):
                continue
            if any(distance(cand.slope, o.slope) > 1 for o in accepted):
                continue
            ctx = RealizationContext(accepted + [cand])
            last = len(accepted)
            if any(ctx.count(last, k) for k in range(last)):
                continue
            extras.append(cand)
            break
    return extras


def _move_suite(driver, samples, seed, height, draw, bystander, witnesses):
    """The loop both move suites share.

    ``draw(rng)`` returns the realization context of a component, its
    counts made there, or None to resample it.  Up to two bystanders
    ``bystander(rng, height)`` join it, then the boundary of the
    component's neighborhood is walked on that context (degenerate walks
    are skipped and counted).  Among the essential boundary components
    whose kind is in ``witnesses``, the first projecting within one step
    of every trace object is tallied by kind; when there is none the
    fixture is a violation.
    """
    rng = random.Random(seed)
    checked = degenerate = resampled = 0
    kinds: dict[str, int] = {}
    violations = []
    while checked < samples:
        ctx = draw(rng)
        if ctx is None:
            resampled += 1
            continue
        component = list(ctx.objects)
        extras = _extras_disjoint(
            rng, lambda r: bystander(r, height), component, rng.randrange(3)
        )
        try:
            walked = neighborhood_boundary(component, ctx=ctx)
        except DegenerateRealization:
            degenerate += 1
            continue
        essential = [c for c in walked if c.kind != "inessential"]
        winner = next(
            (
                d
                for d in essential
                if d.kind in witnesses and _bound_holds(d, component + extras)
            ),
            None,
        )
        checked += 1
        if winner is not None:
            kinds[winner.kind] = kinds.get(winner.kind, 0) + 1
        else:
            violations.append(
                {
                    "component": [str(o) for o in component],
                    "extras": [str(o) for o in extras],
                    "boundary": [f"{c.kind}:{c.object.slope}" for c in essential],
                }
            )
    return _report(
        driver,
        violations,
        samples=samples,
        seed=seed,
        height=height,
        checked=checked,
        degenerate_skipped=degenerate,
        resampled=resampled,
        witness_kinds=kinds,
    )


def torus_move_suite(
    samples: int = 500, seed: int = 0, height: int = 5
) -> dict:
    """Connected pieces of a first-kind move leave a nearby boundary arc.

    Fixture shapes: a lone arc, two arcs crossing once, or a contained
    curve crossed once by an arc, plus up to two disjoint bystander arcs
    standing in for the rest of the trace.  The check: some essential
    boundary component of the component's neighborhood projects within
    one step of every trace object, bystanders included.
    """

    def draw(rng):
        shape = rng.randrange(3)
        if shape == 0:
            return RealizationContext([random_torus_arc(rng, height)])
        if shape == 1:
            first = random_torus_arc(rng, height)
        else:
            first = curve(T, random_slope(rng, height))
        arc = random_torus_arc(rng, height)
        if first == arc:
            return None
        ctx = RealizationContext([first, arc])
        return ctx if ctx.count(0, 1) == 1 else None

    return _move_suite(
        "torus_move_suite",
        samples,
        seed,
        height,
        draw,
        random_torus_arc,
        witnesses=("curve", "seam", "wave"),
    )


def sphere_move_suite(
    samples: int = 500, seed: int = 0, height: int = 5
) -> dict:
    """Non-special sphere components leave a nearby boundary arc.

    Fixture shapes: lone seams and waves, crossing pairs among seams and
    waves (two seams cross once at most, see the inline note), a contained
    curve crossed twice by a wave, and a contained curve crossed once by
    each of two disjoint seams, plus up to two disjoint bystander arcs
    standing in for the rest of the trace (the disjoint-yet-far twin
    configurations are excluded; see ``_extras_disjoint``).  The witness
    must be an arc (seam or wave), not a closed curve.

    Special couples (a seam crossing a contained curve twice) are excluded
    by hypothesis, and no shape can draw one: shapes 0 and 1 hold no
    curve, shape 2 pairs its curve with a wave, and shape 3 keeps only
    seams that cross the curve once.  So no draw is filtered for them.
    """

    def draw(rng):
        shape = rng.randrange(4)
        if shape == 0:
            return RealizationContext([random_sphere_arc(rng, height)])
        if shape == 1:
            a, b = random_sphere_arc(rng, height), random_sphere_arc(rng, height)
            if a == b:
                return None
            ctx = RealizationContext([a, b])
            # A double crossing inside one component comes from two strands
            # of a move running antiparallel, so it needs a wave; a pair of
            # straight seams can only carry same-signed crossings and never
            # arises twice along a single move.
            both_seams = (
                a.kind is ObjectKind.SEAM and b.kind is ObjectKind.SEAM
            )
            return ctx if 1 <= ctx.count(0, 1) <= (1 if both_seams else 2) else None
        if shape == 2:
            c = curve(S, random_slope(rng, height))
            ctx = RealizationContext([c, random_wave(rng, height)])
            return ctx if ctx.count(0, 1) == 2 else None
        c = curve(S, random_slope(rng, height))
        s1, s2 = random_seam(rng, height), random_seam(rng, height)
        if s1 == s2:
            return None
        ctx = RealizationContext([c, s1, s2])
        if ctx.count(0, 1) != 1 or ctx.count(0, 2) != 1 or ctx.count(1, 2) != 0:
            return None
        return ctx

    return _move_suite(
        "sphere_move_suite",
        samples,
        seed,
        height,
        draw,
        random_sphere_arc,
        witnesses=("seam", "wave"),
    )


# ---------------------------------------------------------------------------
# the contained member of a special couple appears among projections


def couple_trace_suite(
    samples: int = 500, seed: int = 0, height: int = 8
) -> dict:
    """For each special couple, the twin seam recovers the curve's slope.

    Given a seam s crossing a contained curve c twice, exactly one of the
    two seams of c's slope is disjoint from s, namely the one sharing
    both of s's ends; its projection is c itself, so c's slope shows up
    among the projections of the union s with twin.
    """
    rng = random.Random(seed)
    checked = rejected = 0
    violations = []
    while checked < samples:
        u = random_slope(rng, height)
        mates = neighbors(u, height, 2)
        if not mates:
            rejected += 1
            continue
        v = mates[rng.randrange(len(mates))]
        s_obj = random_seam(rng, height, u)
        c_obj = curve(S, v)
        # s, c and the two seams of c's slope; each pair is counted once
        twins = [seam(S, v, pair) for pair in seam_pairs(v)]
        ctx = RealizationContext([s_obj, c_obj, *twins])
        if ctx.count(0, 1) != 2:
            # never fires, but the oracle decides: I(seam(u), curve(v)) = |det(u, v)|
            # = 2 by the closing-up identity and criterion 3 (180 of 180 at H <= 6)
            rejected += 1
            continue
        # the twin is the seam of v crossing s least, as associated_seam picks it
        crossings = [ctx.count(2, 0), ctx.count(3, 0)]
        t = 0 if crossings[0] <= crossings[1] else 1
        twin = twins[t]
        problems = []
        if crossings[t] != 0:
            problems.append("twin crosses the seam")
        if set(twin.endpoints) != set(s_obj.endpoints):
            problems.append("twin does not share both ends")
        if crossings[1 - t] == 0:
            problems.append("twin choice is not unique")
        if twin.slope != v:
            problems.append("twin does not project to the curve")
        checked += 1
        if problems:
            violations.append(
                {
                    "s": str(s_obj),
                    "c": str(c_obj),
                    "twin": str(twin),
                    "problems": problems,
                }
            )
    return _report(
        "couple_trace_suite",
        violations,
        samples=samples,
        seed=seed,
        height=height,
        checked=checked,
        rejected=rejected,
    )
